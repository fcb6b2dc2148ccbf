"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its measured quantities. Tolerances are fixed here, not tuned at
runtime. Heavy artifacts (default-resolution correction tables, the
end-to-end runs) are session-cached fixtures."""
import time
from dataclasses import replace

import numpy as np
import pytest

from magtopt import optimizer as op
from magtopt.cell_problems import (CorrectionTable, PerturbationCase,
                                   build_correction_table, compute_correction,
                                   disc_mesh, eval_correction, solve_direct_variation,
                                   solve_adjoint_variation)
from magtopt.fem import solve_state
from magtopt.material import (NU0, LinearCurve, MarroccoCurve, SplineCurve,
                              flux_jacobian, jacobian_eigenvalues,
                              validate_assumptions)
from magtopt.mesh import (Boundary, Region, TriMesh, _polar_mesh, _ring_edges,
                          _ring_radii, unit_square_mesh)
from magtopt.polarization import matrix_air_in_ferro, matrix_ferro_in_air
from magtopt.problem_setup import (assemble_adjoint_rhs, build_benchmark_problem,
                                   eval_objective)
from magtopt.topo_derivative import assemble_generalized_td
from magtopt import fem
from oracles import (analytic_adjoint_variation, full_matrix_air_in_ferro,
                     full_matrix_ferro_in_air, polarization_disk,
                     polarization_ellipse, polarization_general)

CASE_I = PerturbationCase.AIR_IN_FERRO
CASE_II = PerturbationCase.FERRO_IN_AIR


@pytest.fixture()
def say(capsys):
    def _say(line):
        with capsys.disabled():
            print(line, flush=True)
    return _say


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


@pytest.fixture(scope="session")
def run_tables(marrocco, default_spec):
    """Both correction tables for the end-to-end run: 21-point grid to 2.5 T
    at the default disc resolution."""
    grid = np.linspace(0.0, 2.5, 21)
    t1 = build_correction_table(marrocco, CASE_I, grid, default_spec)
    t2 = build_correction_table(marrocco, CASE_II, grid, default_spec)
    return t1, t2


@pytest.fixture(scope="session")
def end_to_end(marrocco, run_tables):
    """Square benchmark at resolution 32 with and without the correction
    term, same seed and settings; plus the wall time of the full block."""
    t0 = time.perf_counter()
    prob = build_benchmark_problem("square", 32)
    opts = op.OptimizerOptions(kappa_start=0.1, max_iter=400)
    with_j2 = op.run(prob, marrocco, *run_tables, opts)
    without = op.run(prob, marrocco, CorrectionTable.zeros(CASE_I),
                     CorrectionTable.zeros(CASE_II), opts)
    return with_j2, without, time.perf_counter() - t0


def test_criterion_01_polarization_disk_forms(say):
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        R = rotation(rng.uniform(0, np.pi))
        ev = rng.uniform(1.5, 12.0, 2)          # contrast vs I stays definite
        At = R @ np.diag(ev) @ R.T
        P = polarization_general(np.eye(2), At)
        ref = polarization_disk(At, np.pi)
        worst = max(worst, np.abs(P - ref).max() / np.abs(ref).max())
    At = np.array([[3.0, 1.0], [1.0, 6.0]])
    for r in (0.5, 1.0, 2.0):
        d = np.abs(polarization_ellipse(At, r, r)
                   - polarization_disk(At, np.pi * r * r)).max()
        worst = max(worst, d / (np.pi * r * r))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 1.0
    say(f"ACCEPTANCE 01 {'PASS' if ok else 'FAIL'}: disk/ellipse closed forms, "
        f"max rel err {worst:.2e} (tol 1e-12), runtime {dt:.2f}s (< 1s)")
    assert worst <= 1e-12
    assert dt < 1.0


def test_criterion_02_case_closed_form_crosschecks(marrocco, say):
    rng = np.random.default_rng(200)
    worst = 0.0
    for _ in range(20):
        t = rng.uniform(0.1, 3.0)
        ang = rng.uniform(0, 2 * np.pi)
        gu_pt = t * np.array([np.cos(ang), np.sin(ang)])
        lam1, lam2 = (float(v) for v in jacobian_eigenvalues(marrocco, t))
        R = rotation(ang)
        g = np.sqrt(lam1 * lam2)
        ref1 = np.pi * R @ np.diag(
            [(lam2 + g) * (NU0 - lam2) / (NU0 + g),
             (lam1 + g) * (NU0 - lam1) / (NU0 + g)]) @ R.T
        P1 = polarization_general(flux_jacobian(marrocco, gu_pt), NU0 * np.eye(2))
        worst = max(worst, np.abs(P1 - ref1).max() / np.abs(ref1).max())
        ref2 = 2 * np.pi * NU0 * R @ np.diag(
            [(lam2 - NU0) / (lam2 + NU0), (lam1 - NU0) / (lam1 + NU0)]) @ R.T
        P2 = polarization_general(NU0 * np.eye(2), flux_jacobian(marrocco, gu_pt))
        worst = max(worst, np.abs(P2 - ref2).max() / np.abs(ref2).max())
    ok = worst <= 1e-12
    say(f"ACCEPTANCE 02 {'PASS' if ok else 'FAIL'}: anisotropic-background "
        f"closed forms, max rel err {worst:.2e} (tol 1e-12)")
    assert worst <= 1e-12


def test_criterion_03_linear_limit(say):
    worst = 0.0
    for lam in (500.0, 1000.0, 5000.0):
        curve = LinearCurve(nu_linear=lam)
        expected = 2 * np.pi * lam * (NU0 - lam) / (NU0 + lam)
        d1 = matrix_air_in_ferro(curve, np.array([0.4, -1.1]))
        worst = max(worst, abs(d1 - expected) / abs(expected))
    ok = worst <= 1e-12
    say(f"ACCEPTANCE 03 {'PASS' if ok else 'FAIL'}: linear-limit factor d1, "
        f"max rel err {worst:.2e} (tol 1e-12)")
    assert worst <= 1e-12


def test_criterion_04_fem_convergence(say):
    t0 = time.perf_counter()
    errs, hs = [], []
    for n in (16, 32, 64):
        mesh = unit_square_mesh(n)
        cen = mesh.centroids
        f = 2 * np.pi ** 2 * NU0 * np.sin(np.pi * cen[:, 0]) * np.sin(np.pi * cen[:, 1])
        rhs = fem.assemble_rhs_elements(mesh, f, np.zeros((mesh.n_tris, 2)))
        res = solve_state(mesh, LinearCurve(nu_linear=NU0), rhs=rhs)
        gu = mesh.element_gradients(res.field)
        gx = np.pi * np.cos(np.pi * cen[:, 0]) * np.sin(np.pi * cen[:, 1])
        gy = np.pi * np.sin(np.pi * cen[:, 0]) * np.cos(np.pi * cen[:, 1])
        err2 = mesh.areas * ((gu[:, 0] - gx) ** 2 + (gu[:, 1] - gy) ** 2)
        errs.append(float(np.sqrt(err2.sum())))
        hs.append(1.0 / n)
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    dt = time.perf_counter() - t0
    ok = 0.9 <= slope <= 1.1 and dt < 30.0
    say(f"ACCEPTANCE 04 {'PASS' if ok else 'FAIL'}: H1 convergence slope "
        f"{slope:.3f} (in [0.9, 1.1]), runtime {dt:.1f}s (< 30s)")
    assert 0.9 <= slope <= 1.1
    assert dt < 30.0


def test_criterion_05_adjoint_consistency(marrocco, say):
    rng = np.random.default_rng(500)
    prob = build_benchmark_problem("square", 32)
    state = solve_state(prob.mesh, marrocco, levelset=None, sources=prob.sources)
    u = state.field
    gvec = assemble_adjoint_rhs(prob.mesh, u, prob.objective)
    h = 1e-6 * max(1.0, np.abs(u).max())
    worst = 0.0
    for _ in range(5):
        eta = rng.normal(size=prob.mesh.n_nodes)
        eta /= np.abs(eta).max()
        up = u + h * eta
        dn = u - h * eta
        fd = (eval_objective(prob.mesh, up, prob.objective)
              - eval_objective(prob.mesh, dn, prob.objective)) / (2 * h)
        ref = float(gvec @ eta)
        worst = max(worst, abs(fd - ref) / max(abs(ref), 1e-300))
    ok = worst <= 1e-5
    say(f"ACCEPTANCE 05 {'PASS' if ok else 'FAIL'}: objective-derivative "
        f"central-difference check, max rel err {worst:.2e} (tol 1e-5)")
    assert worst <= 1e-5


def test_criterion_06_cell_oracle(marrocco, default_spec, say):
    gu_pt = np.array([1.5, 0.0])
    gp_pt = np.array([0.3, 0.8])
    errs = []
    # the default disc in the middle, h0 halved and n_theta doubled per step
    for spec in (replace(default_spec, h0=0.1, n_theta=64), default_spec,
                 replace(default_spec, h0=0.025, n_theta=256)):
        mesh = disc_mesh(spec)
        K = solve_adjoint_variation(marrocco, gu_pt, gp_pt, CASE_II, mesh)
        exact = analytic_adjoint_variation(marrocco, gu_pt, gp_pt, mesh.nodes)
        lump = np.zeros(mesh.n_nodes)
        np.add.at(lump, mesh.tris.ravel(), np.repeat(mesh.areas / 3.0, 3))
        near = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1]) <= 10.0
        num = np.sqrt((((K - exact) ** 2) * lump)[near].sum())
        den = np.sqrt(((exact ** 2) * lump)[near].sum())
        errs.append(float(num / den))
    pts = np.column_stack([np.geomspace(10.0, 100.0, 40), np.zeros(40)])
    vals = np.abs(analytic_adjoint_variation(marrocco, gu_pt, np.array([1.0, 0.0]), pts))
    slope = float(np.polyfit(np.log(pts[:, 0]), np.log(vals), 1)[0])
    decreasing = errs[0] > errs[1] > errs[2]
    ok = errs[1] <= 0.05 and decreasing and -1.05 <= slope <= -0.95
    say(f"ACCEPTANCE 06 {'PASS' if ok else 'FAIL'}: adjoint-variation oracle, "
        f"near-field L2 errs {errs[0]:.4f} > {errs[1]:.4f} > {errs[2]:.4f} "
        f"(default <= 0.05, strictly decreasing), decay slope {slope:.3f}")
    assert errs[1] <= 0.05
    assert decreasing
    assert -1.05 <= slope <= -0.95


def test_criterion_07_correction_term_properties(marrocco, linear_stub,
                                                 disc_default, say):
    t0 = time.perf_counter()
    gp_pt = np.array([1.0, 0.0])
    worst_rot = 0.0
    for t in (0.8, 1.5, 2.4):
        base = compute_correction(marrocco, np.array([t, 0.0]), gp_pt, CASE_I, disc_default)
        for deg in (30.0, 90.0, 137.0):
            R = rotation(np.deg2rad(deg))
            j = compute_correction(marrocco, R.T @ np.array([t, 0.0]), R.T @ gp_pt,
                           CASE_I, disc_default)
            worst_rot = max(worst_rot, abs(j - base) / abs(base))
    gu_pt = np.array([1.5, 0.0])
    j_a = compute_correction(marrocco, gu_pt, gp_pt, CASE_I, disc_default)
    j_b = compute_correction(marrocco, gu_pt, 2.0 * gp_pt, CASE_I, disc_default)
    lin_err = abs(j_b - 2.0 * j_a) / abs(2.0 * j_a)
    stub = abs(compute_correction(linear_stub, gu_pt, gp_pt, CASE_I, disc_default))
    H0 = solve_direct_variation(marrocco, np.zeros(2), CASE_I, disc_default)
    trivial = float(np.abs(H0).max())
    j_zero = compute_correction(marrocco, np.zeros(2), gp_pt, CASE_I, disc_default)
    dt = time.perf_counter() - t0
    # stub bound: float accumulation only; the nonlinear value at the same
    # inputs is O(1e3), so 1e-6 absolute is ~1e-9 relative to signal scale
    ok = (worst_rot <= 0.02 and lin_err <= 1e-8 and stub <= 1e-6
          and trivial == 0.0 and j_zero == 0.0 and dt < 600.0)
    say(f"ACCEPTANCE 07 {'PASS' if ok else 'FAIL'}: correction-term "
        f"properties, rotation {worst_rot:.2e} (tol 2e-2), linearity "
        f"{lin_err:.2e} (tol 1e-8), stub {stub:.2e} (tol 1e-6 abs), "
        f"trivial {trivial:.1e}, runtime {dt:.0f}s (< 600s)")
    assert worst_rot <= 0.02
    assert lin_err <= 1e-8
    assert stub <= 1e-6
    assert trivial == 0.0 and j_zero == 0.0
    assert dt < 600.0


def test_criterion_08_table_fidelity(marrocco, table1_default, disc_default, say):
    # samples sit in the band where the correction term carries weight;
    # below ~1 T it is orders of magnitude under its peak and the relative
    # metric would only measure interpolation of a steep power-law tail
    rng = np.random.default_rng(800)
    worst = 0.0
    for _ in range(10):
        t = rng.uniform(1.2, 2.9)
        if np.any(np.abs(table1_default.t - t) < 1e-6):
            t += 0.013
        a, b = rng.uniform(0, 2 * np.pi, 2)
        gu_pt = t * np.array([np.cos(a), np.sin(a)])
        gp_pt = rng.uniform(0.5, 2.0) * np.array([np.cos(b), np.sin(b)])
        direct = compute_correction(marrocco, gu_pt, gp_pt, CASE_I, disc_default)
        interp = eval_correction(table1_default, gu_pt, gp_pt)
        worst = max(worst, abs(interp - direct) / abs(direct))
    ok = worst <= 0.03
    say(f"ACCEPTANCE 08 {'PASS' if ok else 'FAIL'}: table vs direct "
        f"correction term, max rel err {worst:.4f} (tol 0.03)")
    assert worst <= 0.03


def test_criterion_09_truncation_robustness(marrocco, disc_default, default_spec,
                                            say):
    gu_pt = np.array([1.0, 0.0])
    gp_pt = np.array([1.0, 0.0])
    j_1000 = compute_correction(marrocco, gu_pt, gp_pt, CASE_I, disc_default)
    spec500 = replace(default_spec, disc_radius=500.0)
    j_500 = compute_correction(marrocco, gu_pt, gp_pt, CASE_I, disc_mesh(spec500))
    rel = abs(j_1000 - j_500) / abs(j_1000)
    ok = rel <= 0.01
    say(f"ACCEPTANCE 09 {'PASS' if ok else 'FAIL'}: truncation radius "
        f"500 vs 1000, rel diff {rel:.2e} (tol 0.01)")
    assert rel <= 0.01


def test_criterion_10_end_to_end(end_to_end, say):
    with_j2, without, dt = end_to_end
    hist = with_j2.objective_history
    dec = all(b < a for a, b in zip(hist, hist[1:]))
    clean = with_j2.status in ("stalled", "converged", "max_iter")
    directional = (without.objective > with_j2.objective) or (without.k < with_j2.k)
    ok = (with_j2.k >= 20 and dec and clean and directional and dt < 900.0)
    say(f"ACCEPTANCE 10 {'PASS' if ok else 'FAIL'}: end-to-end square run, "
        f"{with_j2.k} accepted iterations (>= 20), strictly decreasing "
        f"{dec}, status {with_j2.status}, runtime {dt:.0f}s (< 900s)")
    say(f"              correction-term comparison: enabled J={with_j2.objective:.6e} "
        f"({with_j2.k} its) vs disabled J={without.objective:.6e} "
        f"({without.k} its) -> disabled is "
        f"{'worse/earlier' if directional else 'NOT worse'}")
    assert with_j2.k >= 20
    assert dec
    assert clean
    assert directional
    assert dt < 900.0


def test_criterion_11_assumption_validator(say):
    stub = validate_assumptions(LinearCurve(nu_linear=1000.0))
    s = np.linspace(0.0, 4.0, 40)
    rising = SplineCurve(s, 2000.0 + 3.0e5 * (s / 4.0) ** 2)
    mono = validate_assumptions(rising)
    dipping = SplineCurve(s, 5.0e4 * (1.0 + 0.8 * np.exp(-((s - 1.5) ** 2))))
    warned = validate_assumptions(dipping)
    ok = (stub.delta_nu == 0.0 and stub.admissibility_ok
          and mono.delta_nu >= 0.0 and mono.admissibility_ok
          and not warned.admissibility_ok and len(warned.warnings) > 0)
    say(f"ACCEPTANCE 11 {'PASS' if ok else 'FAIL'}: admissibility validator, "
        f"stub delta {stub.delta_nu:.1f} (pass), monotone delta "
        f"{mono.delta_nu:.3f} (pass), non-monotone delta {warned.delta_nu:.3f} "
        f"(warned, run proceeds)")
    assert stub.delta_nu == 0.0 and stub.admissibility_ok
    assert mono.admissibility_ok
    assert not warned.admissibility_ok
    assert warned.warnings


#: criterion 12's rings beyond the inclusion's neighbourhood: graded from
#: r = 0.01 to the outer circle r = 1, shared by every ε, so the field at the
#: centre does not move with ε
EXPANSION_RINGS = _ring_radii(0.01, 1.0, 0.0025, 1.1)


def expansion_mesh(eps):
    """The unit disc, Dirichlet on its circle, with 64 sectors and rings
    every ε/4 up to 2ε (one at ε, the inclusion's boundary), then the shared
    EXPANSION_RINGS beyond 2ε."""
    radii = np.concatenate([eps / 4.0 * np.arange(1, 9),
                            EXPANSION_RINGS[EXPANSION_RINGS > 2.0 * eps]])
    nodes, tris, ring = _polar_mesh(radii, 64)
    return TriMesh(nodes, tris, np.full(len(tris), Region.AIR_FIXED, dtype=np.int8),
                   _ring_edges(ring[-1]),
                   np.full(64, Boundary.DIRICHLET_OUTER, dtype=np.int8))


def expansion(curve, case, j0, eps, disc, table):
    """One measurement of criterion 12: |grad u0| at the inclusion,
    (J(Ω_ε) - J(Ω)) / ε², and G's matrix term and its correction from
    compute_correction and from the table's lookup (None without a table).
    Ω is ferro where the centroid radius is below 0.7 (case I) or empty
    (case II); a coil of current density j0 cos θ on 0.75 < r < 0.85 gives a
    nearly uniform field at the centre; J = 1/2 sum A_e mean_e(u)^2 over
    0.3 < r < 0.5; the perturbed design flips the elements with centroid
    radius below ε."""
    mesh = expansion_mesh(eps)
    r = np.hypot(mesh.centroids[:, 0], mesh.centroids[:, 1])
    theta = np.arctan2(mesh.centroids[:, 1], mesh.centroids[:, 0])
    inclusion = r < eps
    jz = np.where((r > 0.75) & (r < 0.85), j0 * np.cos(theta), 0.0)
    rhs = fem.assemble_rhs_elements(mesh, jz, np.zeros((mesh.n_tris, 2)))
    weight = np.where((r > 0.3) & (r < 0.5), mesh.areas, 0.0)
    ferro = (r < 0.7) if case is CASE_I else np.zeros(mesh.n_tris, dtype=bool)
    state = solve_state(mesh, curve, rhs=rhs, ferro_mask=ferro)
    flipped = solve_state(mesh, curve, rhs=rhs, ferro_mask=ferro ^ inclusion)
    mean = state.field[mesh.tris].mean(axis=1)
    dj = (0.5 * np.sum(weight * flipped.field[mesh.tris].mean(axis=1) ** 2)
          - 0.5 * np.sum(weight * mean ** 2))
    dj_du = np.bincount(mesh.tris.ravel(), weights=np.repeat(weight * mean / 3.0, 3),
                        minlength=mesh.n_nodes)
    p = fem.solve_adjoint(state, -dj_du)
    w = mesh.areas[inclusion] / mesh.areas[inclusion].sum()
    gu, gp = (w @ mesh.element_gradients(x)[inclusion] for x in (state.field, p))
    factor, full = ((matrix_air_in_ferro, full_matrix_air_in_ferro) if case is CASE_I
                    else (matrix_ferro_in_air, full_matrix_ferro_in_air))
    d1, M = factor(curve, gu), full(curve, gu)
    e = gu / np.hypot(*gu)
    assert abs(d1 - e @ M @ e) <= 1e-12 * abs(d1)
    return (float(np.hypot(*gu)), dj / eps ** 2, d1 * (gu @ gp),
            compute_correction(curve, gu, gp, case, disc),
            None if table is None else table.lookup(gu, gp)[0])


def test_criterion_12_topological_expansion(marrocco, disc_default, default_spec,
                                            table1_default, say):
    """The paper's expansion J(Ω_ε) - J(Ω) = ε² G + o(ε²), with G the matrix
    term grad u0 . M grad p0 plus the nonlinear correction, at about 3 T,
    where the correction is needed: without it the ratio misses 1 by 0.3 or
    more. The correction comes from compute_correction on the default disc
    and, as a second variant, from the lookup of a default-disc table with
    the default 0.05 T spacing, at a t inside the table's range.

    The matrix term is the library's d1 times grad u0 . grad p0; d1 is
    asserted equal to the eigenvalue along grad u0 of tests/oracles.py's
    full case matrix to 1e-12. d1 is exactly where the case matrices differ
    from the oracle's polarization_general: their contrast factor is
    (nu0 - lam1) in case I and (lam1 - nu0) in case II, where the oracle
    has lam2 (lam1 = nu(t), lam2 = (nu(s) s)' at t = |grad u0|). At 3 T the
    two are close in case I, so a third case-I measurement at about 4.6 T,
    beyond the table's range, uses the full G from compute_correction only:
    there lam2 departs from lam1 and a (nu0 - lam2) factor misses 1 by more
    than 1."""
    t0 = time.perf_counter()
    table2 = build_correction_table(marrocco, CASE_II, np.linspace(0.0, 3.2, 65),
                                    default_spec)
    lines, ok = [], True
    for case, j0, table in ((CASE_I, 1.2e8, table1_default),
                            (CASE_II, 1.75e8, table2),
                            (CASE_I, 2.0e8, None)):
        for eps in (0.02, 0.01):
            t, dj, matrix, corr, corr_table = expansion(marrocco, case, j0, eps,
                                                        disc_default, table)
            full = dj / (matrix + corr)
            alone = dj / matrix
            ok &= abs(full - 1.0) <= 0.02 and abs(alone - 1.0) >= 0.3
            line = (f"case {case.value} at {t:.2f} T, eps {eps}: ratio "
                    f"{full:.4f} full G, ")
            if table is None:
                ok &= t > table1_default.t[-1]
            else:
                tabled = dj / (matrix + corr_table)
                ok &= abs(tabled - 1.0) <= 0.02 and t < table.t[-1]
                line += f"{tabled:.4f} table G, "
            lines.append(line + f"{alone:.4f} matrix term alone")
    dt = time.perf_counter() - t0
    ok &= dt < 10.0
    say(f"ACCEPTANCE 12 {'PASS' if ok else 'FAIL'}: expansion (J_eps - J) / "
        f"(eps^2 G) within 0.02 of 1 with the full G, >= 0.3 off with the matrix "
        f"term alone, runtime {dt:.1f}s (< 10s)")
    for line in lines:
        say(f"              {line}")
    assert ok


def test_criterion_13_table_error_budget(marrocco, default_spec, say):
    """The paper's main ingredient, a sufficiently fast decay of the direct
    variation as |x| -> infinity, shows as a truncation error that falls
    as R^-p with p about 2. Each sample is the t row of a two-point table
    from build_correction_table, the quarter-disc code that builds the
    tables, at t = 1.5 and 2.5 T in both cases.

    Truncation: R = 50, 200 and 1000 on the default mesh give p, and the
    Richardson estimate q (j200 - j1000) / (1 - q), q = 0.2^p, of the
    R = 1000 error. Discretization: h0 / n_theta = 0.1/64, 0.05/128 (the
    default) and 0.025/256 at R = 1000 give the observed mesh order, and
    the default mesh's Richardson error is reported unbounded."""
    t0 = time.perf_counter()

    def sample(case, t, **spec):
        return build_correction_table(marrocco, case, [0.0, t],
                                      replace(default_spec, **spec)).j2_e1[1]

    lines, ok = [], True
    for case in (CASE_I, CASE_II):
        for t in (1.5, 2.5):
            j50, j200, j1000 = (sample(case, t, disc_radius=r)
                                for r in (50.0, 200.0, 1000.0))
            p = np.log((j50 - j1000) / (j200 - j1000)) / np.log(4.0)
            q = 0.2 ** p
            truncation = abs(q * (j200 - j1000) / (1.0 - q) / j1000)
            coarse = sample(case, t, h0=0.1, n_theta=64)
            fine = sample(case, t, h0=0.025, n_theta=256)
            order = np.log2((coarse - j1000) / (j1000 - fine))
            r = 2.0 ** order
            mesh_error = abs((j1000 - fine) * r / (r - 1.0) / j1000)
            ok &= 1.8 <= p <= 2.2 and truncation <= 1e-4 and order >= 1.3
            lines.append(f"case {case.value} at {t} T: truncation exponent "
                         f"{p:.3f}, R = 1000 error {truncation:.1e}; mesh order "
                         f"{order:.2f}, default-mesh error {mesh_error:.1e}")
    dt = time.perf_counter() - t0
    ok &= dt < 3.0
    say(f"ACCEPTANCE 13 {'PASS' if ok else 'FAIL'}: table error budget, truncation "
        f"exponent in [1.8, 2.2], R = 1000 truncation error <= 1e-4 relative, mesh "
        f"order >= 1.3, runtime {dt:.1f}s (< 3s)")
    for line in lines:
        say(f"              {line}")
    assert ok


def test_criterion_14_lookup_error_in_f(marrocco, default_spec, table1_default,
                                        table2_default, say):
    """The table lookup's error in the descent's terms. Each element's
    sensitivity is sign F(t) (grad u . grad p), F(t) = d1(t) + j2(t)/t at
    t = |grad u|, so a table's error reaches the descent as F's relative
    error, not j2's. Fresh samples at every third midpoint of the default
    61-point grid, built with build_correction_table on those midpoints,
    give F; d1 plus the default table's lookup is compared with it, for
    both cases on the default disc. The same samples continue to 3.5 and
    3.99 T, beyond the grid, where the lookup clamps; that error is
    reported unbounded."""
    t0 = time.perf_counter()
    lines, ok = [], True
    for case, table, d1, bound in (
            (CASE_I, table1_default, matrix_air_in_ferro, 1.5e-3),
            (CASE_II, table2_default, matrix_ferro_in_air, 2e-4)):
        mids = (0.5 * (table.t[1:] + table.t[:-1]))[::3]
        fresh = build_correction_table(marrocco, case, [0.0, *mids, 3.5, 3.99],
                                       default_spec)
        t = fresh.t[1:]
        gu = np.column_stack([t, np.zeros_like(t)])
        d1_t = d1(marrocco, gu)
        exact = d1_t + fresh.j2_e1[1:] / t
        # grad p = e1 / t makes grad u . grad p = 1, so the lookup is j2 / t
        looked_up = d1_t + table.lookup(gu, gu / (t * t)[:, None])[0]
        err = np.abs(looked_up - exact) / np.abs(exact)
        worst = int(np.argmax(err[:-2]))
        ok &= err[worst] <= bound
        lines.append(f"case {case.value}: max rel err {err[worst]:.2e} at "
                     f"{t[worst]:.3f} T (tol {bound:g}); clamped "
                     f"{err[-2]:.3f} at 3.5 T, {err[-1]:.3f} at 3.99 T")
    dt = time.perf_counter() - t0
    ok &= dt < 1.0
    say(f"ACCEPTANCE 14 {'PASS' if ok else 'FAIL'}: default table lookup vs "
        f"fresh samples at every third grid midpoint, error in F = d1 + j2/t "
        f"within its bound per case, runtime {dt:.2f}s (< 1s)")
    for line in lines:
        say(f"              {line}")
    assert ok


def test_criterion_15_single_flip_prediction(marrocco, table1_default,
                                            table2_default, say):
    """The correction term where the descent uses it. At square/32's
    all-ferro design, the 12 design elements with the most negative
    predicted flip (area / pi times the element's sensitivity, as the
    stall log reads it) are flipped one at a time; each flip's realized
    change of J comes from a state solve started at the design's field.
    The ratio realized / predicted is not 1 even for a linear law (a
    flipped P1 triangle is not a small disc), so the prediction with the
    default tables' j2 is compared with the one with zero tables: with j2,
    |log(realized / predicted)| must be smaller for every flip, and its
    median smaller by at least 0.5 (0.99 against 1.54 when set). All 12
    flips are ferro-to-air, so this checks case I only."""
    t0 = time.perf_counter()
    prob = build_benchmark_problem("square", 32)
    mesh = prob.mesh
    driver = op.Driver(prob, marrocco, table1_default, table2_default)
    mask = fem.ferro_element_mask(mesh)
    state, j = driver.solve(mask)
    # one adjoint for both predictions, so that they differ by j2 alone
    p = fem.solve_adjoint(state, -assemble_adjoint_rhs(mesh, state.field,
                                                       prob.objective))
    weight = mesh.areas[driver.space.elements] / np.pi
    predicted = [weight * assemble_generalized_td(state, p, *tables).element_values
                 for tables in ((table1_default, table2_default),
                                (CorrectionTable.zeros(CASE_I),
                                 CorrectionTable.zeros(CASE_II)))]
    top = np.argsort(predicted[0])[:12]
    realized = []
    for e in driver.space.elements[top]:
        flipped = mask.copy()
        flipped[e] = False
        realized.append(driver.solve(flipped, state.field)[1] - j)
    ratios = [realized / p[top] for p in predicted]
    # a prediction of the wrong sign is off by an infinite factor
    err_j2, err_zero = (np.where(r > 0, np.abs(np.log(np.abs(r))), np.inf)
                        for r in ratios)
    margin = np.median(err_zero) - np.median(err_j2)
    dt = time.perf_counter() - t0
    ok = bool(np.all(err_j2 < err_zero)) and margin >= 0.5 and dt < 1.0
    say(f"ACCEPTANCE 15 {'PASS' if ok else 'FAIL'}: single-flip prediction on "
        f"square/32, |log(realized/predicted)| smaller with j2 than with zero "
        f"tables in {np.count_nonzero(err_j2 < err_zero)} of 12 flips (12 needed), "
        f"median {np.median(err_j2):.3f} against {np.median(err_zero):.3f} "
        f"(margin >= 0.5), runtime {dt:.2f}s (< 1s)")
    for name, r in zip(("with j2", "zero tables"), ratios):
        say(f"              realized/predicted {name}: "
            + " ".join(f"{v:.3f}" for v in r))
    assert ok
