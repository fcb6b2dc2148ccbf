import dataclasses
import re

import numpy as np
import pytest
from scipy.spatial import cKDTree

from magtopt import cell_problems, fem, material
from magtopt.fem import SolverError
from magtopt.cell_problems import (CorrectionTable, PerturbationCase,
                                   build_correction_table, compute_correction,
                                   disc_mesh, eval_correction, load_table, save_table,
                                   solve_direct_variation, solve_adjoint_variation)
from magtopt.material import NU0, LinearCurve
from magtopt.mesh import DiscSpec, Region
from oracles import analytic_adjoint_variation

CASE_I = PerturbationCase.AIR_IN_FERRO
CASE_II = PerturbationCase.FERRO_IN_AIR
RNG = np.random.default_rng(9)
#: a small disc for the tests that check the solvers rather than the tables
SMALL_SPEC = DiscSpec(disc_radius=200.0, h0=0.2, growth=1.15, n_theta=32)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestSolveH:
    def test_zero_gradient_trivial(self, marrocco, disc_coarse):
        H = solve_direct_variation(marrocco, np.zeros(2), CASE_I, disc_coarse)
        assert np.all(H == 0.0)

    def test_linear_stub_matches_dipole_oracle(self, linear_stub, disc_coarse):
        # oracle: solve the 2x2 interface system (continuity + flux jump)
        # for H = a (gu_pt.x) inside, b (gu_pt.x)/|x|^2 outside
        nu1 = linear_stub.nu_linear
        A = np.array([[1.0, -1.0], [NU0, nu1]])
        rhs = np.array([0.0, nu1 - NU0])
        a, b = np.linalg.solve(A, rhs)
        gu_pt = np.array([1.0, 0.0])
        H = solve_direct_variation(linear_stub, gu_pt, CASE_I, disc_coarse)
        pts = disc_coarse.nodes
        r2 = np.maximum((pts ** 2).sum(1), 1e-300)
        exact = np.where(r2 <= 1.0, a * pts[:, 0], b * pts[:, 0] / r2)
        err = np.linalg.norm(H - exact) / np.linalg.norm(exact)
        assert err < 5e-3  # truncation at R=1000 plus discretization

    def test_rotation_equivariance_pointwise(self, marrocco, disc_coarse):
        gu_pt = np.array([1.5, 0.0])
        th = np.deg2rad(90.0)  # mesh-exact rotation keeps FEM error out
        R = rotation(th)
        H1 = solve_direct_variation(marrocco, gu_pt, CASE_I, disc_coarse)
        H2 = solve_direct_variation(marrocco, R.T @ gu_pt, CASE_I, disc_coarse)
        # the rotation maps every node x onto the node R x
        dist, image = cKDTree(disc_coarse.nodes).query(disc_coarse.nodes @ R.T)
        assert dist.max() <= 1e-12
        assert H2 == pytest.approx(H1[image], rel=1e-6, abs=1e-12)

    def test_nonconvergence_raises_with_residual(self, marrocco, disc_coarse,
                                                 monkeypatch):
        monkeypatch.setattr(fem, "MAX_NEWTON", 1)
        with pytest.raises(SolverError) as exc:
            solve_direct_variation(marrocco, [2.0, 0.0], CASE_I, disc_coarse)
        assert exc.value.residual_norm is not None
        assert exc.value.residual_norm > 0

    def test_decay_slope(self, marrocco, disc_default):
        H = solve_direct_variation(marrocco, np.array([1.5, 0.0]), CASE_I, disc_default)
        r = np.hypot(disc_default.nodes[:, 0], disc_default.nodes[:, 1])
        radii = np.unique(np.round(r, 9))
        radii = radii[(radii >= 10.0) & (radii <= 100.0)]
        peak = [np.abs(H[np.isclose(r, rr)]).max() for rr in radii]
        slope = np.polyfit(np.log(radii), np.log(peak), 1)[0]
        assert slope <= -0.5


class TestSolveK:
    def test_zero_adjoint_gradient(self, marrocco, disc_coarse):
        K = solve_adjoint_variation(marrocco, np.array([1.0, 0.0]), np.zeros(2), CASE_I, disc_coarse)
        assert np.all(K == 0.0)

    def test_linearity_in_v0(self, marrocco, disc_coarse):
        gu_pt = np.array([1.2, 0.4])
        P1, P2 = np.array([1.0, 0.0]), np.array([0.3, -0.8])
        a, b = 2.0, -1.5
        k1 = solve_adjoint_variation(marrocco, gu_pt, P1, CASE_II, disc_coarse)
        k2 = solve_adjoint_variation(marrocco, gu_pt, P2, CASE_II, disc_coarse)
        k12 = solve_adjoint_variation(marrocco, gu_pt, a * P1 + b * P2, CASE_II, disc_coarse)
        scale = np.abs(k12).max()
        np.testing.assert_allclose(k12, a * k1 + b * k2,
                                   atol=1e-10 * scale, rtol=1e-9)

    def test_case2_matches_analytic_near_field(self, marrocco, disc_coarse):
        gu_pt = np.array([1.5, 0.0])
        gp_pt = np.array([0.3, 0.8])
        K = solve_adjoint_variation(marrocco, gu_pt, gp_pt, CASE_II, disc_coarse)
        exact = analytic_adjoint_variation(marrocco, gu_pt, gp_pt, disc_coarse.nodes)
        r = np.hypot(disc_coarse.nodes[:, 0], disc_coarse.nodes[:, 1])
        lump = np.zeros(disc_coarse.n_nodes)
        np.add.at(lump, disc_coarse.tris.ravel(),
                  np.repeat(disc_coarse.areas / 3.0, 3))
        near = r <= 10.0
        num = np.sqrt((((K - exact) ** 2) * lump)[near].sum())
        den = np.sqrt(((exact ** 2) * lump)[near].sum())
        assert num / den < 0.05


class TestAnalyticKCase2:
    def test_continuity_across_interface(self, marrocco):
        gu_pt = np.array([1.1, 0.6])
        gp_pt = np.array([-0.4, 0.9])
        th = np.linspace(0, 2 * np.pi, 100, endpoint=False)
        inner = 0.9999999 * np.column_stack([np.cos(th), np.sin(th)])
        outer = 1.0000001 * np.column_stack([np.cos(th), np.sin(th)])
        vi = analytic_adjoint_variation(marrocco, gu_pt, gp_pt, inner)
        vo = analytic_adjoint_variation(marrocco, gu_pt, gp_pt, outer)
        np.testing.assert_allclose(vi, vo, atol=1e-6 * np.abs(vi).max())

    def test_decay_slope_is_minus_one(self, marrocco):
        pts = np.column_stack([np.geomspace(10.0, 100.0, 30), np.zeros(30)])
        vals = np.abs(analytic_adjoint_variation(marrocco, np.array([1.5, 0.0]),
                                       np.array([1.0, 0.0]), pts))
        slope = np.polyfit(np.log(pts[:, 0]), np.log(vals), 1)[0]
        assert -1.05 <= slope <= -0.95

    def test_zero_adjoint(self, marrocco):
        out = analytic_adjoint_variation(marrocco, np.array([1.0, 0.0]), np.zeros(2),
                               np.array([0.5, 0.5]))
        assert out == 0.0


class TestComputeJ2:
    def test_linear_stub_vanishes(self, linear_stub, disc_coarse):
        j = compute_correction(linear_stub, np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                       CASE_I, disc_coarse)
        assert abs(j) < 1e-6

    def test_zero_gradient(self, marrocco, disc_coarse):
        j = compute_correction(marrocco, np.zeros(2), np.array([1.0, 0.0]),
                       CASE_I, disc_coarse)
        assert j == 0.0

    @pytest.mark.parametrize("case", [CASE_I, CASE_II])
    def test_rotation_invariance(self, marrocco, disc_coarse, case):
        gu_pt = np.array([1.5, 0.0])
        gp_pt = np.array([1.0, 0.0])
        base = compute_correction(marrocco, gu_pt, gp_pt, case, disc_coarse)
        for deg in (30.0, 90.0, 137.0):
            R = rotation(np.deg2rad(deg))
            j = compute_correction(marrocco, R.T @ gu_pt, R.T @ gp_pt, case, disc_coarse)
            assert abs(j - base) <= 0.02 * abs(base)

    def test_scaling_in_v0(self, marrocco, disc_coarse):
        gu_pt = np.array([1.5, 0.0])
        gp_pt = np.array([0.6, 0.4])
        j1 = compute_correction(marrocco, gu_pt, gp_pt, CASE_I, disc_coarse)
        j2 = compute_correction(marrocco, gu_pt, 2.0 * gp_pt, CASE_I, disc_coarse)
        assert j2 == pytest.approx(2.0 * j1, rel=1e-8)

    def test_angle_difference_only(self, marrocco, disc_coarse):
        # J2(t R_a e1, s R_b e1) depends on (t, s, b - a) only
        t, s, diff = 1.5, 0.8, np.deg2rad(25.0)
        vals = []
        for a in np.deg2rad([0.0, 40.0, 110.0]):
            gu_pt = t * np.array([np.cos(a), np.sin(a)])
            gp_pt = s * np.array([np.cos(a + diff), np.sin(a + diff)])
            vals.append(compute_correction(marrocco, gu_pt, gp_pt, CASE_I, disc_coarse))
        vals = np.array(vals)
        assert np.ptp(vals) <= 0.02 * np.abs(vals).max()


class TestTables:
    def test_zero_row_and_grid_echo(self, marrocco):
        grid = np.array([0.0, 0.8, 1.6])
        table = build_correction_table(marrocco, CASE_I, grid, SMALL_SPEC)
        np.testing.assert_array_equal(table.t, grid)
        assert table.j2_e1[0] == 0.0

    def test_linear_stub_all_zero(self, linear_stub):
        grid = np.array([0.0, 1.0, 2.0])
        table = build_correction_table(linear_stub, CASE_I, grid, SMALL_SPEC)
        assert np.abs(table.j2_e1).max() < 1e-9

    def test_e2_column_is_symmetry_zero(self, tables_coarse):
        # the file format's e2 column: read-only zeros shaped like the grid
        t1, _ = tables_coarse
        assert t1.j2_e2.shape == t1.t.shape and not t1.j2_e2.any()
        with pytest.raises(ValueError, match="read-only"):
            t1.j2_e2[1] = 1.0

    def test_csv_roundtrip_bit_identical(self, tmp_path, tables_coarse):
        t1, _ = tables_coarse
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_table(p1, t1, config_hash="deadbeef")
        back = load_table(p1)
        save_table(p2, back, config_hash="deadbeef")
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(back.t, t1.t)
        np.testing.assert_array_equal(back.j2_e1, t1.j2_e1)
        assert back.case is t1.case
        assert back.curve_hash == t1.curve_hash

    @pytest.mark.parametrize("header, missing", [
        ("", "case, radius, h0, curve"),
        ("# case=II radius=100\n", "h0, curve"),
    ])
    def test_header_metadata_required(self, tmp_path, header, missing):
        p = tmp_path / "bare.csv"
        p.write_text(header + "t,j2_e1,j2_e2\n0,0,0\n1,0.5,0\n")
        with pytest.raises(ValueError, match=missing):
            load_table(p)

    @pytest.mark.parametrize("header, body, message", [
        ("# case=I radius=100 h0=0.3 curve=x\n", "", ": empty table"),
        ("# case=I radius=100 h0=0.3 curve=x\n", "0,0,0\n1,0.5\n",
         r": line 4: bad row \['1', '0.5'\]$"),
        ("# case=III radius=100 h0=0.3 curve=x\n", "0,0,0\n", "'III'"),
        ("# case=I radius=100 h0=0.3 curve=x\n", "0,0,0\nnan,0.5,0\n2,0.1,0\n",
         r": line 4: bad row \['nan', '0.5', '0'\]$"),
        ("# case=I radius=100 h0=0.3 curve=x\n", "0,0,0\n1,nan,0\n",
         r": line 4: bad row \['1', 'nan', '0'\]$"),
        ("# case=I radius=100 h0=0.3 curve=x\n", "0,0,0\n1,0.5,inf\n",
         r": line 4: bad row \['1', '0.5', 'inf'\]$"),
        ("# case=I radius=100 h0=0.3 curve=x\n", "0,0,0\n1,0.5,1e-3\n",
         ": j2_e2 = 0.001 at t = 1 is not zero: the lookup has no e2 term, "
         "so rebuild the table"),
    ], ids=["header_only", "short_row", "unknown_case", "nan_grid", "nan_j2",
            "inf_j2", "nonzero_e2"])
    def test_malformed_file_names_path(self, tmp_path, header, body, message):
        p = tmp_path / "bad.csv"
        p.write_text(header + "t,j2_e1,j2_e2\n" + body)
        with pytest.raises(ValueError, match=message) as exc:
            load_table(p)
        assert str(exc.value).startswith(str(p))

    def test_table_invariants_enforced(self):
        with pytest.raises(ValueError):
            CorrectionTable(CASE_I, np.array([0.5, 1.0]), np.zeros(2),
                            1000.0, 0.05, "x")
        with pytest.raises(ValueError):
            CorrectionTable(CASE_I, np.array([]), np.array([]), 1000.0, 0.05, "x")
        # arrays built in memory, which no file reader has checked
        with pytest.raises(ValueError, match="strictly increasing, without NaN"):
            CorrectionTable(CASE_I, [0.0, np.nan, 2.0], [0.0, 0.5, 0.1],
                            1000.0, 0.05, "x")
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="table j2 values must be finite"):
                CorrectionTable(CASE_I, [0.0, 1.0], [0.0, bad], 1000.0, 0.05, "x")

    @pytest.mark.parametrize("t, j2_e1, shapes", [
        ([0.0, 1.0, 2.0], [0.0, 1.0], "t has shape (3,) and j2_e1 (2,)"),
        ([0.0, 1.0], [[0.0, 1.0], [0.0, 1.0]], "t has shape (2,) and j2_e1 (2, 2)"),
        ([[0.0, 1.0]], [[0.0, 1.0]], "t has shape (1, 2) and j2_e1 (1, 2)")],
        ids=["short_j2", "2d_j2", "2d_t"])
    def test_shape_mismatch_names_both_shapes(self, t, j2_e1, shapes):
        with pytest.raises(ValueError, match=re.escape(
                f"table grid {shapes}: t must be 1-D and j2_e1 shaped like it")):
            CorrectionTable(CASE_I, t, j2_e1, 1000.0, 0.05, "x")

    def test_bad_grid_rejected(self, marrocco, monkeypatch):
        # CorrectionTable's grid rules, applied before the first solve
        calls = []
        monkeypatch.setattr(fem, "factorize", lambda A: calls.append(A))
        for grid, match in (([0.0, 2.0, 1.0], "strictly increasing"),
                            ([0.0, np.nan, 1.0], "strictly increasing"),
                            ([0.5, 1.0], "zero row"), ([], "empty table")):
            with pytest.raises(ValueError, match=match):
                build_correction_table(marrocco, CASE_I, np.array(grid),
                                       SMALL_SPEC)
        assert calls == []


class TestEvalJ2:
    def test_zero_inputs(self, tables_coarse):
        t1, _ = tables_coarse
        assert eval_correction(t1, np.zeros(2), np.array([1.0, 0.0])) == 0.0
        assert eval_correction(t1, np.array([1.0, 0.0]), np.zeros(2)) == 0.0

    def test_grid_node_aligned_angles(self, tables_coarse):
        t1, _ = tables_coarse
        i = 6
        t = t1.t[i]
        th = np.deg2rad(33.0)
        gu_pt = t * np.array([np.cos(th), np.sin(th)])
        gp_pt = 2.5 * np.array([np.cos(th), np.sin(th)])  # phi = theta
        expected = 2.5 * t1.j2_e1[i]
        assert eval_correction(t1, gu_pt, gp_pt) == pytest.approx(expected, rel=1e-12)

    def test_lookup_counts_clamped(self, tables_coarse):
        t1, _ = tables_coarse
        t = np.array([t1.t[-1] + 1.0, t1.t[-1], 0.5])
        dot = np.ones_like(t)
        # the last grid point itself is inside the grid
        assert t1.lookup(t, dot)[1] == 1
        assert CorrectionTable.zeros(CASE_I).lookup(t, dot)[1] == 0

    def test_stack_matches_pointwise(self, tables_coarse):
        t1, _ = tables_coarse
        rng = np.random.default_rng(5)
        gu = rng.normal(scale=1.5, size=(12, 2))
        gp = rng.normal(size=(12, 2))
        gu[0] = 0.0
        gp[1] = 0.0
        gu[2] = [t1.t[-1] + 0.7, -0.4]
        t = np.hypot(gu[:, 0], gu[:, 1])
        vals, n_clamped = t1.lookup(t, np.einsum("ei,ei->e", gu, gp))
        assert vals.shape == (12,)
        expected = [eval_correction(t1, a, b) for a, b in zip(gu, gp)]
        np.testing.assert_allclose(vals, expected, rtol=1e-14, atol=0.0)
        beyond = t > t1.t[-1]
        assert n_clamped == beyond.sum() >= 1

    def test_angle_decomposition_against_direct(self, marrocco, tables_coarse,
                                                disc_coarse):
        # t sits near grid nodes so the coarse-grid t-interpolation error is
        # negligible; this isolates the angular decomposition. The interp
        # density claim is covered by the acceptance table-fidelity test.
        t1, _ = tables_coarse
        rng = np.random.default_rng(21)
        for _ in range(5):
            t = t1.t[rng.integers(5, len(t1.t) - 1)] + 0.002
            a = rng.uniform(0, 2 * np.pi)
            b = rng.uniform(0, 2 * np.pi)
            gu_pt = t * np.array([np.cos(a), np.sin(a)])
            gp_pt = rng.uniform(0.5, 2.0) * np.array([np.cos(b), np.sin(b)])
            direct = compute_correction(marrocco, gu_pt, gp_pt, CASE_I, disc_coarse)
            interp = eval_correction(t1, gu_pt, gp_pt)
            assert interp == pytest.approx(direct, rel=0.03)

    @pytest.mark.parametrize("case, bound", [(CASE_I, 1e-6), (CASE_II, 1e-12)])
    def test_rotated_pairs_match_full_disc(self, marrocco, disc_coarse,
                                           coarse_spec, case, bound):
        # the one-column lookup against full-disc solves at pairs that no
        # mesh symmetry aligns (the coarse disc's angles are multiples of
        # pi/32), on a table whose one nonzero sample is t itself, solved on
        # the quarter of that disc
        t = 2.0
        assert disc_mesh(coarse_spec) is disc_coarse
        table = build_correction_table(marrocco, case, [0.0, t], coarse_spec)
        for a, b in ((0.3, 1.1), (2.0, -0.5), (-1.2, 2.9)):
            gu_pt = t * np.array([np.cos(a), np.sin(a)])
            gp_pt = np.array([np.cos(b), np.sin(b)])
            direct = compute_correction(marrocco, gu_pt, gp_pt, case, disc_coarse)
            assert abs(eval_correction(table, gu_pt, gp_pt) - direct) \
                <= bound * abs(table.j2_e1[1])

    def test_disabled_table_evaluates_to_zero(self):
        z = CorrectionTable.zeros(CASE_I)
        assert eval_correction(z, np.array([1.3, 0.2]), np.array([0.5, 0.5])) == 0.0


class TestTruncation:
    def test_radius_500_vs_1000(self, marrocco, coarse_spec):
        # coarse angular/h0 settings; the truncation effect is what varies
        s500 = dataclasses.replace(coarse_spec, disc_radius=500.0)
        assert coarse_spec.disc_radius == 1000.0
        gu_pt = np.array([1.0, 0.0])
        gp_pt = np.array([1.0, 0.0])
        ja = compute_correction(marrocco, gu_pt, gp_pt, CASE_I,
                                disc_mesh(coarse_spec))
        jb = compute_correction(marrocco, gu_pt, gp_pt, CASE_I, disc_mesh(s500))
        assert abs(ja - jb) <= 0.01 * abs(ja)


class TestSaturation:
    @pytest.mark.parametrize("case", [CASE_I, CASE_II])
    def test_samples_converge_at_14_and_20_T(self, marrocco, coarse_spec, case):
        # past about 10 T the contrast nu_air - nu(t), and with it the
        # direct variation's right-hand side, vanishes while the residual's
        # round-off floor stays near nu_air t; case I stalled there against
        # a tolerance relative to the right-hand side alone
        j14, j20 = (build_correction_table(marrocco, case, [0.0, t],
                                           coarse_spec).j2_e1[1]
                    for t in (14.0, 20.0))
        # the law turns into air, and the correction with it
        assert 0.0 < abs(j20) < abs(j14)

    @pytest.mark.parametrize("case", [CASE_I, CASE_II])
    def test_direct_variation_meets_the_saturation_tolerance(self, marrocco,
                                                             disc_coarse, case):
        # the residual recomputed from the returned field against the exit
        # rule, whose relative part grows as the contrast c vanishes
        grad_u = np.array([14.0, 0.0])
        h = solve_direct_variation(marrocco, grad_u, case, disc_coarse)
        inclusion = disc_coarse.region == Region.DESIGN
        nonlin = ~inclusion if case is CASE_I else inclusion
        contrast = marrocco.nu_air - float(marrocco.nu(14.0))
        f_el = np.zeros((disc_coarse.n_tris, 2))
        f_el[inclusion] = (-1.0 if case is CASE_I else 1.0) * contrast * grad_u
        rhs = fem.assemble_flux_divergence(disc_coarse, f_el)
        g = disc_coarse.element_gradients(h)
        flux = marrocco.nu_air * g
        flux[nonlin] = (material.flux_map(marrocco, grad_u + g[nonlin])
                        - material.flux_map(marrocco, grad_u))
        r = fem.assemble_flux_divergence(disc_coarse, flux) - rhs
        free = np.setdiff1d(np.arange(disc_coarse.n_nodes),
                            disc_coarse.dirichlet_nodes())
        scale = 1e-2 * marrocco.nu_air / abs(contrast)
        assert scale > 1.0
        assert np.linalg.norm(r[free]) <= \
            1e-14 + fem.TOL_REL * scale * np.linalg.norm(rhs[free])


class TestTableSample:
    def test_h0_factorization_shared(self, marrocco, monkeypatch):
        # the first Newton step of the direct variation and the adjoint
        # variation share one factorization of the h = 0 Jacobian; at 3 T,
        # deep in saturation, the direct solve also factorizes a later
        # Jacobian, so the sharing is seen next to the lagged factorizations
        quarter = cell_problems._quarter(disc_mesh(SMALL_SPEC))
        grad_u, e1 = np.array([3.0, 0.0]), np.array([1.0, 0.0])
        calls = []
        factorize = fem.factorize

        def counted(A):
            calls.append(A)
            return factorize(A)

        monkeypatch.setattr(fem, "factorize", counted)
        direct = solve_direct_variation(marrocco, grad_u, CASE_I, quarter)
        n_direct = len(calls)
        adjoint = solve_adjoint_variation(marrocco, grad_u, e1, CASE_I, quarter)
        _, nonlin, _ = cell_problems._sides(quarter, CASE_I)
        gh = quarter.element_gradients(direct)[nonlin]
        gk = quarter.element_gradients(adjoint)[nonlin]
        s_el = material.nonlinearity(marrocco, np.broadcast_to(grad_u, gh.shape), gh)
        separate = 4.0 * float(np.einsum("e,ei,ei->", quarter.areas[nonlin],
                                         s_el, e1 + gk))
        calls.clear()
        shared = cell_problems._table_chain(marrocco, CASE_I, SMALL_SPEC, [3.0],
                                            0, 1)[0]
        assert n_direct >= 2
        assert len(calls) == n_direct
        assert shared == separate

    def test_no_lu_alive_when_a_factorization_starts(self, marrocco,
                                                     monkeypatch):
        # at most one LU of the disc at a time: where the direct solve of
        # the quarter disc at 3 T falls back to factorizing a later
        # Jacobian, the h = 0 LU it started from is already dropped
        quarter = cell_problems._quarter(disc_mesh(SMALL_SPEC))
        alive, at_start = [0], []
        factorize = fem.factorize

        class Counted:
            """An LU that counts itself alive until it is collected."""

            def __init__(self, lu):
                self.lu = lu
                alive[0] += 1

            def solve(self, b):
                return self.lu.solve(b)

            def __del__(self):
                alive[0] -= 1

        def counted(A):
            at_start.append(alive[0])
            return Counted(factorize(A))

        monkeypatch.setattr(fem, "factorize", counted)
        compute_correction(marrocco, np.array([3.0, 0.0]),
                           np.array([1.0, 0.0]), CASE_I, quarter)
        assert len(at_start) >= 2
        assert at_start == [0] * len(at_start)
        assert alive == [0]


class TestQuarterDisc:
    """Table samples solve the aligned cell problems on the quarter sector
    {x >= 0, y >= 0} of the disc mesh."""

    SPEC = SMALL_SPEC

    def test_cut_is_a_quarter(self):
        disc = disc_mesh(self.SPEC)
        quarter = cell_problems._quarter(disc)
        assert 4 * quarter.n_tris == disc.n_tris
        assert 4.0 * quarter.areas.sum() == pytest.approx(disc.areas.sum(),
                                                          rel=1e-12)
        assert np.all(quarter.nodes >= -1e-9)

    def test_dirichlet_nodes_are_arc_and_y_axis(self):
        quarter = cell_problems._quarter(disc_mesh(self.SPEC))
        x, y = quarter.nodes.T
        on_arc = np.isclose(np.hypot(x, y), self.SPEC.disc_radius, rtol=1e-12)
        on_axis = np.abs(x) < 1e-9
        np.testing.assert_array_equal(quarter.dirichlet_nodes(),
                                      np.flatnonzero(on_arc | on_axis))

    @pytest.mark.parametrize("case", [CASE_I, CASE_II])
    def test_sample_matches_full_disc(self, marrocco, case):
        disc = disc_mesh(self.SPEC)
        for t in (0.8, 1.5, 2.4):
            full_e1, full_e2 = (compute_correction(marrocco, np.array([t, 0.0]),
                                                   gp, case, disc)
                                for gp in np.eye(2))
            e1 = cell_problems._table_chain(marrocco, case, self.SPEC, [t], 0, 1)[0]
            assert abs(e1 - full_e1) <= 1e-9 * abs(full_e1)
            # on the full disc, e2 vanishes by symmetry up to round-off
            assert abs(full_e2) <= 1e-9 * abs(full_e1)

    def test_n_theta_not_multiple_of_4_rejected(self):
        # no disc mesh, and so no quarter cut or table sample, exists for an
        # n_theta whose axes are not mesh lines
        with pytest.raises(ValueError,
                           match="n_theta = 30 is not a positive multiple of 4"):
            dataclasses.replace(self.SPEC, n_theta=30)


class TestChains:
    """build_correction_table continues the cell solves along t in chains of
    CHAIN samples that restart at fixed grid indices."""

    SPEC = SMALL_SPEC
    #: three chains at CHAIN = 5, the last one short
    GRID = np.linspace(0.0, 3.0, 13)

    @pytest.mark.parametrize("case", [CASE_I, CASE_II])
    def test_chained_table_matches_full_disc(self, marrocco, case):
        # each sample against an independent cold solve of both cell
        # problems on the full disc; a continued Newton solve stops nearer
        # its tolerance than a cold one, up to 3e-9 relative on this grid
        n, chain = len(self.GRID), cell_problems.CHAIN
        assert n > 2 * chain and n % chain != 0
        disc = disc_mesh(self.SPEC)
        table = build_correction_table(marrocco, case, self.GRID, self.SPEC)
        for t, j2 in zip(self.GRID[1:], table.j2_e1[1:]):
            full = compute_correction(marrocco, np.array([t, 0.0]),
                                      np.array([1.0, 0.0]), case, disc)
            assert abs(j2 - full) <= 1e-8 * abs(full)

    def test_last_sample_joins_the_chain_before_it(self, marrocco, monkeypatch):
        # on an n CHAIN + 1 point grid the last sample continues the chain
        # before it instead of starting cold, whatever the workers
        grid = np.linspace(0.0, 3.0, 2 * cell_problems.CHAIN + 1)
        starts = {}
        solve = cell_problems.solve_direct_variation

        def recorded(curve, grad_u, *args, x0=None, **kwargs):
            starts[grad_u[0]] = x0
            return solve(curve, grad_u, *args, x0=x0, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(cell_problems, "solve_direct_variation", recorded)
            serial = build_correction_table(marrocco, CASE_I, grid, self.SPEC)
        cold = [t for t in grid[1:] if starts[t] is None]
        assert cold == [grid[1], grid[cell_problems.CHAIN]]
        parallel = build_correction_table(marrocco, CASE_I, grid, self.SPEC,
                                          workers=2)
        np.testing.assert_array_equal(serial.j2_e1, parallel.j2_e1)

    def test_failure_names_its_grid_index(self, marrocco, monkeypatch):
        # a sample in the third chain fails: its index is the grid's
        solve = cell_problems.solve_direct_variation

        def failing(curve, grad_u, *args, **kwargs):
            if grad_u[0] == self.GRID[11]:
                raise SolverError("forced", residual_norm=7.0)
            return solve(curve, grad_u, *args, **kwargs)

        monkeypatch.setattr(cell_problems, "solve_direct_variation", failing)
        message = r"^table sample 11 \(t = 2\.75\) failed: forced$"
        with pytest.raises(SolverError, match=message) as err:
            build_correction_table(marrocco, CASE_I, self.GRID, self.SPEC)
        assert err.value.residual_norm == 7.0


class TestWorkers:
    def test_parallel_build_matches_serial(self, marrocco):
        grid, spec = TestChains.GRID, TestChains.SPEC
        serial = build_correction_table(marrocco, CASE_I, grid, spec)
        for workers in (2, 3):
            parallel = build_correction_table(marrocco, CASE_I, grid, spec,
                                              workers=workers)
            np.testing.assert_array_equal(serial.j2_e1, parallel.j2_e1)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_refused_before_any_solve(self, marrocco, monkeypatch,
                                                     workers):
        calls = []
        monkeypatch.setattr(cell_problems, "_table_chain",
                            lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="workers"):
            build_correction_table(marrocco, CASE_I, np.array([0.0, 1.0]),
                                   SMALL_SPEC, workers=workers)
        assert calls == []

    @pytest.mark.parametrize("n, chains", [(13, 3), (11, 2)])
    def test_pool_never_larger_than_the_number_of_chains(self, marrocco,
                                                         monkeypatch, n, chains):
        # 11 points are two chains: the last sample joins the second
        sizes = []

        class SerialPool:
            """Records the requested pool size and maps in this process."""
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *items):
                return map(fn, *items)

        monkeypatch.setattr(cell_problems.cf, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cell_problems, "_table_chain",
                            lambda curve, case, spec, ts, start, stop:
                            ts[start:stop])
        grid = np.linspace(0.0, 3.0, n)
        table = build_correction_table(marrocco, CASE_I, grid, TestChains.SPEC,
                                       workers=500)
        assert sizes == [chains]
        np.testing.assert_array_equal(table.j2_e1, grid)

    def test_chains_cover_the_grid(self, marrocco, monkeypatch):
        # solves nothing: each chain returns its slice of the grid
        chain = cell_problems.CHAIN
        cuts = []

        def sliced(curve, case, spec, ts, start, stop):
            cuts.append((start, stop))
            return ts[start:stop]

        monkeypatch.setattr(cell_problems, "_table_chain", sliced)
        for n in range(1, 3 * chain + 3):
            cuts.clear()
            grid = np.linspace(0.0, 3.0, n)
            table = build_correction_table(marrocco, CASE_I, grid,
                                           TestChains.SPEC)
            # in order and without a gap or an overlap
            np.testing.assert_array_equal(table.j2_e1, grid)
            if n == 1:   # the zero row alone, without a chain
                assert cuts == []
                continue
            assert cuts[0][0] == 0 and cuts[-1][1] == n
            assert [stop for _, stop in cuts[:-1]] == [start for start, _ in cuts[1:]]
            assert all(start != n - 1 for start, _ in cuts)
            assert all(stop - start <= chain + 1 for start, stop in cuts)


class TestMatrixTermCrossValidation:
    """The closed-form sensitivity matrices re-derived through FEM: the
    matrix term equals the contrast-weighted integral of the adjoint data
    over the inclusion, column by column. The FEM matrix is compared with
    tests/oracles.py's full case matrix, and its eigenvalue along grad u
    with the library's d1."""

    def test_fem_matches_closed_forms(self, marrocco, disc_coarse):
        from magtopt.polarization import matrix_air_in_ferro, matrix_ferro_in_air
        from oracles import full_matrix_air_in_ferro, full_matrix_ferro_in_air

        incl = disc_coarse.region == Region.DESIGN
        areas = disc_coarse.areas[incl][:, None]
        for t, ang in ((1.5, 0.0), (0.9, 0.7)):
            gu = t * np.array([np.cos(ang), np.sin(ang)])
            lam1 = float(marrocco.nu(t))
            e = gu / t
            for case, closed_fn, d1_fn, contrast in (
                    (CASE_I, full_matrix_air_in_ferro, matrix_air_in_ferro,
                     NU0 - lam1),
                    (CASE_II, full_matrix_ferro_in_air, matrix_ferro_in_air,
                     lam1 - NU0)):
                M_fem = np.zeros((2, 2))
                for j, gp in enumerate((np.array([1.0, 0.0]),
                                        np.array([0.0, 1.0]))):
                    K = solve_adjoint_variation(marrocco, gu, gp, case,
                                                disc_coarse)
                    gk = disc_coarse.element_gradients(K)[incl]
                    M_fem[:, j] = contrast * ((gp[None, :] + gk) * areas).sum(0)
                M_closed = closed_fn(marrocco, gu)
                rel = np.abs(M_fem - M_closed).max() / np.abs(M_closed).max()
                assert rel <= 0.02
                d1 = d1_fn(marrocco, t)
                assert abs(e @ M_fem @ e - d1) <= 0.02 * abs(d1)
