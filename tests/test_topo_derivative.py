import numpy as np
import pytest

from magtopt.cell_problems import CorrectionTable, PerturbationCase
from magtopt.fem import SourceSpec, StateResult, ferro_element_mask, solve_state
from magtopt.material import NU0
from magtopt.mesh import Region, generate_mini_motor, generate_square_benchmark
from magtopt.problem_setup import default_levelset
from magtopt.topo_derivative import assemble_generalized_td
from oracles import digest, g_air_to_ferro, g_ferro_to_air

CASE_I = PerturbationCase.AIR_IN_FERRO
CASE_II = PerturbationCase.FERRO_IN_AIR
Z1 = CorrectionTable.zeros(CASE_I)
Z2 = CorrectionTable.zeros(CASE_II)
RNG = np.random.default_rng(13)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def pointwise_oracle(curve, gu, gp, ferro, t1, t2):
    """Element values from the pointwise g-functions, branch chosen by ferro."""
    return np.array([g_ferro_to_air(curve, a, b, t1) if f
                     else -g_air_to_ferro(curve, a, b, t2)
                     for a, b, f in zip(gu, gp, ferro)])


class TestPointwiseSensitivities:
    def test_zero_gradient(self, marrocco):
        assert g_ferro_to_air(marrocco, np.zeros(2), np.array([1.0, 2.0]), Z1) == 0.0
        assert g_air_to_ferro(marrocco, np.zeros(2), np.array([1.0, 2.0]), Z2) == 0.0

    def test_linear_stub_closed_forms(self, linear_stub):
        lam = linear_stub.nu_linear
        gu_pt = np.array([0.8, -0.3])
        gp_pt = np.array([0.2, 0.5])
        c1 = 2 * np.pi * lam * (NU0 - lam) / (NU0 + lam)
        c2 = 2 * np.pi * NU0 * (lam - NU0) / (lam + NU0)
        assert g_ferro_to_air(linear_stub, gu_pt, gp_pt, Z1) == pytest.approx(
            c1 * float(gu_pt @ gp_pt), rel=1e-12)
        assert g_air_to_ferro(linear_stub, gu_pt, gp_pt, Z2) == pytest.approx(
            c2 * float(gu_pt @ gp_pt), rel=1e-12)
        # the two linear sensitivities differ by the constant factor -nu0/lam
        assert c2 == pytest.approx(-c1 * NU0 / lam, rel=1e-12)

    def test_rotation_invariance_with_tables(self, marrocco, tables_coarse):
        t1, t2 = tables_coarse
        gu_pt = np.array([1.5, 0.0])
        gp_pt = np.array([0.7, 0.4])
        base1 = g_ferro_to_air(marrocco, gu_pt, gp_pt, t1)
        base2 = g_air_to_ferro(marrocco, gu_pt, gp_pt, t2)
        for deg in (30.0, 137.0):
            R = rotation(np.deg2rad(deg))
            v1 = g_ferro_to_air(marrocco, R.T @ gu_pt, R.T @ gp_pt, t1)
            v2 = g_air_to_ferro(marrocco, R.T @ gu_pt, R.T @ gp_pt, t2)
            assert v1 == pytest.approx(base1, rel=0.03)
            assert v2 == pytest.approx(base2, rel=0.03)

    def test_linearity_in_adjoint_gradient(self, marrocco, tables_coarse):
        t1, _ = tables_coarse
        gu_pt = np.array([1.3, 0.4])
        gp_pt = np.array([0.5, -0.2])
        a = g_ferro_to_air(marrocco, gu_pt, gp_pt, t1)
        b = g_ferro_to_air(marrocco, gu_pt, 3.0 * gp_pt, t1)
        assert b == pytest.approx(3.0 * a, rel=1e-10)


@pytest.fixture(scope="module")
def solved_bench(marrocco):
    mesh = generate_square_benchmark(16)
    psi = default_levelset(mesh)
    src = SourceSpec(magnetization=np.array([0.0, 3e6]))
    state = solve_state(mesh, marrocco, levelset=psi, sources=src)
    return mesh, psi, state


class TestAssembly:
    def test_zero_adjoint_gives_zero_field(self, marrocco, solved_bench, tables_coarse):
        mesh, psi, state = solved_bench
        p0 = np.zeros(mesh.n_nodes)
        td = assemble_generalized_td(state, p0, *tables_coarse)
        assert np.all(td.element_values == 0.0)

    def test_bilinearity_in_adjoint(self, marrocco, solved_bench, tables_coarse):
        mesh, psi, state = solved_bench
        p = RNG.normal(size=mesh.n_nodes)
        td1 = assemble_generalized_td(state, p, *tables_coarse)
        td2 = assemble_generalized_td(state, 2.0 * p, *tables_coarse)
        np.testing.assert_allclose(td2.element_values, 2.0 * td1.element_values,
                                   rtol=1e-9)

    def test_matches_pointwise_oracle(self, marrocco, tables_coarse):
        # the default design is all ferro: shift the level set so that both
        # branches occur, and cut the tables at t = 1 so that both clamp
        mesh = generate_square_benchmark(16)
        design = np.flatnonzero(mesh.region == Region.DESIGN)
        psi = default_levelset(mesh)
        psi = psi - np.median(psi[mesh.tris[design]].mean(axis=1))
        src = SourceSpec(magnetization=np.array([0.0, 3e6]))
        state = solve_state(mesh, marrocco, levelset=psi, sources=src)
        t1, t2 = (CorrectionTable(t.case, t.t[:5], t.j2_e1[:5], t.radius, t.h0,
                                  t.curve_hash)
                  for t in tables_coarse)
        p0 = np.random.default_rng(3).normal(size=mesh.n_nodes)
        td = assemble_generalized_td(state, p0, t1, t2)

        gu = mesh.element_gradients(state.field)[design]
        gp = mesh.element_gradients(p0)[design]
        ferro = ferro_element_mask(mesh, psi)[design]
        expected = pointwise_oracle(marrocco, gu, gp, ferro, t1, t2)
        clamped = np.hypot(gu[:, 0], gu[:, 1]) > t1.t[-1]
        assert (clamped & ferro).any() and (clamped & ~ferro).any()
        assert td.n_clamped == clamped.sum()
        np.testing.assert_allclose(td.element_values, expected, rtol=0.0,
                                   atol=1e-12 * np.abs(expected).max())

    def test_branches_follow_state_mask(self, marrocco, tables_coarse):
        # the state is solved with an explicit mask, not a level set: the
        # all-ferro default design with one interior design element in air
        mesh = generate_square_benchmark(16)
        design = np.flatnonzero(mesh.region == Region.DESIGN)
        mask = ferro_element_mask(mesh, default_levelset(mesh))
        cen = mesh.centroids[design]
        hole = design[np.argmin(np.hypot(*(cen - cen.mean(axis=0)).T))]
        mask[hole] = False
        src = SourceSpec(magnetization=np.array([0.0, 3e6]))
        state = solve_state(mesh, marrocco, sources=src, ferro_mask=mask)
        p0 = np.random.default_rng(4).normal(size=mesh.n_nodes)
        td = assemble_generalized_td(state, p0, *tables_coarse)

        ferro = mask[design]
        assert ferro.sum() == design.size - 1
        t1, t2 = tables_coarse
        gu = mesh.element_gradients(state.field)[design]
        gp = mesh.element_gradients(p0)[design]
        expected = pointwise_oracle(marrocco, gu, gp, ferro, t1, t2)
        np.testing.assert_allclose(td.element_values, expected, rtol=0.0,
                                   atol=1e-12 * np.abs(expected).max())

    def test_linear_material_equivalence_elementwise(self, linear_stub):
        # with zero-correction tables the assembled field must equal the
        # classical linear formula element by element
        mesh = generate_square_benchmark(16)
        psi = default_levelset(mesh)
        src = SourceSpec(magnetization=np.array([0.0, 1e5]))
        state = solve_state(mesh, linear_stub, levelset=psi, sources=src)
        p0 = -state.field  # self-adjoint surrogate
        td = assemble_generalized_td(state, p0, Z1, Z2)
        lam = linear_stub.nu_linear
        c1 = 2 * np.pi * lam * (NU0 - lam) / (NU0 + lam)
        design = np.flatnonzero(mesh.region == Region.DESIGN)
        gu = mesh.element_gradients(state.field)[design]
        gp = -gu
        expected = c1 * np.einsum("ei,ei->e", gu, gp)
        np.testing.assert_allclose(td.element_values, expected, rtol=1e-10)

    def test_uniform_linear_sign(self, linear_stub):
        # p = -u and all-ferro design: the field is c1 * grad u . (-grad u),
        # a single sign wherever the state gradient is nonzero
        mesh = generate_square_benchmark(16)
        psi = default_levelset(mesh)
        src = SourceSpec(magnetization=np.array([0.0, 1e5]))
        state = solve_state(mesh, linear_stub, levelset=psi, sources=src)
        p0 = -state.field
        td = assemble_generalized_td(state, p0, Z1, Z2)
        design = np.flatnonzero(mesh.region == Region.DESIGN)
        gu = mesh.element_gradients(state.field)[design]
        active = (gu * gu).sum(1) > 1e-16
        assert np.all(td.element_values[active] < 0.0)


class TestPinnedBits:
    """element_values byte for byte, on seeded nodal u and p (no solve), a
    random ferro mask and synthetic 11-point tables built by arithmetic
    alone (no table build), so the digests depend on neither SuperLU nor
    BLAS. Taken at commit 2bab6f0, when the lookup and d1 took the gradient
    vectors and computed |grad u| and grad u . grad p again: a rewrite of
    the kernel that moves one bit shows."""
    #: (mesh, scale of u) -> (digest, n_clamped); the scale puts the median
    #: |grad u| near 1.5 on a table grid to 2.5, so both branches clamp
    PINNED = {
        "square/16": (lambda: generate_square_benchmark(16), 0.06,
                      "5d23530ba09c2a98", 15),
        "mini_motor/48": (lambda: generate_mini_motor(48), 0.003,
                          "a721ba9d3ea2d7fb", 15),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_element_values(self, marrocco, name):
        build, scale, want, clamps = self.PINNED[name]
        mesh = build()
        rng = np.random.default_rng(0)
        u = scale * rng.normal(size=mesh.n_nodes)
        p = rng.normal(size=mesh.n_nodes)
        ferro = rng.random(mesh.tris.shape[0]) < 0.5
        # j2 / t of the order of the coarse tables' against d1, so that the
        # correction's last bits reach the sum
        grid = np.linspace(0.0, 2.5, 11)
        quartic = grid * grid * grid * grid / (1.0 + grid)
        t1 = CorrectionTable(CASE_I, grid, 6e3 * quartic, 0.0, 0.0, "synthetic")
        t2 = CorrectionTable(CASE_II, grid, 1e5 * quartic, 0.0, 0.0, "synthetic")
        state = StateResult(mesh, u, 0, 0.0, ferro, marrocco)
        td = assemble_generalized_td(state, p, t1, t2)
        assert 0 < ferro[mesh.design_elements()].sum() < td.element_values.size
        assert (digest(td.element_values), td.n_clamped) == (want, clamps)


class TestElementFlipOracle:
    """End-to-end check of the sensitivity chain: the assembled field must
    predict the sign of the objective change caused by actually swapping one
    design element's material and re-solving.

    The flipped element is a finite right triangle, not a vanishing disk, so
    the magnitude carries an O(1) shape/size factor; signs and the overall
    correlation are the contract."""

    def test_flip_signs_and_correlation(self, marrocco, tables_coarse):
        import magtopt.fem as fem
        from magtopt.problem_setup import (assemble_adjoint_rhs,
                                           build_benchmark_problem,
                                           eval_objective)

        prob = build_benchmark_problem("square", 32)
        mesh = prob.mesh
        psi = default_levelset(mesh)
        rhs = fem.assemble_rhs(mesh, prob.sources)
        state = solve_state(mesh, marrocco, levelset=psi, rhs=rhs)
        j0 = eval_objective(mesh, state.field, prob.objective)
        gvec = assemble_adjoint_rhs(mesh, state.field, prob.objective)
        p = fem.solve_adjoint(state, -gvec)
        field = assemble_generalized_td(state, p, *tables_coarse)

        g = field.element_values
        design = np.flatnonzero(mesh.region == Region.DESIGN)
        order = np.argsort(g)
        pick = np.concatenate([order[:8], order[-8:]])  # strongest both ways
        base_mask = fem.ferro_element_mask(mesh, psi)
        pred, meas = [], []
        for k in pick:
            e = design[k]
            mask = base_mask.copy()
            mask[e] = False
            flipped = solve_state(mesh, marrocco, rhs=rhs, ferro_mask=mask)
            jf = eval_objective(mesh, flipped.field, prob.objective)
            # disk-normalized sensitivity scaled by the element area
            pred.append(g[k] * mesh.areas[e] / np.pi)
            meas.append(jf - j0)
        pred = np.asarray(pred)
        meas = np.asarray(meas)
        agree = int((np.sign(pred) == np.sign(meas)).sum())
        corr = float(np.corrcoef(pred, meas)[0, 1])
        assert agree >= 14
        assert corr > 0.5
        assert 0.5 <= float(np.median(meas / pred)) <= 10.0
