import numpy as np
import pytest

from magtopt import fem
from magtopt.fem import (ScalarField, SolverError, SourceSpec, assemble_rhs,
                         assemble_rhs_elements, ferro_element_mask,
                         solve_adjoint, solve_state)
from magtopt.material import NU0, LinearCurve
from magtopt.mesh import Region, generate_square_benchmark, unit_square_mesh

RNG = np.random.default_rng(5)


@pytest.fixture(scope="module")
def bench():
    return generate_square_benchmark(16)


class TestAssembleRhs:
    def test_zero_sources(self, bench):
        out = assemble_rhs(bench, SourceSpec())
        assert np.all(out == 0.0)

    def test_uniform_current_sums_to_area(self, bench):
        # partition of unity: sum_i F_i = integral of J_z
        out = assemble_rhs(bench, SourceSpec(jz=1.0))
        coil_area = bench.areas[bench.region == Region.COIL].sum()
        assert out.sum() == pytest.approx(coil_area, rel=1e-12)

    def test_pure_magnet_sums_to_zero(self, bench):
        out = assemble_rhs(bench, SourceSpec(magnetization=np.array([0.0, 1e5])))
        # gradient term only: sum_i grad(phi_i) = 0 per element
        assert abs(out.sum()) < 1e-6 * np.abs(out).max()

    def test_magnetization_masked_to_magnet_region(self, bench):
        m_el = np.ones((bench.n_tris, 2)) * 1e5
        out = assemble_rhs(bench, SourceSpec(magnetization=m_el))
        touched = np.flatnonzero(out != 0.0)
        magnet_nodes = np.unique(bench.tris[bench.region == Region.MAGNET].ravel())
        assert set(touched) <= set(magnet_nodes)


class TestStateSolve:
    def test_zero_sources_trivial(self, bench, marrocco):
        res = solve_state(bench, marrocco, sources=SourceSpec())
        assert np.all(res.field.values == 0.0)
        assert res.iterations <= 1

    def test_linear_stub_one_iteration(self, bench, linear_stub):
        res = solve_state(bench, linear_stub,
                          sources=SourceSpec(magnetization=np.array([0.0, 1e5])))
        assert res.iterations == 1
        assert res.residual_norm <= 1e-10 * np.linalg.norm(
            assemble_rhs(bench, SourceSpec(magnetization=np.array([0.0, 1e5]))))

    def test_dirichlet_values_exact(self, bench, marrocco):
        res = solve_state(bench, marrocco,
                          sources=SourceSpec(magnetization=np.array([0.0, 3e6])))
        assert np.all(res.field.values[bench.dirichlet_nodes()] == 0.0)

    def test_nonconvergence_raises_with_residual(self, bench, marrocco):
        with pytest.raises(SolverError) as exc:
            solve_state(bench, marrocco, max_iter=1,
                        sources=SourceSpec(magnetization=np.array([0.0, 3e6])))
        assert exc.value.residual_norm is not None
        assert exc.value.residual_norm > 0

    def test_ferro_coefficient_within_law_bounds(self, bench, marrocco):
        res = solve_state(bench, marrocco,
                          sources=SourceSpec(magnetization=np.array([0.0, 3e6])))
        gu = res.field.element_gradients()
        s = np.hypot(gu[:, 0], gu[:, 1])[res.ferro_mask]
        nu_vals = marrocco.nu(s)
        assert np.all(nu_vals >= marrocco.nu_min - 1e-9)
        assert np.all(nu_vals <= NU0 + 1e-9)

    def test_manufactured_convergence_rate(self):
        # -nu0 lap(u) = f on the all-air unit square, u* = sin(pi x) sin(pi y)
        errs, hs = [], []
        for n in (8, 16, 32):
            mesh = unit_square_mesh(n)
            cen = mesh.centroids
            f = 2 * np.pi ** 2 * NU0 * np.sin(np.pi * cen[:, 0]) * np.sin(np.pi * cen[:, 1])
            rhs = assemble_rhs_elements(mesh, f, np.zeros((mesh.n_tris, 2)))
            res = solve_state(mesh, LinearCurve(nu_const=NU0), rhs=rhs)
            gu = res.field.element_gradients()
            gx = np.pi * np.cos(np.pi * cen[:, 0]) * np.sin(np.pi * cen[:, 1])
            gy = np.pi * np.sin(np.pi * cen[:, 0]) * np.cos(np.pi * cen[:, 1])
            err2 = mesh.areas * ((gu[:, 0] - gx) ** 2 + (gu[:, 1] - gy) ** 2)
            errs.append(np.sqrt(err2.sum()))
            hs.append(1.0 / n)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 0.9 <= slope <= 1.1

    def test_newton_converges_in_saturation(self, marrocco):
        bench = generate_square_benchmark(16)
        res = solve_state(bench, marrocco,
                          sources=SourceSpec(magnetization=np.array([0.0, 4e6])))
        assert 2 <= res.iterations <= 50


class TestLevelSetMask:
    def test_none_means_all_design_is_ferro(self, bench):
        mask = ferro_element_mask(bench, None)
        assert np.all(mask[bench.region == Region.DESIGN])

    def test_sign_and_tie_break(self, bench):
        psi = -np.ones(bench.n_nodes)
        mask = ferro_element_mask(bench, psi)
        assert not np.any(mask[bench.region == Region.DESIGN])
        # psi = 0 exactly ties to air
        mask0 = ferro_element_mask(bench, np.zeros(bench.n_nodes))
        assert not np.any(mask0[bench.region == Region.DESIGN])
        assert np.all(mask0[bench.region == Region.FERRO_FIXED])


class TestAdjoint:
    def test_zero_rhs(self, bench, marrocco):
        state = solve_state(bench, marrocco,
                            sources=SourceSpec(magnetization=np.array([0.0, 3e6])))
        p = solve_adjoint(state, np.zeros(bench.n_nodes))
        assert np.all(p.values == 0.0)

    def test_linear_self_adjointness(self, bench, linear_stub):
        rhs = assemble_rhs(bench, SourceSpec(magnetization=np.array([0.0, 1e5])))
        state = solve_state(bench, linear_stub, rhs=rhs)
        p = solve_adjoint(state, -rhs)
        np.testing.assert_allclose(p.values, -state.field.values,
                                   rtol=1e-10, atol=1e-12)

    def test_air_coefficient_is_exactly_nu0(self, bench, marrocco):
        gu = np.zeros((bench.n_tris, 2))
        gu[:, 0] = 1.7
        coeff = fem._material_jacobian(marrocco, ferro_element_mask(bench, None), gu)
        air = ~ferro_element_mask(bench, None)
        assert np.all(coeff[air, 0, 0] == NU0)
        assert np.all(coeff[air, 1, 1] == NU0)
        assert np.all(coeff[air, 0, 1] == 0.0)

    def test_adjoint_without_state_reuse(self, bench, marrocco):
        state = solve_state(bench, marrocco,
                            sources=SourceSpec(magnetization=np.array([0.0, 3e6])))
        rhs = RNG.normal(size=bench.n_nodes)
        p1 = solve_adjoint(state, rhs)
        # the same system assembled afresh from the converged field
        gu = state.field.element_gradients()
        jac = fem.assemble_stiffness(
            bench, fem._material_jacobian(marrocco, state.ferro_mask, gu))
        p2 = fem.solve_free(jac, rhs, state.free)
        np.testing.assert_allclose(p1.values, p2, rtol=1e-9, atol=1e-12)


class TestEnergyConsistency:
    def test_residual_is_energy_gradient(self, bench, marrocco):
        # E(u) = sum_e A_e int_0^{|grad u|} nu(t) t dt (+ air quadratic);
        # directional derivative must match the assembled residual.
        def energy(u):
            gu = bench.element_gradients(u)
            s = np.hypot(gu[:, 0], gu[:, 1])
            ferro = ferro_element_mask(bench, None)
            # 32-point Gauss-Legendre on [0, s] per element
            x, w = np.polynomial.legendre.leggauss(32)
            half = 0.5 * s
            pts = half[:, None] * (x[None, :] + 1.0)
            dens = (marrocco.nu(pts) * pts * w[None, :]).sum(1) * half
            dens = np.where(ferro, dens, 0.5 * NU0 * s ** 2)
            return float((bench.areas * dens).sum())

        u = RNG.normal(scale=0.05, size=bench.n_nodes)
        eta = RNG.normal(size=bench.n_nodes)
        gu = bench.element_gradients(u)
        flux = fem._material_flux(marrocco, ferro_element_mask(bench, None), gu)
        resid = fem.assemble_flux_divergence(bench, flux)
        h = 1e-6
        fd = (energy(u + h * eta) - energy(u - h * eta)) / (2 * h)
        assert fd == pytest.approx(float(resid @ eta), rel=1e-6)


class TestSplineCurveSolve:
    def test_state_solve_with_measured_style_curve(self, bench):
        from magtopt.material import SplineCurve
        s = np.linspace(0.0, 2.5, 24)
        vals = 3000.0 + 2.5e5 * (s / 2.5) ** 3
        curve = SplineCurve(s, vals)
        res = solve_state(bench, curve,
                          sources=SourceSpec(magnetization=np.array([0.0, 3e6])))
        assert res.iterations >= 2
        assert np.isfinite(res.field.values).all()


class TestScalarField:
    def test_length_checked(self, bench):
        with pytest.raises(ValueError):
            ScalarField(bench, np.zeros(3))

    def test_gradients_of_linear_function_exact(self, bench):
        u = 2.0 * bench.nodes[:, 0] - 3.0 * bench.nodes[:, 1]
        g = ScalarField(bench, u).element_gradients()
        np.testing.assert_allclose(g[:, 0], 2.0, rtol=1e-12)
        np.testing.assert_allclose(g[:, 1], -3.0, rtol=1e-12)
