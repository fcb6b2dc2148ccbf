import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from magtopt import fem
from magtopt.cell_problems import DiscSpec
from magtopt.fem import (SolverError, SourceSpec, assemble_rhs,
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
        assert np.all(res.field == 0.0)
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
        assert np.all(res.field[bench.dirichlet_nodes()] == 0.0)

    def test_one_assembly_per_newton_iteration(self, bench, marrocco, monkeypatch):
        # the Jacobian at the converged state is left to solve_adjoint
        calls = []
        assemble = fem.assemble_stiffness

        def counted(*args):
            calls.append(args)
            return assemble(*args)

        monkeypatch.setattr(fem, "assemble_stiffness", counted)
        res = solve_state(bench, marrocco,
                          sources=SourceSpec(magnetization=np.array([0.0, 3e6])))
        assert res.iterations >= 2
        assert len(calls) == res.iterations

    def test_nonconvergence_raises_with_residual(self, bench, marrocco):
        with pytest.raises(SolverError) as exc:
            solve_state(bench, marrocco, max_iter=1,
                        sources=SourceSpec(magnetization=np.array([0.0, 3e6])))
        assert exc.value.residual_norm is not None
        assert exc.value.residual_norm > 0

    def test_ferro_coefficient_within_law_bounds(self, bench, marrocco):
        res = solve_state(bench, marrocco,
                          sources=SourceSpec(magnetization=np.array([0.0, 3e6])))
        gu = bench.element_gradients(res.field)
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
            gu = mesh.element_gradients(res.field)
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


class TestWarmStart:
    SOURCES = SourceSpec(magnetization=np.array([0.0, 3e6]))

    def test_converged_start_returns_at_once(self, bench, marrocco):
        cold = solve_state(bench, marrocco, sources=self.SOURCES)
        warm = solve_state(bench, marrocco, sources=self.SOURCES, x0=cold.field)
        assert cold.iterations >= 2
        assert warm.iterations == 0
        assert np.array_equal(warm.field, cold.field)
        assert warm.residual_norm == cold.residual_norm

    def test_neighbouring_design_matches_cold(self, bench, marrocco):
        rhs = assemble_rhs(bench, self.SOURCES)
        mask = ferro_element_mask(bench, None)
        previous = solve_state(bench, marrocco, rhs=rhs, ferro_mask=mask)
        # swap the design elements nearest the region's centre to air
        design = np.flatnonzero(bench.region == Region.DESIGN)
        centre = bench.centroids[design].mean(axis=0)
        near = np.argsort(np.linalg.norm(bench.centroids[design] - centre, axis=1))
        trial_mask = mask.copy()
        trial_mask[design[near[:design.size // 4]]] = False
        cold = solve_state(bench, marrocco, rhs=rhs, ferro_mask=trial_mask)
        warm = solve_state(bench, marrocco, rhs=rhs, ferro_mask=trial_mask,
                           x0=previous.field)
        free, _ = fem._free_block(bench)
        tol = 1e-10 + 1e-10 * np.linalg.norm(rhs[free])
        assert 1 <= warm.iterations < cold.iterations
        assert warm.residual_norm <= tol and cold.residual_norm <= tol
        np.testing.assert_allclose(warm.field, cold.field, rtol=0,
                                   atol=1e-8 * np.abs(cold.field).max())


class TestFreeBlock:
    """The free-DOF block assembled through the cached pattern, against an
    independent triplet sum; closed-form element matrices, bincount scatters
    and the cached fill-reducing DOF order against the generic forms they
    replace."""

    @pytest.fixture(params=["square16", "disc_coarse"])
    def mesh(self, request, bench):
        return bench if request.param == "square16" \
            else request.getfixturevalue("disc_coarse")

    @staticmethod
    def coefficients(mesh):
        # a non-symmetric coefficient, so a transposed scatter shows
        return RNG.normal(size=(mesh.n_tris, 2, 2)) + 3.0 * np.eye(2)

    @staticmethod
    def coo_reference(mesh, coeff):
        # K_ij = sum_e A_e grad(phi_i) . C_e grad(phi_j), summed from triplets
        ke = np.einsum("eki,eij,elj->ekl", mesh.grads, coeff, mesh.grads) \
            * mesh.areas[:, None, None]
        rows = np.repeat(mesh.tris, 3, axis=1).ravel()
        cols = np.tile(mesh.tris, (1, 3)).ravel()
        n = mesh.n_nodes
        return sp.csr_matrix((ke.ravel(), (rows, cols)), shape=(n, n))

    def test_free_block_matches_full_matrix(self, mesh):
        coeff = self.coefficients(mesh)
        ref = self.coo_reference(mesh, coeff)
        free, _ = fem._free_block(mesh)
        block = fem.assemble_stiffness(mesh, coeff)
        assert block.shape == (free.size, free.size)
        assert abs(block - ref[np.ix_(free, free)]).max() <= 1e-14 * abs(ref).max()

    def test_solve_free_matches_spsolve(self, mesh, marrocco):
        gu = RNG.normal(size=(mesh.n_tris, 2))
        coeff = fem._material_jacobian(marrocco, mesh.region != Region.AIR_FIXED, gu)
        free, _ = fem._free_block(mesh)
        block = fem.assemble_stiffness(mesh, coeff)
        b = RNG.normal(size=mesh.n_nodes)
        x = fem.solve_free(fem.factorize(block), b, mesh)
        ref = spla.spsolve(block, b[free])
        assert np.all(x[mesh.dirichlet_nodes()] == 0.0)
        np.testing.assert_allclose(x[free], ref, rtol=0,
                                   atol=1e-12 * np.abs(ref).max())

    def test_element_matrices_match_einsum(self, mesh):
        coeff = self.coefficients(mesh)
        block = fem.assemble_stiffness(mesh, coeff)
        # the two-einsum contraction: entry (k, l) is grad(phi_l) . C grad(phi_k)
        db = np.einsum("eij,ekj->eki", coeff, mesh.grads)
        ke = np.einsum("eki,eli->ekl", db, mesh.grads) * mesh.areas[:, None, None]
        _, (_, indices, scatter) = fem._free_block(mesh)
        data = np.bincount(scatter, weights=ke.ravel(),
                           minlength=indices.size + 1)[:-1]
        assert np.array_equal(block.data, data)

    @pytest.mark.parametrize("shape", [(2,), (2, 2)])
    def test_scatters_match_add_at(self, mesh, shape):
        flux = RNG.normal(size=(mesh.n_tris,) + shape)
        cols = shape[:-1]
        contrib = np.einsum("e...i,eki->...ek", flux, mesh.grads) \
            * mesh.areas[:, None]
        ref = np.zeros(cols + (mesh.n_nodes,))
        np.add.at(ref, (..., mesh.tris.ravel()), contrib.reshape(cols + (-1,)))
        assert np.array_equal(fem.assemble_flux_divergence(mesh, flux), ref.T)

        jz, m_el = RNG.normal(size=mesh.n_tris), RNG.normal(size=(mesh.n_tris, 2))
        contrib = np.einsum("ei,eki->ek", np.column_stack([-m_el[:, 1], m_el[:, 0]]),
                            mesh.grads) * mesh.areas[:, None]
        contrib += (jz * mesh.areas / 3.0)[:, None]
        ref = np.zeros(mesh.n_nodes)
        np.add.at(ref, mesh.tris.ravel(), contrib.ravel())
        assert np.array_equal(assemble_rhs_elements(mesh, jz, m_el), ref)

    def test_free_nodes_permute_sorted_free_set(self, mesh):
        block = fem._free_block(mesh)
        free, _ = block
        interior = np.setdiff1d(np.arange(mesh.n_nodes), mesh.dirichlet_nodes())
        assert np.array_equal(np.sort(free), interior)
        assert not np.array_equal(free, interior)
        assert fem._free_block(mesh) is block

    def test_order_repeats_on_fresh_meshes(self):
        # serial and parallel table builds order their own disc meshes
        for build in (lambda: generate_square_benchmark(16),
                      DiscSpec(radius=200.0, h0=0.2, n_theta=32).build):
            a, b = build(), build()
            free, _ = fem._free_block(a)
            assert np.array_equal(free, fem._free_block(b)[0])

    def test_fill_matches_symmetric_ordering(self, mesh, marrocco):
        gu = RNG.normal(size=(mesh.n_tris, 2))
        coeff = fem._material_jacobian(marrocco, mesh.region != Region.AIR_FIXED, gu)
        free, _ = fem._free_block(mesh)
        block = fem.assemble_stiffness(mesh, coeff)
        lu = fem.factorize(block)
        # the same block on the sorted free set, ordered by SuperLU
        by_node = np.argsort(free)
        ref = spla.splu(block[by_node][:, by_node].tocsc(),
                        permc_spec="MMD_AT_PLUS_A")
        assert np.array_equal(lu.perm_c, np.arange(free.size))
        assert lu.L.nnz + lu.U.nnz == ref.L.nnz + ref.U.nnz


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
        assert np.all(p == 0.0)

    def test_linear_self_adjointness(self, bench, linear_stub):
        rhs = assemble_rhs(bench, SourceSpec(magnetization=np.array([0.0, 1e5])))
        state = solve_state(bench, linear_stub, rhs=rhs)
        p = solve_adjoint(state, -rhs)
        np.testing.assert_allclose(p, -state.field,
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
        gu = bench.element_gradients(state.field)
        jac = fem.assemble_stiffness(
            bench, fem._material_jacobian(marrocco, state.ferro_mask, gu))
        p2 = fem.solve_free(fem.factorize(jac), rhs, bench)
        np.testing.assert_allclose(p1, p2, rtol=1e-9, atol=1e-12)


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
        assert np.isfinite(res.field).all()


class TestElementGradients:
    def test_gradients_of_linear_function_exact(self, bench):
        u = 2.0 * bench.nodes[:, 0] - 3.0 * bench.nodes[:, 1]
        g = bench.element_gradients(u)
        np.testing.assert_allclose(g[:, 0], 2.0, rtol=1e-12)
        np.testing.assert_allclose(g[:, 1], -3.0, rtol=1e-12)
        # an (n, 2) stack: each column equals the single-column call exactly
        v = 0.5 * bench.nodes[:, 0] + 4.0 * bench.nodes[:, 1]
        stack = bench.element_gradients(np.column_stack([u, v]))
        assert stack.shape == (bench.n_tris, 2, 2)
        assert np.array_equal(stack[:, 0], g)
        assert np.array_equal(stack[:, 1], bench.element_gradients(v))
