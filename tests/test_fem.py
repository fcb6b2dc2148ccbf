import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from magtopt import cell_problems, fem, material
from magtopt import optimizer as op
from magtopt.cell_problems import CorrectionTable, PerturbationCase
from magtopt.fem import (SolverError, SourceSpec, assemble_rhs,
                         assemble_rhs_elements, ferro_element_mask,
                         solve_adjoint, solve_state)
from magtopt.material import NU0, LinearCurve
from magtopt.mesh import (DiscSpec, Region, generate_disc_mesh,
                          generate_square_benchmark, unit_square_mesh)
from magtopt.problem_setup import build_benchmark_problem, default_levelset

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

    def test_nonconvergence_raises_with_residual(self, bench, marrocco,
                                                 monkeypatch):
        monkeypatch.setattr(fem, "MAX_NEWTON", 1)
        with pytest.raises(SolverError) as exc:
            solve_state(bench, marrocco,
                        sources=SourceSpec(magnetization=np.array([0.0, 3e6])))
        assert exc.value.residual_norm is not None
        assert exc.value.residual_norm > 0

    def test_line_search_stall_raises_with_residual(self, bench, marrocco,
                                                    monkeypatch):
        # no halving allowed: the first step counts as stalled, and the
        # residual reported is the one at the zero start, -F on the free DOFs
        monkeypatch.setattr(fem, "MAX_HALVINGS", 0)
        rhs = assemble_rhs(bench, SourceSpec(magnetization=np.array([0.0, 3e6])))
        with pytest.raises(SolverError, match="Newton line search stalled") as exc:
            solve_state(bench, marrocco, rhs=rhs)
        free, _ = fem._free_block(bench)
        assert exc.value.residual_norm == np.linalg.norm(rhs[free])

    def test_halved_step_then_accepted(self, bench, marrocco, monkeypatch):
        # started at -5 times the solution, the first full Newton step raises
        # the residual; a halved one is accepted and the solve still converges
        # to the cold solution
        rhs = assemble_rhs(bench, SourceSpec(magnetization=np.array([0.0, 3e6])))
        cold = solve_state(bench, marrocco, rhs=rhs)
        evals = []
        divergence = fem.assemble_flux_divergence
        monkeypatch.setattr(fem, "assemble_flux_divergence",
                            lambda *a: evals.append(1) or divergence(*a))
        res = solve_state(bench, marrocco, rhs=rhs, x0=-5.0 * cold.field)
        assert len(evals) - 1 - res.iterations >= 1
        scale = np.abs(cold.field).max()
        assert np.abs(res.field - cold.field).max() <= 1e-9 * scale

    def test_malformed_ferro_mask_refused(self, bench, marrocco, monkeypatch):
        # a cast to bool reads True, a level set or floats as a mask with the
        # law on every element, magnet and air included
        rhs = assemble_rhs(bench, SourceSpec(magnetization=np.array([0.0, 3e6])))
        mask = ferro_element_mask(bench)
        space = op.DesignSpace(bench)
        levelset = op.LevelSetField(space, np.ones(space.nodes.size))
        monkeypatch.setattr(fem, "solve_quasilinear", None)
        for bad in (True, np.full(bench.n_tris, 0.5), mask.astype(float),
                    mask[:-1], np.append(mask, True), mask[None, :], levelset):
            with pytest.raises(ValueError, match=r"^ferro_mask is .*: it must "
                               rf"be bool of shape \({bench.n_tris},\)$"):
                solve_state(bench, marrocco, rhs=rhs, ferro_mask=bad)

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
            res = solve_state(mesh, LinearCurve(nu_linear=NU0), rhs=rhs)
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


class TestLaggedFactorization:
    """Newton steps after the first solve by CG preconditioned with the
    solve's held factorization, and factorize only where that CG fails."""

    @pytest.fixture(scope="class")
    def square32(self):
        prob = build_benchmark_problem("square", 32)
        return prob, default_levelset(prob.mesh)

    @staticmethod
    def counted_solve(square32, curve, monkeypatch):
        prob, psi = square32
        calls = []
        factorize = fem.factorize

        def counted(A):
            calls.append(A)
            return factorize(A)

        monkeypatch.setattr(fem, "factorize", counted)
        res = solve_state(prob.mesh, curve, levelset=psi, sources=prob.sources)
        return res, len(calls)

    def test_fewer_factorizations_than_newton_steps(self, square32, marrocco,
                                                    monkeypatch):
        res, n_factorized = self.counted_solve(square32, marrocco, monkeypatch)
        assert res.iterations >= 3
        assert 1 <= n_factorized < res.iterations

    def test_without_cg_every_step_factorizes(self, square32, marrocco,
                                              monkeypatch):
        prob, psi = square32
        lagged = solve_state(prob.mesh, marrocco, levelset=psi,
                             sources=prob.sources)
        monkeypatch.setattr(fem, "LAGGED_CG_MAX", 0)
        res, n_factorized = self.counted_solve(square32, marrocco, monkeypatch)
        assert n_factorized == res.iterations == lagged.iterations
        assert np.abs(res.field - lagged.field).max() <= \
            1e-10 * np.abs(lagged.field).max()

    @pytest.fixture(scope="class")
    def air_block(self, bench):
        """Stiffness block of the all-air bench, its factorization and a
        right-hand side."""
        block = fem.assemble_stiffness(
            bench, np.broadcast_to(NU0 * np.eye(2), (bench.n_tris, 2, 2)))
        b = np.random.default_rng(3).standard_normal(block.shape[0])
        return block, fem.factorize(block), b

    def test_cg_meets_tolerance_with_a_nearby_factorization(self, bench,
                                                            air_block):
        block, lu, b = air_block
        # every element's coefficient off the preconditioner's by up to 10%
        coeff = np.broadcast_to(NU0 * np.eye(2), (bench.n_tris, 2, 2)) * (
            1.0 + 0.1 * np.random.default_rng(4).uniform(size=bench.n_tris)
        )[:, None, None]
        near = fem.assemble_stiffness(bench, coeff)
        x = fem._lagged_cg(near, lu, b)
        assert x is not None
        # CG stops on its recurred residual, which differs from b - A x by
        # round-off
        assert np.linalg.norm(b - near @ x) <= \
            2 * fem.LAGGED_CG_TOL * np.linalg.norm(b)

    def test_cg_falls_back_on_an_indefinite_matrix(self, air_block):
        # preconditioned operator with eigenvalues +1 and -1: CG meets
        # p.Ap < 0 in its first iteration
        block, _, b = air_block
        A = sp.block_diag([block, -block], format="csc")
        lu = fem.factorize(sp.block_diag([block, block], format="csc"))
        assert fem._lagged_cg(A, lu, np.concatenate([b, b])) is None

    def test_cg_falls_back_on_a_far_off_factorization(self, bench, air_block,
                                                      monkeypatch):
        # design elements 5000 times softer than the air the preconditioner
        # was factorized for: CG needs more than LAGGED_CG_MAX iterations
        block, lu, b = air_block
        coeff = np.broadcast_to(NU0 * np.eye(2), (bench.n_tris, 2, 2)).copy()
        coeff[bench.region == Region.DESIGN] /= 5000.0
        A = fem.assemble_stiffness(bench, coeff)
        assert fem._lagged_cg(A, lu, b) is None
        monkeypatch.setattr(fem, "LAGGED_CG_MAX", 10 * A.shape[0])
        x = fem._lagged_cg(A, lu, b)
        assert x is not None
        exact = fem.factorize(A).solve(b)
        assert np.linalg.norm(x - exact) <= 1e-8 * np.linalg.norm(exact)


class TestHeldLU:
    """Solves through a HeldLU that holds the factorization of a nearby
    design's Jacobian, as the state and adjoint solves of a descent do:
    Newton steps to the forcing term, the adjoint to LAGGED_CG_TOL."""

    SOURCES = SourceSpec(magnetization=np.array([0.0, 3e6]))

    @pytest.fixture(scope="class")
    def designs(self, bench, marrocco):
        """The load vector, a solved all-ferro design and its design
        elements by distance from the region's centre."""
        rhs = assemble_rhs(bench, self.SOURCES)
        state = solve_state(bench, marrocco, rhs=rhs)
        design = np.flatnonzero(bench.region == Region.DESIGN)
        centre = bench.centroids[design].mean(axis=0)
        near = np.argsort(np.linalg.norm(bench.centroids[design] - centre, axis=1))
        return rhs, state, design[near]

    @staticmethod
    def swapped(state, elements):
        """The state's ferro mask with `elements` swapped to air."""
        mask = state.ferro_mask.copy()
        mask[elements] = False
        return mask

    @staticmethod
    def held_at(state):
        """A HeldLU holding the factorization of the Jacobian at state."""
        held = fem.HeldLU()
        mesh = state.mesh
        held.lu = fem.factorize(fem.assemble_jacobian(
            mesh, state.curve, state.ferro_mask, mesh.element_gradients(state.field)))
        held.mask = state.ferro_mask.copy()
        return held

    def trial(self, designs, marrocco):
        """The state with four elements swapped, started from the design's
        field and LU, as a kappa trial is."""
        rhs, state, order = designs
        return solve_state(state.mesh, marrocco, rhs=rhs,
                           ferro_mask=self.swapped(state, order[:4]),
                           x0=state.field, held=self.held_at(state))

    def test_forcing_term_solve_meets_the_newton_tolerance(self, designs,
                                                           marrocco):
        rhs, state, _ = designs
        trial = self.trial(designs, marrocco)
        mesh = state.mesh
        free, _ = fem._free_block(mesh)
        # the residual recomputed from the returned field, not the one the
        # solve reports
        g = mesh.element_gradients(trial.field)
        r = fem.assemble_flux_divergence(
            mesh, fem._flux(marrocco, trial.ferro_mask, g, g, 0.0)) - rhs
        assert trial.iterations >= 2
        assert np.linalg.norm(r[free]) <= \
            fem.TOL_ABS + fem.TOL_REL * np.linalg.norm(rhs[free])

    def test_forcing_term_solve_matches_a_tight_solve(self, designs, marrocco,
                                                      monkeypatch):
        inexact = self.trial(designs, marrocco)
        monkeypatch.setattr(fem, "NEWTON_FORCING", fem.LAGGED_CG_TOL)
        tight = self.trial(designs, marrocco)
        assert np.linalg.norm(inexact.field - tight.field) <= \
            1e-8 * np.linalg.norm(tight.field)

    def test_adjoint_with_a_nearby_lu_matches_a_fresh_factorization(
            self, designs, marrocco, monkeypatch):
        rhs, state, order = designs
        trial = solve_state(state.mesh, marrocco, rhs=rhs,
                            ferro_mask=self.swapped(state, order[:1]))
        b = RNG.normal(size=state.mesh.n_nodes)
        fresh = solve_adjoint(trial, b)
        held = self.held_at(state)
        calls = []
        factorize = fem.factorize
        monkeypatch.setattr(fem, "factorize",
                            lambda A: calls.append(A) or factorize(A))
        # to a linear solve's tolerance: ADJOINT_TOL's effect on the descent
        # is TestAdjointTolerance's
        monkeypatch.setattr(fem, "ADJOINT_TOL", fem.LAGGED_CG_TOL)
        p = solve_adjoint(trial, b, held=held)
        # solved by CG on the held LU
        assert calls == []
        assert np.linalg.norm(p - fresh) <= 1e-10 * np.linalg.norm(fresh)

    def test_symmetry_check_with_a_held_lu(self, designs, monkeypatch):
        _, state, _ = designs
        held = self.held_at(state)
        lu = held.lu
        flux_jacobian = material.flux_jacobian

        def skewed(curve, W):
            out = flux_jacobian(curve, W)
            out[..., 0, 1] += 0.1 * out[..., 0, 0]
            return out

        monkeypatch.setattr(material, "flux_jacobian", skewed)
        with pytest.raises(SolverError, match="not symmetric"):
            solve_adjoint(state, np.ones(state.mesh.n_nodes), held=held)
        assert held.lu is lu

    @pytest.mark.parametrize("extra, tries_cg", [(0, True), (1, False)])
    def test_cg_tried_only_within_lagged_cg_max_flipped_elements(
            self, designs, marrocco, monkeypatch, extra, tries_cg):
        # a Jacobian whose mask differs from the held LU's in more than
        # LAGGED_CG_MAX elements is factorized without a CG try
        _, state, order = designs
        mesh, held = state.mesh, self.held_at(state)
        mask = self.swapped(state, order[:fem.LAGGED_CG_MAX + extra])
        grad = mesh.element_gradients(state.field)
        b = RNG.normal(size=mesh.n_nodes)
        tries, lagged_cg = [], fem._lagged_cg
        monkeypatch.setattr(fem, "_lagged_cg",
                            lambda *args: tries.append(args) or lagged_cg(*args))
        x = fem.solve_jacobian(mesh, marrocco, mask, grad, b, held)
        assert len(tries) == tries_cg
        free, _ = fem._free_block(mesh)
        A = fem.assemble_jacobian(mesh, marrocco, mask, grad)
        assert np.linalg.norm(b[free] - A @ x[free]) <= \
            2 * fem.LAGGED_CG_TOL * np.linalg.norm(b[free])
        assert not x[mesh.dirichlet_nodes()].any()
        if not tries_cg:
            # the new LU is held with the mask it was assembled with
            np.testing.assert_array_equal(held.mask, mask)


class TestOneMaskPerSystem:
    """fem.solve_jacobian assembles each Jacobian with the material mask it
    is given and, where it factorizes that Jacobian, holds the LU with that
    same mask, so the mask a HeldLU keeps is always its LU's matrix's."""

    def test_every_solve_gets_the_mask_of_its_jacobian(self, marrocco,
                                                       monkeypatch):
        assembled, factorized, solves = [], [], []
        assemble, factorize = fem.assemble_jacobian, fem.factorize
        solve_jacobian = fem.solve_jacobian

        def recorded_assemble(mesh, curve, mask, grad):
            A = assemble(mesh, curve, mask, grad)
            assembled.append((A, mask.copy()))
            return A

        def recorded_factorize(A):
            # the matrix factorized is the one just assembled
            last, mask = assembled[-1]
            assert A is last
            factorized.append((factorize(A), mask))
            return factorized[-1][0]

        def checked_solve(mesh, curve, mask, grad, b, held,
                          rtol=fem.LAGGED_CG_TOL):
            x = solve_jacobian(mesh, curve, mask, grad, b, held, rtol)
            lu, mask = factorized[-1]
            assert held.lu is lu
            np.testing.assert_array_equal(held.mask, mask)
            solves.append(held)
            return x

        monkeypatch.setattr(fem, "assemble_jacobian", recorded_assemble)
        monkeypatch.setattr(fem, "factorize", recorded_factorize)
        monkeypatch.setattr(fem, "solve_jacobian", checked_solve)
        zeros = [CorrectionTable.zeros(case) for case in PerturbationCase]
        state = op.run(build_benchmark_problem("square", 16), marrocco, *zeros,
                       op.OptimizerOptions(max_iter=2))
        n_descent, f_descent = len(solves), len(factorized)
        cell_problems._table_chain(marrocco, PerturbationCase.AIR_IN_FERRO,
                                   DiscSpec(disc_radius=200.0, h0=0.2, growth=1.15,
                                            n_theta=32),
                                   [1.0, 2.0, 3.0], 0, 3)
        assert state.k == 2
        assert n_descent >= 10 and len(solves) - n_descent >= 3
        assert f_descent >= 2 and len(factorized) > f_descent
        assert len(assembled) == len(solves)


class TestAdjointTolerance:
    """The descent's adjoint is solved to ADJOINT_TOL, far looser than a
    linear solve's LAGGED_CG_TOL, because only the direction of the descent
    field it feeds matters, and the descent stops at theta_tol_deg."""

    #: largest angle [deg] between the descent fields of an ADJOINT_TOL and a
    #: LAGGED_CG_TOL adjoint solve, 2000 times below the default
    #: theta_tol_deg of 1. Measured here: 2.5e-5 at 1e-6, 9.8e-4 at 1e-4,
    #: and 8.3e-3 from the held LU's solve alone (any tolerance >= 1e-2)
    MAX_ANGLE_DEG = 5e-4

    def test_descent_field_direction(self, marrocco, tables_coarse,
                                     monkeypatch):
        prob = build_benchmark_problem("square", 32)
        factorize = fem.factorize

        def descent_field(rtol):
            """The normalized descent field at the initial design, its
            adjoint solved to rtol by CG on the state solve's held LU, and
            the factorizations that adjoint solve made."""
            monkeypatch.setattr(fem, "ADJOINT_TOL", rtol)
            driver = op.Driver(prob, marrocco, *tables_coarse)
            state, _ = driver.solve(ferro_element_mask(
                prob.mesh, default_levelset(prob.mesh)))
            calls = []
            monkeypatch.setattr(fem, "factorize",
                                lambda A: calls.append(A) or factorize(A))
            field, _ = driver.descent_field(state)
            monkeypatch.setattr(fem, "factorize", factorize)
            return field.normalized(), len(calls)

        loose, n_loose = descent_field(fem.ADJOINT_TOL)
        tight, n_tight = descent_field(fem.LAGGED_CG_TOL)
        assert n_loose == n_tight == 0
        gap = op.LevelSetField(loose.space, loose.values - tight.values).norm()
        angle = np.degrees(2.0 * np.arcsin(gap / 2.0))
        assert 0.0 < angle <= self.MAX_ANGLE_DEG


class TestFreeBlock:
    """The free-DOF block assembled through the cached coefficient map,
    against an independent triplet sum; the sparse residual, the load-vector
    scatter and the cached fill-reducing DOF order against the generic forms
    they replace."""

    @pytest.fixture(params=["square16", "disc_coarse"])
    def mesh(self, request, bench):
        return bench if request.param == "square16" \
            else request.getfixturevalue("disc_coarse")

    @staticmethod
    def coefficients(mesh):
        # symmetric, as assemble_stiffness requires, with a random c01
        c = RNG.normal(size=(mesh.n_tris, 2, 2))
        return 0.5 * (c + np.swapaxes(c, 1, 2)) + 3.0 * np.eye(2)

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

    def test_solve_jacobian_matches_spsolve(self, mesh, marrocco):
        gu = RNG.normal(size=(mesh.n_tris, 2))
        free, _ = fem._free_block(mesh)
        mask = mesh.region != Region.AIR_FIXED
        block = fem.assemble_jacobian(mesh, marrocco, mask, gu)
        b = RNG.normal(size=mesh.n_nodes)
        x = fem.solve_jacobian(mesh, marrocco, mask, gu, b)
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
        free, _ = fem._free_block(mesh)
        loc = np.full(mesh.n_nodes, -1)
        loc[free] = np.arange(free.size)
        rows = loc[np.tile(mesh.tris, (1, 3)).ravel()]
        cols = loc[np.repeat(mesh.tris, 3, axis=1).ravel()]
        inside = (rows >= 0) & (cols >= 0)
        ref = sp.csc_matrix((ke.ravel()[inside], (rows[inside], cols[inside])),
                            shape=block.shape)
        assert abs(block - ref).max() <= 1e-14 * abs(ref).max()
        assert (block != block.T).nnz == 0

    @pytest.mark.parametrize("shape", [(2,)])
    def test_scatters_match_add_at(self, mesh, shape):
        flux = RNG.normal(size=(mesh.n_tris,) + shape)
        contrib = np.einsum("ei,eki->ek", flux, mesh.grads) * mesh.areas[:, None]
        ref = np.zeros(mesh.n_nodes)
        np.add.at(ref, mesh.tris.ravel(), contrib.ravel())
        # G^T (A flux) sums the two gradient components separately
        assert np.abs(fem.assemble_flux_divergence(mesh, flux) - ref).max() <= \
            1e-14 * np.abs(ref).max()

        jz, m_el = RNG.normal(size=mesh.n_tris), RNG.normal(size=(mesh.n_tris, 2))
        contrib = np.einsum("ei,eki->ek", np.column_stack([-m_el[:, 1], m_el[:, 0]]),
                            mesh.grads) * mesh.areas[:, None]
        contrib += (jz * mesh.areas / 3.0)[:, None]
        ref = np.zeros(mesh.n_nodes)
        np.add.at(ref, mesh.tris.ravel(), contrib.ravel())
        assert np.array_equal(assemble_rhs_elements(mesh, jz, m_el), ref)

    #: sha256 of each mesh's fill-reducing DOF order (int64 bytes), taken
    #: when the order came from factorizing the P1 Laplacian: any change of
    #: order shows, even one with equal fill
    ORDER_SHA256 = {
        "square16": "976a18cfc35150b7d0884e729d3db5736438099b73dfde5f30e05e8a3b083a59",
        "disc_coarse": "8b69bec5f19c4d416806b3c5c68f655a971d2b1f53efca7dfc56225dd1c34386",
    }

    def test_order_pinned(self, mesh, request):
        free, _ = fem._free_block(mesh)
        digest = hashlib.sha256(free.astype(np.int64).tobytes()).hexdigest()
        assert digest == self.ORDER_SHA256[request.node.callspec.params["mesh"]]

    def test_jacobian_block_exactly_symmetric(self, mesh, marrocco):
        gu = RNG.normal(size=(mesh.n_tris, 2))
        block = fem.assemble_jacobian(mesh, marrocco, mesh.region != Region.AIR_FIXED, gu)
        assert (block != block.T).nnz == 0

    def test_non_symmetric_coefficient_refused(self, mesh):
        coeff = self.coefficients(mesh)
        coeff[-1, 1, 0] += 1e-12
        with pytest.raises(SolverError, match="not symmetric"):
            fem.assemble_stiffness(mesh, coeff)

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
                      lambda: generate_disc_mesh(
                          DiscSpec(disc_radius=200.0, h0=0.2, growth=1.15,
                                   n_theta=32))):
            a, b = build(), build()
            free, _ = fem._free_block(a)
            assert np.array_equal(free, fem._free_block(b)[0])

    def test_fill_matches_symmetric_ordering(self, mesh, marrocco):
        gu = RNG.normal(size=(mesh.n_tris, 2))
        free, _ = fem._free_block(mesh)
        block = fem.assemble_jacobian(mesh, marrocco, mesh.region != Region.AIR_FIXED, gu)
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

    def test_air_coefficient_is_exactly_nu0(self, bench, marrocco, monkeypatch):
        gu = np.zeros((bench.n_tris, 2))
        gu[:, 0] = 1.7
        coeffs = []
        monkeypatch.setattr(fem, "assemble_stiffness",
                            lambda mesh, coeff: coeffs.append(coeff))
        fem.assemble_jacobian(bench, marrocco, ferro_element_mask(bench, None), gu)
        coeff, = coeffs
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
        jac = fem.assemble_jacobian(bench, marrocco, state.ferro_mask, gu)
        free, _ = fem._free_block(bench)
        p2 = np.zeros(bench.n_nodes)
        p2[free] = fem.factorize(jac).solve(rhs[free])
        np.testing.assert_allclose(p1, p2, rtol=1e-9, atol=1e-12)


class TestEnergyConsistency:
    def test_residual_is_energy_gradient(self, bench, marrocco):
        # E(u) = sum_e A_e [W(w + grad u) - W(w) - T(w) . grad u] with
        # W(g) = int_0^{|g|} nu(t) t dt on ferro (0.5 nu0 |g|^2 in air, where
        # the offset cancels); its directional derivative must match the
        # assembled residual of the quasilinear operator with offset w: none
        # (the state) and a constant 2-vector (the direct variation).
        ferro = ferro_element_mask(bench, None)

        def density(g):
            # 32-point Gauss-Legendre on [0, |g|] per element
            s = np.hypot(g[..., 0], g[..., 1])
            x, wq = np.polynomial.legendre.leggauss(32)
            half = 0.5 * s
            pts = half[..., None] * (x + 1.0)
            return (marrocco.nu(pts) * pts * wq).sum(-1) * half

        for w in (None, np.array([1.2, -0.7])):
            offset = np.zeros(2) if w is None else w
            t_w = material.flux_map(marrocco, offset)   # T(0) = 0

            def energy(u):
                gu = bench.element_gradients(u)
                dens = density(offset + gu) - density(offset) - gu @ t_w
                dens = np.where(ferro, dens, 0.5 * NU0 * (gu ** 2).sum(1))
                return float((bench.areas * dens).sum())

            u = RNG.normal(scale=0.05, size=bench.n_nodes)
            eta = RNG.normal(size=bench.n_nodes)
            gu = bench.element_gradients(u)
            g = gu if w is None else w + gu
            flux = fem._flux(marrocco, ferro, gu, g, t_w)
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

    def test_operator_matches_einsum(self, bench):
        u = RNG.normal(size=bench.n_nodes)
        ref = np.einsum("ek,eki->ei", u[bench.tris], bench.grads)
        tol = 1e-14 * np.abs(ref).max()
        assert np.abs(bench.element_gradients(u) - ref).max() <= tol

    def test_operator_shares_the_gradient_buffer(self):
        mesh = generate_square_benchmark(16)
        assert np.shares_memory(mesh.grad_op.data, mesh.grads)
        assert mesh.grad_op.shape == (2 * mesh.n_tris, mesh.n_nodes)

    def test_fem_caches_at_most_300_bytes_per_element(self):
        # the previous unit's mesh stays alive while a benchmark unit runs,
        # so every cached byte counts twice in peak memory
        mesh = generate_square_benchmark(64)
        dofs, block = fem._free_block(mesh)
        G = mesh.grad_op
        cached = dofs.nbytes + G.indices.nbytes + G.indptr.nbytes
        for a in block:
            cached += sum(x.nbytes for x in (a.data, a.indices, a.indptr)) \
                if sp.issparse(a) else a.nbytes
        assert cached <= 300 * mesh.n_tris
