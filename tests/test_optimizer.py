import logging
import re

import numpy as np
import pytest

from magtopt import fem
from magtopt import optimizer as op
from magtopt.cell_problems import CorrectionTable, PerturbationCase
from magtopt.mesh import Region
from magtopt.problem_setup import build_benchmark_problem, default_levelset

Z1 = CorrectionTable.zeros(PerturbationCase.AIR_IN_FERRO)
Z2 = CorrectionTable.zeros(PerturbationCase.FERRO_IN_AIR)
RNG = np.random.default_rng(23)


@pytest.fixture(scope="module")
def square16():
    return build_benchmark_problem("square", 16)


@pytest.fixture(scope="module")
def space(square16):
    return op.DesignSpace(square16.mesh)


def random_unit_field(space, rng):
    f = op.LevelSetField(space, rng.normal(size=space.nodes.size))
    return f.normalized()


class TestInnerProduct:
    def test_constant_field_gives_design_area(self, square16, space):
        ones = op.LevelSetField(space, np.ones(space.nodes.size))
        assert op.l2_inner(ones, ones) == pytest.approx(space.area, rel=1e-12)

    def test_symmetry_exact(self, square16, space):
        a = random_unit_field(space, RNG)
        b = random_unit_field(space, RNG)
        assert op.l2_inner(a, b) == op.l2_inner(b, a)

    def test_cauchy_schwarz(self, square16, space):
        for _ in range(10):
            a = op.LevelSetField(space, RNG.normal(size=space.nodes.size))
            b = op.LevelSetField(space, RNG.normal(size=space.nodes.size))
            lhs = op.l2_inner(a, b) ** 2
            rhs = op.l2_inner(a, a) * op.l2_inner(b, b)
            assert lhs <= rhs * (1 + 1e-12)

    def test_mesh_mismatch_rejected(self, square16):
        other = build_benchmark_problem("square", 8)
        sp_a = op.DesignSpace(square16.mesh)
        sp_b = op.DesignSpace(other.mesh)
        a = op.LevelSetField(sp_a, np.ones(sp_a.nodes.size))
        b = op.LevelSetField(sp_b, np.ones(sp_b.nodes.size))
        with pytest.raises(ValueError):
            op.l2_inner(a, b)


class TestSlerp:
    def test_kappa_one_lands_on_target(self, space):
        psi = random_unit_field(space, RNG)
        g = random_unit_field(space, RNG)
        theta = np.arccos(np.clip(op.l2_inner(psi, g), -1, 1))
        out = op.slerp(psi, g, theta, 1.0)
        np.testing.assert_allclose(out.values, g.values, rtol=1e-9, atol=1e-12)

    def test_kappa_to_zero_stays_put(self, space):
        psi = random_unit_field(space, RNG)
        g = random_unit_field(space, RNG)
        theta = np.arccos(np.clip(op.l2_inner(psi, g), -1, 1))
        out = op.slerp(psi, g, theta, 1e-9)
        np.testing.assert_allclose(out.values, psi.values, rtol=1e-6)

    def test_norm_preserved(self, space):
        for _ in range(20):
            psi = random_unit_field(space, RNG)
            g = random_unit_field(space, RNG)
            theta = np.arccos(np.clip(op.l2_inner(psi, g), -1, 1))
            out = op.slerp(psi, g, theta, RNG.uniform(0.05, 0.95))
            assert abs(out.norm() - 1.0) <= 1e-10


class TestDesignSpace:
    def test_average_is_area_weighted_node_mean(self, square16, space):
        mesh = square16.mesh
        vals = RNG.normal(size=space.elements.size)
        avg = space.average(vals)
        # reference: the same weighted sums over global node numbers
        tr = mesh.tris[space.elements].ravel()
        w = np.repeat(mesh.areas[space.elements], 3)
        nodal = np.bincount(tr, weights=w * np.repeat(vals, 3),
                            minlength=mesh.n_nodes)
        wsum = np.bincount(tr, weights=w, minlength=mesh.n_nodes)
        nz = wsum > 0
        nodal[nz] /= wsum[nz]
        assert np.array_equal(avg.expand(), nodal)
        assert np.all(avg.values >= vals.min() - 1e-12)
        assert np.all(avg.values <= vals.max() + 1e-12)


class TestLevelSetField:
    def test_normalize(self, space):
        f = op.LevelSetField(space, 3.0 * np.ones(space.nodes.size))
        n = f.normalized()
        assert n.norm() == pytest.approx(1.0, abs=1e-12)
        assert f.norm() == pytest.approx(3.0 * np.sqrt(space.area), rel=1e-12)

    def test_zero_cannot_normalize(self, space):
        f = op.LevelSetField(space, np.zeros(space.nodes.size))
        with pytest.raises(ValueError, match="^cannot normalize the zero level set$"):
            f.normalized()

    def test_expand_layout(self, square16, space):
        f = random_unit_field(space, RNG)
        full = f.expand()
        assert full.shape == (square16.mesh.n_nodes,)
        np.testing.assert_array_equal(full[space.nodes], f.values)


class TestStepAndRun:
    def test_already_optimal_converges_at_zero(self, square16, marrocco,
                                               monkeypatch):
        driver = op.Driver(square16, marrocco, Z1, Z2)
        seed = default_levelset(square16.mesh)
        psi = op.LevelSetField(driver.space, seed[driver.space.nodes]).normalized()
        res, j0 = driver.solve(fem.ferro_element_mask(square16.mesh, psi.expand()))
        solves = []
        monkeypatch.setattr(fem, "solve_state", lambda *a, **k: solves.append(a))
        # a descent field parallel to the current design: theta = 0, which a
        # zero tolerance accepts too (slerp would divide by sin 0)
        parallel = op.LevelSetField(driver.space, 2.0 * psi.values)
        for theta_tol_deg in (1.0, 0.0):
            out = op.step(op.OptState(psi, j0, res), parallel, driver,
                          op.OptimizerOptions(theta_tol_deg=theta_tol_deg),
                          np.zeros(driver.space.elements.size))
            assert out.status == "converged"
            assert out.k == 0
        assert solves == []

    def test_zero_descent_field_converges_without_a_solve(self, square16,
                                                          marrocco, monkeypatch):
        driver = op.Driver(square16, marrocco, Z1, Z2)
        seed = default_levelset(square16.mesh)
        psi = op.LevelSetField(driver.space, seed[driver.space.nodes]).normalized()
        res, j0 = driver.solve(fem.ferro_element_mask(square16.mesh, psi.expand()))
        state = op.OptState(psi, j0, res)
        solves = []
        monkeypatch.setattr(fem, "solve_state", lambda *a, **k: solves.append(a))
        zero = op.LevelSetField(driver.space, np.zeros(driver.space.nodes.size))
        out = op.step(state, zero, driver, op.OptimizerOptions(),
                      np.zeros(driver.space.elements.size))
        assert out.status == "converged"
        assert out.k == 0 and out.records == []
        assert solves == []

    def test_run_monotone_and_unit_norm(self, marrocco, tables_coarse):
        prob = build_benchmark_problem("square", 16)
        t1, t2 = tables_coarse
        norms = []
        state = op.run(prob, marrocco, t1, t2,
                       op.OptimizerOptions(kappa_start=0.1, max_iter=12),
                       callback=lambda s: norms.append(s.psi.norm()))
        hist = state.objective_history
        assert state.k >= 3
        assert all(b < a for a, b in zip(hist, hist[1:]))
        assert all(abs(n - 1.0) <= 1e-10 for n in norms)
        assert state.status in ("stalled", "max_iter", "converged")

    def test_kappa_start_honored(self, marrocco, tables_coarse):
        prob = build_benchmark_problem("square", 16)
        t1, t2 = tables_coarse
        state = op.run(prob, marrocco, t1, t2,
                       op.OptimizerOptions(kappa_start=0.1, max_iter=2))
        assert state.records[0].kappa == pytest.approx(0.1)

    def test_records_have_diagnostics(self, marrocco, tables_coarse):
        prob = build_benchmark_problem("square", 16)
        t1, t2 = tables_coarse
        state = op.run(prob, marrocco, t1, t2,
                       op.OptimizerOptions(kappa_start=0.1, max_iter=3))
        for r in state.records:
            assert 0.0 <= r.ferro_fraction <= 1.0
            assert 0.0 <= r.theta_deg <= 180.0
            assert r.kappa > 0.0

    def test_stall_reported(self, linear_stub):
        # linear stub with zero tables: descent exhausts quickly and the run
        # must terminate as stalled or converged, never loop
        prob = build_benchmark_problem("square", 16)
        state = op.run(prob, linear_stub, Z1, Z2,
                       op.OptimizerOptions(kappa_start=0.1, max_iter=200))
        assert state.status in ("stalled", "converged")
        assert state.k < 200


class TestOptions:
    @pytest.mark.parametrize("key, value", [
        ("kappa_start", 0.0), ("kappa_start", np.nan), ("kappa_start", 1e-7),
        ("kappa_start", 1.5), ("theta_tol_deg", np.nan),
        ("theta_tol_deg", -1.0), ("theta_tol_deg", np.inf), ("max_iter", -1)])
    def test_bad_value_names_its_key(self, key, value):
        # each of these ended a run at once, or never by the angle test
        with pytest.raises(ValueError, match=f"^{key} = "):
            op.OptimizerOptions(**{key: value})

    def test_bounds_accepted(self):
        op.OptimizerOptions(kappa_start=op.KAPPA_MIN, theta_tol_deg=0.0,
                            max_iter=0)
        op.OptimizerOptions(kappa_start=1.0)


class TestStallLine:
    """A stalled run logs why it stalled: the flips that the last
    sensitivities predict to lower J, the smallest kappa that changed the
    mask and how the final step's trials went."""

    LINE = re.compile(
        r"stalled at iteration (\d+): (\d+) of (\d+) design elements "
        r"\(area (\S+)\) have a flip predicted to lower J; smallest kappa "
        r"that changed the mask: (\S+); of (\d+) trials, (\d+) raised J or "
        r"failed and (\d+) reproduced the design$")

    def test_logged_facts_match_a_recomputation(self, marrocco, caplog,
                                                monkeypatch):
        # square/32 on zero tables stalls after 12 iterations with trials of
        # both kinds in its final step
        prob = build_benchmark_problem("square", 32)
        fields, masks = [], []
        descent_field, solve = op.Driver.descent_field, op.Driver.solve

        def recorded_field(driver, state):
            fields.append(descent_field(driver, state))
            return fields[-1]

        def recorded_solve(driver, ferro_mask, x0=None):
            masks.append(ferro_mask)
            return solve(driver, ferro_mask, x0)

        monkeypatch.setattr(op.Driver, "descent_field", recorded_field)
        monkeypatch.setattr(op.Driver, "solve", recorded_solve)
        with caplog.at_level(logging.INFO, logger="magtopt.optimizer"):
            state = op.run(prob, marrocco, Z1, Z2, op.OptimizerOptions())
        assert state.status == "stalled" and state.k >= 1
        [logged] = [self.LINE.match(r.getMessage()) for r in caplog.records
                    if r.getMessage().startswith("stalled")]
        k, n_pred, n_design, area, min_kappa, n_trials, n_raised, n_same = \
            logged.groups()

        # a flip is predicted to lower J where the element's material
        # disagrees with the sign of its sensitivity in the last field
        descent, td = fields[-1]
        space = descent.space
        ferro = state.solution.ferro_mask[space.elements]
        predicted = np.where(ferro, td.element_values < 0.0,
                             td.element_values > 0.0)
        assert (int(k), int(n_pred), int(n_design)) == \
            (state.k, np.count_nonzero(predicted), space.elements.size)
        assert float(area) == pytest.approx(
            prob.mesh.areas[space.elements][predicted].sum(), rel=1e-5)
        assert int(n_pred) > 0

        # the final step's trials, recomputed from the returned design
        g = descent.normalized()
        theta = np.arccos(np.clip(op.l2_inner(state.psi, g), -1.0, 1.0))
        start = op.OptimizerOptions().kappa_start
        kappas = [start * 0.5 ** i for i in range(30)
                  if start * 0.5 ** i >= op.KAPPA_MIN]
        trial_masks = [fem.ferro_element_mask(
            prob.mesh, op.slerp(state.psi, g, theta, kappa).expand())
            for kappa in kappas]
        for recorded, recomputed in zip(masks[-len(kappas):], trial_masks):
            np.testing.assert_array_equal(recorded, recomputed)
        same = [np.array_equal(m, state.solution.ferro_mask) for m in trial_masks]
        changed = [kappa for kappa, s in zip(kappas, same) if not s]
        assert (int(n_trials), int(n_raised), int(n_same)) == \
            (len(kappas), len(changed), same.count(True))
        assert changed and min_kappa == f"{min(changed):g}"
        # along the slerp a centroid's level-set sign changes at most once
        # as kappa grows, so once a trial reproduces the design, every
        # smaller kappa does too
        first = same.index(True)
        assert all(same[first:])


class TestClampWarning:
    def test_one_warning_per_run_and_trajectory_unchanged(self, marrocco,
                                                          caplog):
        # zero tables on a short grid: every lookup clamps, every value is 0.
        # square/16, because the descent on square/8 stalls at iteration 0
        prob = build_benchmark_problem("square", 16)
        short = [CorrectionTable(case, [0.0, 1e-3], np.zeros(2), 0.0, 0.0,
                                 "disabled")
                 for case in PerturbationCase]
        options = op.OptimizerOptions(max_iter=2)

        def clamp_warnings():
            return [r for r in caplog.records if r.levelno == logging.WARNING
                    and "beyond the table grid" in r.getMessage()]

        with caplog.at_level(logging.WARNING, logger="magtopt.optimizer"):
            clamped = op.run(prob, marrocco, *short, options)
            assert len(clamp_warnings()) == 1
            assert "t[-1] = 0.001" in clamp_warnings()[0].getMessage()
            caplog.clear()
            plain = op.run(prob, marrocco, Z1, Z2, options)
            assert clamp_warnings() == []
        assert clamped.k == plain.k == 2
        assert clamped.records == plain.records
        assert clamped.status == plain.status


class TestFailedTrial:
    @staticmethod
    def failing_solves(monkeypatch, failing):
        """Make the state solves numbered in `failing` raise (call 1 is the
        initial design); returns the x0 each call was given."""
        solve = fem.solve_state
        starts = []

        def injected(*args, x0=None, **kwargs):
            starts.append(x0)
            if len(starts) in failing:
                raise fem.SolverError("injected failure", residual_norm=1.5)
            return solve(*args, x0=x0, **kwargs)

        monkeypatch.setattr(fem, "solve_state", injected)
        return starts

    def test_failed_trial_is_rejected(self, marrocco, monkeypatch, caplog):
        prob = build_benchmark_problem("square", 16)
        # the first trial's warm start and its cold retry both fail
        self.failing_solves(monkeypatch, {2, 3})
        # 0.1 = kappa_start/2 is the first step a kappa_start = 0.1 run accepts
        options = op.OptimizerOptions(kappa_start=0.2, max_iter=2)
        with caplog.at_level(logging.WARNING, logger="magtopt.optimizer"):
            state = op.run(prob, marrocco, Z1, Z2, options)
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "kappa=0.2 " in warnings[0] and "iteration 1" in warnings[0]
        assert "residual 1.5" in warnings[0]
        assert state.k == 2
        assert state.records[0].kappa == options.kappa_start / 2

    def test_failed_warm_start_retried_cold(self, marrocco, monkeypatch,
                                            caplog):
        prob = build_benchmark_problem("square", 16)
        starts = self.failing_solves(monkeypatch, {2})
        # every smaller kappa raises J here, so only a retry of the failed
        # kappa = 0.1 trial lets the run continue
        options = op.OptimizerOptions(kappa_start=0.1, max_iter=1)
        with caplog.at_level(logging.INFO, logger="magtopt.optimizer"):
            state = op.run(prob, marrocco, Z1, Z2, options)
        assert not [r for r in caplog.records if r.levelno == logging.WARNING]
        retries = [r.getMessage() for r in caplog.records
                   if "retrying from a cold start" in r.getMessage()]
        assert len(retries) == 1 and "residual 1.5" in retries[0]
        assert starts[0] is None and starts[1] is not None and starts[2] is None
        assert state.k == 1
        assert state.records[0].kappa == options.kappa_start

    def test_initial_solve_failure_raises(self, marrocco, monkeypatch):
        prob = build_benchmark_problem("square", 16)

        def fails(*args, **kwargs):
            raise fem.SolverError("injected failure", residual_norm=1.5)

        monkeypatch.setattr(fem, "solve_state", fails)
        with pytest.raises(fem.SolverError, match="injected failure"):
            op.run(prob, marrocco, Z1, Z2, op.OptimizerOptions(max_iter=2))


class TestMaskContract:
    """The descent decides each design's material mask and hands fem that
    mask, never a level set."""

    @pytest.fixture(scope="class")
    def recorded(self, marrocco, tables_coarse):
        """A square/16 descent: the keyword arguments of every fem.solve_state
        call, and (mask, x0, result, J) of every Driver.solve call."""
        prob = build_benchmark_problem("square", 16)
        state_kwargs, solves = [], []
        solve_state, solve = fem.solve_state, op.Driver.solve

        def recorded_state(*args, **kwargs):
            state_kwargs.append(kwargs)
            return solve_state(*args, **kwargs)

        def recorded_solve(driver, ferro_mask, x0=None):
            res, j = solve(driver, ferro_mask, x0)
            solves.append((ferro_mask, x0, res, j))
            return res, j

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fem, "solve_state", recorded_state)
            mp.setattr(op.Driver, "solve", recorded_solve)
            op.run(prob, marrocco, *tables_coarse, op.OptimizerOptions())
        return prob, state_kwargs, solves

    def test_every_state_solve_gets_a_mask(self, recorded):
        prob, state_kwargs, solves = recorded
        assert len(state_kwargs) == len(solves) >= 10
        for kwargs in state_kwargs:
            assert "levelset" not in kwargs and "sources" not in kwargs
            assert kwargs["ferro_mask"].dtype == bool
            assert kwargs["ferro_mask"].shape == (prob.mesh.n_tris,)

    def test_trial_with_the_designs_mask_reproduces_the_design(self, recorded):
        # such a trial is rejected by construction, so skipping it would
        # change the solve counts and nothing else
        _, _, solves = recorded
        designs = {id(res.field): (res, j) for _, _, res, j in solves}
        same = [(res, j, *designs[id(x0)]) for mask, x0, res, j in solves
                if x0 is not None
                and np.array_equal(mask, designs[id(x0)][0].ferro_mask)]
        assert len(same) >= 5
        for res, j, design, j_design in same:
            assert res.iterations == 0
            np.testing.assert_array_equal(res.field, design.field)
            assert j == j_design


class TestWarmStart:
    def test_descent_matches_cold_start(self, marrocco, tables_coarse,
                                        monkeypatch):
        prob = build_benchmark_problem("square", 32)
        opts = op.OptimizerOptions(kappa_start=0.1, max_iter=400)
        warm_starts = []
        solve = fem.solve_state

        def recorded(*args, x0=None, **kwargs):
            warm_starts.append(x0 is not None)
            return solve(*args, x0=x0, **kwargs)

        monkeypatch.setattr(fem, "solve_state", recorded)
        warm = op.run(prob, marrocco, *tables_coarse, opts)
        monkeypatch.setattr(fem, "solve_state",
                            lambda *args, x0=None, **kwargs: solve(*args, **kwargs))
        cold = op.run(prob, marrocco, *tables_coarse, opts)
        # every trial after the initial solve starts from the current design
        assert warm_starts == [False] + [True] * (len(warm_starts) - 1)
        assert warm.k == cold.k >= 10
        assert warm.status == cold.status
        assert [r.kappa for r in warm.records] == [r.kappa for r in cold.records]
        np.testing.assert_allclose(warm.objective_history,
                                   cold.objective_history, rtol=1e-9, atol=0)


class TestHeldLU:
    """A descent's state and adjoint solves share the Driver's fem.HeldLU,
    which holds at most one factorization."""

    @staticmethod
    def recorded_runs(marrocco, tables, n_runs):
        """n_runs descents on square/32. Returns, per run, the HeldLU each
        state solve was given and whether it was empty then; and, over all
        runs, whether the running descent's HeldLU (the last one made) was
        empty at each factorization, the state solves that took a Newton
        step and the adjoint solves."""
        prob = build_benchmark_problem("square", 32)
        made, runs, empty_at_factorize = [], [], []
        counts = {"stepping_state": 0, "adjoint": 0}
        factorize = fem.factorize
        solve_state, solve_adjoint = fem.solve_state, fem.solve_adjoint

        class Recorded(fem.HeldLU):
            def __init__(self):
                super().__init__()
                made.append(self)

        def counted_factorize(A):
            empty_at_factorize.append(made[-1].lu is None)
            return factorize(A)

        def counted_state(*args, held=None, **kwargs):
            runs[-1].append((held, held.lu is None))
            res = solve_state(*args, held=held, **kwargs)
            counts["stepping_state"] += res.iterations > 0
            return res

        def counted_adjoint(*args, **kwargs):
            counts["adjoint"] += 1
            return solve_adjoint(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fem, "HeldLU", Recorded)
            mp.setattr(fem, "factorize", counted_factorize)
            mp.setattr(fem, "solve_state", counted_state)
            mp.setattr(fem, "solve_adjoint", counted_adjoint)
            for _ in range(n_runs):
                runs.append([])
                op.run(prob, marrocco, *tables, op.OptimizerOptions())
        return runs, empty_at_factorize, counts

    @pytest.fixture(scope="class")
    def two_runs(self, marrocco, tables_coarse):
        return self.recorded_runs(marrocco, tables_coarse, 2)

    def test_empty_at_every_factorization(self, two_runs):
        _, empty_at_factorize, _ = two_runs
        assert len(empty_at_factorize) >= 2
        assert all(empty_at_factorize)

    def test_each_run_starts_empty(self, two_runs):
        runs, _, _ = two_runs
        (first, first_empty), (second, second_empty) = runs[0][0], runs[1][0]
        assert first_empty and second_empty
        assert first is not second
        # one HeldLU serves all the state solves of a run
        assert all(held is first for held, _ in runs[0])
        assert all(held is second for held, _ in runs[1])

    def test_fewer_factorizations_than_solves(self, two_runs):
        # without a shared LU, each state solve that takes a Newton step and
        # each adjoint solve factorizes at least once
        _, empty_at_factorize, counts = two_runs
        assert counts["adjoint"] >= 20
        assert len(empty_at_factorize) < counts["stepping_state"] + counts["adjoint"]


class TestFerroFraction:
    def test_all_positive_is_one(self, square16, space):
        psi = op.LevelSetField(space, np.ones(space.nodes.size))
        mask = fem.ferro_element_mask(square16.mesh, psi.expand())
        assert op.ferro_fraction(space, mask) == 1.0

    def test_all_negative_is_zero(self, square16, space):
        psi = op.LevelSetField(space, -np.ones(space.nodes.size))
        mask = fem.ferro_element_mask(square16.mesh, psi.expand())
        assert op.ferro_fraction(space, mask) == 0.0


class TestMiniMotor:
    def test_descends(self, marrocco, tables_coarse):
        prob = build_benchmark_problem("mini_motor", 48)
        t1, t2 = tables_coarse
        state = op.run(prob, marrocco, t1, t2,
                       op.OptimizerOptions(kappa_start=0.1, max_iter=5))
        hist = state.objective_history
        assert state.k >= 2
        assert all(b < a for a, b in zip(hist, hist[1:]))
