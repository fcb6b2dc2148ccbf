"""Tests of the benchmark's own logic: correctness checks, span arithmetic
and the traced counters. Run with `python -m pytest perfbench`."""
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from magtopt import fem, optimizer, problem_setup, topo_derivative  # noqa: E402
from magtopt.cell_problems import CorrectionTable, PerturbationCase  # noqa: E402
from magtopt.material import MarroccoCurve  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def tiny_descent():
    """A few descent iterations on the coarsest square benchmark, traced."""
    prob = problem_setup.build_benchmark_problem("square", 8)
    curve = MarroccoCurve()
    tables = (CorrectionTable.zeros(PerturbationCase.AIR_IN_FERRO),
              CorrectionTable.zeros(PerturbationCase.FERRO_IN_AIR))
    psi0 = problem_setup.default_levelset(prob.mesh)
    tracer = spans.Tracer("test")
    with spans.traced(tracer):
        state = optimizer.run(prob, curve, *tables,
                              optimizer.OptimizerOptions(max_iter=3),
                              levelset0=psi0)

    def fresh_j(levelset):
        res = fem.solve_state(prob.mesh, curve, levelset=levelset,
                              sources=prob.sources)
        return problem_setup.eval_objective(prob.mesh, res.field, prob.objective)

    return state, fresh_j(psi0), fresh_j(state.psi.expand()), tracer


def _descent_failures(state, j0, j_fresh, objective=None, reference=None):
    return checks.check_descent(
        state.status, state.k, j0, state.objective_history,
        state.objective if objective is None else objective, j_fresh, reference)


class TestDescentCheck:
    def test_untampered_run_passes(self, tiny_descent):
        state, j0, j_fresh, _ = tiny_descent
        ref = {"status": state.status, "iterations": state.k,
               "objective": state.objective}
        assert _descent_failures(state, j0, j_fresh, reference=ref) == []

    def test_tampered_final_j_fails(self, tiny_descent):
        state, j0, j_fresh, _ = tiny_descent
        assert _descent_failures(state, j0, j_fresh,
                                 objective=state.objective * (1 + 1e-7))

    def test_tampered_reference_j_fails(self, tiny_descent):
        state, j0, j_fresh, _ = tiny_descent
        ref = {"status": state.status, "iterations": state.k,
               "objective": state.objective * (1 + 1e-8)}
        assert _descent_failures(state, j0, j_fresh, reference=ref)

    def test_reference_trajectory_mismatch_fails(self, tiny_descent):
        state, j0, j_fresh, _ = tiny_descent
        ref = {"status": state.status, "iterations": state.k + 1,
               "objective": state.objective}
        assert _descent_failures(state, j0, j_fresh, reference=ref)

    def test_non_decreasing_history_fails(self):
        bad = checks.check_descent("stalled", 2, 1.0, [0.5, 0.5], 0.5, 0.5)
        assert any("strictly decrease" in b for b in bad)

    def test_invalid_status_fails(self):
        assert checks.check_descent("running", 1, 1.0, [0.5], 0.5, 0.5)


class TestTableCheck:
    T = np.linspace(0.0, 3.0, 5)
    E1 = np.array([0.0, -1.5, -4.0, -2.5, -1.0])
    E2 = np.array([0.0, 1e-17, -2e-17, 0.0, 3e-17])

    def ref(self):
        return {"t": self.T.tolist(), "j2_e1": self.E1.tolist(),
                "j2_e2": self.E2.tolist()}

    def test_untampered_table_passes(self):
        assert checks.check_table("I", self.T, self.E1, self.E2, self.ref()) == []

    def test_tampered_value_fails(self):
        e1 = self.E1.copy()
        e1[2] *= 1 + 1e-8
        assert checks.check_table("I", self.T, e1, self.E2, self.ref())

    def test_nonzero_origin_row_fails(self):
        e1 = self.E1.copy()
        e1[0] = 1e-3
        assert checks.check_table("I", self.T, e1, self.E2)

    def test_e2_above_roundoff_fails(self):
        e2 = self.E2.copy()
        e2[3] = 1e-6
        assert checks.check_table("I", self.T, self.E1, e2)


def _span(name, start, end, parent=-1, **attrs):
    return spans.Span(name, start, end, parent, "test", attrs)


class TestSpanArithmetic:
    def test_self_time_subtracts_covered_child_intervals(self):
        tree = [_span("optimizer.run", 0.0, 10.0),
                _span("fem.solve_state", 1.0, 4.0, 0),
                _span("fem.splu", 2.0, 3.0, 1),
                _span("vtkio.write_vtk", 3.5, 6.0, 0)]
        # children of the root cover [1, 6] as one interval
        np.testing.assert_allclose(spans.self_times(tree), [5.0, 2.0, 1.0, 2.5])

    def test_topo_derivative_self_time_excludes_children(self):
        tree = [_span("topo_derivative.assemble_generalized_td", 0.0, 1.0,
                      elements=3),
                _span("polarization.matrix_air_in_ferro", 0.1, 0.3, 0),
                _span("cell_problems.eval_correction", 0.3, 0.4, 0, clamped=1),
                _span("polarization.matrix_ferro_in_air", 0.5, 0.6, 0),
                _span("cell_problems.eval_correction", 0.6, 0.8, 0, clamped=0)]
        m = spans.layer_metrics(tree)
        assert m["topo_derivative.self_s"] == pytest.approx(0.4)
        assert m["topo_derivative.elements"] == 3
        assert m["polarization.calls"] == 2
        assert m["polarization.s"] == pytest.approx(0.3)
        assert m["cell_problems.lookups"] == 2
        assert m["cell_problems.lookup_clamped"] == 1

    def test_halvings_from_residual_counts(self):
        # 2 Newton steps, one halving: 1 + 2 + 1 residual evaluations
        tree = [_span("fem.solve_state", 0.0, 1.0, iterations=2)]
        tree += [_span("fem.assemble_flux_divergence", 0.1 * i, 0.1 * i + 0.05, 0)
                 for i in range(1, 5)]
        m = spans.layer_metrics(tree)
        assert (m["fem.residual_evals"], m["fem.halvings"]) == (4, 1)


class TestTracedRun:
    def test_halvings_never_negative_and_trials_match_solves(self, tiny_descent):
        *_, tracer = tiny_descent
        m = spans.layer_metrics(tracer.spans)
        assert m["fem.state_solves"] >= 2
        assert m["fem.halvings"] >= 0
        assert checks.check_trace(m, descent=True) == []

    def test_originals_restored_after_trace(self):
        original, lookup = fem.solve_state, topo_derivative.eval_correction
        splu = fem.spla.splu
        with spans.traced(spans.Tracer("test")):
            assert fem.solve_state is not original
            # imported by name, so patched where topo_derivative looks it up
            assert topo_derivative.eval_correction is not lookup
        assert fem.solve_state is original and fem.spla.splu is splu
        assert topo_derivative.eval_correction is lookup


def test_step_clock_excludes_setup_probes():
    probes = []

    def probe():
        probes.append(1)
        time.sleep(0.05)

    clock = workloads.StepClock(probe)
    t0 = clock.now()
    for _ in range(2 * workloads.PROBE_EVERY):
        clock.step()
    assert len(probes) == 2
    assert clock.paused >= 0.1
    assert clock.now() - t0 < 0.05
    assert max(clock.stamps) - min(clock.stamps) < 0.05
