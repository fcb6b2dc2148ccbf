"""The benchmark workloads: seeded inputs, cold set-up, the timed unit of
work (mirroring `magtopt optimize` and `magtopt build-tables`) and the
correctness check of its result.

Every function here drives magtopt through module attributes
(`optimizer.run`, not a name imported from it), so that a traced run sees the
calls the tracer wraps.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from magtopt import (cell_problems, cli, fem, optimizer, problem_setup,
                     vtkio)
from magtopt.cell_problems import PerturbationCase

import checks

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
CASES = ((PerturbationCase.AIR_IN_FERRO, "j2_case1.csv"),
         (PerturbationCase.FERRO_IN_AIR, "j2_case2.csv"))

#: coarse tables read by the descent workloads: the test suite's coarse disc
#: and 11 points up to 2.5 T. Lookups beyond 2.5 T clamp; that is a known
#: defect the optimize workloads keep visible.
COARSE_TABLES = {"h0": "0.1", "n_theta": "64", "t_max": "2.5", "n_samples": "11"}
#: relative amplitude of the seeded multiplicative perturbation of the
#: default level set; it keeps every sign, so the initial design is the same
LEVELSET_JITTER = 1e-3
#: fraction of the grid spacing by which interior table samples are jittered
GRID_JITTER = 0.25
#: step boundaries between two set-up samples taken inside a timed unit
PROBE_EVERY = 5
#: limit on building the coarse tables once per checkout
PREPARE_TIMEOUT_S = 600


def config(**overrides) -> dict:
    cfg = dict(cli.DEFAULTS)
    cfg.update({k: str(v) for k, v in overrides.items()})
    return cfg


def reference(workload: str):
    return json.loads(REFERENCE.read_text()).get(workload)


class StepClock:
    """Clock of one timed unit. `step()` marks a step boundary; every
    PROBE_EVERY-th boundary it calls `probe` (one cold set-up sample) with
    the clock paused, so that set-up time is sampled across the whole run
    without counting toward the unit."""

    def __init__(self, probe=None):
        self.stamps: list[float] = []
        self.paused = 0.0
        self.probe = probe

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def step(self) -> None:
        self.stamps.append(self.now())
        if self.probe is not None and len(self.stamps) % PROBE_EVERY == 0:
            t0 = time.perf_counter()
            self.probe()
            self.paused += time.perf_counter() - t0


@contextmanager
def before_calls(module, name: str, hook):
    """Call `hook()` at the start of each call of `module.name` inside the
    block."""
    fn = getattr(module, name)

    def hooked(*args, **kwargs):
        hook()
        return fn(*args, **kwargs)

    setattr(module, name, hooked)
    try:
        yield
    finally:
        setattr(module, name, fn)


def build_coarse_tables(out_dir: Path) -> None:
    """Build the descent workloads' input tables into out_dir, atomically."""
    cfg = config(**COARSE_TABLES)
    curve = cli.build_curve(cfg)
    grid = np.linspace(0.0, float(cfg["t_max"]), int(cfg["n_samples"]))
    out_dir.mkdir(parents=True, exist_ok=True)
    for case, fname in CASES:
        table = cell_problems.build_correction_table(curve, case, grid,
                                                     cli.disc_spec(cfg))
        tmp = out_dir / (fname + f".tmp{os.getpid()}")
        cell_problems.save_table(tmp, table, config_hash=cli.config_hash(cfg))
        os.replace(tmp, out_dir / fname)


class Optimize:
    """Full descent run on one shipped benchmark problem, as `magtopt
    optimize` does it, reading prebuilt coarse tables."""

    def __init__(self, name: str, problem: str, resolution: int):
        self.name = name
        self.cfg = config(problem=problem, resolution=resolution)

    def prepare(self, work: Path) -> None:
        self.tables_dir = work / "coarse-tables"
        if not all((self.tables_dir / f).exists() for _, f in CASES):
            # a plain child process, so its memory does not count toward this
            # run's peak RSS; unlike a multiprocessing child it leaves no
            # helper process behind, and run() waits for it (and kills and
            # reaps it on timeout)
            code = ("import sys; from pathlib import Path; "
                    "sys.path[:0] = sys.argv[1:3]; import workloads; "
                    "workloads.build_coarse_tables(Path(sys.argv[3]))")
            proc = subprocess.run(
                [sys.executable, "-c", code, str(HERE.parent / "src"),
                 str(HERE), str(self.tables_dir)], timeout=PREPARE_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError("building the coarse input tables failed")

    def setup(self):
        """Mesh, problem and objective, tables from CSV, design space."""
        cfg = self.cfg
        curve = cli.build_curve(cfg)
        prob = problem_setup.build_benchmark_problem(cfg["problem"],
                                                     int(cfg["resolution"]))
        t1, t2 = (cell_problems.load_table(self.tables_dir / f) for _, f in CASES)
        space = optimizer.DesignSpace(prob.mesh)
        return curve, prob, t1, t2, space

    def inputs(self, ctx, seed: int) -> np.ndarray:
        """Seed 0 is the shipped default level set; other seeds perturb it
        multiplicatively by LEVELSET_JITTER."""
        _, prob, _, _, space = ctx
        psi0 = problem_setup.default_levelset(prob.mesh)
        if seed != 0:
            rng = np.random.default_rng(seed)
            psi0[space.nodes] *= 1.0 + LEVELSET_JITTER * rng.uniform(
                -1.0, 1.0, space.nodes.size)
        return psi0

    def run(self, ctx, psi0, out: Path, clock: StepClock):
        """The timed unit: mirrors cmd_optimize. Returns the final state;
        each accepted iteration is a step of `clock`."""
        cfg = self.cfg
        curve, prob, t1, t2, _ = ctx
        opts = optimizer.OptimizerOptions(
            kappa_start=float(cfg["kappa_start"]),
            theta_tol_deg=float(cfg["theta_tol_deg"]),
            max_iter=int(cfg["max_iter"]))
        h = cli.config_hash(cfg)
        every = int(cfg["snapshot_every"])

        def snapshot(state):
            clock.step()
            if every > 0 and state.k % every == 0:
                vtkio.write_vtk(out / f"design_{state.k:04d}.vtk", prob.mesh,
                                point_data={"psi": state.psi.expand()},
                                title=f"magtopt design k={state.k} config={h}")

        state = optimizer.run(prob, curve, t1, t2, opts, levelset0=psi0,
                              callback=snapshot)
        with open(out / "iterations.csv", "w") as f:
            f.write(f"# config={h}\n")
            f.write("k,J,theta_deg,kappa,ferro_fraction\n")
            for r in state.records:
                f.write(f"{r.k},{r.objective:.17g},{r.theta_deg:.17g},"
                        f"{r.kappa:.17g},{r.ferro_fraction:.17g}\n")
        psi = state.psi.expand()
        vtkio.write_vtk(out / "design_final.vtk", prob.mesh,
                        point_data={"psi": psi},
                        cell_data={"ferro": fem.ferro_element_mask(
                            prob.mesh, psi).astype(float)},
                        title=f"magtopt final design config={h}")
        return state

    def check(self, ctx, psi0, state, clock: StepClock, out: Path, seed: int):
        """Step durations and correctness failures of one run."""
        curve, prob, *_ = ctx

        def fresh_j(levelset):
            res = fem.solve_state(prob.mesh, curve, levelset=levelset,
                                  sources=prob.sources)
            return problem_setup.eval_objective(prob.mesh, res.field, prob.objective)

        ref = reference(self.name) if seed == 0 else None
        bad = checks.check_descent(state.status, state.k, fresh_j(psi0),
                                   state.objective_history, state.objective,
                                   fresh_j(state.psi.expand()), ref)
        lines = (out / "iterations.csv").read_text().splitlines()
        if len(lines) != state.k + 2 or not (out / "design_final.vtk").exists():
            bad.append("run artifacts are incomplete")
        return list(np.diff(clock.stamps)), bad


class BuildTables:
    """Both correction tables on the default disc, serially, as `magtopt
    build-tables` does it, saved to CSV."""

    name = "build-tables"

    def __init__(self):
        self.cfg = config(n_samples=21)

    def prepare(self, work: Path) -> None:
        pass

    def setup(self):
        """Disc mesh generation, cold: the memoized mesh is dropped first."""
        cell_problems._mesh_cache.clear()
        spec = cli.disc_spec(self.cfg)
        cell_problems.disc_mesh(spec)
        return cli.build_curve(self.cfg), spec

    def inputs(self, ctx, seed: int) -> np.ndarray:
        """Seed 0 is the shipped grid; other seeds jitter the interior
        samples by up to GRID_JITTER of the spacing (ends stay fixed)."""
        t_max, n = float(self.cfg["t_max"]), int(self.cfg["n_samples"])
        grid = np.linspace(0.0, t_max, n)
        if seed != 0:
            rng = np.random.default_rng(seed)
            grid[1:-1] += GRID_JITTER * (t_max / (n - 1)) * rng.uniform(
                -1.0, 1.0, n - 2)
        return grid

    def run(self, ctx, grid, out: Path, clock: StepClock):
        """The timed unit: mirrors cmd_build_tables. Returns the tables; the
        start of each non-trivial sample and the end of each table are
        steps of `clock`."""
        curve, spec = ctx
        mesh = cell_problems.disc_mesh(spec)
        h = cli.config_hash(self.cfg)
        tables = []

        def step():
            clock.step()
            # a set-up probe replaces the memoized mesh; the unit keeps its own
            cell_problems._mesh_cache[spec] = mesh

        with before_calls(cell_problems, "solve_direct_variation", step):
            for case, fname in CASES:
                table = cell_problems.build_correction_table(
                    curve, case, grid, spec, workers=1)
                step()
                cell_problems.save_table(out / fname, table, config_hash=h)
                tables.append(table)
        return tables

    def check(self, ctx, grid, tables, clock: StepClock, out: Path, seed: int):
        """Step durations and correctness failures of one run."""
        stamps = clock.stamps
        nontrivial = int(np.count_nonzero(grid))
        if len(stamps) != len(CASES) * (nontrivial + 1):
            raise RuntimeError(f"{len(stamps)} step stamps for "
                               f"{len(CASES)} x {nontrivial} samples")
        steps = []
        for c in range(len(CASES)):
            steps += list(np.diff(stamps[c * (nontrivial + 1):(c + 1) * (nontrivial + 1)]))
        ref = reference(self.name) if seed == 0 else None
        bad = []
        for (case, fname), table in zip(CASES, tables):
            bad += checks.check_table(case.value, table.t, table.j2_e1,
                                      table.j2_e2, ref and ref[case.value])
            saved = cell_problems.load_table(out / fname)
            if not (np.array_equal(saved.j2_e1, table.j2_e1)
                    and np.array_equal(saved.t, grid)):
                bad.append(f"{fname} does not hold the built table")
        return steps, bad


WORKLOADS = {w.name: w for w in (Optimize("optimize-square", "square", 64),
                                  Optimize("optimize-motor", "mini_motor", 96),
                                  BuildTables())}
