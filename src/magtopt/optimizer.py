"""Level-set descent on the unit sphere of L2 over the design region.

The design is a nodal level set psi (positive = ferromagnetic) kept at unit
L2 norm. Each iteration rotates psi toward the normalized generalized
descent field by spherical interpolation; the step parameter kappa is halved
until the objective strictly decreases. The fixed point psi = c * field is
the discrete optimality condition, detected through the angle between the
two unit vectors.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import fem, problem_setup, topo_derivative
from .cell_problems import CorrectionTable
from .mesh import Region, TriMesh
from .problem_setup import Problem

log = logging.getLogger("magtopt.optimizer")

#: smallest kappa tried before a step counts as stalled
KAPPA_MIN = 2.0 ** -20


class DesignSpace:
    """Design-region function space: node set, P1 mass matrix and the
    area-weighted node average of element values.

    The mass matrix integrates products of P1 functions over the DESIGN
    elements exactly (consistent element mass A/12 [[2,1,1],[1,2,1],[1,1,2]]).
    """

    def __init__(self, mesh: TriMesh):
        self.mesh = mesh
        self.elements = np.flatnonzero(mesh.region == Region.DESIGN)
        if self.elements.size == 0:
            raise ValueError("mesh has no DESIGN region")
        self.nodes = np.unique(mesh.tris[self.elements].ravel())
        self.area = float(mesh.areas[self.elements].sum())
        glob2loc = -np.ones(mesh.n_nodes, dtype=np.int64)
        glob2loc[self.nodes] = np.arange(self.nodes.size)
        tr = glob2loc[mesh.tris[self.elements]]
        a = mesh.areas[self.elements]
        base = (np.ones((3, 3)) + np.eye(3)) / 12.0
        data = a[:, None, None] * base
        rows = np.repeat(tr, 3, axis=1).ravel()
        cols = np.tile(tr, (1, 3)).ravel()
        m = self.nodes.size
        self.mass = sp.csr_matrix((data.ravel(), (rows, cols)), shape=(m, m))
        self._corners = tr.ravel()
        self._corner_areas = np.repeat(a, 3)
        self._area_sums = np.bincount(self._corners, weights=self._corner_areas,
                                      minlength=m)

    def average(self, element_values: np.ndarray) -> "LevelSetField":
        """P1 field whose value at each design node is the area-weighted mean
        of element_values (one per DESIGN element) over its design
        elements."""
        w = self._corner_areas * np.repeat(element_values, 3)
        sums = np.bincount(self._corners, weights=w, minlength=self.nodes.size)
        return LevelSetField(self, sums / self._area_sums)


@dataclass
class LevelSetField:
    """Nodal level-set values over the design nodes."""
    space: DesignSpace
    values: np.ndarray

    def norm(self) -> float:
        v = self.values
        return float(np.sqrt(v @ (self.space.mass @ v)))

    def normalized(self) -> "LevelSetField":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero level set")
        return LevelSetField(self.space, self.values / n)

    def expand(self) -> np.ndarray:
        """Full-length nodal vector (zeros outside the design node set)."""
        out = np.zeros(self.space.mesh.n_nodes)
        out[self.space.nodes] = self.values
        return out


def l2_inner(a: LevelSetField, b: LevelSetField) -> float:
    """L2 inner product over the design region; symmetric under swap exactly
    (evaluated in symmetrized form)."""
    if a.space is not b.space:
        raise ValueError("fields must share the same design space")
    m = a.space.mass
    return 0.5 * (float(a.values @ (m @ b.values))
                  + float(b.values @ (m @ a.values)))


def slerp(psi: LevelSetField, g: LevelSetField, theta: float,
          kappa: float) -> LevelSetField:
    """Spherical step from unit psi toward unit g by fraction kappa of theta;
    stays on the L2 unit sphere (renormalized against roundoff drift)."""
    st = np.sin(theta)
    vals = (np.sin((1.0 - kappa) * theta) * psi.values
            + np.sin(kappa * theta) * g.values) / st
    return LevelSetField(psi.space, vals).normalized()


def ferro_fraction(space: DesignSpace, ferro_mask: np.ndarray) -> float:
    """Area fraction of the design region that a per-element ferro mask
    (StateResult.ferro_mask) marks ferromagnetic."""
    ferro = ferro_mask[space.elements]
    a = space.mesh.areas[space.elements]
    return float(a[ferro].sum() / space.area)


@dataclass
class OptimizerOptions:
    kappa_start: float = 0.1          # paper practice; Algorithm default is 1
    theta_tol_deg: float = 1.0
    max_iter: int = 400

    def __post_init__(self):
        if not KAPPA_MIN <= self.kappa_start <= 1.0:
            raise ValueError(f"kappa_start = {self.kappa_start:g} outside [KAPPA_MIN, 1]")
        if not 0.0 <= self.theta_tol_deg < np.inf:
            raise ValueError(f"theta_tol_deg = {self.theta_tol_deg:g} is not "
                             "finite and >= 0")
        if self.max_iter < 0:
            raise ValueError(f"max_iter = {self.max_iter} is negative")


@dataclass
class IterationRecord:
    k: int
    objective: float
    theta_deg: float
    kappa: float
    ferro_fraction: float


@dataclass
class OptState:
    """Descent trajectory. objective_history is strictly decreasing across
    accepted iterations by the acceptance rule."""
    psi: LevelSetField
    objective: float
    solution: fem.StateResult   # state solve at the current psi
    k: int = 0
    status: str = "running"
    records: list = field(default_factory=list)

    @property
    def objective_history(self):
        return [r.objective for r in self.records]


class Driver:
    """Bundles the PDE pipeline for one problem: state/adjoint solves,
    descent-field assembly, and objective evaluation per level set. Its
    state and adjoint solves share one fem.HeldLU, since consecutive
    matrices differ only where a few elements flipped; it starts empty."""

    def __init__(self, problem: Problem, curve,
                 table_air_in_ferro: CorrectionTable,
                 table_ferro_in_air: CorrectionTable):
        self.problem = problem
        self.curve = curve
        self.tables = (table_air_in_ferro, table_ferro_in_air)
        self.space = DesignSpace(problem.mesh)
        self.rhs = fem.assemble_rhs(problem.mesh, problem.sources)
        self.held = fem.HeldLU()

    def solve(self, psi: LevelSetField,
              x0: np.ndarray = None) -> tuple[fem.StateResult, float]:
        """State solve and objective at psi; x0 is the Newton start (zero
        by default)."""
        res = fem.solve_state(self.problem.mesh, self.curve,
                              levelset=psi.expand(), rhs=self.rhs, x0=x0,
                              held=self.held)
        j = problem_setup.eval_objective(self.problem.mesh, res.field,
                                         self.problem.objective)
        return res, j

    def descent_field(self, state: fem.StateResult) -> tuple[LevelSetField, int]:
        """Descent field at the solved design over the design nodes, with its
        count of clamped table lookups."""
        gvec = problem_setup.assemble_adjoint_rhs(self.problem.mesh, state.field,
                                                  self.problem.objective)
        p = fem.solve_adjoint(state, -gvec, held=self.held)
        td = topo_derivative.assemble_generalized_td(state, p, *self.tables)
        return self.space.average(td.element_values), td.n_clamped


def _solve_trial(driver: Driver, trial: LevelSetField, u0, kappa: float,
                 k: int):
    """State solve of a kappa trial started from u0; a warm start that fails
    is retried once from a cold start, whose failure propagates."""
    try:
        return driver.solve(trial, x0=u0)
    except fem.SolverError as exc:
        log.info("warm-started state solve failed in trial kappa=%g at "
                 "iteration %d (residual %s): %s; retrying from a cold start",
                 kappa, k, exc.residual_norm, exc)
    return driver.solve(trial)


def step(state: OptState, descent: LevelSetField, driver: Driver,
         options: OptimizerOptions) -> OptState:
    """One accepted descent iteration (or a terminal state).

    Computes theta between the current psi and the normalized descent field,
    then tries kappa_start, kappa_start/2, ... accepting the first trial
    whose objective strictly decreases. Each trial's state solve starts from
    the current design's field, so a trial with the design's own material
    mask converges at once to the same J and is rejected. A warm-started
    solve that fails is retried once from a cold start; a trial whose cold
    solve fails too is rejected like one that does not decrease the
    objective (with a logged warning). Underflow of kappa marks a stall,
    theta at or below tolerance marks convergence.
    """
    if descent.norm() == 0.0:
        state.status = "converged"
        return state
    g = descent.normalized()
    cos_t = float(np.clip(l2_inner(state.psi, g), -1.0, 1.0))
    theta = float(np.arccos(cos_t))
    if np.degrees(theta) <= options.theta_tol_deg:
        state.status = "converged"
        return state

    u0 = state.solution.field
    kappa = options.kappa_start
    while kappa >= KAPPA_MIN:
        trial = slerp(state.psi, g, theta, kappa)
        try:
            res, j_try = _solve_trial(driver, trial, u0, kappa, state.k + 1)
        except fem.SolverError as exc:
            log.warning("state solve failed in trial kappa=%g at iteration %d "
                        "(residual %s): %s; trial rejected",
                        kappa, state.k + 1, exc.residual_norm, exc)
        else:
            if j_try < state.objective:
                state.k += 1
                state.psi = trial
                state.objective = j_try
                state.records.append(IterationRecord(
                    state.k, j_try, np.degrees(theta), kappa,
                    ferro_fraction(driver.space, res.ferro_mask)))
                state.solution = res
                return state
        kappa *= 0.5
    state.status = "stalled"
    return state


def run(problem: Problem, curve, table_air_in_ferro: CorrectionTable,
        table_ferro_in_air: CorrectionTable,
        options: OptimizerOptions = None, levelset0: np.ndarray = None,
        callback=None) -> OptState:
    """Full descent loop; returns the trajectory with a terminal status in
    {"converged", "stalled", "max_iter"}.

    levelset0: full nodal seed (default: the problem's smooth all-ferro
    bump); callback(state) runs after every accepted iteration. Table
    lookups beyond a table's grid, summed over the run, are logged once as a
    warning at the end.
    """
    options = options or OptimizerOptions()
    driver = Driver(problem, curve, table_air_in_ferro, table_ferro_in_air)
    seed = problem_setup.default_levelset(problem.mesh) if levelset0 is None \
        else np.asarray(levelset0, dtype=float)
    psi = LevelSetField(driver.space, seed[driver.space.nodes]).normalized()

    res, j0 = driver.solve(psi)
    state = OptState(psi, j0, solution=res)
    log.info("initial objective %.6e", j0)

    n_clamped = 0
    while state.k < options.max_iter:
        g, clamped = driver.descent_field(state.solution)
        n_clamped += clamped
        step(state, g, driver, options)
        if state.status != "running":
            break
        rec = state.records[-1]
        log.info("iter %3d  J=%.6e  theta=%6.2f deg  kappa=%g  ferro=%.3f",
                 rec.k, rec.objective, rec.theta_deg, rec.kappa,
                 rec.ferro_fraction)
        if callback is not None:
            callback(state)
    if state.status == "running":
        state.status = "max_iter"
    log.info("finished: %s after %d iterations, J=%.6e",
             state.status, state.k, state.objective)
    if n_clamped:
        log.warning("%d correction-table lookups had |grad u| beyond the "
                    "table grid and were held at its last value "
                    "(t[-1] = %g case I, %g case II)",
                    n_clamped, *(t.t[-1] for t in driver.tables))
    return state
