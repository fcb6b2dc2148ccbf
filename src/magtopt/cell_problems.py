"""Exterior transmission problems at unit scale and the nonlinear correction
term of the sensitivity formulas.

A unit-disk inclusion sits at the origin of a large truncated disc (default
radius 1000, homogeneous Dirichlet outer boundary; the fields decay like
1/|x| or faster, so truncation is benign). Two material arrangements:

  AIR_IN_FERRO ("I")   linear air inside the inclusion, nonlinear law outside
  FERRO_IN_AIR ("II")  nonlinear law inside, linear air outside

The direct variation solves a quasilinear problem (Newton), the adjoint
variation a linear one; both vanish on the outer boundary. The correction
term integrates the material nonlinearity at the direct variation against
the adjoint data over the nonlinear side; it is linear in the adjoint
gradient and invariant under joint rotation of both gradients, which reduces
its precomputation to two 1D tables in the state-gradient magnitude.
"""
from __future__ import annotations

import concurrent.futures as cf
import contextlib
import enum
import functools
import io
from dataclasses import dataclass, field

import numpy as np

from . import fem, material
from .mesh import Region, TriMesh, generate_disc_mesh


class PerturbationCase(enum.Enum):
    """Material swap direction; values match the table wire format."""
    AIR_IN_FERRO = "I"
    FERRO_IN_AIR = "II"


@dataclass(frozen=True)
class DiscSpec:
    """Truncated-disc discretization parameters."""
    radius: float = 1000.0
    h0: float = 0.05
    growth: float = 1.15
    n_theta: int = 128

    def build(self) -> TriMesh:
        return generate_disc_mesh(self.radius, 1.0, self.growth,
                                  self.h0, self.n_theta)

    def refined(self, factor: float) -> "DiscSpec":
        return DiscSpec(self.radius, self.h0 / factor, self.growth,
                        int(round(self.n_theta * factor)))


_mesh_cache: dict = {}


def disc_mesh(spec: DiscSpec) -> TriMesh:
    """Memoized mesh for a disc spec (meshes are immutable)."""
    if spec not in _mesh_cache:
        _mesh_cache[spec] = spec.build()
    return _mesh_cache[spec]


@dataclass
class CellSolution:
    """Nodal solution of one cell problem with its input gradients."""
    mesh: TriMesh
    values: np.ndarray
    case: PerturbationCase
    grad_u: np.ndarray
    grad_p: np.ndarray | None = None

    def element_gradients(self) -> np.ndarray:
        return self.mesh.element_gradients(self.values)


def _sides(mesh: TriMesh, case: PerturbationCase):
    """(inclusion mask, nonlinear-side mask, rhs sign) for a disc mesh."""
    inclusion = mesh.region == Region.DESIGN
    if case is PerturbationCase.AIR_IN_FERRO:
        return inclusion, ~inclusion, -1.0
    return inclusion, inclusion, +1.0


def solve_direct_variation(curve, grad_u, case: PerturbationCase,
                           disc: TriMesh, tol: float = 1e-10,
                           max_iter: int = 50) -> CellSolution:
    """Damped-Newton solve (fem.damped_newton) of the nonlinear transmission
    problem for the variation of the direct state. A zero state gradient
    gives the trivial solution without solving.
    """
    grad_u = np.asarray(grad_u, dtype=float)
    inclusion, nonlin, sign = _sides(disc, case)
    n = disc.n_nodes
    if np.hypot(grad_u[0], grad_u[1]) == 0.0:
        return CellSolution(disc, np.zeros(n), case, grad_u)

    nu0 = curve.nu_air
    nu_u0 = float(curve.nu(np.hypot(grad_u[0], grad_u[1])))
    f_el = np.zeros((disc.n_tris, 2))
    f_el[inclusion] = sign * (nu0 - nu_u0) * grad_u
    rhs = fem.assemble_flux_divergence(disc, f_el)

    free = fem._free_nodes(disc)
    t_u0 = material.flux_map(curve, grad_u)

    def residual(h):
        gh = disc.element_gradients(h)
        flux = nu0 * gh
        flux[nonlin] = material.flux_map(curve, grad_u + gh[nonlin]) - t_u0
        return fem.assemble_flux_divergence(disc, flux) - rhs

    def jacobian(h):
        gh = disc.element_gradients(h)
        return fem.assemble_stiffness(
            disc, fem._material_jacobian(curve, nonlin, grad_u + gh))

    tol_eff = tol * np.linalg.norm(rhs[free]) + 1e-14
    h, _, _ = fem.damped_newton(residual, jacobian, np.zeros(n), free,
                                tol_eff, max_iter, max_halvings=20)
    return CellSolution(disc, h, case, grad_u)


def solve_adjoint_variation(curve, grad_u, grad_p, case: PerturbationCase,
                            disc: TriMesh) -> CellSolution:
    """Single linear solve for the variation of the adjoint state."""
    grad_u = np.asarray(grad_u, dtype=float)
    grad_p = np.asarray(grad_p, dtype=float)
    inclusion, nonlin, sign = _sides(disc, case)
    nu0 = curve.nu_air
    dt_u0 = material.flux_jacobian(curve, grad_u)

    coeff = np.zeros((disc.n_tris, 2, 2))
    coeff[:, 0, 0] = coeff[:, 1, 1] = nu0
    coeff[nonlin] = dt_u0
    jac = fem.assemble_stiffness(disc, coeff)

    f_el = np.zeros((disc.n_tris, 2))
    f_el[inclusion] = sign * (nu0 * np.eye(2) - dt_u0) @ grad_p
    rhs = fem.assemble_flux_divergence(disc, f_el)

    k = fem.solve_free(jac, rhs, fem._free_nodes(disc))
    return CellSolution(disc, k, case, grad_u, grad_p)


def analytic_adjoint_variation(curve, grad_u, grad_p, x):
    """Closed-form adjoint variation for the ferro-in-air arrangement.

    In the frame aligned with the state gradient the solution separates per
    direction into a_i x_i inside the unit disk and a_i x_i/|x|^2 outside,
    the single coefficient per direction fixed by continuity plus the
    flux-jump condition: a_1 = (nu0-lam2)/(nu0+lam2),
    a_2 = (nu0-lam1)/(nu0+lam1). Accepts one point or an (n, 2) array.
    """
    grad_u = np.asarray(grad_u, dtype=float)
    grad_p = np.asarray(grad_p, dtype=float)
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    t = float(np.hypot(grad_u[0], grad_u[1]))
    lam1, lam2 = (float(v) for v in material.jacobian_eigenvalues(curve, t))
    nu0 = curve.nu_air
    if t > 0:
        e1 = grad_u / t
    else:
        e1 = np.array([1.0, 0.0])
    e2 = np.array([-e1[1], e1[0]])
    a1 = (nu0 - lam2) / (nu0 + lam2)
    a2 = (nu0 - lam1) / (nu0 + lam1)
    v1, v2 = float(grad_p @ e1), float(grad_p @ e2)
    x1, x2 = pts @ e1, pts @ e2
    r2 = np.maximum(x1 * x1 + x2 * x2, 1e-300)
    inside = r2 <= 1.0
    vals = np.where(inside, v1 * a1 * x1 + v2 * a2 * x2,
                    (v1 * a1 * x1 + v2 * a2 * x2) / r2)
    return float(vals[0]) if np.ndim(x) == 1 else vals


def compute_correction(curve, grad_u, grad_p, case: PerturbationCase,
                       disc: TriMesh, direct: CellSolution = None,
                       adjoint: CellSolution = None) -> float:
    """Correction term: the material nonlinearity evaluated at the direct
    variation, integrated against the adjoint data over the nonlinear side
    (exterior for air-in-ferro, inclusion for ferro-in-air), by centroid
    quadrature. Solves both cell problems internally unless supplied.
    """
    grad_u = np.asarray(grad_u, dtype=float)
    grad_p = np.asarray(grad_p, dtype=float)
    if direct is None:
        direct = solve_direct_variation(curve, grad_u, case, disc)
    if adjoint is None:
        adjoint = solve_adjoint_variation(curve, grad_u, grad_p, case, disc)
    _, nonlin, _ = _sides(disc, case)
    gh = direct.element_gradients()[nonlin]
    gk = adjoint.element_gradients()[nonlin]
    s_el = material.nonlinearity(curve, np.broadcast_to(grad_u, gh.shape), gh)
    integrand = np.einsum("ei,ei->e", s_el, grad_p + gk)
    return float(np.sum(integrand * disc.areas[nonlin]))


# ---------------------------------------------------------------------------
# precomputed tables

@dataclass
class CorrectionTable:
    """Samples of the correction term along t = |grad_u| for grad_p = e1 and e2.

    The e2 column is zero in the continuum (reflection symmetry plus
    linearity in grad_p) and stays near machine zero on the symmetric disc mesh;
    it is kept for the evaluation formula and as a discretization check.
    """
    case: PerturbationCase
    t: np.ndarray
    j2_e1: np.ndarray
    j2_e2: np.ndarray
    radius: float
    h0: float
    curve_hash: str
    clamp_count: int = field(default=0, compare=False)

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.j2_e1 = np.asarray(self.j2_e1, dtype=float)
        self.j2_e2 = np.asarray(self.j2_e2, dtype=float)
        if self.t.size == 0:
            raise ValueError("empty table")
        if self.t[0] != 0.0 or (self.j2_e1[0], self.j2_e2[0]) != (0.0, 0.0):
            raise ValueError("table must start with the zero row")
        if self.t.size > 1 and np.any(np.diff(self.t) <= 0):
            raise ValueError("table grid must be strictly increasing")

    @classmethod
    def zeros(cls, case: PerturbationCase) -> "CorrectionTable":
        """Table that evaluates to exactly zero (correction term disabled)."""
        return cls(case, np.array([0.0, 1.0]), np.zeros(2), np.zeros(2),
                   0.0, 0.0, "disabled")


def default_t_grid(t_max: float = 3.0, n: int = 61) -> np.ndarray:
    return np.linspace(0.0, t_max, n)


def _table_sample(curve, case, spec: DiscSpec, t: float):
    disc = disc_mesh(spec)
    if t == 0.0:
        return 0.0, 0.0
    grad_u = np.array([t, 0.0])
    direct = solve_direct_variation(curve, grad_u, case, disc)
    out = []
    for grad_p in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        adjoint = solve_adjoint_variation(curve, grad_u, grad_p, case, disc)
        out.append(compute_correction(curve, grad_u, grad_p, case, disc,
                                      direct=direct, adjoint=adjoint))
    return tuple(out)


def build_correction_table(curve, case: PerturbationCase, t_grid=None,
                   disc_spec: DiscSpec = None, workers: int = 1) -> CorrectionTable:
    """Solve the cell problems for each grid value of t = |grad_u| and tabulate
    the two correction components. The t = 0 row is exact zeros by theory.

    Failures abort with the offending sample index. With workers > 1 the
    samples run in separate processes; results are gathered in grid order,
    so the output is schedule-independent.
    """
    t_grid = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    spec = disc_spec or DiscSpec()
    if t_grid.size == 0 or t_grid[0] != 0.0:
        raise ValueError("t grid must be non-empty and start at 0")
    sample = functools.partial(_table_sample, curve, case, spec)
    ts = t_grid.tolist()
    vals = np.zeros((len(ts), 2))
    with (cf.ProcessPoolExecutor(max_workers=workers) if workers > 1
          else contextlib.nullcontext()) as pool:
        samples = map(sample, ts) if pool is None else pool.map(sample, ts)
        for i, t in enumerate(ts):
            try:
                vals[i] = next(samples)
            except fem.SolverError as exc:
                raise fem.SolverError(
                    f"table sample {i} (t = {t:g}) failed: {exc}",
                    residual_norm=exc.residual_norm) from exc
    return CorrectionTable(case, t_grid, vals[:, 0], vals[:, 1],
                   spec.radius, spec.h0, curve.cache_key())


def eval_correction(table: CorrectionTable, grad_u, grad_p) -> float:
    """Table evaluation of the correction term:

        s cos(phi-theta) j2_e1(t) + s sin(phi-theta) j2_e2(t)

    with t = |grad_u| (piecewise-linear in t, clamped at the grid ends with a
    counter bump), s = |grad_p|, theta/phi the angles of grad_u/grad_p. Zero grad_u or grad_p
    gives zero.
    """
    grad_u = np.asarray(grad_u, dtype=float)
    grad_p = np.asarray(grad_p, dtype=float)
    t = float(np.hypot(grad_u[0], grad_u[1]))
    s = float(np.hypot(grad_p[0], grad_p[1]))
    if t == 0.0 or s == 0.0:
        return 0.0
    if t > table.t[-1] or t < table.t[0]:
        table.clamp_count += 1
        t = min(max(t, table.t[0]), table.t[-1])
    j1 = float(np.interp(t, table.t, table.j2_e1))
    j2 = float(np.interp(t, table.t, table.j2_e2))
    d = np.arctan2(grad_p[1], grad_p[0]) - np.arctan2(grad_u[1], grad_u[0])
    return s * np.cos(d) * j1 + s * np.sin(d) * j2


# ---------------------------------------------------------------------------
# table CSV I/O

def save_table(path, table: CorrectionTable, config_hash: str = None) -> None:
    buf = io.StringIO()
    buf.write(f"# case={table.case.value} radius={table.radius:.17g} "
              f"h0={table.h0:.17g} curve={table.curve_hash}\n")
    if config_hash:
        buf.write(f"# config={config_hash}\n")
    buf.write("t,j2_e1,j2_e2\n")
    for t, a, b in zip(table.t, table.j2_e1, table.j2_e2):
        buf.write(f"{t:.17g},{a:.17g},{b:.17g}\n")
    with open(path, "w", newline="") as f:
        f.write(buf.getvalue())


def load_table(path) -> CorrectionTable:
    meta = {}
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    if "=" in tok:
                        k, v = tok.split("=", 1)
                        meta[k] = v
                continue
            if line.lower().startswith("t,"):
                continue
            rows.append([float(c) for c in line.split(",")])
    missing = [k for k in ("case", "radius", "h0", "curve") if k not in meta]
    if missing:
        raise ValueError(f"{path}: table header lacks {', '.join(missing)}")
    data = np.asarray(rows)
    return CorrectionTable(PerturbationCase(meta["case"]), data[:, 0],
                           data[:, 1], data[:, 2], float(meta["radius"]),
                           float(meta["h0"]), meta["curve"])
