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
from dataclasses import dataclass

import numpy as np

from . import fem, material, polarization
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


def _sides(mesh: TriMesh, case: PerturbationCase):
    """(inclusion mask, nonlinear-side mask, rhs sign) for a disc mesh."""
    inclusion = mesh.region == Region.DESIGN
    if case is PerturbationCase.AIR_IN_FERRO:
        return inclusion, ~inclusion, -1.0
    return inclusion, inclusion, +1.0


def factorize_jacobian0(curve, grad_u, case: PerturbationCase,
                        disc: TriMesh):
    """Factorization of the free block of the direct-variation Jacobian at
    h = 0, which is also the adjoint-variation matrix."""
    _, nonlin, _ = _sides(disc, case)
    coeff = fem._material_jacobian(
        curve, nonlin, np.broadcast_to(np.asarray(grad_u, dtype=float),
                                       (disc.n_tris, 2)))
    return fem.factorize(fem.assemble_stiffness(disc, coeff))


def solve_direct_variation(curve, grad_u, case: PerturbationCase, disc: TriMesh,
                           max_iter: int = 50, lu0=None) -> np.ndarray:
    """Damped-Newton solve (fem.damped_newton, to ||r||_2 <= fem.TOL_REL ||F||_2
    + 1e-14) of the nonlinear transmission problem for the variation of the
    direct state; nodal values (n,). A zero state gradient gives the trivial
    solution without solving. `lu0` (factorize_jacobian0) replaces the first
    Newton step's factorization."""
    grad_u = np.asarray(grad_u, dtype=float)
    inclusion, nonlin, sign = _sides(disc, case)
    if np.hypot(grad_u[0], grad_u[1]) == 0.0:
        return np.zeros(disc.n_nodes)

    nu0 = curve.nu_air
    nu_u0 = float(curve.nu(np.hypot(grad_u[0], grad_u[1])))
    f_el = np.zeros((disc.n_tris, 2))
    f_el[inclusion] = sign * (nu0 - nu_u0) * grad_u
    rhs = fem.assemble_flux_divergence(disc, f_el)

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

    free, _ = fem._free_block(disc)
    tol = fem.TOL_REL * np.linalg.norm(rhs[free]) + 1e-14
    h, _, _ = fem.damped_newton(residual, jacobian, np.zeros(disc.n_nodes), disc,
                                tol, max_iter, jac0=lu0)
    return h


def solve_adjoint_variation(curve, grad_u, grad_p, case: PerturbationCase,
                            disc: TriMesh, lu0=None) -> np.ndarray:
    """Linear solve for the variation of the adjoint state, whose matrix is
    the direct-variation Jacobian at h = 0 (factorized here unless `lu0`
    from factorize_jacobian0 is given): grad_p (2,) gives nodal values
    (n,), a stack (k, 2) gives (n, k) from one factorization."""
    grad_u = np.asarray(grad_u, dtype=float)
    grad_p = np.asarray(grad_p, dtype=float)
    inclusion, _, sign = _sides(disc, case)
    if lu0 is None:
        lu0 = factorize_jacobian0(curve, grad_u, case, disc)

    contrast = curve.nu_air * np.eye(2) - material.flux_jacobian(curve, grad_u)
    f_el = np.zeros((disc.n_tris,) + grad_p.shape)
    f_el[inclusion] = sign * grad_p @ contrast.T
    rhs = fem.assemble_flux_divergence(disc, f_el)
    return fem.solve_free(lu0, rhs, disc)


def analytic_adjoint_variation(curve, grad_u, grad_p, x):
    """Closed-form adjoint variation for the ferro-in-air arrangement.

    In the frame aligned with the state gradient the solution separates per
    direction into a_i x_i inside the unit disk and a_i x_i/|x|^2 outside,
    the single coefficient per direction fixed by continuity plus the
    flux-jump condition: a_1 = (nu0-lam2)/(nu0+lam2),
    a_2 = (nu0-lam1)/(nu0+lam1). Accepts one point or an (n, 2) array.
    """
    grad_p = np.asarray(grad_p, dtype=float)
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    lam1, lam2, e1 = polarization._aligned_frame(curve, grad_u)
    nu0 = curve.nu_air
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
                       disc: TriMesh, direct: np.ndarray = None,
                       adjoint: np.ndarray = None):
    """Correction term: the material nonlinearity evaluated at the direct
    variation, integrated against the adjoint data over the nonlinear side
    (exterior for air-in-ferro, inclusion for ferro-in-air), by centroid
    quadrature. grad_p (2,) gives a float, a stack (k, 2) gives (k,).
    Solves both cell problems (nodal values) internally unless supplied.
    """
    grad_u = np.asarray(grad_u, dtype=float)
    grad_p = np.asarray(grad_p, dtype=float)
    if direct is None:
        direct = solve_direct_variation(curve, grad_u, case, disc)
    if adjoint is None:
        adjoint = solve_adjoint_variation(curve, grad_u, grad_p, case, disc)
    _, nonlin, _ = _sides(disc, case)
    gh = disc.element_gradients(direct)[nonlin]
    gk = disc.element_gradients(adjoint)[nonlin]
    s_el = material.nonlinearity(curve, np.broadcast_to(grad_u, gh.shape), gh)
    j = np.einsum("e,ei,e...i->...", disc.areas[nonlin], s_el, grad_p + gk)
    return float(j) if j.ndim == 0 else j


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

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.j2_e1 = np.asarray(self.j2_e1, dtype=float)
        self.j2_e2 = np.asarray(self.j2_e2, dtype=float)
        if self.t.size == 0:
            raise ValueError("empty table")
        if self.t[0] != 0.0 or (self.j2_e1[0], self.j2_e2[0]) != (0.0, 0.0):
            raise ValueError("table must start with the zero row")
        # comparisons with NaN are False, so a NaN grid point fails here
        if not np.all(self.t[1:] > self.t[:-1]):
            raise ValueError("table grid must be strictly increasing, without NaN")
        if not np.all(np.isfinite(np.r_[self.j2_e1, self.j2_e2])):
            raise ValueError("table j2 values must be finite")

    @classmethod
    def zeros(cls, case: PerturbationCase) -> "CorrectionTable":
        """Table that evaluates to exactly zero (correction term disabled);
        its grid reaches infinity, so no lookup counts as clamped."""
        return cls(case, np.array([0.0, np.inf]), np.zeros(2), np.zeros(2),
                   0.0, 0.0, "disabled")

    def lookup(self, grad_u, grad_p):
        """Correction term at gradient pairs of one shape (..., 2):

            ((grad_u . grad_p) j2_e1(t) + (grad_u x grad_p) j2_e2(t)) / t,

        t = |grad_u|, piecewise-linear in t and held at the last grid value
        beyond it, zero at t = 0. Returns the values (...) and the number of
        points with t beyond the grid (clamped).
        """
        grad_u = np.asarray(grad_u, dtype=float)
        grad_p = np.asarray(grad_p, dtype=float)
        t = np.hypot(grad_u[..., 0], grad_u[..., 1])
        dot = np.einsum("...i,...i->...", grad_u, grad_p)
        cross = grad_u[..., 0] * grad_p[..., 1] - grad_u[..., 1] * grad_p[..., 0]
        num = (dot * np.interp(t, self.t, self.j2_e1)
               + cross * np.interp(t, self.t, self.j2_e2))
        values = np.divide(num, t, out=np.zeros(np.shape(num)), where=t > 0.0)
        return values, int(np.count_nonzero(t > self.t[-1]))


def default_t_grid(t_max: float = 3.0, n: int = 61) -> np.ndarray:
    return np.linspace(0.0, t_max, n)


def _table_sample(curve, case, spec: DiscSpec, t: float):
    disc = disc_mesh(spec)
    if t == 0.0:
        return 0.0, 0.0
    grad_u, basis = np.array([t, 0.0]), np.eye(2)
    lu0 = factorize_jacobian0(curve, grad_u, case, disc)
    direct = solve_direct_variation(curve, grad_u, case, disc, lu0=lu0)
    adjoint = solve_adjoint_variation(curve, grad_u, basis, case, disc, lu0=lu0)
    return compute_correction(curve, grad_u, basis, case, disc,
                              direct=direct, adjoint=adjoint)


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
    """CorrectionTable.lookup at one pair of 2-vectors."""
    return float(table.lookup(grad_u, grad_p)[0])


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
    """Table from save_table's CSV; ValueError naming the file if malformed."""
    meta = {}
    rows = []
    with open(path) as f:
        for ln, line in enumerate(f, start=1):
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
            try:
                t, a, b = map(float, line.split(","))
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: bad t,j2_e1,j2_e2 row: {exc}") from exc
            rows.append((t, a, b))
    missing = [k for k in ("case", "radius", "h0", "curve") if k not in meta]
    if missing:
        raise ValueError(f"{path}: table header lacks {', '.join(missing)}")
    data = np.asarray(rows, dtype=float).reshape(-1, 3)
    try:
        return CorrectionTable(PerturbationCase(meta["case"]), data[:, 0],
                               data[:, 1], data[:, 2], float(meta["radius"]),
                               float(meta["h0"]), meta["curve"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
