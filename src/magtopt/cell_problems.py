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

A table sample takes grad_u = t e1. Both variations it needs (the direct one
and the adjoint one for grad_p = e1) are then odd in x and even in y, so it
solves them on the quarter sector {x >= 0, y >= 0} of the disc mesh, with
value 0 on the y-axis, and tabulates 4 times the sector's integral. The
sector is the exact restriction of the disc mesh when n_theta is a multiple
of 4. The e2 column is zero by the same reflection symmetry and is stored as
exact zeros.
"""
from __future__ import annotations

import concurrent.futures as cf
import contextlib
import enum
import functools
import io
from dataclasses import dataclass, replace

import numpy as np

from . import fem, material
from .mesh import Boundary, Region, TriMesh, _check_disc, generate_disc_mesh


class PerturbationCase(enum.Enum):
    """Material swap direction; values match the table wire format."""
    AIR_IN_FERRO = "I"
    FERRO_IN_AIR = "II"


@dataclass(frozen=True)
class DiscSpec:
    """Truncated-disc discretization parameters around the unit inclusion;
    ValueError at construction if generate_disc_mesh would refuse them, so a
    table build with no sample to solve refuses them too."""
    radius: float = 1000.0
    h0: float = 0.05
    growth: float = 1.15
    n_theta: int = 128

    def __post_init__(self):
        _check_disc(self.radius, 1.0, self.growth, self.h0, self.n_theta)

    def build(self) -> TriMesh:
        return generate_disc_mesh(self.radius, 1.0, self.growth,
                                  self.h0, self.n_theta)


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


def solve_direct_variation(curve, grad_u, case: PerturbationCase, disc: TriMesh,
                           held: fem.HeldLU = None) -> np.ndarray:
    """The nonlinear transmission problem for the variation H of the direct
    state: fem.solve_quasilinear with offset w = grad_u on the nonlinear side,
    to ||r||_2 <= 1e-14 + fem.TOL_REL ||F||_2; nodal values (n,). `held`, if
    given, holds the factorization of the h = 0 Jacobian (as
    solve_adjoint_variation leaves it), which solves the first Newton step."""
    grad_u = np.asarray(grad_u, dtype=float)
    inclusion, nonlin, sign = _sides(disc, case)
    nu_u0 = float(curve.nu(np.hypot(grad_u[0], grad_u[1])))
    f_el = np.zeros((disc.n_tris, 2))
    f_el[inclusion] = sign * (curve.nu_air - nu_u0) * grad_u
    rhs = fem.assemble_flux_divergence(disc, f_el)
    return fem.solve_quasilinear(disc, curve, nonlin, rhs, 1e-14, w=grad_u,
                                 held=held, held_at_x0=held is not None)[0]


def solve_adjoint_variation(curve, grad_u, grad_p, case: PerturbationCase,
                            disc: TriMesh, held: fem.HeldLU = None) -> np.ndarray:
    """Linear solve for the variation of the adjoint state, whose matrix is
    the direct-variation Jacobian at h = 0, through `held` (fem.solve_free;
    an empty one is left holding that matrix's LU); nodal values (n,)."""
    grad_u = np.asarray(grad_u, dtype=float)
    grad_p = np.asarray(grad_p, dtype=float)
    inclusion, nonlin, sign = _sides(disc, case)
    jac = fem.assemble_jacobian(disc, curve, nonlin,
                                np.broadcast_to(grad_u, (disc.n_tris, 2)))
    contrast = curve.nu_air * np.eye(2) - material.flux_jacobian(curve, grad_u)
    f_el = np.zeros((disc.n_tris, 2))
    f_el[inclusion] = sign * grad_p @ contrast.T
    rhs = fem.assemble_flux_divergence(disc, f_el)
    return fem.solve_free(jac, rhs, disc, held)


def compute_correction(curve, grad_u, grad_p, case: PerturbationCase,
                       disc: TriMesh):
    """Correction term: the material nonlinearity evaluated at the direct
    variation, integrated against the adjoint data over the nonlinear side
    (exterior for air-in-ferro, inclusion for ferro-in-air), by centroid
    quadrature. Solves both cell problems (nodal values) through one
    fem.HeldLU, the adjoint variation first: the LU of the h = 0 Jacobian it
    leaves there solves the direct variation's first Newton step.
    """
    grad_u = np.asarray(grad_u, dtype=float)
    grad_p = np.asarray(grad_p, dtype=float)
    held = fem.HeldLU()
    adjoint = solve_adjoint_variation(curve, grad_u, grad_p, case, disc, held)
    direct = solve_direct_variation(curve, grad_u, case, disc, held)
    _, nonlin, _ = _sides(disc, case)
    gh = disc.element_gradients(direct)[nonlin]
    gk = disc.element_gradients(adjoint)[nonlin]
    s_el = material.nonlinearity(curve, np.broadcast_to(grad_u, gh.shape), gh)
    return float(np.einsum("e,ei,ei->", disc.areas[nonlin], s_el, grad_p + gk))


# ---------------------------------------------------------------------------
# precomputed tables

@dataclass
class CorrectionTable:
    """Samples of the correction term along t = |grad_u| for grad_p = e1 and e2.

    The e2 column is zero by reflection symmetry plus linearity in grad_p;
    built tables store it as exact zeros, since each sample is solved on the
    quarter disc, which imposes that symmetry (on the full disc mesh it is
    round-off). It is kept for the evaluation formula and the file format.
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


def _quarter(disc: TriMesh) -> TriMesh:
    """The sector {x >= 0, y >= 0} of a disc mesh whose n_theta is a multiple
    of 4: its triangles and nodes, renumbered, with the outer arc and the
    y-axis (centre node included) as the Dirichlet boundary; the x-axis keeps
    the natural condition. Cached on the disc mesh."""
    if "quarter" not in disc._cache:
        cen = disc.centroids
        keep = (cen[:, 0] > 0.0) & (cen[:, 1] > 0.0)
        if 4 * np.count_nonzero(keep) != disc.n_tris:
            raise ValueError(f"quarter cut kept {np.count_nonzero(keep)} of "
                             f"{disc.n_tris} triangles, not a quarter")
        used = np.unique(disc.tris[keep])
        loc = np.full(disc.n_nodes, -1, dtype=np.int64)
        loc[used] = np.arange(used.size)
        nodes = disc.nodes[used]
        arc = disc.bedges[np.all(loc[disc.bedges] >= 0, axis=1)]
        # y-axis nodes sit at x = r cos(pi/2) ~ 6e-17 r, not at 0
        r = np.hypot(nodes[:, 0], nodes[:, 1])
        axis = np.flatnonzero(np.abs(nodes[:, 0]) <= 1e-12 * r)
        axis = axis[np.argsort(r[axis])]
        bedges = np.vstack([loc[arc], np.column_stack([axis[:-1], axis[1:]])])
        disc._cache["quarter"] = TriMesh(
            nodes, loc[disc.tris[keep]], disc.region[keep], bedges,
            np.full(len(bedges), Boundary.DIRICHLET_OUTER, dtype=np.int8))
    return disc._cache["quarter"]


def _table_sample(curve, case, spec: DiscSpec, t: float):
    """(j2_e1, j2_e2) at t: 4 times the e1 correction on the quarter disc,
    and zero (module docstring)."""
    if t == 0.0:
        return 0.0, 0.0
    quarter = _quarter(disc_mesh(spec))
    grad_u, e1 = np.array([t, 0.0]), np.array([1.0, 0.0])
    return 4.0 * compute_correction(curve, grad_u, e1, case, quarter), 0.0


def build_correction_table(curve, case: PerturbationCase, t_grid,
                           disc_spec: DiscSpec, workers: int = 1) -> CorrectionTable:
    """Solve the cell problems for each grid value of t = |grad_u| and tabulate
    the two correction components. The t = 0 row is exact zeros by theory.
    Each sample is solved on the quarter disc (_table_sample), which needs
    disc_spec.n_theta to be a multiple of 4. A grid that breaks that rule or
    CorrectionTable's, or workers below 1, raises ValueError before any solve.

    Failures abort with the offending sample index. With workers > 1 the
    samples run in separate processes, at most one per sample; results are
    gathered in grid order, so the output is schedule-independent.
    """
    if workers < 1:
        raise ValueError(f"workers = {workers} must be at least 1")
    t_grid = np.asarray(t_grid, dtype=float)
    # the zero-valued table applies the grid rules before any solve
    zero = np.zeros(t_grid.shape)
    table = CorrectionTable(case, t_grid, zero, zero, disc_spec.radius,
                            disc_spec.h0, curve.cache_key())
    if disc_spec.n_theta % 4 != 0:
        raise ValueError(f"n_theta = {disc_spec.n_theta} is not a multiple of 4: "
                         "the disc axes must be mesh lines for the quarter-disc solve")
    sample = functools.partial(_table_sample, curve, case, disc_spec)
    ts = t_grid.tolist()
    vals = np.zeros((len(ts), 2))
    workers = min(workers, len(ts))
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
    return replace(table, j2_e1=vals[:, 0], j2_e2=vals[:, 1])


def eval_correction(table: CorrectionTable, grad_u, grad_p) -> float:
    """CorrectionTable.lookup at one pair of 2-vectors."""
    return float(table.lookup(grad_u, grad_p)[0])


# ---------------------------------------------------------------------------
# table CSV I/O

def save_table(path, table: CorrectionTable, config_hash: str) -> None:
    buf = io.StringIO()
    buf.write(f"# case={table.case.value} radius={table.radius:.17g} "
              f"h0={table.h0:.17g} curve={table.curve_hash}\n")
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
