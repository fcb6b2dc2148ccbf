"""Exterior transmission problems at unit scale and the nonlinear correction
term of the sensitivity formulas.

A unit-disk inclusion sits at the origin of a large truncated disc (a
mesh.DiscSpec; homogeneous Dirichlet outer boundary; the fields decay like
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
of 4. The reflection y -> -y fixes t e1 and flips e2, so the (t e1, e2)
correction is zero: each case is one function j2 of t, and the correction at
any pair is (grad_u . grad_p) j2(|grad_u|) / |grad_u|.
"""
from __future__ import annotations

import concurrent.futures as cf
import contextlib
import enum
import functools
import io
from dataclasses import dataclass, field, replace

import numpy as np

from . import fem, material
from .csvio import read_csv
from .mesh import Boundary, DiscSpec, Region, TriMesh, generate_disc_mesh


class PerturbationCase(enum.Enum):
    """Material swap direction; values match the table wire format."""
    AIR_IN_FERRO = "I"
    FERRO_IN_AIR = "II"


_mesh_cache: dict = {}


def disc_mesh(spec: DiscSpec) -> TriMesh:
    """Memoized mesh for a disc spec (meshes are immutable)."""
    if spec not in _mesh_cache:
        _mesh_cache[spec] = generate_disc_mesh(spec)
    return _mesh_cache[spec]


def _sides(mesh: TriMesh, case: PerturbationCase):
    """(inclusion mask, nonlinear-side mask, rhs sign) for a disc mesh."""
    inclusion = mesh.region == Region.DESIGN
    if case is PerturbationCase.AIR_IN_FERRO:
        return inclusion, ~inclusion, -1.0
    return inclusion, inclusion, +1.0


def solve_direct_variation(curve, grad_u, case: PerturbationCase, disc: TriMesh,
                           held: fem.HeldLU = None,
                           x0: np.ndarray = None) -> np.ndarray:
    """The nonlinear transmission problem for the variation H of the direct
    state: fem.solve_quasilinear with offset w = grad_u on the nonlinear side,
    to ||r||_2 <= 1e-14 + fem.TOL_REL ||F||_2 max(1, 1e-2 nu_air / c), c the
    contrast |nu_air - nu(|grad_u|)|, from x0 (zero by default; a table chain
    passes the previous sample's H), through `held` (a fresh fem.HeldLU by
    default); nodal values (n,)."""
    grad_u = np.asarray(grad_u, dtype=float)
    inclusion, nonlin, sign = _sides(disc, case)
    nu_u0 = float(curve.nu(np.hypot(grad_u[0], grad_u[1])))
    f_el = np.zeros((disc.n_tris, 2))
    f_el[inclusion] = sign * (curve.nu_air - nu_u0) * grad_u
    rhs = fem.assemble_flux_divergence(disc, f_el)
    # F vanishes with c as the law saturates (past 10 T on the default law),
    # while the residual's round-off floor stays near nu_air |grad_u|; c = 0
    # leaves F = 0, which x = 0 solves
    contrast, tol_abs = abs(curve.nu_air - nu_u0), 1e-14
    if 0.0 < contrast < 1e-2 * curve.nu_air:
        free, _ = fem._free_block(disc)
        tol_abs += (fem.TOL_REL * (1e-2 * curve.nu_air / contrast - 1.0)
                    * np.linalg.norm(rhs[free]))
    return fem.solve_quasilinear(disc, curve, nonlin, rhs, tol_abs, w=grad_u,
                                 x0=x0, held=held)[0]


def solve_adjoint_variation(curve, grad_u, grad_p, case: PerturbationCase,
                            disc: TriMesh, held: fem.HeldLU = None) -> np.ndarray:
    """Linear solve for the variation of the adjoint state, whose matrix is
    the direct-variation Jacobian at h = 0, through `held`
    (fem.solve_jacobian; an empty one is left holding that matrix's LU);
    nodal values (n,)."""
    grad_u = np.asarray(grad_u, dtype=float)
    grad_p = np.asarray(grad_p, dtype=float)
    inclusion, nonlin, sign = _sides(disc, case)
    contrast = curve.nu_air * np.eye(2) - material.flux_jacobian(curve, grad_u)
    f_el = np.zeros((disc.n_tris, 2))
    f_el[inclusion] = sign * grad_p @ contrast.T
    rhs = fem.assemble_flux_divergence(disc, f_el)
    return fem.solve_jacobian(disc, curve, nonlin,
                              np.broadcast_to(grad_u, (disc.n_tris, 2)), rhs, held)


def compute_correction(curve, grad_u, grad_p, case: PerturbationCase,
                       disc: TriMesh):
    """Correction term: the material nonlinearity evaluated at the direct
    variation, integrated against the adjoint data over the nonlinear side
    (exterior for air-in-ferro, inclusion for ferro-in-air), by centroid
    quadrature; one cold _sample."""
    return _sample(curve, np.asarray(grad_u, dtype=float),
                   np.asarray(grad_p, dtype=float), case, disc, fem.HeldLU())[0]


def _sample(curve, grad_u, grad_p, case, disc, held, x0=None) -> tuple:
    """(correction term, direct variation) at the 2-vectors grad_u, grad_p.
    Solves both cell problems (nodal values) through `held`, the adjoint
    variation first: the LU of the h = 0 Jacobian it leaves in an empty
    `held` preconditions the direct variation's first Newton step, which
    starts at x0 (zero by default)."""
    adjoint = solve_adjoint_variation(curve, grad_u, grad_p, case, disc, held)
    direct = solve_direct_variation(curve, grad_u, case, disc, held, x0=x0)
    _, nonlin, _ = _sides(disc, case)
    gh = disc.element_gradients(direct)[nonlin]
    gk = disc.element_gradients(adjoint)[nonlin]
    s_el = material.nonlinearity(curve, np.broadcast_to(grad_u, gh.shape), gh)
    value = float(np.einsum("e,ei,ei->", disc.areas[nonlin], s_el, grad_p + gk))
    return value, direct


# ---------------------------------------------------------------------------
# precomputed tables

@dataclass
class CorrectionTable:
    """Samples j2_e1 of the correction term at grad_u = t e1, grad_p = e1,
    along t = |grad_u| (module docstring). j2_e2, the file format's e2 column,
    is zero by symmetry: a read-only zeros array shaped like t."""
    case: PerturbationCase
    t: np.ndarray
    j2_e1: np.ndarray
    radius: float
    h0: float
    curve_hash: str
    j2_e2: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.j2_e1 = np.asarray(self.j2_e1, dtype=float)
        if self.t.ndim != 1 or self.j2_e1.shape != self.t.shape:
            raise ValueError(f"table grid t has shape {self.t.shape} and j2_e1 "
                             f"{self.j2_e1.shape}: t must be 1-D and j2_e1 "
                             "shaped like it")
        if self.t.size == 0:
            raise ValueError("empty table")
        if self.t[0] != 0.0 or self.j2_e1[0] != 0.0:
            raise ValueError("table must start with the zero row")
        # comparisons with NaN are False, so a NaN grid point fails here
        if not np.all(self.t[1:] > self.t[:-1]):
            raise ValueError("table grid must be strictly increasing, without NaN")
        if not np.all(np.isfinite(self.j2_e1)):
            raise ValueError("table j2 values must be finite")
        self.j2_e2 = np.broadcast_to(0.0, self.t.shape)  # a read-only view

    @classmethod
    def zeros(cls, case: PerturbationCase) -> "CorrectionTable":
        """Table that evaluates to exactly zero (correction term disabled);
        its grid reaches infinity, so no lookup counts as clamped."""
        return cls(case, np.array([0.0, np.inf]), np.zeros(2), 0.0, 0.0, "disabled")

    def lookup(self, grad_u, grad_p):
        """Correction term at gradient pairs of one shape (..., 2):

            (grad_u . grad_p) j2_e1(t) / t,    t = |grad_u|,

        j2_e1 piecewise-linear in t and held at the last grid value beyond
        it, zero at t = 0. Returns the values (...) and the number of
        points with t beyond the grid (clamped).
        """
        grad_u = np.asarray(grad_u, dtype=float)
        grad_p = np.asarray(grad_p, dtype=float)
        t = np.hypot(grad_u[..., 0], grad_u[..., 1])
        num = (np.einsum("...i,...i->...", grad_u, grad_p)
               * np.interp(t, self.t, self.j2_e1))
        values = np.divide(num, t, out=np.zeros(np.shape(num)), where=t > 0.0)
        return values, int(np.count_nonzero(t > self.t[-1]))


def _quarter(disc: TriMesh) -> TriMesh:
    """The sector {x >= 0, y >= 0} of a disc mesh (whose n_theta DiscSpec
    makes a multiple of 4): its triangles and nodes, renumbered, with the
    outer arc and the y-axis (centre node included) as the Dirichlet
    boundary; the x-axis keeps the natural condition. Cached on the disc
    mesh."""
    if "quarter" not in disc._cache:
        cen = disc.centroids
        keep = (cen[:, 0] > 0.0) & (cen[:, 1] > 0.0)
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


#: samples per chain: build_correction_table continues the cell solves along
#: t within a chain and restarts them at every CHAIN-th grid index
CHAIN = 5


def _table_chain(curve, case, spec: DiscSpec, ts, start: int, stop: int) -> list:
    """j2_e1 at ts[start:stop], each 4 times the quarter disc's e1 correction
    (module docstring), 0 at t = 0. The samples are continued along t: one
    fem.HeldLU serves every _sample of the chain, and each direct variation
    starts at the previous sample's. SolverError names the failed sample by
    its index in ts."""
    quarter = _quarter(disc_mesh(spec))
    e1, held, direct, vals = np.array([1.0, 0.0]), fem.HeldLU(), None, []
    for i in range(start, stop):
        t = ts[i]
        if t == 0.0:
            vals.append(0.0)
            continue
        try:
            value, direct = _sample(curve, np.array([t, 0.0]), e1, case, quarter,
                                    held, x0=direct)
        except fem.SolverError as exc:
            raise fem.SolverError(f"table sample {i} (t = {t:g}) failed: {exc}",
                                  residual_norm=exc.residual_norm) from exc
        vals.append(4.0 * value)
    return vals


def build_correction_table(curve, case: PerturbationCase, t_grid,
                           disc_spec: DiscSpec, workers: int = 1) -> CorrectionTable:
    """Solve the cell problems for each grid value of t = |grad_u| and tabulate
    the correction. The t = 0 row is exact zeros by theory.
    Each sample is solved on the quarter disc. A grid that breaks
    CorrectionTable's rules, or workers below 1, raises ValueError before
    any solve.

    The grid is solved in chains of CHAIN consecutive samples, starting at
    grid indices 0, CHAIN, 2 CHAIN, ... (_table_chain), where a last chain of
    one sample joins the one before it: natural-parameter continuation, in
    which each sample's Newton solve starts at the previous sample's direct
    variation and one held LU preconditions the chain. The chains do not
    depend on `workers`. Failures abort with the offending sample's grid
    index. With workers > 1 the chains run in separate processes, at most
    one per chain; results are gathered in grid order, so the output is
    bit-identical for any `workers`.
    """
    if workers < 1:
        raise ValueError(f"workers = {workers} must be at least 1")
    t_grid = np.asarray(t_grid, dtype=float)
    # the zero-valued table applies the grid rules before any solve
    table = CorrectionTable(case, t_grid, np.zeros(t_grid.shape), disc_spec.radius,
                            disc_spec.h0, curve.cache_key())
    ts = t_grid.tolist()
    if len(ts) == 1:   # the zero row alone: no cell problem, no disc mesh
        return table
    chain = functools.partial(_table_chain, curve, case, disc_spec, ts)
    # no chain starts at the last index, which the chain before it takes
    starts = range(0, len(ts) - 1, CHAIN)
    stops = [*starts[1:], len(ts)]
    workers = min(workers, len(starts))
    with (cf.ProcessPoolExecutor(max_workers=workers) if workers > 1
          else contextlib.nullcontext()) as pool:
        run = map if pool is None else pool.map
        vals = [v for c in run(chain, starts, stops) for v in c]
    return replace(table, j2_e1=vals)


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
    for t, a in zip(table.t, table.j2_e1):
        buf.write(f"{t:.17g},{a:.17g},0\n")
    with open(path, "w", newline="") as f:
        f.write(buf.getvalue())


def load_table(path) -> CorrectionTable:
    """Table from save_table's CSV (csvio.read_csv's dialect); ValueError
    naming the file if malformed, and the row's t if a j2_e2 value is not
    zero, which the lookup would drop."""
    meta, data = read_csv(path, ("t", "j2_e1", "j2_e2"))
    nonzero = np.flatnonzero(data[:, 2])
    if nonzero.size:
        t, b = data[nonzero[0], [0, 2]]
        raise ValueError(f"{path}: " + (
            "table j2 values must be finite" if not np.isfinite(b) else
            f"j2_e2 = {b:.17g} at t = {t:.17g} is not zero: the lookup has no "
            "e2 term, so rebuild the table"))
    missing = [k for k in ("case", "radius", "h0", "curve") if k not in meta]
    if missing:
        raise ValueError(f"{path}: table header lacks {', '.join(missing)}")
    try:
        return CorrectionTable(PerturbationCase(meta["case"]), data[:, 0],
                               data[:, 1], float(meta["radius"]),
                               float(meta["h0"]), meta["curve"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
