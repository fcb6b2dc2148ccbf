"""P1 finite elements for the quasilinear magnetostatic state equation and
its linear adjoint on a tagged triangle mesh.

The vector potential u [Wb/m] solves

    -div( nu(x, |grad u|) grad u ) = F,   u = 0 on the outer boundary,

with nu the material law on ferromagnetic elements and the air constant
elsewhere. One-point (centroid) quadrature is exact here: P1 gradients are
element constants, so the nonlinear coefficient is evaluated once per
element. Interface conditions across material jumps are natural in the
conforming weak form.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import material
from .mesh import Region, TriMesh

#: state Newton converges when ||r||_2 <= TOL_ABS + TOL_REL ||F||_2
TOL_ABS = 1e-10
TOL_REL = 1e-10
#: Newton steps of one quasilinear solve before it counts as not converged
MAX_NEWTON = 50
#: a linear solve with a HeldLU runs CG preconditioned with the held
#: factorization for at most LAGGED_CG_MAX iterations; failing that, its
#: matrix is factorized and held instead. It skips CG and factorizes at once
#: when more than LAGGED_CG_MAX elements differ between its material mask and
#: the held LU's: each flipped element adds a rank-<=2 term of large contrast
#: to the preconditioned operator, and CG spends about one iteration on each
#: such outlier, so it could not finish within its cap. A Newton step solves
#: J dx = -r only to ||-r - J dx||_2 <= NEWTON_FORCING ||r||_2 (inexact
#: Newton: the exit test stays on the true residual); a linear solve, which
#: has no outer correction, to LAGGED_CG_TOL relative
LAGGED_CG_MAX = 12
LAGGED_CG_TOL = 1e-12
NEWTON_FORCING = 1e-4
#: the descent's adjoint is solved to ADJOINT_TOL relative: it feeds only
#: the direction of the descent field, and the descent stops at an angle
#: theta_tol_deg (1 degree by default). At the square/64 initial design a
#: solve to 1e-6 turns the normalized field by 2.4e-4 degrees from a solve
#: to 1e-12, and by 9.7e-3 degrees at 1e-4
ADJOINT_TOL = 1e-6
#: line-search halvings of one Newton step before it counts as stalled
MAX_HALVINGS = 20


class SolverError(Exception):
    """Newton or linear-solve failure; carries the last residual norm."""

    def __init__(self, message, residual_norm=None):
        super().__init__(message)
        self.residual_norm = residual_norm


@dataclass
class SourceSpec:
    """Coil current density J_z [A/m^2] and magnetization M [A/m].

    `magnetization` is either a constant 2-vector or an (n_tris, 2) array;
    it acts only on MAGNET-tagged elements, J_z only on COIL-tagged ones
    (values elsewhere are masked off at assembly).
    """
    jz: float = 0.0
    magnetization: np.ndarray = field(default_factory=lambda: np.zeros(2))


def assemble_rhs_elements(mesh: TriMesh, jz_el: np.ndarray,
                          m_el: np.ndarray) -> np.ndarray:
    """Load vector F_i = sum_e A_e [ Mperp_e . grad(phi_i) + Jz_e / 3 ].

    jz_el: (m,) current density per element; m_el: (m, 2) magnetization per
    element, applied through its perpendicular (-M2, M1).
    """
    m = np.asarray(m_el, dtype=float)
    mperp = np.column_stack([-m[:, 1], m[:, 0]])
    contrib = np.einsum("ei,eki->ek", mperp, mesh.grads) * mesh.areas[:, None]
    contrib += (np.asarray(jz_el, dtype=float) * mesh.areas / 3.0)[:, None]
    return np.bincount(mesh.tris.ravel(), weights=contrib.ravel(),
                       minlength=mesh.n_nodes)


def assemble_rhs(mesh: TriMesh, sources: SourceSpec) -> np.ndarray:
    """Load vector from a tagged source specification."""
    jz_el = np.where(mesh.region == Region.COIL, sources.jz, 0.0)
    m_el = np.broadcast_to(np.asarray(sources.magnetization, dtype=float),
                           (mesh.n_tris, 2)).copy()
    m_el[mesh.region != Region.MAGNET] = 0.0
    return assemble_rhs_elements(mesh, jz_el, m_el)


#: an element's local node pairs (k, l), k <= l, one per upper-triangle
#: entry of its element matrix
_PAIRS = np.array([(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]).T
#: positions of c00, c01 and c11 in a flattened (2, 2) coefficient
_COEFFS = (0, 1, 3)


def _node_pairs(mesh: TriMesh):
    """The mesh's element node pairs: the distinct pairs (a, b), a <= b, of
    nodes of one element, sorted, and the flattened (m, 6) element pairs of
    _PAIRS grouped by the distinct pair they are, each group in element
    order: group[start[e]:start[e + 1]] are those of pair e."""
    n = mesh.n_nodes
    p, q = mesh.tris[:, _PAIRS[0]], mesh.tris[:, _PAIRS[1]]
    key = (np.minimum(p, q) * n + np.maximum(p, q)).ravel()
    group = np.argsort(key, kind="stable").astype(np.int32)
    key = key[group]
    start = np.flatnonzero(np.diff(key, prepend=-1, append=n * n)).astype(np.int32)
    key = key[start[:-1]]
    return (key // n).astype(np.int32), (key % n).astype(np.int32), group, start


def _pattern(a: np.ndarray, b: np.ndarray, loc: np.ndarray):
    """For the distinct node pairs (a, b) of _node_pairs: the CSC pattern
    (indptr, indices) of the stiffness block that holds node i in row and
    column loc[i] (nodes with loc -1 are left out), the int32 `mirror` that
    takes each of its entries to its upper-triangle twin's position among
    the upper triangle's entries in CSC order, and the pair behind each of
    those upper entries."""
    n = int(loc.max()) + 1
    i, j = loc[a], loc[b]
    pair = np.flatnonzero((i >= 0) & (j >= 0))
    lo, hi = np.minimum(i[pair], j[pair]), np.maximum(i[pair], j[pair])
    off = np.flatnonzero(lo < hi)
    # an entry (row lo, col hi) per pair, then its mirror for the off-diagonal
    row, col = np.concatenate([lo, hi[off]]), np.concatenate([hi, lo[off]])
    order = np.argsort(col * n + row)
    source = np.concatenate([np.arange(pair.size), off])[order]
    upper = order < pair.size
    position = np.empty(pair.size, dtype=np.int32)
    position[source[upper]] = np.arange(pair.size, dtype=np.int32)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(col, minlength=n), out=indptr[1:])
    return (indptr, row[order].astype(np.int32), position[source],
            pair[source[upper]])


def _coefficient_map(mesh: TriMesh, group: np.ndarray, start: np.ndarray,
                     pairs: np.ndarray) -> sp.csr_matrix:
    """The CSR map S from the flattened (m, 2, 2) coefficients to the values
    of the upper triangle entries whose node pairs (of _node_pairs, with
    its `group` and `start`) are `pairs`: a row's entries go by element. An
    element pair (k, l) adds A_e grad_x(phi_k) grad_x(phi_l) times c00, A_e
    (grad_x(phi_k) grad_y(phi_l) + grad_y(phi_k) grad_x(phi_l)) times c01
    and A_e grad_y(phi_k) grad_y(phi_l) times c11 to its entry."""
    count = start[pairs + 1] - start[pairs]
    indptr = np.zeros(pairs.size + 1, dtype=np.int32)
    np.cumsum(3 * count, out=indptr[1:])
    # each row's group of element pairs, the rows one after the other
    order = group[np.arange(indptr[-1] // 3)
                  + np.repeat(start[pairs] - indptr[:-1] // 3, count)]
    (k, l), data = _PAIRS, np.empty((order.size, 3))
    gx, gy = mesh.grads[..., 0], mesh.grads[..., 1]
    for j, (p, q) in enumerate(((gx, gx), (gx, gy), (gy, gy))):
        w = p[:, k] * q[:, l]
        if p is not q:
            w += q[:, k] * p[:, l]
        w *= mesh.areas[:, None]
        data[:, j] = w.ravel()[order]
    element = (order // k.size).astype(np.int32)
    indices = 4 * element[:, None] + np.array(_COEFFS, dtype=np.int32)
    return sp.csr_matrix((data.ravel(), indices.ravel(), indptr),
                         shape=(pairs.size, 4 * mesh.n_tris))


def _fill_reducing_order(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The column order SuperLU's MMD_AT_PLUS_A gives the square CSC pattern
    (indptr, indices), factorized once with -1 off the diagonal and the
    column's entry count on it (non-singular, being diagonally dominant)."""
    count = np.diff(indptr)
    diagonal = indices == np.repeat(np.arange(count.size), count)
    pattern = sp.csc_matrix((np.where(diagonal, np.repeat(count, count), -1.0),
                             indices, indptr), shape=(count.size,) * 2)
    # perm_c's base is the factorization: no name holds it past this line
    return np.argsort(spla.splu(pattern, permc_spec="MMD_AT_PLUS_A").perm_c)


def _free_block(mesh: TriMesh):
    """The DOFs off the Dirichlet boundary in a fill-reducing order, and the
    stiffness block on them as (indptr, indices, mirror, S): its CSC pattern
    and the map from coefficients to values that assemble_stiffness applies.
    Computed on first use and cached on the mesh. The order is the
    _fill_reducing_order of the block's pattern on the sorted free DOFs.
    Every stiffness block on this mesh shares that pattern, so `factorize`
    needs no ordering of its own. Both patterns and S come from one list of
    the elements' node pairs (_node_pairs)."""
    def build():
        a, b, group, start = _node_pairs(mesh)
        dofs = np.setdiff1d(np.arange(mesh.n_nodes), mesh.dirichlet_nodes())
        loc = np.full(mesh.n_nodes, -1, dtype=np.int64)
        loc[dofs] = np.arange(dofs.size)
        dofs = dofs[_fill_reducing_order(*_pattern(a, b, loc)[:2])]
        loc[dofs] = np.arange(dofs.size)
        indptr, indices, mirror, pairs = _pattern(a, b, loc)
        # S is made after the node pairs are dropped: it sets the peak memory
        # of the first solve on a mesh
        del a, b
        return dofs, (indptr, indices, mirror,
                      _coefficient_map(mesh, group, start, pairs))
    return mesh.cached("free_block", build)


def assemble_stiffness(mesh: TriMesh, coeff: np.ndarray) -> sp.csc_matrix:
    """Stiffness block K_ij = sum_e A_e grad(phi_i) . coeff_e grad(phi_j) on
    the free DOFs in their fill-reducing order (_free_block), for symmetric
    per-element 2x2 coefficients `coeff` (m, 2, 2); the block is exactly
    symmetric. SolverError if a coefficient is not symmetric."""
    coeff = np.asarray(coeff, dtype=float)
    c01, c10 = coeff[:, 0, 1], coeff[:, 1, 0]
    if not np.array_equal(c01, c10, equal_nan=True):
        raise SolverError("stiffness coefficient not symmetric "
                          f"(dev {np.abs(c01 - c10).max():.3g})")
    _, (indptr, indices, mirror, S) = _free_block(mesh)
    data = (S @ coeff.reshape(-1))[mirror]
    return sp.csc_matrix((data, indices, indptr), shape=(indptr.size - 1,) * 2)


def assemble_flux_divergence(mesh: TriMesh, flux_el: np.ndarray) -> np.ndarray:
    """Vector with entries sum_e A_e flux_e . grad(phi_i) for (m, 2) fluxes:
    G^T (A flux) with G the mesh's grad_op."""
    return mesh.grad_op.T @ (mesh.areas[:, None] * flux_el).reshape(-1)


def ferro_element_mask(mesh: TriMesh, levelset=None) -> np.ndarray:
    """Elements carrying the nonlinear law: FERRO_FIXED plus DESIGN elements
    whose level-set centroid value is positive (ties break toward air).

    levelset: nodal array over all mesh nodes, or None for all-ferro design.
    """
    mask = mesh.region == Region.FERRO_FIXED
    design = mesh.region == Region.DESIGN
    if levelset is None:
        return mask | design
    psi = np.asarray(levelset, dtype=float)
    psi_c = psi[mesh.tris].mean(axis=1)
    return mask | (design & (psi_c > 0.0))


def factorize(A: sp.csc_matrix):
    """Sparse LU of a stiffness block in its given column order, which is
    already fill-reducing."""
    try:
        return spla.splu(A, permc_spec="NATURAL")
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc


def _flux(curve, mask, gx, g, t_w):
    """Per-element flux T_e(w + gx) - T_e(w), given g = w + gx and t_w = T(w):
    the material law on the masked elements, and nu_air gx elsewhere, where
    the offset cancels."""
    flux = curve.nu_air * gx
    flux[mask] = material.flux_map(curve, g[mask]) - t_w
    return flux


def assemble_jacobian(mesh: TriMesh, curve, mask: np.ndarray,
                      grad: np.ndarray) -> sp.csc_matrix:
    """Stiffness block of the flux Jacobian: the material law's at the
    element gradients grad (m, 2) on the masked elements, nu_air I
    elsewhere."""
    coeff = np.zeros((mesh.n_tris, 2, 2))
    coeff[:, 0, 0] = coeff[:, 1, 1] = curve.nu_air
    coeff[mask] = material.flux_jacobian(curve, grad[mask])
    return assemble_stiffness(mesh, coeff)


def _lagged_cg(A: sp.csc_matrix, lu, b: np.ndarray, rtol: float = LAGGED_CG_TOL):
    """x with ||b - A x||_2 <= rtol ||b||_2 by conjugate gradients on the
    free block A, preconditioned with `lu`, the factorization of a nearby
    matrix, and started at lu.solve(b). None when LAGGED_CG_MAX iterations
    do not get there, or when A shows itself not positive definite
    (p.Ap <= 0) or a value turns non-finite."""
    x = lu.solve(b)
    r = b - A @ x
    tol = rtol * np.linalg.norm(b)
    p = rz = None
    for k in range(LAGGED_CG_MAX + 1):
        rnorm = np.linalg.norm(r)
        if rnorm <= tol:
            return x
        if k == LAGGED_CG_MAX or not np.isfinite(rnorm):
            return None
        z = lu.solve(r)
        rz, rz_old = r @ z, rz
        p = z if p is None else z + (rz / rz_old) * p
        Ap = A @ p
        pAp = p @ Ap
        if not pAp > 0.0:
            return None
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap


@dataclass
class HeldLU:
    """At most one factorization of a free block, held across solves whose
    matrices are near each other: the Newton steps of one solve, the cell
    problems of one chain of table samples, or the state and adjoint solves
    of one descent. `lu` factorizes a matrix assembled with the material
    mask `mask`. Only solve_jacobian makes, drops or stores an LU."""
    lu: object = None
    mask: np.ndarray = None


def solve_jacobian(mesh: TriMesh, curve, mask: np.ndarray, grad: np.ndarray,
                   b: np.ndarray, held: HeldLU = None,
                   rtol: float = LAGGED_CG_TOL) -> np.ndarray:
    """x with ||b - J x||_2 <= rtol ||b||_2 on the free DOFs of `mesh`, for
    J = assemble_jacobian(mesh, curve, mask, grad) and nodal b (n,); x (n,)
    is zero on the Dirichlet boundary. Solved by _lagged_cg preconditioned
    with the LU that `held` (a fresh HeldLU by default) keeps, or else by a
    factorization of J, which `held` keeps in its place with `mask`. CG is
    not tried when more than LAGGED_CG_MAX elements differ between `mask`
    and the held LU's. The old LU is dropped before the new one is made."""
    held = HeldLU() if held is None else held
    free, _ = _free_block(mesh)
    A = assemble_jacobian(mesh, curve, mask, grad)
    b, x = np.asarray(b, dtype=float)[free], np.zeros(mesh.n_nodes)
    x_free = None
    if held.lu is not None and \
            np.count_nonzero(mask != held.mask) <= LAGGED_CG_MAX:
        x_free = _lagged_cg(A, held.lu, b, rtol)
    if x_free is None:
        held.lu = None
        held.lu, held.mask = factorize(A), np.array(mask, dtype=bool)
        x_free = held.lu.solve(b)
    x[free] = x_free
    return x


def solve_quasilinear(mesh: TriMesh, curve, mask: np.ndarray, rhs: np.ndarray,
                      tol_abs: float, tol_rel: float, w: np.ndarray = None,
                      x0: np.ndarray = None, held: HeldLU = None):
    """Damped Newton for x (zero on the Dirichlet boundary) with

        r_i(x) = sum_e A_e (T_e(w + grad x) - T_e(w)) . grad(phi_i) - F_i = 0

    on the free DOFs of `mesh`, T_e the material law of `curve` on the
    `mask`ed elements and nu_air elsewhere, w a constant offset 2-vector
    (None: no offset) and F = rhs. Converged when ||r[free]||_2 <= tol_abs
    + tol_rel ||F[free]||_2 within MAX_NEWTON steps; each step is halved (up
    to MAX_HALVINGS times) until the residual norm strictly decreases. x0
    (zero by default) is the start on the free DOFs. Each step solves with
    its Jacobian through `held` (solve_jacobian, to NEWTON_FORCING
    relative), so an LU that `held` brings from a nearby matrix, such as
    the previous table sample's, preconditions even the first step. Returns (x,
    iterations, residual_norm).
    """
    free, _ = _free_block(mesh)
    tol = tol_abs + tol_rel * np.linalg.norm(rhs[free])
    held = HeldLU() if held is None else held
    t_w = 0.0 if w is None else material.flux_map(curve, w)

    def residual(x):
        gx = mesh.element_gradients(x)
        g = gx if w is None else w + gx
        r = assemble_flux_divergence(mesh, _flux(curve, mask, gx, g, t_w)) - rhs
        return g, r, np.linalg.norm(r[free])

    x = np.zeros(mesh.n_nodes)
    if x0 is not None:
        x[free] = np.asarray(x0, dtype=float)[free]
    g, r, rnorm = residual(x)
    for it in range(MAX_NEWTON + 1):
        if rnorm <= tol:
            return x, it, rnorm
        if it == MAX_NEWTON:
            break
        dx = solve_jacobian(mesh, curve, mask, g, -r, held, NEWTON_FORCING)
        step = 1.0
        for _ in range(MAX_HALVINGS):
            g_try, r_try, rn_try = residual(x + step * dx)
            if rn_try < rnorm:
                break
            step *= 0.5
        else:
            raise SolverError("Newton line search stalled", residual_norm=rnorm)
        x = x + step * dx
        g, r, rnorm = g_try, r_try, rn_try
    raise SolverError(f"Newton did not converge in {MAX_NEWTON} iterations",
                      residual_norm=rnorm)


@dataclass
class StateResult:
    """Converged state of one design: the mesh, curve and per-element ferro
    mask it was solved with, and the nodal values u (n,) in `field`.
    Consumers read the design from here; solve_adjoint assembles the
    Jacobian at it."""
    mesh: TriMesh
    field: np.ndarray
    iterations: int
    residual_norm: float
    ferro_mask: np.ndarray
    curve: object


def solve_state(mesh: TriMesh, curve, levelset=None, sources: SourceSpec = None,
                rhs: np.ndarray = None, ferro_mask: np.ndarray = None,
                x0: np.ndarray = None, held: HeldLU = None) -> StateResult:
    """solve_quasilinear without offset, to ||r||_2 <= TOL_ABS + TOL_REL
    ||F||_2, with the material law on the ferro elements, through `held`
    (a fresh HeldLU by default), from the Newton start `x0` on the free DOFs
    (zero by default), e.g. the field of a nearby design.

    The material is `ferro_mask`, bool of shape (n_tris,) (else ValueError),
    or the centroid sign of a nodal `levelset` (all-ferro if both are None);
    the load is `rhs`, or `sources`. The descent (optimizer.Driver) passes
    ferro_mask and rhs, cmd_solve sources alone; the levelset form serves
    perfbench's fresh-J check and tests.
    """
    if rhs is None:
        if sources is None:
            raise ValueError("need sources or rhs")
        rhs = assemble_rhs(mesh, sources)
    if ferro_mask is None:
        ferro_mask = ferro_element_mask(mesh, levelset)
    ferro_mask = np.asarray(ferro_mask)
    if ferro_mask.dtype != bool or ferro_mask.shape != (mesh.n_tris,):
        raise ValueError(f"ferro_mask is {ferro_mask.dtype} of shape {ferro_mask.shape}: "
                         f"it must be bool of shape ({mesh.n_tris},)")
    u, iterations, rnorm = solve_quasilinear(mesh, curve, ferro_mask, rhs,
                                             TOL_ABS, TOL_REL, x0=x0, held=held)
    return StateResult(mesh, u, iterations, rnorm, ferro_mask, curve)


def solve_adjoint(state: StateResult, adjoint_rhs: np.ndarray,
                  held: HeldLU = None) -> np.ndarray:
    """Linear adjoint solve: the system matrix is the state Jacobian,
    assembled here at the converged state (only accepted designs need it),
    solved through `held` (a fresh HeldLU by default, given the state's
    ferro mask) to ADJOINT_TOL relative.

    `adjoint_rhs` is the literal right-hand-side vector of the linear system
    (for the tracking objective the caller passes the negated objective
    derivative). The matrix is symmetric because the flux Jacobian is:
    assemble_stiffness refuses a non-symmetric coefficient with SolverError
    before `held` is touched. Returns the nodal adjoint p (n,).
    """
    grad = state.mesh.element_gradients(state.field)
    return solve_jacobian(state.mesh, state.curve, state.ferro_mask, grad,
                          adjoint_rhs, held, ADJOINT_TOL)
