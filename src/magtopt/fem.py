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
    m = np.asarray(sources.magnetization, dtype=float)
    if m.ndim == 1:
        m_el = np.tile(m, (mesh.n_tris, 1))
    else:
        m_el = m.copy()
    m_el[mesh.region != Region.MAGNET] = 0.0
    return assemble_rhs_elements(mesh, jz_el, m_el)


def _free_block_pattern(mesh: TriMesh, free: np.ndarray):
    """CSC structure (indptr, indices) of the stiffness block on the `free`
    DOFs, and the position of each of the 9 m element entries in its data
    array (len(indices) for entries outside the block). Computed on first
    use and cached on the mesh per free set."""
    key = ("free_block_pattern", free.tobytes())
    if key not in mesh._cache:
        nf = free.size
        loc = np.full(mesh.n_nodes, -1, dtype=np.int64)
        loc[free] = np.arange(nf)
        # element entry (k, l) is grad(phi_l) . C grad(phi_k): row l, column k
        rows = loc[np.tile(mesh.tris, (1, 3)).ravel()]
        cols = loc[np.repeat(mesh.tris, 3, axis=1).ravel()]
        inside = (rows >= 0) & (cols >= 0)
        entries, pos = np.unique(cols[inside] * nf + rows[inside],
                                 return_inverse=True)
        scatter = np.full(rows.size, entries.size, dtype=np.int64)
        scatter[inside] = pos
        indptr = np.searchsorted(entries // nf, np.arange(nf + 1))
        mesh._cache[key] = (indptr.astype(np.int32),
                            (entries % nf).astype(np.int32), scatter)
    return mesh._cache[key]


def assemble_stiffness(mesh: TriMesh, coeff: np.ndarray,
                       free: np.ndarray = None) -> sp.csc_matrix:
    """Stiffness matrix K_ij = sum_e A_e grad(phi_i) . coeff_e grad(phi_j)
    for per-element 2x2 coefficients `coeff` (m, 2, 2), restricted to the
    rows and columns of the `free` DOFs (in their order; all nodes when
    None)."""
    free = np.arange(mesh.n_nodes) if free is None else free
    indptr, indices, scatter = _free_block_pattern(mesh, free)
    g0, g1 = mesh.grads[:, :, 0], mesh.grads[:, :, 1]
    # d_i[k] = (C grad(phi_k))_i; entry (k, l) = A_e sum_i d_i[k] grad_i(phi_l)
    d0 = coeff[:, 0, 0, None] * g0 + coeff[:, 0, 1, None] * g1
    d1 = coeff[:, 1, 0, None] * g0 + coeff[:, 1, 1, None] * g1
    ke = d0[:, :, None] * g0[:, None, :]
    ke += d1[:, :, None] * g1[:, None, :]
    ke *= mesh.areas[:, None, None]
    data = np.bincount(scatter, weights=ke.ravel(), minlength=indices.size + 1)
    return sp.csc_matrix((data[:-1], indices, indptr), shape=(free.size,) * 2)


def assemble_flux_divergence(mesh: TriMesh, flux_el: np.ndarray) -> np.ndarray:
    """Vector with entries sum_e A_e flux_e . grad(phi_i) for (m, 2) fluxes;
    (m, k, 2) fluxes give k columns (n, k)."""
    cols = flux_el.shape[1:-1]
    n = mesh.n_nodes
    contrib = np.einsum("e...i,eki->...ek", flux_el, mesh.grads) * mesh.areas[:, None]
    # column c of a stack scatters into bins c * n + node
    offset = n * np.arange(int(np.prod(cols)))[:, None]
    out = np.bincount((offset + mesh.tris.ravel()).ravel(),
                      weights=contrib.ravel(), minlength=offset.size * n)
    return out.reshape(cols + (n,)).T


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


def _free_nodes(mesh: TriMesh) -> np.ndarray:
    """The DOFs off the Dirichlet boundary, in a fill-reducing order.

    The order is the column order SuperLU's MMD_AT_PLUS_A gives the free
    block of the P1 Laplacian. It depends only on the sparsity pattern, which
    every stiffness block on this mesh shares, so blocks assembled on this
    free set arrive permuted and `factorize` needs no ordering of its own.
    Computed on first use (one factorization) and cached on the mesh.
    """
    if "free_nodes" not in mesh._cache:
        free = np.ones(mesh.n_nodes, dtype=bool)
        free[mesh.dirichlet_nodes()] = False
        free = np.flatnonzero(free)
        laplace = assemble_stiffness(
            mesh, np.broadcast_to(np.eye(2), (mesh.n_tris, 2, 2)), free)
        # only blocks on the ordered set are assembled from here on
        del mesh._cache[("free_block_pattern", free.tobytes())]
        lu = spla.splu(laplace, permc_spec="MMD_AT_PLUS_A")
        mesh._cache["free_nodes"] = free[np.argsort(lu.perm_c)]
    return mesh._cache["free_nodes"]


def factorize(A: sp.csc_matrix):
    """Sparse LU of a system matrix in its given column order: blocks on
    `_free_nodes` are already in fill-reducing order."""
    try:
        return spla.splu(A, permc_spec="NATURAL")
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc


def solve_free(A, b: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Solve A x = b, b of shape (n,) or (n, k), on the `free` DOFs: A is the
    free block (assemble_stiffness with `free`) or its `factorize`d form.
    x has b's shape and is zero off the free DOFs."""
    lu = A if isinstance(A, spla.SuperLU) else factorize(A)
    x = np.zeros(np.shape(b))
    x[free] = lu.solve(np.asarray(b, dtype=float)[free])
    return x


def damped_newton(residual, jacobian, x0: np.ndarray, free: np.ndarray,
                  tol: float, max_iter: int, max_halvings: int, jac0=None):
    """Damped Newton for residual(x) = 0 on the free DOFs.

    Converged when ||residual(x)[free]||_2 <= tol; each Newton step is
    halved (up to max_halvings) until the residual norm strictly decreases.
    jacobian(x) returns the free block (or its factorization); jac0, if
    given, stands for jacobian(x0) in the first step.
    Returns (x, iterations, residual_norm).
    """
    x = x0
    r = residual(x)
    rnorm = np.linalg.norm(r[free])
    for it in range(max_iter + 1):
        if rnorm <= tol:
            return x, it, rnorm
        if it == max_iter:
            break
        jac = jac0 if it == 0 and jac0 is not None else jacobian(x)
        dx = solve_free(jac, -r, free)
        step = 1.0
        for _ in range(max_halvings):
            r_try = residual(x + step * dx)
            rn_try = np.linalg.norm(r_try[free])
            if rn_try < rnorm:
                break
            step *= 0.5
        else:
            raise SolverError("Newton line search stalled", residual_norm=rnorm)
        x = x + step * dx
        r, rnorm = r_try, rn_try
    raise SolverError(f"Newton did not converge in {max_iter} iterations",
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
    free: np.ndarray


def _material_flux(curve, ferro_mask, grad_u):
    """Per-element H-flux: nonlinear law on ferro elements, nu_air elsewhere."""
    flux = curve.nu_air * grad_u
    if np.any(ferro_mask):
        flux[ferro_mask] = material.flux_map(curve, grad_u[ferro_mask])
    return flux


def _material_jacobian(curve, ferro_mask, grad_u):
    m = len(grad_u)
    coeff = np.zeros((m, 2, 2))
    coeff[:, 0, 0] = coeff[:, 1, 1] = curve.nu_air
    if np.any(ferro_mask):
        coeff[ferro_mask] = material.flux_jacobian(curve, grad_u[ferro_mask])
    return coeff


def solve_state(mesh: TriMesh, curve, levelset=None, sources: SourceSpec = None,
                rhs: np.ndarray = None, tol_abs: float = 1e-10,
                tol_rel: float = 1e-10, max_iter: int = 50,
                max_halvings: int = 20, ferro_mask: np.ndarray = None,
                x0: np.ndarray = None) -> StateResult:
    """Damped-Newton solve of the quasilinear state equation, converged when
    ||r||_2 <= tol_abs + tol_rel ||F||_2.

    Either `sources` or a pre-assembled load vector `rhs` must be given.
    `ferro_mask` overrides the level-set material indicator with an explicit
    per-element boolean array (single-element perturbation studies).
    `x0` is the Newton start on the free DOFs (zero by default), e.g. the
    field of a nearby design.
    """
    if rhs is None:
        if sources is None:
            raise ValueError("need sources or rhs")
        rhs = assemble_rhs(mesh, sources)
    ferro = ferro_element_mask(mesh, levelset) if ferro_mask is None \
        else np.asarray(ferro_mask, dtype=bool)
    free = _free_nodes(mesh)
    tol = tol_abs + tol_rel * np.linalg.norm(rhs[free])

    def residual(u):
        gu = mesh.element_gradients(u)
        return assemble_flux_divergence(mesh, _material_flux(curve, ferro, gu)) - rhs

    def jacobian(u):
        gu = mesh.element_gradients(u)
        return assemble_stiffness(mesh, _material_jacobian(curve, ferro, gu), free)

    u0 = np.zeros(mesh.n_nodes)
    if x0 is not None:
        u0[free] = np.asarray(x0, dtype=float)[free]
    u, iterations, rnorm = damped_newton(residual, jacobian, u0, free, tol,
                                         max_iter, max_halvings)
    return StateResult(mesh, u, iterations, rnorm, ferro, curve, free)


def solve_adjoint(state: StateResult, adjoint_rhs: np.ndarray) -> np.ndarray:
    """Linear adjoint solve: the system matrix is the state Jacobian,
    assembled here at the converged state (only accepted designs need it).

    `adjoint_rhs` is the literal right-hand-side vector of the linear system
    (for the tracking objective the caller passes the negated objective
    derivative). The matrix is symmetric because the flux Jacobian is; its
    free block is checked. Returns the nodal adjoint p (n,).
    """
    mesh = state.mesh
    jac = assemble_stiffness(mesh, _material_jacobian(
        state.curve, state.ferro_mask, mesh.element_gradients(state.field)),
        state.free)
    asym = abs(jac - jac.T).max()
    if asym > 1e-9 * abs(jac).max():
        raise SolverError(f"adjoint system matrix not symmetric (dev {asym:.3g})")
    return solve_free(jac, adjoint_rhs, state.free)
