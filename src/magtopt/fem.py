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
    m = np.asarray(sources.magnetization, dtype=float)
    if m.ndim == 1:
        m_el = np.tile(m, (mesh.n_tris, 1))
    else:
        m_el = m.copy()
    m_el[mesh.region != Region.MAGNET] = 0.0
    return assemble_rhs_elements(mesh, jz_el, m_el)


def _block_structure(mesh: TriMesh, loc: np.ndarray):
    """CSC structure (indptr, indices) of the stiffness block that holds node
    i in row and column loc[i] (nodes with loc -1 are left out), and the
    position of each of the 9 m element entries in its data array
    (len(indices) for entries left out)."""
    n = int(loc.max()) + 1
    # element entry (k, l) is grad(phi_l) . C grad(phi_k): row l, column k
    rows = loc[np.tile(mesh.tris, (1, 3)).ravel()]
    cols = loc[np.repeat(mesh.tris, 3, axis=1).ravel()]
    inside = (rows >= 0) & (cols >= 0)
    entries, pos = np.unique(cols[inside] * n + rows[inside], return_inverse=True)
    scatter = np.full(rows.size, entries.size, dtype=np.int64)
    scatter[inside] = pos
    indptr = np.searchsorted(entries // n, np.arange(n + 1))
    return indptr.astype(np.int32), (entries % n).astype(np.int32), scatter


def _stiffness(mesh: TriMesh, coeff: np.ndarray, structure) -> sp.csc_matrix:
    """Entries sum_e A_e grad(phi_i) . coeff_e grad(phi_j) summed into a
    _block_structure."""
    indptr, indices, scatter = structure
    g0, g1 = mesh.grads[:, :, 0], mesh.grads[:, :, 1]
    # d_i[k] = (C grad(phi_k))_i; entry (k, l) = A_e sum_i d_i[k] grad_i(phi_l)
    d0 = coeff[:, 0, 0, None] * g0 + coeff[:, 0, 1, None] * g1
    d1 = coeff[:, 1, 0, None] * g0 + coeff[:, 1, 1, None] * g1
    ke = d0[:, :, None] * g0[:, None, :]
    ke += d1[:, :, None] * g1[:, None, :]
    ke *= mesh.areas[:, None, None]
    data = np.bincount(scatter, weights=ke.ravel(), minlength=indices.size + 1)
    return sp.csc_matrix((data[:-1], indices, indptr), shape=(indptr.size - 1,) * 2)


def _free_block(mesh: TriMesh):
    """The DOFs off the Dirichlet boundary in a fill-reducing order, and the
    _block_structure of the stiffness block on them; computed on first use
    (one factorization) and cached on the mesh. The order is the column order
    SuperLU's MMD_AT_PLUS_A gives the P1 Laplacian on the sorted free DOFs.
    It depends only on the sparsity pattern, which every stiffness block on
    this mesh shares, so `factorize` needs no ordering of its own."""
    if "free_block" not in mesh._cache:
        dofs = np.setdiff1d(np.arange(mesh.n_nodes), mesh.dirichlet_nodes())
        loc = np.full(mesh.n_nodes, -1, dtype=np.int64)
        loc[dofs] = np.arange(dofs.size)
        laplace = _stiffness(mesh, np.broadcast_to(np.eye(2), (mesh.n_tris, 2, 2)),
                             _block_structure(mesh, loc))
        # perm_c's base is the factorization: no name holds it past this line
        dofs = dofs[np.argsort(spla.splu(laplace, permc_spec="MMD_AT_PLUS_A").perm_c)]
        loc[dofs] = np.arange(dofs.size)
        mesh._cache["free_block"] = (dofs, _block_structure(mesh, loc))
    return mesh._cache["free_block"]


def assemble_stiffness(mesh: TriMesh, coeff: np.ndarray) -> sp.csc_matrix:
    """Stiffness block K_ij = sum_e A_e grad(phi_i) . coeff_e grad(phi_j) on
    the free DOFs in their fill-reducing order (_free_block), for
    per-element 2x2 coefficients `coeff` (m, 2, 2)."""
    return _stiffness(mesh, coeff, _free_block(mesh)[1])


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


def factorize(A: sp.csc_matrix):
    """Sparse LU of a stiffness block in its given column order, which is
    already fill-reducing."""
    try:
        return spla.splu(A, permc_spec="NATURAL")
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc


def solve_free(lu, b: np.ndarray, mesh: TriMesh) -> np.ndarray:
    """Solve A x = b, b of shape (n,) or (n, k), on the free DOFs of `mesh`
    with the `factorize`d stiffness block `lu`. x has b's shape and is zero
    on the Dirichlet boundary."""
    free, _ = _free_block(mesh)
    x = np.zeros(np.shape(b))
    x[free] = lu.solve(np.asarray(b, dtype=float)[free])
    return x


def damped_newton(residual, jacobian, x0: np.ndarray, mesh: TriMesh,
                  tol: float, max_iter: int, jac0=None):
    """Damped Newton for residual(x) = 0 on the free DOFs of `mesh`.

    Converged when ||residual(x)[free]||_2 <= tol; each Newton step is
    halved (up to MAX_HALVINGS times) until the residual norm strictly
    decreases. jacobian(x) returns the stiffness block; jac0, if given, is
    the factorization of jacobian(x0) and serves the first step.
    Returns (x, iterations, residual_norm).
    """
    free, _ = _free_block(mesh)
    x = x0
    r = residual(x)
    rnorm = np.linalg.norm(r[free])
    for it in range(max_iter + 1):
        if rnorm <= tol:
            return x, it, rnorm
        if it == max_iter:
            break
        lu = jac0 if it == 0 and jac0 is not None else factorize(jacobian(x))
        dx = solve_free(lu, -r, mesh)
        del lu   # holding the factors through the line search raises peak memory
        step = 1.0
        for _ in range(MAX_HALVINGS):
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
                rhs: np.ndarray = None, max_iter: int = 50,
                ferro_mask: np.ndarray = None, x0: np.ndarray = None) -> StateResult:
    """Damped-Newton solve of the quasilinear state equation, converged when
    ||r||_2 <= TOL_ABS + TOL_REL ||F||_2.

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
    free, _ = _free_block(mesh)
    tol = TOL_ABS + TOL_REL * np.linalg.norm(rhs[free])

    def residual(u):
        gu = mesh.element_gradients(u)
        return assemble_flux_divergence(mesh, _material_flux(curve, ferro, gu)) - rhs

    def jacobian(u):
        gu = mesh.element_gradients(u)
        return assemble_stiffness(mesh, _material_jacobian(curve, ferro, gu))

    u0 = np.zeros(mesh.n_nodes)
    if x0 is not None:
        u0[free] = np.asarray(x0, dtype=float)[free]
    u, iterations, rnorm = damped_newton(residual, jacobian, u0, mesh, tol, max_iter)
    return StateResult(mesh, u, iterations, rnorm, ferro, curve)


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
        state.curve, state.ferro_mask, mesh.element_gradients(state.field)))
    asym = abs(jac - jac.T).max()
    if asym > 1e-9 * abs(jac).max():
        raise SolverError(f"adjoint system matrix not symmetric (dev {asym:.3g})")
    return solve_free(factorize(jac), adjoint_rhs, mesh)
