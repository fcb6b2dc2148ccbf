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
class ScalarField:
    """Nodal P1 field over a mesh (state u, adjoint p, ...)."""
    mesh: TriMesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_nodes,):
            raise ValueError("field length must equal node count")

    def element_gradients(self) -> np.ndarray:
        return self.mesh.element_gradients(self.values)


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
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, mesh.tris.ravel(), contrib.ravel())
    return out


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


def assemble_stiffness(mesh: TriMesh, coeff: np.ndarray) -> sp.csr_matrix:
    """Stiffness matrix for per-element 2x2 coefficient `coeff` (m, 2, 2)."""
    db = np.einsum("eij,ekj->eki", coeff, mesh.grads)
    ke = np.einsum("eki,eli->ekl", db, mesh.grads) * mesh.areas[:, None, None]
    rows = np.repeat(mesh.tris, 3, axis=1).ravel()
    cols = np.tile(mesh.tris, (1, 3)).ravel()
    n = mesh.n_nodes
    return sp.csr_matrix((ke.ravel(), (rows, cols)), shape=(n, n))


def assemble_flux_divergence(mesh: TriMesh, flux_el: np.ndarray) -> np.ndarray:
    """Vector with entries sum_e A_e flux_e . grad(phi_i) for (m, 2) fluxes."""
    contrib = np.einsum("ei,eki->ek", flux_el, mesh.grads) * mesh.areas[:, None]
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, mesh.tris.ravel(), contrib.ravel())
    return out


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
    fixed = mesh.dirichlet_nodes()
    free = np.ones(mesh.n_nodes, dtype=bool)
    free[fixed] = False
    return np.flatnonzero(free)


def solve_free(A: sp.spmatrix, b: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Solve A x = b restricted to the `free` DOFs; full-length x, zero on
    the others."""
    try:
        lu = spla.splu(A[np.ix_(free, free)].tocsc())
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    x = np.zeros(A.shape[0])
    x[free] = lu.solve(np.asarray(b, dtype=float)[free])
    return x


def damped_newton(residual, jacobian, x0: np.ndarray, free: np.ndarray,
                  tol: float, max_iter: int, max_halvings: int):
    """Damped Newton for residual(x) = 0 on the free DOFs.

    Converged when ||residual(x)[free]||_2 <= tol; each Newton step is
    halved (up to max_halvings) until the residual norm strictly decreases.
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
        dx = solve_free(jacobian(x), -r, free)
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
    """Converged state with the final Newton Jacobian, reused by the adjoint."""
    field: ScalarField
    iterations: int
    residual_norm: float
    ferro_mask: np.ndarray
    jacobian: sp.csr_matrix
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
                max_halvings: int = 20, ferro_mask: np.ndarray = None) -> StateResult:
    """Damped-Newton solve of the quasilinear state equation, converged when
    ||r||_2 <= tol_abs + tol_rel ||F||_2.

    Either `sources` or a pre-assembled load vector `rhs` must be given.
    `ferro_mask` overrides the level-set material indicator with an explicit
    per-element boolean array (single-element perturbation studies).
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
        return assemble_stiffness(mesh, _material_jacobian(curve, ferro, gu))

    u, iterations, rnorm = damped_newton(residual, jacobian, np.zeros(mesh.n_nodes),
                                         free, tol, max_iter, max_halvings)
    return StateResult(ScalarField(mesh, u), iterations, rnorm, ferro,
                       jacobian(u), free)


def solve_adjoint(state: StateResult, adjoint_rhs: np.ndarray) -> ScalarField:
    """Linear adjoint solve: the system matrix is the state Jacobian at the
    converged state.

    `adjoint_rhs` is the literal right-hand-side vector of the linear system
    (for the tracking objective the caller passes the negated objective
    derivative). The matrix is symmetric because the flux Jacobian is.
    """
    jac = state.jacobian
    asym = abs(jac - jac.T).max()
    if asym > 1e-9 * abs(jac).max():
        raise SolverError(f"adjoint system matrix not symmetric (dev {asym:.3g})")
    return ScalarField(state.field.mesh, solve_free(jac, adjoint_rhs, state.free))
