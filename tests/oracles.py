"""Oracles that tests compare the library against: the general
polarization derivation (the disk and ellipse closed forms, and the
reduction of an anisotropic background to them), the full 2x2 case matrices
whose eigenvalue d1 along grad u the library returns, closed forms for its
numerical solves, pointwise twins of its batched sensitivity assembly, an
edge-use count for mesh conformity and a per-edge loop for its gap-edge
element choice. No library code needs them.

The case matrices do not all come from polarization_general: their d2
agrees with its eigenvalue across grad u, but their d1 has the contrast
factor (nu0 - lam1) in case I and (lam1 - nu0) in case II where
polarization_general has lam2 (lam1 = nu(t), lam2 = (nu(s) s)' at
t = |grad u|). So d1 is polarization_general's eigenvalue along grad u
times (nu0 - lam1)/(nu0 - lam2) in case I and (lam1 - nu0)/(lam2 - nu0) in
case II; criterion 12's expansion checks the library's factor."""
from dataclasses import dataclass

import numpy as np

from magtopt import material


class ContrastError(ValueError):
    """Coefficient contrast is not sign-definite."""


@dataclass(frozen=True)
class Anisotropy2:
    """SPD 2x2 coefficient with cached closed-form eigendecomposition.

    eigenvalues are descending; `rotation` columns are the eigenvectors, so
    mat = rotation @ diag(eigenvalues) @ rotation.T.
    """
    mat: np.ndarray
    eigenvalues: np.ndarray
    rotation: np.ndarray

    @classmethod
    def from_matrix(cls, A) -> "Anisotropy2":
        A = np.asarray(A, dtype=float)
        if A.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        if abs(A[0, 1] - A[1, 0]) > 1e-10 * max(1.0, abs(A).max()):
            raise ValueError("matrix must be symmetric")
        a, b, c = A[0, 0], 0.5 * (A[0, 1] + A[1, 0]), A[1, 1]
        disc = np.hypot(0.5 * (a - c), b)
        l1, l2 = 0.5 * (a + c) + disc, 0.5 * (a + c) - disc
        if l2 <= 0:
            raise ValueError("matrix must be positive definite")
        if disc <= 1e-14 * (a + c):
            v1 = np.array([1.0, 0.0])
        elif b != 0.0:
            v1 = np.array([l1 - c, b])
            v1 = v1 / np.linalg.norm(v1)
        else:
            v1 = np.array([1.0, 0.0]) if a >= c else np.array([0.0, 1.0])
        v2 = np.array([-v1[1], v1[0]])
        return cls(A, np.array([l1, l2]), np.column_stack([v1, v2]))

    def sqrt(self) -> np.ndarray:
        s = np.sqrt(self.eigenvalues)
        return self.rotation @ np.diag(s) @ self.rotation.T

    def inv_sqrt(self) -> np.ndarray:
        s = 1.0 / np.sqrt(self.eigenvalues)
        return self.rotation @ np.diag(s) @ self.rotation.T


def _check_contrast(diff: np.ndarray) -> None:
    """Reject genuinely indefinite contrast; zero contrast is fine (the
    closed forms then return the zero matrix)."""
    ev = np.linalg.eigvalsh(0.5 * (diff + diff.T))
    tol = 1e-12 * max(np.abs(ev).max(), 1e-300)
    if ev[0] < -tol and ev[1] > tol:
        raise ContrastError("coefficient contrast must not be indefinite")


def polarization_disk(A_tilde, area: float) -> np.ndarray:
    """Polarization matrix of a disk of given area with background I:
    2 |w| (At + I)^-1 (At - I)."""
    At = np.asarray(A_tilde, dtype=float)
    I = np.eye(2)
    _check_contrast(At - I)
    return 2.0 * area * np.linalg.solve(At + I, At - I)


def polarization_ellipse(A_tilde, a: float, b: float) -> np.ndarray:
    """Polarization matrix of an axis-aligned ellipse (semi-axes a, b),
    background I: |w| (I + (At - I)(I/2 - C))^-1 (At - I) with
    C = (a-b)/(2(a+b)) diag(1, -1)."""
    if a <= 0 or b <= 0:
        raise ValueError("semi-axes must be positive")
    At = np.asarray(A_tilde, dtype=float)
    I = np.eye(2)
    _check_contrast(At - I)
    C = (a - b) / (2.0 * (a + b)) * np.diag([1.0, -1.0])
    area = np.pi * a * b
    return area * np.linalg.solve(I + (At - I) @ (0.5 * I - C), At - I)


def polarization_general(A, A_tilde) -> np.ndarray:
    """Polarization matrix of the unit disk with anisotropic background A and
    inclusion coefficient A_tilde (both SPD, contrast definite).

    Reduction chain: the substitution x = A^{1/2} y maps the background to I
    and the disk to an ellipse with semi-axes 1/sqrt(eig(A)) along the
    eigenvectors of A; a rotation aligns that ellipse with the axes; the
    ellipse closed form finishes. The result is symmetrized (it is symmetric
    up to roundoff by construction).
    """
    Aw = Anisotropy2.from_matrix(A)
    At = np.asarray(A_tilde, dtype=float)
    _check_contrast(At - Aw.mat)
    R = Aw.rotation
    inv_sqrt = Aw.inv_sqrt()
    At_hat = inv_sqrt @ At @ inv_sqrt
    a, b = 1.0 / np.sqrt(Aw.eigenvalues)
    P_axes = polarization_ellipse(R.T @ At_hat @ R, a, b)
    P_identity = R @ P_axes @ R.T
    sq = Aw.sqrt()
    out = np.sqrt(np.prod(Aw.eigenvalues)) * sq.T @ P_identity @ sq
    return 0.5 * (out + out.T)


def aligned_frame(curve, grad_u):
    """(lam1, lam2, e) at grad_u (..., 2): the flux-Jacobian eigenvalues and
    e = grad_u/|grad_u| (e1 at 0, where lam1 = lam2 makes it frame-free)."""
    grad_u = np.asarray(grad_u, dtype=float)
    t = np.hypot(grad_u[..., 0], grad_u[..., 1])
    lam1, lam2 = material.jacobian_eigenvalues(curve, t)
    e = np.where((t > 0.0)[..., None], grad_u, [1.0, 0.0])
    return lam1, lam2, e / np.hypot(e[..., 0], e[..., 1])[..., None]


def in_frame(e, d1, d2):
    """R diag(d1, d2) R^T for R = [e, e_perp], as d2 I + (d1 - d2) e e^T."""
    d1, d2 = np.asarray(d1)[..., None, None], np.asarray(d2)[..., None, None]
    return d2 * np.eye(2) + (d1 - d2) * e[..., :, None] * e[..., None, :]


def full_matrix_air_in_ferro(curve, grad_u) -> np.ndarray:
    """Sensitivity matrix for an air disk nucleating in ferromagnetic
    material at local field gradient grad_u (|w| = pi):

        (nu0 - lam1) |w| R diag( (lam2+g)/(nu0+g), (lam1+g)/(nu0+g) ) R^T,

    g = sqrt(lam1 lam2), lam1 = nu(|grad_u|), lam2 = (nu(s) s)'|_{|grad_u|},
    R = [e, e_perp], e = grad_u/|grad_u|. Positive definite whenever
    lam1, lam2 < nu0. grad_u (..., 2) gives (..., 2, 2).
    """
    lam1, lam2, e = aligned_frame(curve, grad_u)
    nu0 = curve.nu_air
    g = np.sqrt(lam1 * lam2)
    c = (nu0 - lam1) * np.pi / (nu0 + g)
    return in_frame(e, c * (lam2 + g), c * (lam1 + g))


def full_matrix_ferro_in_air(curve, grad_u) -> np.ndarray:
    """Sensitivity matrix for a ferromagnetic disk nucleating in air:

        2 |w| nu0 R diag( (lam1-nu0)/(lam2+nu0), (lam1-nu0)/(lam1+nu0) ) R^T,

    negative definite whenever lam1 < nu0. grad_u (..., 2) gives (..., 2, 2).
    """
    lam1, lam2, e = aligned_frame(curve, grad_u)
    nu0 = curve.nu_air
    c = 2.0 * np.pi * nu0 * (lam1 - nu0)
    return in_frame(e, c / (lam2 + nu0), c / (lam1 + nu0))


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
    lam1, lam2, e1 = aligned_frame(curve, grad_u)
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


def g_ferro_to_air(curve, grad_u, grad_p, table) -> float:
    """Sensitivity of the objective to an air disk nucleating in ferromagnetic
    material where the state/adjoint gradients are the 2-vectors
    grad_u/grad_p: the matrix term plus the case-I table's correction."""
    grad_u = np.asarray(grad_u, dtype=float)
    grad_p = np.asarray(grad_p, dtype=float)
    M = full_matrix_air_in_ferro(curve, grad_u)
    return float(grad_u @ M @ grad_p) + float(table.lookup(grad_u, grad_p)[0])


def g_air_to_ferro(curve, grad_u, grad_p, table) -> float:
    """Sensitivity to a ferromagnetic disk nucleating in air."""
    grad_u = np.asarray(grad_u, dtype=float)
    grad_p = np.asarray(grad_p, dtype=float)
    M = full_matrix_ferro_in_air(curve, grad_u)
    return float(grad_u @ M @ grad_p) + float(table.lookup(grad_u, grad_p)[0])


def edge_use_counts(mesh) -> dict:
    """Map undirected edge -> number of incident triangles of `mesh`: a
    conforming mesh uses each edge at most twice."""
    e = np.concatenate([mesh.tris[:, [0, 1]], mesh.tris[:, [1, 2]],
                        mesh.tris[:, [2, 0]]])
    e.sort(axis=1)
    uniq, counts = np.unique(e, axis=0, return_counts=True)
    return {tuple(k): int(c) for k, c in zip(uniq, counts)}


def loop_edge_elements(mesh, edges):
    """Per-edge reference of `_edge_elements`' choice: the first incident
    element, in index order, whose centroid lies left of the directed edge,
    else the first incident one."""
    out = []
    for i, j in edges:
        elems = np.flatnonzero((mesh.tris == i).any(1) & (mesh.tris == j).any(1))
        tau = mesh.nodes[j] - mesh.nodes[i]
        d = mesh.centroids[elems] - 0.5 * (mesh.nodes[i] + mesh.nodes[j])
        left = np.flatnonzero(tau[0] * d[:, 1] - tau[1] * d[:, 0] > 0)
        out.append(elems[left[0] if left.size else 0])
    return np.array(out, dtype=np.int64)
