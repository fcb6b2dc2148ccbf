"""Closed-form polarization matrices of elliptical inclusions and the
sensitivity matrices for the two material-swap directions.

Conventions: the inclusion is the unit disk (area pi) unless an ellipse is
requested explicitly; 2x2 symmetric positive definite matrices are
eigendecomposed in closed form via trace/determinant, no iterative solver.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import material


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


def _aligned_frame(curve, grad_u):
    """(lam1, lam2, e) at grad_u (..., 2): the flux-Jacobian eigenvalues and
    e = grad_u/|grad_u| (e1 at 0, where lam1 = lam2 makes it frame-free)."""
    grad_u = np.asarray(grad_u, dtype=float)
    t = np.hypot(grad_u[..., 0], grad_u[..., 1])
    lam1, lam2 = material.jacobian_eigenvalues(curve, t)
    e = np.where((t > 0.0)[..., None], grad_u, [1.0, 0.0])
    return lam1, lam2, e / np.hypot(e[..., 0], e[..., 1])[..., None]


def _in_frame(e, d1, d2):
    """R diag(d1, d2) R^T for R = [e, e_perp], as d2 I + (d1 - d2) e e^T."""
    d1, d2 = np.asarray(d1)[..., None, None], np.asarray(d2)[..., None, None]
    return d2 * np.eye(2) + (d1 - d2) * e[..., :, None] * e[..., None, :]


def matrix_air_in_ferro(curve, grad_u) -> np.ndarray:
    """Sensitivity matrix for an air disk nucleating in ferromagnetic
    material at local field gradient grad_u (|w| = pi):

        (nu0 - lam1) |w| R diag( (lam2+g)/(nu0+g), (lam1+g)/(nu0+g) ) R^T,

    g = sqrt(lam1 lam2), lam1 = nu(|grad_u|), lam2 = (nu(s) s)'|_{|grad_u|},
    R = [e, e_perp], e = grad_u/|grad_u|. Positive definite whenever
    lam1, lam2 < nu0. grad_u (..., 2) gives (..., 2, 2).
    """
    lam1, lam2, e = _aligned_frame(curve, grad_u)
    nu0 = curve.nu_air
    g = np.sqrt(lam1 * lam2)
    c = (nu0 - lam1) * np.pi / (nu0 + g)
    return _in_frame(e, c * (lam2 + g), c * (lam1 + g))


def matrix_ferro_in_air(curve, grad_u) -> np.ndarray:
    """Sensitivity matrix for a ferromagnetic disk nucleating in air:

        2 |w| nu0 R diag( (lam1-nu0)/(lam2+nu0), (lam1-nu0)/(lam1+nu0) ) R^T,

    negative definite whenever lam1 < nu0. grad_u (..., 2) gives (..., 2, 2).
    """
    lam1, lam2, e = _aligned_frame(curve, grad_u)
    nu0 = curve.nu_air
    c = 2.0 * np.pi * nu0 * (lam1 - nu0)
    return _in_frame(e, c / (lam2 + nu0), c / (lam1 + nu0))
