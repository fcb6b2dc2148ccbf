"""Sensitivity matrices for the two material-swap directions: the closed
polarization forms of an air disk in ferromagnetic material and of a
ferromagnetic disk in air (|w| = pi), at local field gradient grad_u. Both
are diagonal in the frame [e, e_perp], e = grad_u/|grad_u|, where the
flux-map Jacobian is diag(lam1, lam2).
"""
from __future__ import annotations

import numpy as np

from . import material


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
