"""Sensitivity factors d1 for the two material-swap directions, from the
closed polarization forms of an air disk in ferromagnetic material and of a
ferromagnetic disk in air (|w| = pi), at t = |grad u|.

Each polarization matrix is R diag(d1, d2) R^T, R = [e, e_perp],
e = grad_u/|grad_u|, the frame where the flux-map Jacobian is
diag(lam1, lam2) = diag(nu(t), (nu(s) s)'|_t). So grad_u . M grad_p =
d1(t) (grad_u . grad_p) and d2 enters no sensitivity (tests/oracles.py
keeps the full matrices). The names still say "matrix" because
perfbench/spans.py's TRACED looks both up by name.
"""
from __future__ import annotations

import numpy as np

from . import material


def matrix_air_in_ferro(curve, t) -> np.ndarray:
    """d1 for an air disk nucleating in ferromagnetic material (|w| = pi):

        d1 = (nu0 - lam1) |w| (lam2 + g)/(nu0 + g),   g = sqrt(lam1 lam2),

    positive whenever lam1 < nu0. t (...) gives (...).
    """
    lam1, lam2 = material.jacobian_eigenvalues(curve, t)
    nu0 = curve.nu_air
    g = np.sqrt(lam1 * lam2)
    return (nu0 - lam1) * np.pi / (nu0 + g) * (lam2 + g)


def matrix_ferro_in_air(curve, t) -> np.ndarray:
    """d1 for a ferromagnetic disk nucleating in air:

        d1 = 2 |w| nu0 (lam1 - nu0)/(lam2 + nu0),

    negative whenever lam1 < nu0. t (...) gives (...).
    """
    lam1, lam2 = material.jacobian_eigenvalues(curve, t)
    nu0 = curve.nu_air
    return 2.0 * np.pi * nu0 * (lam1 - nu0) / (lam2 + nu0)
