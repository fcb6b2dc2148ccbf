"""Magnetic reluctivity laws and the derived nonlinear operators.

The material law nu(s) maps flux-density magnitude s = |B| [T] to reluctivity
[m/H]. Physical laws stay between nu_min and the reluctivity of air NU0 and
saturate toward NU0. Three implementations ship: a smooth saturation law
(Marrocco family), a constant linear stub, and a cubic-spline fit of measured
(s, nu) samples loaded from CSV.

Derived operators (vectorized over trailing axes):
  flux_map(curve, W)          H-field map  W -> nu(|W|) W
  flux_jacobian(curve, W)     its 2x2 Jacobian, symmetric
  nonlinearity(curve, W, V)   second-order Taylor remainder of flux_map at W

All curve objects are immutable after construction and safe for concurrent
read access.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .csvio import read_csv

# reluctivity of air (vacuum) [m/H]
NU0 = 1.0e7 / (4.0 * np.pi)


def _require_finite(curve, *names) -> None:
    """ValueError naming the first of the curve's parameters that is NaN
    or infinite."""
    for name in names:
        value = getattr(curve, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} = {value!r} must be finite")


@dataclass(frozen=True)
class MarroccoCurve:
    """Smooth saturation law nu(s) = nu_air (s^2a + c tau)/(s^2a + tau).

    nu(0) = c nu_air, nu -> nu_air as s -> inf, nu'(0) = 0, C^inf for s >= 0
    when 2*alpha >= 4. Monotone increasing, so the admissibility quotient
    is >= 0.
    """
    alpha: float = 4.0
    c: float = 0.0039
    tau: float = 1.52e6
    nu_air = NU0   # a class constant, not a field: every law saturates to air

    def __post_init__(self):
        _require_finite(self, "alpha", "c", "tau")
        if self.alpha < 1.0:
            raise ValueError(f"alpha = {self.alpha:g} must be at least 1")
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"c = {self.c:g} must be in (0, 1)")
        if self.tau <= 0.0:
            raise ValueError(f"tau = {self.tau:g} must be positive")

    @property
    def nu_min(self) -> float:
        return self.c * self.nu_air

    def nu(self, s):
        s = np.asarray(s, dtype=float)
        u = s ** (2 * self.alpha)
        return self.nu_air * (u + self.c * self.tau) / (u + self.tau)

    def nu_prime(self, s):
        s = np.asarray(s, dtype=float)
        m = 2 * self.alpha
        return (self.nu_air * m * self.tau * (1.0 - self.c)
                * s ** (m - 1) / (s ** m + self.tau) ** 2)

    def nu_second(self, s):
        s = np.asarray(s, dtype=float)
        m = 2 * self.alpha
        u = s ** m
        D = u + self.tau
        g = s ** (m - 2) * ((m - 1) * D - 2 * m * u)
        return self.nu_air * self.tau * (1.0 - self.c) * m * g / D ** 3

    def nu_third(self, s):
        s = np.asarray(s, dtype=float)
        m = 2 * self.alpha
        u = s ** m
        D = u + self.tau
        g = s ** (m - 2) * ((m - 1) * D - 2 * m * u)
        # zero for every s at m = 2 (not 0 * inf); +inf at s = 0 for 2 < m < 3
        with np.errstate(divide="ignore"):
            lead = 0.0 if m == 2 else (m - 1) * (m - 2) * s ** (m - 3)
        gp = lead * D - 3 * m * (m - 1) * s ** (2 * m - 3)
        return (self.nu_air * self.tau * (1.0 - self.c) * m
                * (gp * D - 3 * m * s ** (m - 1) * g) / D ** 4)

    def cache_key(self) -> str:
        raw = f"marrocco:{self.alpha!r}:{self.c!r}:{self.tau!r}:{self.nu_air!r}"
        return hashlib.sha256(raw.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class LinearCurve:
    """Constant reluctivity nu(s) = nu_linear: the linear stub."""
    nu_linear: float
    nu_air = NU0

    def __post_init__(self):
        _require_finite(self, "nu_linear")
        if self.nu_linear <= 0:
            raise ValueError(f"nu_linear = {self.nu_linear:g} must be positive")

    @property
    def nu_min(self) -> float:
        return self.nu_linear

    def nu(self, s):
        return np.full_like(np.asarray(s, dtype=float), self.nu_linear)

    def nu_prime(self, s):
        return np.zeros_like(np.asarray(s, dtype=float))

    nu_second = nu_prime
    nu_third = nu_prime

    def cache_key(self) -> str:
        raw = f"linear:{self.nu_linear!r}:{self.nu_air!r}"
        return hashlib.sha256(raw.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class SplineCurve:
    """Cubic-spline reluctivity from measured (s, nu) samples.

    Beyond the last sample the B-H curve is continued with vacuum slope:
    nu(s) = nu_air + A/s with A = (nu(s_max) - nu_air) s_max, so (nu s)' is
    exactly nu_air there and nu -> nu_air. Below the first sample the value is
    held constant (nu' = 0 near s = 0). Derivatives are analytic from the
    spline / the continuation formulas.
    """
    s: np.ndarray
    values: np.ndarray
    nu_air = NU0
    _spline: CubicSpline = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if s.ndim != 1 or len(s) < 4:
            raise ValueError("need at least 4 spline samples")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(v))):
            raise ValueError("spline samples must be finite")
        if np.any(np.diff(s) <= 0):
            raise ValueError("spline s-column must be strictly increasing")
        if s[0] < 0 or np.any(v <= 0):
            raise ValueError("spline samples must have s >= 0, nu > 0")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "values", v)
        # imported here, not at module level: scipy.interpolate pulls in
        # scipy.optimize, .spatial and .special, about 20 MB that no run on
        # the analytic laws needs
        from scipy.interpolate import CubicSpline
        object.__setattr__(self, "_spline", CubicSpline(s, v, extrapolate=False))

    @property
    def nu_min(self) -> float:
        grid = np.linspace(self.s[0], self.s[-1], 4097)
        return float(min(self._spline(grid).min(), self.values.min()))

    def _tail_coeff(self) -> float:
        return (self.values[-1] - self.nu_air) * self.s[-1]

    def _eval(self, s, order: int):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.empty_like(s)
        lo = s < self.s[0]
        hi = s > self.s[-1]
        mid = ~(lo | hi)
        sp = self._spline if order == 0 else self._spline.derivative(order)
        out[mid] = sp(s[mid])
        out[lo] = self.values[0] if order == 0 else 0.0
        A = self._tail_coeff()
        sh = s[hi]
        if order == 0:
            out[hi] = self.nu_air + A / sh
        else:
            sign = (-1.0) ** order
            out[hi] = sign * math.factorial(order) * A / sh ** (order + 1)
        return out

    def nu(self, s):
        return self._eval(s, 0).reshape(np.shape(s))

    def nu_prime(self, s):
        return self._eval(s, 1).reshape(np.shape(s))

    def nu_second(self, s):
        return self._eval(s, 2).reshape(np.shape(s))

    def nu_third(self, s):
        return self._eval(s, 3).reshape(np.shape(s))

    def cache_key(self) -> str:
        raw = b"spline:" + self.s.tobytes() + self.values.tobytes() + repr(self.nu_air).encode()
        return hashlib.sha256(raw).hexdigest()[:12]

    @classmethod
    def from_csv(cls, path) -> "SplineCurve":
        """Load CSV `s,nu` (csvio.read_csv's dialect, >= 4 rows)."""
        _, data = read_csv(path, ("s", "nu"))
        try:
            return cls(data[:, 0], data[:, 1])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# derived operators

def flux_map(curve, W: np.ndarray) -> np.ndarray:
    """H-field map nu(|W|) W; W has shape (..., 2)."""
    W = np.asarray(W, dtype=float)
    s = np.linalg.norm(W, axis=-1)
    return curve.nu(s)[..., None] * W


def flux_jacobian(curve, W: np.ndarray) -> np.ndarray:
    """Jacobian of flux_map: nu(|W|) I + nu'(|W|)/|W| W (x) W, shape (..., 2, 2).

    At W = 0 the Jacobian is nu(0) I. Eigenvalues are nu(|W|) across W and
    (nu(|W|) |W|)' along W; the matrix is symmetric by construction.
    """
    W = np.asarray(W, dtype=float)
    s = np.linalg.norm(W, axis=-1)
    nus = curve.nu(s)
    out = np.zeros(W.shape[:-1] + (2, 2))
    out[..., 0, 0] = nus
    out[..., 1, 1] = nus
    f = np.zeros_like(s)
    pos = s > 0
    f[pos] = curve.nu_prime(s[pos]) / s[pos]
    out[..., 0, 0] += f * W[..., 0] * W[..., 0]
    out[..., 0, 1] += f * W[..., 0] * W[..., 1]
    out[..., 1, 0] = out[..., 0, 1]
    out[..., 1, 1] += f * W[..., 1] * W[..., 1]
    return out


def nonlinearity(curve, W: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Taylor remainder flux_map(W+V) - flux_map(W) - flux_jacobian(W) V.

    Identically zero for the linear stub; bounded by C |V|^2 otherwise.
    """
    W = np.asarray(W, dtype=float)
    V = np.asarray(V, dtype=float)
    DV = np.einsum("...ij,...j->...i", flux_jacobian(curve, W), V)
    # flux_map(W+V) - flux_map(W) with the nu(|W|) W terms cancelled
    # analytically: the remainder is round-off-free where nu is constant
    WV = W + V
    nu_w = curve.nu(np.linalg.norm(W, axis=-1))
    dnu = curve.nu(np.linalg.norm(WV, axis=-1)) - nu_w
    return dnu[..., None] * WV + nu_w[..., None] * V - DV


def jacobian_eigenvalues(curve, s):
    """(lam1, lam2) = (nu(s), (nu(s) s)') of the flux-map Jacobian at |W| = s."""
    s = np.asarray(s, dtype=float)
    lam1 = curve.nu(s)
    return lam1, lam1 + curve.nu_prime(s) * s


# ---------------------------------------------------------------------------
# assumption validation

#: lower admissibility threshold for the delta quotient (first sufficient bound)
DELTA_THRESHOLD_FIXED = -1.0 / 3.0

#: flux densities [T] the assumptions are sampled on: 0 and 10^4
#: log-spaced points on [1e-6, 1e4]
ASSUMPTION_GRID = np.concatenate([[0.0], np.geomspace(1.0e-6, 1.0e4, 10000)])


def delta_threshold_contrast(curve) -> float:
    """Second sufficient bound -(1+k1)^2/((1+k1)^2 + 2), k1 = (nu_min - nu_air)/nu_air."""
    k1 = (curve.nu_min - curve.nu_air) / curve.nu_air
    q = (1.0 + k1) ** 2
    return -q / (q + 2.0)


@dataclass(frozen=True)
class AssumptionReport:
    """Sampled material-law checks.

    bounds_ok        nu_min <= nu(s) <= nu_air on the grid
    slope_bounds_ok  nu_min <= (nu(s) s)' <= nu_air on the grid; saturation
                     laws of the shipped family overshoot the upper bound in
                     a band, which is reported as a warning, not an error
    c3_smoothness_ok finite nu''/nu''' samples, nu'(0) = 0, nu'(s)/s bounded
                     near zero
    delta_nu         min over the grid of nu'(s) s / nu(s)
    admissibility_ok delta_nu > max(threshold_fixed, threshold_contrast);
                     violation is a warning (measured steel data violates it)
    m, m_at          the flux map's monotonicity constant, the least
                     jacobian_eigenvalues value min(nu(s), (nu(s) s)') on
                     the grid, and the s where it occurs; the flux map is
                     strongly monotone only if m > 0
    """
    bounds_ok: bool
    slope_bounds_ok: bool
    c3_smoothness_ok: bool
    delta_nu: float
    threshold_fixed: float
    threshold_contrast: float
    admissibility_ok: bool
    m: float
    m_at: float
    warnings: tuple

    def summary(self) -> str:
        lines = [
            f"value bounds [nu_min, nu_air]      : {'ok' if self.bounds_ok else 'VIOLATED'}",
            f"slope bounds on (nu s)'            : {'ok' if self.slope_bounds_ok else 'violated (warning)'}",
            f"C3 smoothness / nu'(0)=0           : {'ok' if self.c3_smoothness_ok else 'VIOLATED'}",
            f"delta quotient inf nu'(s)s/nu(s)   : {self.delta_nu:.6g}",
            f"thresholds (fixed, contrast)       : ({self.threshold_fixed:.6g}, "
            f"{self.threshold_contrast:.6g})",
            f"delta-quotient admissibility       : "
            f"{'ok' if self.admissibility_ok else 'violated (warning)'}",
            f"monotonicity m = min eigenvalue    : {self.m:.6g} at s = "
            f"{self.m_at:.6g} T{'' if self.m > 0 else ' (VIOLATED)'}",
        ]
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines)


def validate_assumptions(curve) -> AssumptionReport:
    """Sampled check of the physical and smoothness assumptions on the law.

    The checks are infima over all s > 0 in the continuum; sampling on the
    log grid ASSUMPTION_GRID is the generic test. Admissibility violations
    (delta_nu at or below the thresholds) produce a warning and a False flag
    only; m <= 0 is reported, not flagged, and every CLI command refuses it.
    """
    grid = ASSUMPTION_GRID
    tol = 1e-9 * curve.nu_air
    nu, slope = jacobian_eigenvalues(curve, grid)
    nup = np.asarray(curve.nu_prime(grid))
    least = np.minimum(nu, slope)
    i_m = int(np.argmin(least))
    warnings = []

    bounds_ok = bool(np.all(nu >= curve.nu_min - tol) and np.all(nu <= curve.nu_air + tol))
    if not bounds_ok:
        warnings.append("nu(s) leaves [nu_min, nu_air] on the sample grid")
    slope_ok = bool(np.all(slope >= curve.nu_min - tol) and np.all(slope <= curve.nu_air + tol))
    if not slope_ok:
        warnings.append("(nu(s) s)' leaves [nu_min, nu_air] on the sample grid")

    pos = grid > 0
    small = grid[pos][grid[pos] <= 1e-2]
    ratio_bounded = True
    if small.size:
        ratio = np.abs(curve.nu_prime(small)) / small
        ratio_bounded = bool(np.all(np.isfinite(ratio)) and ratio.max() <= 1e3 * curve.nu_air)
    c3_ok = bool(
        abs(float(curve.nu_prime(0.0))) <= tol
        and ratio_bounded
        and np.all(np.isfinite(curve.nu_second(grid)))
        and np.all(np.isfinite(curve.nu_third(grid))))
    if not c3_ok:
        warnings.append("smoothness checks failed (nu'(0), nu'/s, higher derivatives)")

    with np.errstate(divide="ignore", invalid="ignore"):
        quot = np.where(pos, nup * grid / nu, np.inf)
    delta = float(np.min(quot))
    r2 = delta_threshold_contrast(curve)
    a4 = bool(delta > max(DELTA_THRESHOLD_FIXED, r2))
    if not a4:
        warnings.append(
            f"delta quotient {delta:.4g} at or below the admissibility threshold "
            "(a sufficient condition only)")
    return AssumptionReport(bounds_ok, slope_ok, c3_ok, delta,
                            DELTA_THRESHOLD_FIXED, r2, a4, float(least[i_m]),
                            float(grid[i_m]), tuple(warnings))
