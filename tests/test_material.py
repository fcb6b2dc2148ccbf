import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from magtopt import material
from magtopt.material import (NU0, LinearCurve, MarroccoCurve,
                              SplineCurve, flux_jacobian, flux_map,
                              nonlinearity, validate_assumptions)

RNG = np.random.default_rng(42)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestEvalNu:
    def test_value_at_zero_matches_hand_evaluation(self, marrocco):
        # nu(0) = c * nu_air evaluated by hand: 0.0039 * 1e7/(4 pi)
        assert marrocco.nu(0.0) == pytest.approx(3103.5213902919595, rel=1e-14)

    def test_saturation_limit(self, marrocco):
        assert abs(marrocco.nu(1e6) - NU0) <= 1e-3 * NU0

    def test_linear_stub_constant(self, linear_stub):
        for s in (0.0, 0.5, 10.0, 1e4):
            assert linear_stub.nu(s) == 1000.0

    def test_derivatives_match_finite_differences(self, marrocco):
        s = np.array([0.3, 1.0, 2.5, 6.0, 20.0])
        h = 1e-5
        d1 = (marrocco.nu(s + h) - marrocco.nu(s - h)) / (2 * h)
        d2 = (marrocco.nu_prime(s + h) - marrocco.nu_prime(s - h)) / (2 * h)
        d3 = (marrocco.nu_second(s + h) - marrocco.nu_second(s - h)) / (2 * h)
        np.testing.assert_allclose(marrocco.nu_prime(s), d1, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(marrocco.nu_second(s), d2, rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(marrocco.nu_third(s), d3, rtol=1e-3, atol=1e-6)


class TestFluxMap:
    def test_zero_maps_to_zero(self, marrocco):
        assert np.all(flux_map(marrocco, np.zeros(2)) == 0.0)

    def test_linear_stub(self, linear_stub):
        W = np.array([1.0, 2.0])
        np.testing.assert_allclose(flux_map(linear_stub, W), 1000.0 * W)

    def test_magnitude_bounds(self, marrocco):
        W = RNG.normal(scale=2.0, size=(100, 2))
        t = flux_map(marrocco, W)
        tn = np.hypot(t[:, 0], t[:, 1])
        wn = np.hypot(W[:, 0], W[:, 1])
        assert np.all(tn >= marrocco.nu_min * wn - 1e-9)
        assert np.all(tn <= NU0 * wn + 1e-9)

    def test_monotonicity_surrogate(self, marrocco):
        phi = RNG.normal(scale=2.0, size=(200, 2))
        psi = RNG.normal(scale=1.0, size=(200, 2))
        diff = flux_map(marrocco, phi + psi) - flux_map(marrocco, phi)
        lhs = np.einsum("ei,ei->e", diff, psi)
        assert np.all(lhs >= marrocco.nu_min * (psi * psi).sum(1) - 1e-6)

    def test_lipschitz_surrogate(self, marrocco):
        # nu_air constant holds where the B-H slope stays below nu_air
        # (s < 4.6 for the default law; the overshoot band is reported by the
        # validator); the global constant is the sampled slope supremum.
        phi = RNG.normal(scale=0.8, size=(200, 2))
        psi = RNG.normal(scale=0.4, size=(200, 2))
        mask = (np.hypot(phi[:, 0], phi[:, 1])
                + np.hypot(psi[:, 0], psi[:, 1])) < 4.6
        diff = flux_map(marrocco, phi + psi) - flux_map(marrocco, phi)
        lhs = np.hypot(diff[:, 0], diff[:, 1])
        rhs = np.hypot(psi[:, 0], psi[:, 1])
        assert np.all(lhs[mask] <= NU0 * rhs[mask] + 1e-6)

        grid = np.geomspace(1e-6, 1e4, 10001)
        c6 = np.max(marrocco.nu(grid) + marrocco.nu_prime(grid) * grid)
        phi = RNG.normal(scale=4.0, size=(200, 2))
        psi = RNG.normal(scale=2.0, size=(200, 2))
        diff = flux_map(marrocco, phi + psi) - flux_map(marrocco, phi)
        assert np.all(np.hypot(diff[:, 0], diff[:, 1])
                      <= c6 * np.hypot(psi[:, 0], psi[:, 1]) + 1e-6)


class TestFluxJacobian:
    def test_at_zero(self, marrocco):
        np.testing.assert_allclose(flux_jacobian(marrocco, np.zeros(2)),
                                   marrocco.nu(0.0) * np.eye(2))

    def test_symmetry_exact(self, marrocco):
        W = RNG.normal(scale=3.0, size=(50, 2))
        D = flux_jacobian(marrocco, W)
        assert np.all(D == np.swapaxes(D, -1, -2))

    def test_eigenvectors(self, marrocco):
        for _ in range(20):
            W = RNG.normal(scale=2.0, size=2)
            s = np.hypot(W[0], W[1])
            D = flux_jacobian(marrocco, W)
            lam1 = float(marrocco.nu(s))
            lam2 = lam1 + float(marrocco.nu_prime(s)) * s
            np.testing.assert_allclose(D @ W, lam2 * W, rtol=1e-12)
            Wp = np.array([-W[1], W[0]])
            np.testing.assert_allclose(D @ Wp, lam1 * Wp, rtol=1e-12)

    def test_forward_difference_error_is_first_order(self, marrocco):
        W = np.array([1.3, 0.4])
        V = np.array([0.2, -0.7])
        DV = flux_jacobian(marrocco, W) @ V
        hs = np.array([1e-2, 1e-3, 1e-4])
        errs = []
        for h in hs:
            fd = (flux_map(marrocco, W + h * V) - flux_map(marrocco, W)) / h
            errs.append(np.linalg.norm(fd - DV) / np.linalg.norm(DV))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 0.8 <= slope <= 1.2


class TestNonlinearity:
    def test_zero_increment(self, marrocco):
        W = np.array([1.0, 0.5])
        np.testing.assert_allclose(nonlinearity(marrocco, W, np.zeros(2)), 0.0)

    def test_linear_stub_vanishes(self, linear_stub):
        W = RNG.normal(size=(50, 2))
        V = RNG.normal(size=(50, 2))
        np.testing.assert_allclose(nonlinearity(linear_stub, W, V), 0.0,
                                   atol=1e-9)
        # the nu(|W|) W terms cancel analytically, not in round-off
        assert np.all(nonlinearity(linear_stub, W, V) == 0.0)

    def test_small_increment_accuracy(self, marrocco):
        # reference: the remainder from the same nu values and Jacobian in
        # exact rational arithmetic; the error stays at round-off of the
        # increment-sized terms, not of nu |W| (|V| << |W| here)
        rng = np.random.default_rng(11)
        W = rng.normal(scale=1.5, size=(20, 2))
        V = rng.normal(scale=1e-3, size=(20, 2))
        got = nonlinearity(marrocco, W, V)
        nu_w = marrocco.nu(np.linalg.norm(W, axis=1))
        nu_wv = marrocco.nu(np.linalg.norm(W + V, axis=1))
        jac = flux_jacobian(marrocco, W)
        eps = np.finfo(float).eps
        for e in range(len(W)):
            n0, n1 = Fraction(float(nu_w[e])), Fraction(float(nu_wv[e]))
            w = [Fraction(float(x)) for x in W[e]]
            v = [Fraction(float(x)) for x in V[e]]
            jv = [sum(Fraction(float(jac[e, i, j])) * v[j] for j in range(2))
                  for i in range(2)]
            for i in range(2):
                exact = n1 * (w[i] + v[i]) - n0 * w[i] - jv[i]
                bound = 8 * eps * float(abs(n1 - n0) * (abs(w[i]) + abs(v[i]))
                                        + abs(n0 * v[i]) + abs(jv[i]))
                assert abs(float(Fraction(float(got[e, i])) - exact)) <= bound

    def test_quadratic_bound(self, marrocco):
        # fit the constant once on a calibration sample, check on fresh draws
        rng = np.random.default_rng(7)
        W = rng.normal(scale=2.0, size=(500, 2))
        V = rng.normal(scale=0.5, size=(500, 2))
        s = nonlinearity(marrocco, W, V)
        c_fit = (np.hypot(s[:, 0], s[:, 1]) / (V * V).sum(1)).max()
        W2 = rng.normal(scale=2.0, size=(500, 2))
        V2 = rng.normal(scale=0.5, size=(500, 2))
        s2 = nonlinearity(marrocco, W2, V2)
        assert np.all(np.hypot(s2[:, 0], s2[:, 1])
                      <= 1.5 * c_fit * (V2 * V2).sum(1) + 1e-9)


class TestRotationEquivariance:
    def test_flux_map_and_jacobian_and_remainder(self, marrocco):
        for _ in range(10):
            R = rotation(RNG.uniform(0, 2 * np.pi))
            W = RNG.normal(scale=2.0, size=2)
            V = RNG.normal(scale=0.8, size=2)
            np.testing.assert_allclose(flux_map(marrocco, R.T @ W),
                                       R.T @ flux_map(marrocco, W), rtol=1e-12)
            np.testing.assert_allclose(flux_jacobian(marrocco, R.T @ W),
                                       R.T @ flux_jacobian(marrocco, W) @ R,
                                       rtol=1e-11, atol=1e-8)
            np.testing.assert_allclose(nonlinearity(marrocco, R.T @ W, R.T @ V),
                                       R.T @ nonlinearity(marrocco, W, V),
                                       rtol=1e-9, atol=1e-9)


class TestValidateAssumptions:
    def test_linear_stub_passes(self, linear_stub):
        rep = validate_assumptions(linear_stub)
        assert rep.bounds_ok and rep.slope_bounds_ok and rep.c3_smoothness_ok
        assert rep.delta_nu == 0.0
        assert rep.admissibility_ok

    def test_marrocco_report(self, marrocco):
        rep = validate_assumptions(marrocco)
        assert rep.bounds_ok
        assert rep.c3_smoothness_ok
        # the saturation family overshoots the upper slope bound in a band;
        # reported as a warning, not an error
        assert not rep.slope_bounds_ok
        assert rep.delta_nu >= 0.0
        assert rep.admissibility_ok
        assert rep.threshold_fixed == -1.0 / 3.0
        assert -1.0 / 3.0 < rep.threshold_contrast < 0.0

    @pytest.mark.parametrize("alpha, smooth", [(1.0, True), (1.25, False)])
    def test_c3_check_at_the_smallest_exponents(self, alpha, smooth):
        # alpha = 1 is C^inf and its third derivative is 0 at s = 0; for
        # 1 < alpha < 1.5 that derivative is +inf there. Neither may warn
        # (filterwarnings = error).
        curve = MarroccoCurve(alpha=alpha)
        assert curve.nu_third(0.0) == (0.0 if smooth else np.inf)
        assert validate_assumptions(curve).c3_smoothness_ok is smooth

    def test_monotone_spline_passes_admissibility(self):
        s = np.linspace(0.0, 4.0, 40)
        vals = 2000.0 + 3.0e5 * (s / 4.0) ** 2
        curve = SplineCurve(s, vals)
        rep = validate_assumptions(curve)
        assert rep.delta_nu >= 0.0
        assert rep.admissibility_ok

    def test_non_monotone_spline_warns_but_proceeds(self):
        s = np.linspace(0.0, 4.0, 40)
        vals = 5.0e4 * (1.0 + 0.8 * np.exp(-((s - 1.5) ** 2)))  # dip after 1.5
        curve = SplineCurve(s, vals)
        rep = validate_assumptions(curve)
        assert rep.delta_nu < rep.threshold_contrast
        assert not rep.admissibility_ok
        assert any("delta quotient" in w for w in rep.warnings)

    def test_report_summary_text(self, marrocco):
        text = validate_assumptions(marrocco).summary()
        assert "delta quotient" in text


class TestSplineCurve:
    def make_csv(self, tmp_path, rows, header="s,nu"):
        p = tmp_path / "curve.csv"
        p.write_text(header + "\n" + "\n".join(rows) + "\n")
        return p

    def test_csv_roundtrip(self, tmp_path):
        s = np.linspace(0.0, 3.0, 12)
        vals = 3000.0 + 1.0e5 * s ** 2 / 9.0
        rows = [f"{a:.17g},{b:.17g}" for a, b in zip(s, vals)]
        curve = SplineCurve.from_csv(self.make_csv(tmp_path, rows))
        np.testing.assert_allclose(curve.nu(s), vals, rtol=1e-12)

    def test_bad_row_reports_line_number(self, tmp_path):
        p = self.make_csv(tmp_path, ["0,1000", "1,oops", "2,3000", "3,4000"])
        with pytest.raises(ValueError, match="line 3"):
            SplineCurve.from_csv(p)

    def test_bad_row_line_counts_comments_and_blanks(self, tmp_path):
        p = tmp_path / "curve.csv"
        p.write_text("# measured\ns,nu\n\n0,1000\n1,2000\n2,oops\n3,4000\n")
        with pytest.raises(ValueError, match=r"line 6: bad row \['2', 'oops'\]$"):
            SplineCurve.from_csv(p)

    def test_missing_header_rejected(self, tmp_path):
        p = self.make_csv(tmp_path, ["1,2000", "2,3000", "3,4000"], header="0,1000")
        with pytest.raises(ValueError, match="header"):
            SplineCurve.from_csv(p)

    def test_too_few_rows_rejected(self, tmp_path):
        p = self.make_csv(tmp_path, ["0,1000", "1,2000", "2,3000"])
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(p))}: need at least 4 spline samples$"):
            SplineCurve.from_csv(p)

    def test_non_increasing_rejected(self, tmp_path):
        p = self.make_csv(tmp_path, ["0,1000", "1,2000", "1,2500", "3,4000"])
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: "
                           "spline s-column must be strictly increasing$"):
            SplineCurve.from_csv(p)

    @pytest.mark.parametrize("rows", [["0,1000", "1,nan", "2,3000", "3,4000"],
                                      ["0,1000", "1,2000", "inf,3000", "3,4000"]],
                             ids=["nan_nu", "inf_s"])
    def test_non_finite_sample_rejected(self, tmp_path, rows):
        p = self.make_csv(tmp_path, rows)
        with pytest.raises(ValueError,
                           match=f"{re.escape(str(p))}: spline samples must be finite"):
            SplineCurve.from_csv(p)

    def test_tail_continuation_has_vacuum_slope(self):
        s = np.linspace(0.0, 2.0, 10)
        curve = SplineCurve(s, 4000.0 + 1000.0 * s)
        ss = np.array([5.0, 50.0, 500.0])
        slope = curve.nu(ss) + curve.nu_prime(ss) * ss  # (nu s)'
        np.testing.assert_allclose(slope, NU0, rtol=1e-12)
        assert abs(curve.nu(1e8) - NU0) < 1e-4 * NU0

    def test_scipy_interpolate_loaded_only_for_a_spline(self):
        # a fresh interpreter: other tests in this process build spline curves
        script = """
import sys
import numpy as np
import magtopt.material, magtopt.cli, magtopt.optimizer, magtopt.cell_problems
heavy = ("scipy.interpolate", "scipy.optimize", "scipy.spatial", "scipy.special")
loaded = [m for m in heavy if m in sys.modules]
assert not loaded, loaded
curve = magtopt.material.SplineCurve([0.0, 1.0, 2.0, 3.0],
                                     [3000.0, 3100.0, 3500.0, 5000.0])
assert "scipy.interpolate" in sys.modules
s = np.array([0.5, 2.5, 10.0])
assert np.all(np.isfinite(curve.nu(s))) and np.all(np.isfinite(curve.nu_prime(s)))
"""
        src = str(Path(material.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_spline_derivatives_match_fd(self):
        s = np.linspace(0.0, 2.0, 15)
        curve = SplineCurve(s, 3000.0 + 2.0e4 * np.sin(s))
        x = np.array([0.3, 0.9, 1.7])
        h = 1e-6
        fd = (curve.nu(x + h) - curve.nu(x - h)) / (2 * h)
        np.testing.assert_allclose(curve.nu_prime(x), fd, rtol=1e-6)


class TestCurveValidation:
    def test_bad_marrocco_params(self):
        with pytest.raises(ValueError, match=r"^c = 1\.5 must be in \(0, 1\)$"):
            MarroccoCurve(c=1.5)

    def test_bad_linear(self):
        with pytest.raises(ValueError, match="^nu_linear = -1 must be positive$"):
            LinearCurve(nu_linear=-1.0)

    @pytest.mark.parametrize("cls, name, value", [
        (MarroccoCurve, "alpha", np.inf), (MarroccoCurve, "alpha", np.nan),
        (MarroccoCurve, "c", np.nan), (MarroccoCurve, "tau", np.inf),
        (MarroccoCurve, "tau", np.nan), (LinearCurve, "nu_linear", np.nan),
        (LinearCurve, "nu_linear", np.inf)],
        ids=["alpha-inf", "alpha-nan", "c-nan", "tau-inf", "tau-nan",
             "nu_linear-nan", "nu_linear-inf"])
    def test_non_finite_parameter_named(self, cls, name, value):
        with pytest.raises(ValueError, match=f"^{name} = {value!r} must be finite$"):
            cls(**{name: value})

    def test_cache_keys_distinct(self, marrocco, linear_stub):
        keys = {marrocco.cache_key(), linear_stub.cache_key(),
                MarroccoCurve(alpha=3.0).cache_key()}
        assert len(keys) == 3

    def test_cache_keys_pinned(self):
        # every saved table records its curve's key and is checked against it
        # on load, so a changed key would reject every table built before
        curves = {"f3188233973e": MarroccoCurve(),
                  "00c69be38bdc": LinearCurve(nu_linear=1000.0),
                  "08f0bdc04093": SplineCurve([0, 1, 2, 3], [100, 200, 300, 400])}
        for key, curve in curves.items():
            assert curve.cache_key() == key
            assert curve.nu_air == NU0
