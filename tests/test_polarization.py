import numpy as np
import pytest

from magtopt.material import NU0, LinearCurve
from magtopt.polarization import matrix_air_in_ferro, matrix_ferro_in_air
from oracles import (Anisotropy2, ContrastError, polarization_disk,
                     polarization_ellipse, polarization_general)

RNG = np.random.default_rng(11)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def random_spd(rng, lo=1.5, hi=10.0):
    R = rotation(rng.uniform(0, np.pi))
    return R @ np.diag(rng.uniform(lo, hi, 2)) @ R.T


class FrameCurve:
    """Test stub with prescribed Jacobian eigenvalues lam1, lam2 at any s."""

    def __init__(self, lam1, lam2, nu_air=NU0):
        self.lam1, self.lam2, self.nu_air = lam1, lam2, nu_air
        self.nu_min = min(lam1, lam2)

    def nu(self, s):
        return np.full_like(np.asarray(s, float), self.lam1)

    def nu_prime(self, s):
        s = np.asarray(s, float)
        with np.errstate(divide="ignore"):
            return np.where(s > 0, (self.lam2 - self.lam1) / s, 0.0)


class TestDisk:
    def test_zero_contrast_gives_zero_matrix(self):
        np.testing.assert_allclose(polarization_disk(np.eye(2), np.pi), 0.0)

    def test_indefinite_contrast_rejected(self):
        with pytest.raises(ContrastError):
            polarization_disk(np.diag([0.5, 2.0]), np.pi)

    def test_isotropic_hand_value(self):
        # 2 pi (4I)^-1 (2I) = pi I
        np.testing.assert_allclose(polarization_disk(3.0 * np.eye(2), np.pi),
                                   np.pi * np.eye(2), rtol=1e-14)

    def test_diagonal_hand_value(self):
        # 2 pi diag(1/3, 2/3)
        out = polarization_disk(np.diag([2.0, 5.0]), np.pi)
        np.testing.assert_allclose(out, 2 * np.pi * np.diag([1 / 3, 2 / 3]),
                                   rtol=1e-14)


class TestEllipse:
    def test_circle_reduces_to_disk(self):
        At = np.array([[3.0, 1.0], [1.0, 5.0]])
        for r in (0.5, 1.0, 2.0):
            np.testing.assert_allclose(
                polarization_ellipse(At, r, r),
                polarization_disk(At, np.pi * r * r), rtol=1e-12)

    def test_zero_contrast_is_zero_matrix(self):
        np.testing.assert_allclose(polarization_ellipse(np.eye(2), 2.0, 1.0), 0.0)

    def test_hand_evaluated_axis_aligned(self):
        # a=2, b=1, At=4I: C = diag(1/6,-1/6), area 2 pi:
        # 2 pi * 3 * diag(1/(1+3/3), 1/(1+3*2/3)) = diag(3 pi, 2 pi)
        out = polarization_ellipse(4.0 * np.eye(2), 2.0, 1.0)
        np.testing.assert_allclose(out, np.diag([3 * np.pi, 2 * np.pi]),
                                   rtol=1e-14)

    def test_bad_axes(self):
        with pytest.raises(ValueError):
            polarization_ellipse(3 * np.eye(2), -1.0, 1.0)


class TestGeneral:
    def test_identity_background_matches_disk(self):
        for _ in range(100):
            At = random_spd(RNG)
            P = polarization_general(np.eye(2), At)
            np.testing.assert_allclose(P, polarization_disk(At, np.pi),
                                       rtol=1e-12, atol=1e-12)

    def test_symmetry(self):
        for _ in range(20):
            A = random_spd(RNG, 1.0, 4.0)
            At = A + random_spd(RNG, 0.5, 2.0)  # At - A positive definite
            P = polarization_general(A, At)
            np.testing.assert_allclose(P, P.T, rtol=1e-12)

    def test_indefinite_contrast_rejected(self):
        with pytest.raises(ContrastError):
            polarization_general(np.diag([1.0, 3.0]), np.diag([2.0, 2.0]))

    def test_rotation_identity(self):
        # P(R^T A R, R^T At R) = R^T P(A, At) R for the disk-shaped inclusion
        for _ in range(10):
            R = rotation(RNG.uniform(0, 2 * np.pi))
            A = random_spd(RNG, 1.0, 4.0)
            At = A + random_spd(RNG, 0.5, 2.0)
            P1 = polarization_general(R.T @ A @ R, R.T @ At @ R)
            P2 = R.T @ polarization_general(A, At) @ R
            np.testing.assert_allclose(P1, P2, rtol=1e-9, atol=1e-9)


class TestCaseMatrices:
    def test_linear_limit_case1(self, linear_stub):
        lam = linear_stub.nu_linear
        expected = 2 * np.pi * lam * (NU0 - lam) / (NU0 + lam) * np.eye(2)
        out = matrix_air_in_ferro(linear_stub, np.array([0.7, -0.2]))
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-9)

    def test_zero_contrast_case1(self):
        curve = LinearCurve(nu_linear=NU0)
        out = matrix_air_in_ferro(curve, np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, 0.0, atol=1e-20 * NU0)

    def test_zero_contrast_case2(self):
        curve = LinearCurve(nu_linear=NU0)
        out = matrix_ferro_in_air(curve, np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, 0.0, atol=1e-20 * NU0)

    def test_linear_limit_case2(self, linear_stub):
        lam = linear_stub.nu_linear
        expected = 2 * np.pi * NU0 * (lam - NU0) / (lam + NU0) * np.eye(2)
        out = matrix_ferro_in_air(linear_stub, np.array([0.3, 0.9]))
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-6)

    def test_generic_entries_by_scalar_evaluation(self):
        lam1, lam2 = 1000.0, 2000.0
        curve = FrameCurve(lam1, lam2)
        gu_pt = np.array([1.5, 0.0])  # aligned frame: R = I
        g = np.sqrt(lam1 * lam2)
        m1 = np.pi * (NU0 - lam1) * np.array(
            [(lam2 + g) / (NU0 + g), (lam1 + g) / (NU0 + g)])
        np.testing.assert_allclose(matrix_air_in_ferro(curve, gu_pt), np.diag(m1),
                                   rtol=1e-13, atol=1e-9)
        m2 = 2 * np.pi * NU0 * np.array(
            [(lam1 - NU0) / (lam2 + NU0), (lam1 - NU0) / (lam1 + NU0)])
        np.testing.assert_allclose(matrix_ferro_in_air(curve, gu_pt), np.diag(m2),
                                   rtol=1e-13, atol=1e-9)

    def test_rotation_covariance(self, marrocco):
        stack = np.array([[1.2, 0.5], [0.0, 0.0], [-0.4, 2.1]])
        for gu in (stack[0], stack):
            for th in (0.3, 1.1, 2.0):
                R = rotation(th)
                for mat in (matrix_air_in_ferro, matrix_ferro_in_air):
                    M1 = mat(marrocco, gu @ R)  # R^T applied to each gradient
                    M2 = R.T @ mat(marrocco, gu) @ R
                    np.testing.assert_allclose(M1, M2, rtol=1e-10, atol=1e-6)

    def test_at_zero_gradient_frame_free(self, marrocco):
        M = matrix_air_in_ferro(marrocco, np.zeros(2))
        assert M[0, 0] == pytest.approx(M[1, 1])
        assert M[0, 1] == 0.0

    def test_definiteness(self, marrocco):
        for _ in range(20):
            gu_pt = RNG.normal(scale=1.0, size=2)
            ev1 = np.linalg.eigvalsh(matrix_air_in_ferro(marrocco, gu_pt))
            ev2 = np.linalg.eigvalsh(matrix_ferro_in_air(marrocco, gu_pt))
            assert np.all(ev1 > 0)
            assert np.all(ev2 < 0)

    def test_symmetry_of_case_matrices(self, marrocco):
        points = [RNG.normal(size=2) for _ in range(10)]
        stack = np.vstack(points + [np.zeros(2)])
        for gu in points + [stack]:
            for mat in (matrix_air_in_ferro, matrix_ferro_in_air):
                M = mat(marrocco, gu)
                np.testing.assert_allclose(M, np.swapaxes(M, -1, -2),
                                           rtol=1e-13, atol=1e-7)
        for mat in (matrix_air_in_ferro, matrix_ferro_in_air):
            M = mat(marrocco, stack)
            assert M.shape == (stack.shape[0], 2, 2)
            for row, M_row in zip(stack, M):
                np.testing.assert_allclose(M_row, mat(marrocco, row),
                                           rtol=1e-14, atol=0.0)


class TestCrossValidation:
    """polarization_general against the closed forms of both material swaps."""

    def test_case1_closed_form(self, marrocco):
        from magtopt.material import flux_jacobian, jacobian_eigenvalues
        for _ in range(20):
            t = RNG.uniform(0.1, 3.0)
            ang = RNG.uniform(0, 2 * np.pi)
            gu_pt = t * np.array([np.cos(ang), np.sin(ang)])
            lam1, lam2 = (float(v) for v in jacobian_eigenvalues(marrocco, t))
            th = np.arctan2(gu_pt[1], gu_pt[0])
            R = rotation(th)
            g = np.sqrt(lam1 * lam2)
            closed = np.pi * R @ np.diag(
                [(lam2 + g) * (NU0 - lam2) / (NU0 + g),
                 (lam1 + g) * (NU0 - lam1) / (NU0 + g)]) @ R.T
            P = polarization_general(flux_jacobian(marrocco, gu_pt), NU0 * np.eye(2))
            np.testing.assert_allclose(P, closed, rtol=1e-12, atol=1e-7)

    def test_case2_closed_form(self, marrocco):
        from magtopt.material import flux_jacobian, jacobian_eigenvalues
        for _ in range(20):
            t = RNG.uniform(0.1, 3.0)
            ang = RNG.uniform(0, 2 * np.pi)
            gu_pt = t * np.array([np.cos(ang), np.sin(ang)])
            lam1, lam2 = (float(v) for v in jacobian_eigenvalues(marrocco, t))
            th = np.arctan2(gu_pt[1], gu_pt[0])
            R = rotation(th)
            closed = 2 * np.pi * NU0 * R @ np.diag(
                [(lam2 - NU0) / (lam2 + NU0),
                 (lam1 - NU0) / (lam1 + NU0)]) @ R.T
            P = polarization_general(NU0 * np.eye(2), flux_jacobian(marrocco, gu_pt))
            np.testing.assert_allclose(P, closed, rtol=1e-12, atol=1e-7)


class TestAnisotropy2:
    def test_reconstruction(self):
        for _ in range(20):
            A = random_spd(RNG)
            w = Anisotropy2.from_matrix(A)
            back = w.rotation @ np.diag(w.eigenvalues) @ w.rotation.T
            np.testing.assert_allclose(back, A, rtol=1e-12)
            assert w.eigenvalues[0] >= w.eigenvalues[1] > 0

    def test_sqrt_consistency(self):
        A = random_spd(RNG)
        w = Anisotropy2.from_matrix(A)
        np.testing.assert_allclose(w.sqrt() @ w.sqrt(), A, rtol=1e-12)
        np.testing.assert_allclose(w.inv_sqrt() @ w.sqrt(), np.eye(2),
                                   rtol=1e-12, atol=1e-14)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            Anisotropy2.from_matrix(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            Anisotropy2.from_matrix(np.diag([1.0, -2.0]))

    def test_diagonal_descending_and_ascending(self):
        w = Anisotropy2.from_matrix(np.diag([2.0, 5.0]))
        np.testing.assert_allclose(w.eigenvalues, [5.0, 2.0])
        np.testing.assert_allclose(np.abs(w.rotation[:, 0]), [0.0, 1.0])
        w2 = Anisotropy2.from_matrix(np.diag([5.0, 2.0]))
        np.testing.assert_allclose(np.abs(w2.rotation[:, 0]), [1.0, 0.0])
