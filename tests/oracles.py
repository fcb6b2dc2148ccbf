"""Oracles that tests compare the library against: the general
polarization derivation that its two case matrices come from (the disk and
ellipse closed forms, and the reduction of an anisotropic background to
them), closed forms for its numerical solves, pointwise twins of its batched
sensitivity assembly, a plain reader for its mesh export and a per-edge loop
for its gap-edge element choice. No library code needs them."""
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from magtopt import polarization


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
    lam1, lam2, e1 = polarization._aligned_frame(curve, grad_u)
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
    M = polarization.matrix_air_in_ferro(curve, grad_u)
    return float(grad_u @ M @ grad_p) + float(table.lookup(grad_u, grad_p)[0])


def g_air_to_ferro(curve, grad_u, grad_p, table) -> float:
    """Sensitivity to a ferromagnetic disk nucleating in air."""
    grad_u = np.asarray(grad_u, dtype=float)
    grad_p = np.asarray(grad_p, dtype=float)
    M = polarization.matrix_ferro_in_air(curve, grad_u)
    return float(grad_u @ M @ grad_p) + float(table.lookup(grad_u, grad_p)[0])


def read_meshv1(path):
    """Arrays (nodes, tris, region, bedges, btags) of a meshv1 file, read
    without validation; the oracle for `mesh.save_mesh`'s output."""
    tokens = Path(path).read_text().split()
    assert tokens[0] == "meshv1"
    pos, sections = 1, []
    for name, cols, dtype in (("nodes", 2, float), ("tris", 4, int),
                              ("bedges", 3, int)):
        assert tokens[pos] == name
        end = pos + 2 + int(tokens[pos + 1]) * cols
        sections.append(np.array(tokens[pos + 2:end], dtype=dtype).reshape(-1, cols))
        pos = end
    assert pos == len(tokens)
    nodes, rows, be = sections
    return nodes, rows[:, :3], rows[:, 3], be[:, :2], be[:, 2]


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
