"""Oracles that tests compare the library against: closed forms for its
numerical solves, a plain reader for its mesh export and a per-edge loop
for its gap-edge element choice. No library code needs them."""
from pathlib import Path

import numpy as np

from magtopt import polarization


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
