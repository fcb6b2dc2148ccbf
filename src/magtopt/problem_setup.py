"""Benchmark optimization problems: geometry, sources, and the air-gap
flux-tracking objective with its adjoint right-hand side.

The objective integrates |grad(u).tau - B_d|^2 along the tagged gap curve,
midpoint rule per edge. grad(u) is taken one-sided from a fixed adjacent
element chosen at setup; the curve lies strictly inside air, where the field
is smooth, so the side only fixes the discrete representative.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fem
from .csvio import read_csv
from .mesh import Region, TriMesh, generate_mini_motor, generate_square_benchmark


@dataclass
class ObjectiveSpec:
    """Gap-curve tracking data: trace, quadrature weights, target."""
    trace: sp.csr_matrix     # (k, n): tau_k . grad(phi_j) on edge k's fixed-side element
    lengths: np.ndarray      # (k,) edge lengths (quadrature weights)
    b_target: np.ndarray     # (k,) target flux density at edge midpoints [T]


def _edge_elements(mesh: TriMesh, edges: np.ndarray) -> np.ndarray:
    """Fixed-side element per directed edge (a, b): the triangle that holds
    a -> b in its counter-clockwise order, which lies left of the edge, else
    the one that holds b -> a (the first in index order, if several do).
    Refuses the first edge that is not in the mesh or has a neighbour that
    can carry the nonlinear law (fem.ferro_element_mask), naming its first
    such neighbour in index order."""
    n = mesh.n_nodes
    # only a triangle with two corners on the edges' nodes can hold an edge
    on = np.zeros(n, dtype=np.int8)
    on[edges] = 1
    c0, c1, c2 = on[mesh.tris.T]
    cand = np.flatnonzero(c0 + c1 + c2 >= 2)
    tris = mesh.tris[cand]
    keys = (tris * n + np.roll(tris, -1, axis=1)).ravel()
    order = np.argsort(keys, kind="stable")
    # the key n * n, above every edge's, ends the list, so each search lands
    # on a key even when no triangle is a candidate
    keys = np.append(keys[order], n * n)
    holder = np.append(cand[order // 3], -1)
    query = edges * n + edges[:, ::-1]   # a -> b, then b -> a
    pos = np.searchsorted(keys, query)
    held = np.where(keys[pos] == query, holder[pos], -1)   # holder, or -1
    bad = (held >= 0) & fem.ferro_element_mask(mesh)[held]
    fails = np.flatnonzero((held < 0).all(axis=1) | bad.any(axis=1))
    if fails.size:
        k = fails[0]
        i, j = edges[k]
        if (held[k] < 0).all():
            raise ValueError(f"gap edge ({i},{j}) not in the mesh")
        if mesh.region[held[k][bad[k]].min()] == Region.DESIGN:
            raise ValueError(f"gap edge ({i},{j}) adjacent to a DESIGN element")
        raise ValueError(f"gap edge ({i},{j}) adjacent to non-air element")
    return np.where(held[:, 0] >= 0, held[:, 0], held[:, 1])


def make_objective(mesh: TriMesh, b_target) -> ObjectiveSpec:
    """Build the tracking objective on the mesh's GAP_PROBE edges.

    b_target: callable(midpoints (k,2)) -> (k,).
    """
    edges = mesh.gap_probe_edges()
    if len(edges) == 0:
        raise ValueError("mesh has no GAP_PROBE edges")
    p, k = mesh.nodes, len(edges)
    vec = p[edges[:, 1]] - p[edges[:, 0]]
    lengths = np.hypot(vec[:, 0], vec[:, 1])
    mid = 0.5 * (p[edges[:, 0]] + p[edges[:, 1]])
    elements = _edge_elements(mesh, edges)
    weights = np.einsum("kji,ki->kj", mesh.grads[elements], vec / lengths[:, None])
    trace = sp.csr_matrix((weights.ravel(), mesh.tris[elements].ravel(),
                           np.arange(0, 3 * k + 1, 3)), shape=(k, mesh.n_nodes))
    bt = np.asarray(b_target(mid), dtype=float)
    if bt.shape != (k,):
        raise ValueError("target sample count must equal edge count")
    return ObjectiveSpec(trace, lengths, bt)


def eval_objective(mesh: TriMesh, u, spec: ObjectiveSpec) -> float:
    """Midpoint-rule value of the tracking functional (always >= 0)."""
    mis = spec.trace @ u - spec.b_target
    return float(np.sum(spec.lengths * mis * mis))


def assemble_adjoint_rhs(mesh: TriMesh, u, spec: ObjectiveSpec) -> np.ndarray:
    """Nodal assembly of the objective derivative:

        <dJ(u), eta> = 2 sum_e l_e (grad(u).tau - B_d) (grad(eta).tau).

    The adjoint equation is solved with the negative of this vector.
    """
    mis = spec.trace @ u - spec.b_target
    return spec.trace.T @ (2.0 * spec.lengths * mis)


# ---------------------------------------------------------------------------
# shipped benchmarks

#: magnet strength [A/m]; sized so the initial square-benchmark gap peak is
#: around half a tesla and the core runs into saturation (desk-scale
#: stand-in, declared arbitrary)
SQUARE_MAGNETIZATION = 3.0e6
MOTOR_MAGNETIZATION = 3.0e6
#: target amplitude [T] of the smoothed rectangular profile
B_TARGET_AMPLITUDE = 0.6


def square_target(mid: np.ndarray) -> np.ndarray:
    """Smoothed rectangular bump over an off-center window of the gap
    segment, edge width 0.03. The asymmetry forces the design to redirect
    the flux column, giving the descent a long, nontrivial path."""
    x = mid[:, 0]
    return B_TARGET_AMPLITUDE * 0.5 * (np.tanh((x - 0.55) / 0.03)
                                       - np.tanh((x - 0.72) / 0.03))


def motor_target(mid: np.ndarray) -> np.ndarray:
    """Smoothed rectangular wave in angle, two pole pairs (two periods of
    sin(2(theta - pi/6)) around the circle), edge width 0.25."""
    th = np.arctan2(mid[:, 1], mid[:, 0])
    return B_TARGET_AMPLITUDE * np.tanh(np.sin(2.0 * (th - np.pi / 6.0)) / 0.25)


@dataclass
class Problem:
    mesh: TriMesh
    sources: fem.SourceSpec
    objective: ObjectiveSpec


def build_benchmark_problem(kind: str, resolution: int,
                            b_target=None) -> Problem:
    """Assemble one of the shipped benchmarks ("square" or "mini_motor").

    The optimization scenario is magnet-driven: J_z = 0. Pass a `b_target`
    callable (see `make_objective`) to override the default tracking
    profile, e.g. one loaded with `load_target_csv`.
    """
    if kind == "square":
        mesh = generate_square_benchmark(resolution)
        sources = fem.SourceSpec(jz=0.0,
                                 magnetization=np.array([0.0, SQUARE_MAGNETIZATION]))
        target = square_target if b_target is None else b_target
    elif kind == "mini_motor":
        mesh = generate_mini_motor(resolution)
        cen = mesh.centroids
        th = np.arctan2(cen[:, 1], cen[:, 0])
        sources = fem.SourceSpec(jz=0.0, magnetization=MOTOR_MAGNETIZATION
                                 * np.column_stack([np.cos(th), np.sin(th)]))
        target = motor_target if b_target is None else b_target
    else:
        raise ValueError(f"unknown benchmark kind {kind!r}")
    return Problem(mesh, sources, make_objective(mesh, target))


def load_target_csv(path):
    """Target override from CSV `theta,b_d` (radians, tesla) in
    csvio.read_csv's dialect: one or more rows of finite values (one row
    gives a constant target). Returns a callable that interpolates
    periodically in the midpoint angle."""
    _, data = read_csv(path, ("theta", "b_d"))
    if data.shape[0] == 0:
        raise ValueError(f"{path}: need one or more rows of theta,b_d")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: theta,b_d values must be finite")
    th, bd = data[:, 0], data[:, 1]

    def target(mid):
        ang = np.mod(np.arctan2(mid[:, 1], mid[:, 0]), 2 * np.pi)
        return np.interp(ang, np.mod(th, 2 * np.pi), bd, period=2 * np.pi)

    return target


def default_levelset(mesh: TriMesh) -> np.ndarray:
    """Smooth all-ferro seed: cosine bump over the design bounding box,
    positive strictly inside, zero on the box edge. Full-length nodal vector
    (zeros off the design region); not normalized."""
    design_nodes = mesh.design_nodes()
    if design_nodes.size == 0:
        raise ValueError("mesh has no DESIGN region")
    pts = mesh.nodes[design_nodes]
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    c = 0.5 * (lo + hi)
    w = np.maximum(hi - lo, 1e-12)
    bump = (np.cos(np.pi * (pts[:, 0] - c[0]) / w[0])
            * np.cos(np.pi * (pts[:, 1] - c[1]) / w[1]))
    out = np.zeros(mesh.n_nodes)
    out[design_nodes] = np.maximum(bump, 0.0)
    return out
