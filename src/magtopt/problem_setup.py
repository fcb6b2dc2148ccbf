"""Benchmark optimization problems: geometry, sources, and the air-gap
flux-tracking objective with its adjoint right-hand side.

The objective integrates |grad(u).tau - B_d|^2 along the tagged gap curve,
midpoint rule per edge. grad(u) is taken one-sided from a fixed adjacent
element chosen at setup; the curve lies strictly inside air, where the field
is smooth, so the side only fixes the discrete representative.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import fem
from .mesh import Region, TriMesh, generate_mini_motor, generate_square_benchmark


class ConfigurationError(Exception):
    pass


@dataclass
class ObjectiveSpec:
    """Gap-curve tracking data: ordered edges, fixed-side elements, target."""
    edges: np.ndarray        # (k, 2) node indices, ordered along the curve
    elements: np.ndarray     # (k,) adjacent element on the fixed side
    tangents: np.ndarray     # (k, 2) unit tangents (edge direction)
    lengths: np.ndarray      # (k,) edge lengths (quadrature weights)
    midpoints: np.ndarray    # (k, 2)
    b_target: np.ndarray     # (k,) target flux density at midpoints [T]

    @property
    def total_length(self) -> float:
        return float(self.lengths.sum())


def _edge_elements(mesh: TriMesh, edges: np.ndarray) -> np.ndarray:
    """Fixed-side element per edge: the incident element whose centroid lies
    left of the directed edge. Errors if any incident element is DESIGN."""
    incidence = {}
    for e, tri in enumerate(mesh.tris):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            incidence.setdefault(key, []).append(e)
    out = np.empty(len(edges), dtype=np.int64)
    air = {int(Region.AIR_FIXED), int(Region.AIRGAP),
           int(Region.COIL), int(Region.MAGNET)}
    for k, (i, j) in enumerate(edges):
        elems = incidence.get((min(i, j), max(i, j)), [])
        if not elems:
            raise ConfigurationError(f"gap edge ({i},{j}) not in the mesh")
        for e in elems:
            if int(mesh.region[e]) == int(Region.DESIGN):
                raise ConfigurationError(
                    f"gap edge ({i},{j}) adjacent to a DESIGN element")
            if int(mesh.region[e]) not in air:
                raise ConfigurationError(
                    f"gap edge ({i},{j}) adjacent to non-air element")
        tau = mesh.nodes[j] - mesh.nodes[i]
        chosen = None
        for e in elems:
            d = mesh.centroids[e] - 0.5 * (mesh.nodes[i] + mesh.nodes[j])
            if tau[0] * d[1] - tau[1] * d[0] > 0:
                chosen = e
                break
        out[k] = elems[0] if chosen is None else chosen
    return out


def make_objective(mesh: TriMesh, b_target) -> ObjectiveSpec:
    """Build the tracking objective on the mesh's GAP_PROBE edges.

    b_target: callable(midpoints (k,2)) -> (k,), or an array of length k.
    """
    edges = mesh.gap_probe_edges()
    if len(edges) == 0:
        raise ConfigurationError("mesh has no GAP_PROBE edges")
    p = mesh.nodes
    vec = p[edges[:, 1]] - p[edges[:, 0]]
    lengths = np.hypot(vec[:, 0], vec[:, 1])
    tangents = vec / lengths[:, None]
    mid = 0.5 * (p[edges[:, 0]] + p[edges[:, 1]])
    elements = _edge_elements(mesh, edges)
    bt = np.asarray(b_target(mid) if callable(b_target) else b_target, dtype=float)
    if bt.shape != (len(edges),):
        raise ConfigurationError("target sample count must equal edge count")
    return ObjectiveSpec(edges, elements, tangents, lengths, mid, bt)


def gap_flux(mesh: TriMesh, u, spec: ObjectiveSpec) -> np.ndarray:
    """grad(u).tau at the edge midpoints, from the fixed-side elements."""
    gu = mesh.element_gradients(np.asarray(u, float))[spec.elements]
    return np.einsum("ki,ki->k", gu, spec.tangents)


def eval_objective(mesh: TriMesh, u, spec: ObjectiveSpec) -> float:
    """Midpoint-rule value of the tracking functional (always >= 0)."""
    mis = gap_flux(mesh, u, spec) - spec.b_target
    return float(np.sum(spec.lengths * mis * mis))


def assemble_adjoint_rhs(mesh: TriMesh, u, spec: ObjectiveSpec) -> np.ndarray:
    """Nodal assembly of the objective derivative:

        <dJ(u), eta> = 2 sum_e l_e (grad(u).tau - B_d) (grad(eta).tau).

    The adjoint equation is solved with the negative of this vector.
    """
    mis = gap_flux(mesh, u, spec) - spec.b_target
    coef = 2.0 * spec.lengths * mis
    out = np.zeros(mesh.n_nodes)
    gphi = mesh.grads[spec.elements]                       # (k, 3, 2)
    contrib = coef[:, None] * np.einsum("kli,ki->kl", gphi, spec.tangents)
    np.add.at(out, mesh.tris[spec.elements].ravel(), contrib.ravel())
    return out


# ---------------------------------------------------------------------------
# shipped benchmarks

#: magnet strength [A/m]; sized so the initial square-benchmark gap peak is
#: around half a tesla and the core runs into saturation (desk-scale
#: stand-in, declared arbitrary)
SQUARE_MAGNETIZATION = 3.0e6
MOTOR_MAGNETIZATION = 3.0e6
#: target amplitude [T] of the smoothed rectangular profile
B_TARGET_AMPLITUDE = 0.6


def square_target(mid: np.ndarray, amplitude: float = B_TARGET_AMPLITUDE,
                  smoothing: float = 0.03) -> np.ndarray:
    """Smoothed rectangular bump over an off-center window of the gap
    segment. The asymmetry forces the design to redirect the flux column,
    giving the descent a long, nontrivial path."""
    x = mid[:, 0]
    return amplitude * 0.5 * (np.tanh((x - 0.55) / smoothing)
                              - np.tanh((x - 0.72) / smoothing))


def motor_target(mid: np.ndarray, amplitude: float = B_TARGET_AMPLITUDE,
                 smoothing: float = 0.25) -> np.ndarray:
    """Smoothed rectangular wave in angle, one pole pair."""
    th = np.arctan2(mid[:, 1], mid[:, 0])
    return amplitude * np.tanh(np.sin(2.0 * (th - np.pi / 6.0)) / smoothing)


@dataclass
class Problem:
    mesh: TriMesh
    sources: fem.SourceSpec
    objective: ObjectiveSpec


def build_benchmark_problem(kind: str, resolution: int,
                            b_target=None) -> Problem:
    """Assemble one of the shipped benchmarks ("square" or "mini_motor").

    The optimization scenario is magnet-driven: J_z = 0. Pass `b_target`
    (callable or array) to override the default tracking profile, e.g. one
    loaded with `load_target_csv`.
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
        m_el = MOTOR_MAGNETIZATION * np.column_stack([np.cos(th), np.sin(th)])
        m_el[mesh.region != Region.MAGNET] = 0.0
        sources = fem.SourceSpec(jz=0.0, magnetization=m_el)
        target = motor_target if b_target is None else b_target
    else:
        raise ConfigurationError(f"unknown benchmark kind {kind!r}")
    return Problem(mesh, sources, make_objective(mesh, target))


def load_target_csv(path):
    """Target override from CSV `theta,b_d` (radians, tesla): a header line,
    then one or more rows (one row gives a constant target). Returns a
    callable that interpolates periodically in the midpoint angle."""
    with warnings.catch_warnings():
        # a file without rows is reported below, not as loadtxt's warning
        warnings.simplefilter("ignore", UserWarning)
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            raise ConfigurationError(f"{path}: {exc}") from exc
    if data.shape[0] == 0 or data.shape[1] != 2:
        raise ConfigurationError(f"{path}: need one or more rows of theta,b_d")
    th, bd = data[:, 0], data[:, 1]

    def target(mid):
        ang = np.mod(np.arctan2(mid[:, 1], mid[:, 0]), 2 * np.pi)
        return np.interp(ang, np.mod(th, 2 * np.pi), bd, period=2 * np.pi)

    return target


def default_levelset(mesh: TriMesh) -> np.ndarray:
    """Smooth all-ferro seed: cosine bump over the design bounding box,
    positive strictly inside, zero on the box edge. Full-length nodal vector
    (zeros off the design region); not normalized."""
    design_nodes = np.unique(mesh.tris[mesh.region == Region.DESIGN].ravel())
    if design_nodes.size == 0:
        raise ConfigurationError("mesh has no DESIGN region")
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
