"""Conforming 2D triangle meshes with region and boundary tags.

All generators produce piecewise-linear (polygonal) geometry; curved
interfaces are resolved by angular refinement. Meshes are immutable after
generation (geometry caches are derived data only).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


class Region(enum.IntEnum):
    """Per-triangle material/role tag."""
    FERRO_FIXED = 0
    AIR_FIXED = 1
    DESIGN = 2
    COIL = 3
    MAGNET = 4
    AIRGAP = 5


class Boundary(enum.IntEnum):
    """Tagged-edge role. GAP_PROBE edges are interior (air gap), not domain boundary."""
    DIRICHLET_OUTER = 0
    GAP_PROBE = 1


@dataclass
class TriMesh:
    """Triangle mesh: node coordinates [m], triangles (CCW), tagged edges.

    `bedges` lists tagged edges only: the outer Dirichlet boundary plus any
    interior GAP_PROBE polyline. Geometry (areas, P1 basis gradients, centroids)
    is computed lazily and kept by `cached`.
    """
    nodes: np.ndarray            # (n, 2) float64
    tris: np.ndarray             # (m, 3) int64, positive signed area
    region: np.ndarray           # (m,) int8 of Region values
    bedges: np.ndarray           # (k, 2) int64 node pairs
    btags: np.ndarray            # (k,) int8 of Boundary values
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_tris(self) -> int:
        return len(self.tris)

    def cached(self, key, build):
        """build(), computed on the first call with `key` and kept on the
        mesh: the one memo of data derived from it, which never goes stale
        because a mesh is not changed after it is made."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def areas(self) -> np.ndarray:
        return self.cached("geometry", self._geometry)[0]

    @property
    def grads(self) -> np.ndarray:
        """P1 basis gradients, shape (m, 3, 2): grads[e, k] = grad(phi_k) on
        element e; a transposed view of grad_op's data."""
        return self.cached("geometry", self._geometry)[1]

    @property
    def grad_op(self) -> sp.csr_matrix:
        """Sparse (2m, n) gradient operator G: row 2e + i of G @ u is the
        x_i-derivative of the P1 field u on element e. Built on first use
        over the buffer of `grads`, so it adds only its int32 indices."""
        def build():
            m = self.n_tris
            data = self.grads.transpose(0, 2, 1).reshape(-1)
            indices = np.repeat(self.tris, 2, axis=0).reshape(-1).astype(np.int32)
            indptr = np.arange(0, 6 * m + 1, 3, dtype=np.int32)
            return sp.csr_matrix((data, indices, indptr),
                                 shape=(2 * m, self.n_nodes), copy=False)
        return self.cached("grad_op", build)

    @property
    def centroids(self) -> np.ndarray:
        """(m, 2): the three-corner sum over 3, bit for bit
        nodes[tris].mean(axis=1) without its (m, 3, 2) gather."""
        def build():
            p = self.nodes
            return (p[self.tris[:, 0]] + p[self.tris[:, 1]] + p[self.tris[:, 2]]) / 3.0
        return self.cached("centroids", build)

    def _geometry(self):
        p = self.nodes[self.tris]
        v1 = p[:, 1] - p[:, 0]
        v2 = p[:, 2] - p[:, 0]
        det = v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0]
        if np.any(det <= 0):
            raise ValueError("triangle with non-positive signed area")
        # b[e, i, k] = d(phi_k)/dx_i, the row layout of grad_op
        b = np.empty((len(self.tris), 2, 3))
        b[:, 0, 0] = p[:, 1, 1] - p[:, 2, 1]
        b[:, 1, 0] = p[:, 2, 0] - p[:, 1, 0]
        b[:, 0, 1] = p[:, 2, 1] - p[:, 0, 1]
        b[:, 1, 1] = p[:, 0, 0] - p[:, 2, 0]
        b[:, 0, 2] = p[:, 0, 1] - p[:, 1, 1]
        b[:, 1, 2] = p[:, 1, 0] - p[:, 0, 0]
        b /= det[:, None, None]
        return 0.5 * det, b.transpose(0, 2, 1)

    def element_gradients(self, u: np.ndarray) -> np.ndarray:
        """Gradient of the P1 field u (n,), constant per element: (m, 2)."""
        return (self.grad_op @ u).reshape(-1, 2)

    def dirichlet_nodes(self) -> np.ndarray:
        sel = self.btags == Boundary.DIRICHLET_OUTER
        return np.unique(self.bedges[sel].ravel())

    def gap_probe_edges(self) -> np.ndarray:
        return self.bedges[self.btags == Boundary.GAP_PROBE]


# ---------------------------------------------------------------------------
# generators

def _grid_tris(ids: np.ndarray, odd_second: tuple) -> np.ndarray:
    """Two triangles per cell of the node-id grid `ids`, in row-major cell
    order. Cell (i, j) has the corners (a, b, c, d) = ids at (i, j), (i+1, j),
    (i+1, j+1), (i, j+1); an even cell (i + j even) is split into (a, b, c)
    and (a, c, d), an odd one into (a, b, d) and the corners `odd_second`."""
    corners = np.stack([ids[:-1, :-1], ids[1:, :-1], ids[1:, 1:], ids[:-1, 1:]],
                       axis=-1)
    i, j = np.indices(corners.shape[:2])
    odd = ((i + j) % 2 == 1)[..., None, None]
    tris = np.where(odd, corners[..., [(0, 1, 3), odd_second]],
                    corners[..., [(0, 1, 2), (0, 2, 3)]])
    return tris.reshape(-1, 3)


def unit_square_mesh(n: int) -> TriMesh:
    """Uniform crossed-diagonal triangulation of [0,1]^2, all AIR_FIXED.

    (n+1)^2 nodes, 2 n^2 triangles; diagonals alternate by cell parity so the
    mesh is symmetric under the square's reflections. Node (i, j) sits at
    (i/n, j/n) and has the id i (n+1) + j.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    ids = np.arange((n + 1) ** 2, dtype=np.int64).reshape(n + 1, n + 1)
    tris = _grid_tris(ids, (1, 2, 3))
    # outer boundary edges, four per i: x = 0, x = 1, y = 0, y = 1
    bedges = np.stack([ids[:-1, 0], ids[1:, 0], ids[:-1, n], ids[1:, n],
                       ids[0, :-1], ids[0, 1:], ids[n, :-1], ids[n, 1:]],
                      axis=1).reshape(-1, 2)
    btags = np.full(len(bedges), Boundary.DIRICHLET_OUTER, dtype=np.int8)
    reg = np.full(len(tris), int(Region.AIR_FIXED), dtype=np.int8)
    return TriMesh(nodes, tris, reg, bedges, btags)


def generate_square_benchmark(n: int) -> TriMesh:
    """Desk-scale benchmark on D = [0,1]^2 (coordinates in meters).

    A closed magnetic circuit drives flux across a horizontal air channel:

      bottom yoke   [0.03125,0.96875] x [0, 0.125]
      side legs     [0.03125,0.125] and [0.875,0.96875], from the yoke up to
                    the channel; the return flux crosses the gap outside
                    the probe span, far from the design column to limit side leakage
      magnet block  [0.375,0.625] x [0.125,0.25], magnetized +y
      center guide  [0.375,0.625] x [0.25,0.3]
      design square [0.3,0.7] x [0.3,0.7]  (the pole face: one air row of
                    standoff separates it from the channel, so the design
                    layout directly shapes the gap profile)
      coil blocks   [0.25,0.375] and [0.625,0.75], x [0.125,0.375]
      air channel   two element rows around y_gap = round(0.75 n)/n
      stator bar    [0.03125,0.96875], one 0.125 band above the channel

    n, the configured `resolution`, is the cell count per side (at least 8).
    Element tags by centroid; magnet/coil/channel take priority over the
    ferro structure. The probe curve is the grid-line segment y = y_gap for
    x in [round(0.25n)/n, round(0.75n)/n], ordered right-to-left so that
    grad(u).tau is the upward flux component.
    """
    if n < 8:
        raise ValueError(f"resolution = {n} must be at least 8")
    mesh = unit_square_mesh(n)
    h = 1.0 / n
    cen = mesh.centroids
    cx, cy = cen[:, 0], cen[:, 1]

    j_gap = int(round(0.75 * n))
    i_lo = int(round(0.25 * n))
    i_hi = int(round(0.75 * n))
    y_gap = j_gap * h
    x_lo, x_hi = i_lo * h, i_hi * h

    reg = np.full(mesh.n_tris, int(Region.AIR_FIXED), dtype=np.int8)
    in_x = (cx > 0.03125) & (cx < 0.96875)
    ferro = np.zeros(mesh.n_tris, dtype=bool)
    ferro |= in_x & (cy < 0.125)                                    # yoke
    legs = ((cx > 0.03125) & (cx < 0.125)) | ((cx > 0.875) & (cx < 0.96875))
    ferro |= legs & (cy < y_gap - h)                                # return legs
    ferro |= (cx > 0.375) & (cx < 0.625) & (cy > 0.25) & (cy < 0.3)  # guide
    ferro |= in_x & (cy > y_gap + h) & (cy < y_gap + h + 0.125)     # stator bar
    reg[ferro] = Region.FERRO_FIXED
    reg[(cx > 0.3) & (cx < 0.7) & (cy > 0.3) & (cy < 0.7)] = Region.DESIGN
    coil = ((cx > 0.25) & (cx < 0.375)) | ((cx > 0.625) & (cx < 0.75))
    reg[coil & (cy > 0.125) & (cy < 0.375)] = Region.COIL
    reg[(cx > 0.375) & (cx < 0.625) & (cy > 0.125) & (cy < 0.25)] = Region.MAGNET
    reg[in_x & (cy > y_gap - h) & (cy < y_gap + h)] = Region.AIRGAP

    # probe-curve edges on the line y = y_gap, ordered right-to-left
    i = np.arange(i_hi - 1, i_lo - 1, -1, dtype=np.int64)
    g_edges = np.column_stack([i + 1, i]) * (n + 1) + j_gap
    bedges = np.vstack([mesh.bedges, g_edges])
    btags = np.concatenate([mesh.btags,
                            np.full(len(g_edges), Boundary.GAP_PROBE, dtype=np.int8)])
    return TriMesh(mesh.nodes, mesh.tris, reg, bedges, btags)


def _ring_radii(inclusion_radius: float, radius: float, h0: float,
                growth: float) -> np.ndarray:
    n_in = max(2, int(round(inclusion_radius / h0)))
    radii = list(np.linspace(0.0, inclusion_radius, n_in + 1)[1:])
    h = h0
    while radii[-1] < radius - 1e-12:
        radii.append(min(radii[-1] + h, radius))
        h *= growth
    return np.asarray(radii)


def _polar_mesh(radii: np.ndarray, n_theta: int):
    """Structured polar mesh: center node + rings, union-jack diagonals.
    Returns the nodes, the triangles and the ring ids (len(radii), n_theta):
    ring[i, j] is the node at radii[i] and angle 2 pi j / n_theta."""
    th = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    r = radii[:, None]
    nodes = np.vstack([np.zeros((1, 2)),
                       np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
                       .reshape(-1, 2)])
    ring = 1 + np.arange(len(radii) * n_theta, dtype=np.int64).reshape(-1, n_theta)
    fan = np.column_stack([np.zeros(n_theta, dtype=np.int64), ring[0],
                           np.roll(ring[0], -1)])
    grid = _grid_tris(np.hstack([ring, ring[:, :1]]), (3, 1, 2))
    return nodes, np.vstack([fan, grid]), ring


def _ring_edges(ring: np.ndarray) -> np.ndarray:
    """Edges closing one ring of node ids, counter-clockwise."""
    return np.column_stack([ring, np.roll(ring, -1)])


@dataclass(frozen=True)
class DiscSpec:
    """Truncated disc around the cell problems' unit inclusion
    (generate_disc_mesh), and every rule on it: ValueError at construction
    naming the first field out of range. Unguarded, these divide by zero,
    build non-finite nodes, cut a quarter sector that is not the disc's
    exact restriction or, for h0 < 0, add rings without end."""
    disc_radius: float
    h0: float
    growth: float
    n_theta: int

    def __post_init__(self):
        if not (np.isfinite(self.disc_radius) and self.disc_radius > 1.0):
            raise ValueError(f"disc_radius = {self.disc_radius:g} is not finite "
                             "and > 1, the inclusion's radius")
        if not 0.0 < self.h0 < np.inf:
            raise ValueError(f"h0 = {self.h0:g} is not finite and positive")
        if not 1.0 <= self.growth < np.inf:
            raise ValueError(f"growth = {self.growth:g} is not finite and >= 1")
        if not (self.n_theta > 0 and self.n_theta % 4 == 0):
            raise ValueError(f"n_theta = {self.n_theta} is not a positive "
                             "multiple of 4: the disc's axes must be mesh lines "
                             "for the quarter-disc solve")


def generate_disc_mesh(spec: DiscSpec) -> TriMesh:
    """Disc mesh of `spec` centered at the origin around the cell problems'
    unit-disk inclusion, with an exactly-polygonal inclusion ring.

    Nodes are placed on concentric circles; one circle sits exactly at
    |x| = 1, radial spacing grows geometrically (factor spec.growth) from
    spec.h0 at the inclusion toward the outer boundary. The inclusion is
    the inscribed n_theta-gon of that circle: the triangles inside it, the
    centre fan and the 2 n_theta-triangle band between each pair of rings
    up to |x| = 1, are tagged DESIGN, the exterior AIR_FIXED; the outer
    circle is the Dirichlet boundary.
    """
    radii = _ring_radii(1.0, spec.disc_radius, spec.h0, spec.growth)
    nodes, tris, ring = _polar_mesh(radii, spec.n_theta)
    # _polar_mesh lists the fan, then each band outward: the inclusion's
    # triangles come first, one fan and a band per ring inside |x| = 1
    n_inside = spec.n_theta * (2 * np.count_nonzero(radii <= 1.0) - 1)
    reg = np.full(len(tris), int(Region.AIR_FIXED), dtype=np.int8)
    reg[:n_inside] = Region.DESIGN
    bedges = _ring_edges(ring[-1])
    btags = np.full(spec.n_theta, Boundary.DIRICHLET_OUTER, dtype=np.int8)
    return TriMesh(nodes, tris, reg, bedges, btags)


# default mini-motor radii [m]; declared arbitrary (desk scale)
MINI_MOTOR_RADII = {
    "rotor": 0.018,
    "magnet": 0.022,
    "gap_outer": 0.026,
    "design_outer": 0.034,
    "stator_outer": 0.040,
}
MINI_MOTOR_PROBE_RADIUS = 0.024
MINI_MOTOR_MAGNET_ARC = (np.deg2rad(30.0), np.deg2rad(150.0))
MINI_MOTOR_DESIGN_ARC = (np.deg2rad(30.0), np.deg2rad(150.0))


def generate_mini_motor(resolution: int = 96) -> TriMesh:
    """Annular mini-motor: rotor disc, magnet arc, air gap with probe circle,
    design sector, stator ring. `resolution` is the angular segment count.

    The probe circle at MINI_MOTOR_PROBE_RADIUS is a mesh ring; its edges are
    ordered counter-clockwise so grad(u).tau is the radial flux component.
    """
    if resolution < 24:
        raise ValueError(f"resolution = {resolution} must be at least 24")
    rr = MINI_MOTOR_RADII
    h0 = 2.0 * np.pi * rr["rotor"] / resolution
    key_radii = [rr["rotor"], rr["magnet"], MINI_MOTOR_PROBE_RADIUS,
                 rr["gap_outer"], rr["design_outer"], rr["stator_outer"]]
    radii = list(np.linspace(0.0, rr["rotor"],
                             max(3, int(round(rr["rotor"] / h0))) + 1)[1:])
    for r0, r1 in zip(key_radii[:-1], key_radii[1:]):
        k = max(2, int(round((r1 - r0) / h0)))
        radii += list(np.linspace(r0, r1, k + 1)[1:])
    radii = np.asarray(radii)
    nodes, tris, ring = _polar_mesh(radii, resolution)
    i_gam = int(np.argmin(np.abs(radii - MINI_MOTOR_PROBE_RADIUS)))
    bedges = np.vstack([_ring_edges(ring[-1]), _ring_edges(ring[i_gam])])
    btags = np.concatenate([
        np.full(resolution, Boundary.DIRICHLET_OUTER, dtype=np.int8),
        np.full(resolution, Boundary.GAP_PROBE, dtype=np.int8)])
    # tagged in place through the mesh, whose memo keeps the centroids for
    # the magnetization's angles
    mesh = TriMesh(nodes, tris, np.full(len(tris), int(Region.AIR_FIXED), dtype=np.int8),
                   bedges, btags)
    cen = mesh.centroids
    rc = np.hypot(cen[:, 0], cen[:, 1])
    tc = np.mod(np.arctan2(cen[:, 1], cen[:, 0]), 2.0 * np.pi)
    reg = mesh.region
    reg[rc < rr["rotor"]] = Region.FERRO_FIXED
    in_mag = (rc > rr["rotor"]) & (rc < rr["magnet"])
    a0, a1 = MINI_MOTOR_MAGNET_ARC
    reg[in_mag & (tc > a0) & (tc < a1)] = Region.MAGNET
    reg[(rc > rr["magnet"]) & (rc < rr["gap_outer"])] = Region.AIRGAP
    in_des = (rc > rr["gap_outer"]) & (rc < rr["design_outer"])
    d0, d1 = MINI_MOTOR_DESIGN_ARC
    des = in_des & (tc > d0) & (tc < d1)
    reg[in_des] = Region.FERRO_FIXED
    reg[des] = Region.DESIGN
    reg[(rc > rr["design_outer"]) & (rc < rr["stator_outer"])] = Region.FERRO_FIXED
    return mesh
