"""Conforming 2D triangle meshes with region and boundary tags.

All generators produce piecewise-linear (polygonal) geometry; curved
interfaces are resolved by angular refinement. Meshes are immutable after
generation (geometry caches are derived data only).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


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


class MeshError(Exception):
    pass


@dataclass
class TriMesh:
    """Triangle mesh: node coordinates [m], triangles (CCW), tagged edges.

    `bedges` lists tagged edges only: the outer Dirichlet boundary plus any
    interior GAP_PROBE polyline. Geometry (areas, P1 basis gradients, centroids)
    is computed lazily and cached.
    """
    nodes: np.ndarray            # (n, 2) float64
    tris: np.ndarray             # (m, 3) int64, positive signed area
    region: np.ndarray           # (m,) int8 of Region values
    bedges: np.ndarray           # (k, 2) int64 node pairs
    btags: np.ndarray            # (k,) int8 of Boundary values
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_tris(self) -> int:
        return len(self.tris)

    @property
    def areas(self) -> np.ndarray:
        if "areas" not in self._cache:
            self._compute_geometry()
        return self._cache["areas"]

    @property
    def grads(self) -> np.ndarray:
        """P1 basis gradients, shape (m, 3, 2): grads[e, k] = grad(phi_k) on element e."""
        if "grads" not in self._cache:
            self._compute_geometry()
        return self._cache["grads"]

    @property
    def centroids(self) -> np.ndarray:
        if "centroids" not in self._cache:
            self._cache["centroids"] = self.nodes[self.tris].mean(axis=1)
        return self._cache["centroids"]

    def _compute_geometry(self):
        p = self.nodes[self.tris]
        v1 = p[:, 1] - p[:, 0]
        v2 = p[:, 2] - p[:, 0]
        det = v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0]
        if np.any(det <= 0):
            raise MeshError("triangle with non-positive signed area")
        b = np.empty((len(self.tris), 3, 2))
        b[:, 0, 0] = p[:, 1, 1] - p[:, 2, 1]
        b[:, 0, 1] = p[:, 2, 0] - p[:, 1, 0]
        b[:, 1, 0] = p[:, 2, 1] - p[:, 0, 1]
        b[:, 1, 1] = p[:, 0, 0] - p[:, 2, 0]
        b[:, 2, 0] = p[:, 0, 1] - p[:, 1, 1]
        b[:, 2, 1] = p[:, 1, 0] - p[:, 0, 0]
        b /= det[:, None, None]
        self._cache["areas"] = 0.5 * det
        self._cache["grads"] = b

    def element_gradients(self, u: np.ndarray, elements=None) -> np.ndarray:
        """Gradient of the P1 field u (n,), constant per element: shape
        (m, 2), only the rows of `elements` (an index array) when given."""
        tris, grads = (self.tris, self.grads) if elements is None else \
            (self.tris[elements], self.grads[elements])
        return np.einsum("ek,eki->ei", u[tris], grads)

    def dirichlet_nodes(self) -> np.ndarray:
        sel = self.btags == Boundary.DIRICHLET_OUTER
        return np.unique(self.bedges[sel].ravel())

    def gap_probe_edges(self) -> np.ndarray:
        return self.bedges[self.btags == Boundary.GAP_PROBE]

    def edge_use_counts(self) -> dict:
        """Map undirected edge -> number of incident triangles (conformity check)."""
        e = np.concatenate([self.tris[:, [0, 1]], self.tris[:, [1, 2]],
                            self.tris[:, [2, 0]]])
        e.sort(axis=1)
        uniq, counts = np.unique(e, axis=0, return_counts=True)
        return {tuple(k): int(c) for k, c in zip(uniq, counts)}


# ---------------------------------------------------------------------------
# generators

def unit_square_mesh(n: int) -> TriMesh:
    """Uniform crossed-diagonal triangulation of [0,1]^2, all AIR_FIXED.

    (n+1)^2 nodes, 2 n^2 triangles; diagonals alternate by cell parity so the
    mesh is symmetric under the square's reflections.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(i, j):
        return i * (n + 1) + j

    tris = []
    for i in range(n):
        for j in range(n):
            a = nid(i, j)
            b = nid(i + 1, j)
            c = nid(i + 1, j + 1)
            d = nid(i, j + 1)
            if (i + j) % 2 == 0:
                tris += [[a, b, c], [a, c, d]]
            else:
                tris += [[a, b, d], [b, c, d]]
    tris = np.asarray(tris, dtype=np.int64)

    # outer boundary edges
    bedges = []
    for i in range(n):
        bedges += [[nid(i, 0), nid(i + 1, 0)], [nid(i, n), nid(i + 1, n)],
                   [nid(0, i), nid(0, i + 1)], [nid(n, i), nid(n, i + 1)]]
    bedges = np.asarray(bedges, dtype=np.int64)
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

    Element tags by centroid; magnet/coil/channel take priority over the
    ferro structure. The probe curve is the grid-line segment y = y_gap for
    x in [round(0.25n)/n, round(0.75n)/n], ordered right-to-left so that
    grad(u).tau is the upward flux component.
    """
    if n < 8:
        raise ValueError("subdivision count must be >= 8")
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
    def nid(i, j):
        return i * (n + 1) + j

    g_edges = [[nid(i + 1, j_gap), nid(i, j_gap)] for i in range(i_hi - 1, i_lo - 1, -1)]
    g_edges = np.asarray(g_edges, dtype=np.int64)
    bedges = np.vstack([mesh.bedges, g_edges])
    btags = np.concatenate([mesh.btags,
                            np.full(len(g_edges), Boundary.GAP_PROBE, dtype=np.int8)])
    return TriMesh(mesh.nodes, mesh.tris, reg, bedges, btags)


def _ring_radii(inclusion_radius: float, radius: float, h0: float,
                grading: float) -> np.ndarray:
    n_in = max(2, int(round(inclusion_radius / h0)))
    radii = list(np.linspace(0.0, inclusion_radius, n_in + 1)[1:])
    h = h0
    while radii[-1] < radius - 1e-12:
        radii.append(min(radii[-1] + h, radius))
        h *= grading
    return np.asarray(radii)


def _polar_mesh(radii: np.ndarray, n_theta: int):
    """Structured polar mesh: center node + rings, union-jack diagonals."""
    th = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    nodes = [np.zeros((1, 2))]
    for r in radii:
        nodes.append(np.column_stack([r * np.cos(th), r * np.sin(th)]))
    nodes = np.vstack(nodes)

    def nid(i, j):
        return 1 + i * n_theta + (j % n_theta)

    tris = []
    for j in range(n_theta):
        tris.append([0, nid(0, j), nid(0, j + 1)])
    for i in range(len(radii) - 1):
        for j in range(n_theta):
            a0, a1 = nid(i, j), nid(i, j + 1)
            b0, b1 = nid(i + 1, j), nid(i + 1, j + 1)
            if (i + j) % 2 == 0:
                tris += [[a0, b0, b1], [a0, b1, a1]]
            else:
                tris += [[a0, b0, a1], [a1, b0, b1]]
    return nodes, np.asarray(tris, dtype=np.int64), nid


def generate_disc_mesh(radius: float, inclusion_radius: float = 1.0,
                       grading: float = 1.15, h0: float = 0.05,
                       n_theta: int = 128) -> TriMesh:
    """Disc mesh centered at the origin with an exactly-polygonal inclusion ring.

    Nodes are placed on concentric circles; one circle sits exactly at
    |x| = inclusion_radius, radial spacing grows geometrically (factor
    `grading`) from h0 at the inclusion toward the outer boundary. Triangles
    inside the inclusion are tagged DESIGN, the exterior AIR_FIXED; the outer
    circle is the Dirichlet boundary.
    """
    if not (radius > inclusion_radius > 0.0):
        raise ValueError("need radius > inclusion_radius > 0")
    if grading < 1.0:
        raise ValueError("grading must be >= 1")
    radii = _ring_radii(inclusion_radius, radius, h0, grading)
    nodes, tris, nid = _polar_mesh(radii, n_theta)
    cen = nodes[tris].mean(axis=1)
    rc = np.hypot(cen[:, 0], cen[:, 1])
    reg = np.where(rc < inclusion_radius, int(Region.DESIGN),
                   int(Region.AIR_FIXED)).astype(np.int8)
    i_out = len(radii) - 1
    bedges = np.asarray([[nid(i_out, j), nid(i_out, j + 1)]
                         for j in range(n_theta)], dtype=np.int64)
    btags = np.full(n_theta, Boundary.DIRICHLET_OUTER, dtype=np.int8)
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
        raise ValueError("resolution must be >= 24")
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
    nodes, tris, nid = _polar_mesh(radii, resolution)

    cen = nodes[tris].mean(axis=1)
    rc = np.hypot(cen[:, 0], cen[:, 1])
    tc = np.mod(np.arctan2(cen[:, 1], cen[:, 0]), 2.0 * np.pi)
    reg = np.full(len(tris), int(Region.AIR_FIXED), dtype=np.int8)
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

    i_gam = int(np.argmin(np.abs(radii - MINI_MOTOR_PROBE_RADIUS)))
    i_out = len(radii) - 1
    g_edges = [[nid(i_gam, j), nid(i_gam, j + 1)] for j in range(resolution)]
    d_edges = [[nid(i_out, j), nid(i_out, j + 1)] for j in range(resolution)]
    bedges = np.asarray(d_edges + g_edges, dtype=np.int64)
    btags = np.concatenate([
        np.full(resolution, Boundary.DIRICHLET_OUTER, dtype=np.int8),
        np.full(resolution, Boundary.GAP_PROBE, dtype=np.int8)])
    return TriMesh(nodes, tris, reg, bedges, btags)


# ---------------------------------------------------------------------------
# ASCII I/O (format: see README; floats written with 17 significant digits)

def save_mesh(path, mesh: TriMesh) -> None:
    with open(path, "w") as f:
        f.write("meshv1\n")
        f.write(f"nodes {mesh.n_nodes}\n")
        for x, y in mesh.nodes:
            f.write(f"{x:.17g} {y:.17g}\n")
        f.write(f"tris {mesh.n_tris}\n")
        for (i, j, k), r in zip(mesh.tris, mesh.region):
            f.write(f"{i} {j} {k} {int(r)}\n")
        f.write(f"bedges {len(mesh.bedges)}\n")
        for (i, j), t in zip(mesh.bedges, mesh.btags):
            f.write(f"{i} {j} {int(t)}\n")


def load_mesh(path) -> TriMesh:
    with open(path) as f:
        tokens = f.read().split()
    it = iter(tokens)
    if next(it) != "meshv1":
        raise MeshError("not a meshv1 file")
    if next(it) != "nodes":
        raise MeshError("expected 'nodes'")
    n = int(next(it))
    nodes = np.array([[float(next(it)), float(next(it))] for _ in range(n)])
    if next(it) != "tris":
        raise MeshError("expected 'tris'")
    m = int(next(it))
    rows = [[int(next(it)) for _ in range(4)] for _ in range(m)]
    rows = np.asarray(rows, dtype=np.int64)
    if next(it) != "bedges":
        raise MeshError("expected 'bedges'")
    k = int(next(it))
    be = [[int(next(it)) for _ in range(3)] for _ in range(k)]
    be = np.asarray(be, dtype=np.int64).reshape(k, 3)
    return TriMesh(nodes, rows[:, :3], rows[:, 3].astype(np.int8),
                   be[:, :2], be[:, 2].astype(np.int8))
