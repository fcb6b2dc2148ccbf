import dataclasses
import hashlib

import numpy as np
import pytest

from magtopt import cell_problems
from magtopt.cell_problems import disc_mesh
from magtopt.cli import DEFAULTS, disc_spec
from magtopt.mesh import (Boundary, DiscSpec, Region, TriMesh,
                          generate_disc_mesh, generate_mini_motor,
                          generate_square_benchmark, save_mesh,
                          unit_square_mesh, MINI_MOTOR_RADII,
                          MINI_MOTOR_PROBE_RADIUS)
from oracles import read_meshv1


def euler_characteristic(mesh):
    edges = set()
    for tri in mesh.tris:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            edges.add((min(a, b), max(a, b)))
    used_nodes = np.unique(mesh.tris.ravel())
    return len(used_nodes) - len(edges) + mesh.n_tris


class TestSquareBenchmark:
    def test_counts_n8(self):
        mesh = generate_square_benchmark(8)
        assert mesh.n_tris == 2 * 8 ** 2 == 128
        assert mesh.n_nodes == 9 ** 2 == 81

    def test_uniform_areas(self):
        n = 16
        mesh = generate_square_benchmark(n)
        np.testing.assert_allclose(mesh.areas, 1.0 / (2 * n ** 2), rtol=1e-12)

    def test_partition_of_unity(self):
        mesh = generate_square_benchmark(32)
        assert abs(mesh.areas.sum() - 1.0) < 1e-12

    def test_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            generate_square_benchmark(7)

    def test_all_regions_assigned(self):
        mesh = generate_square_benchmark(32)
        present = {Region(int(r)) for r in np.unique(mesh.region)}
        assert {Region.FERRO_FIXED, Region.AIR_FIXED, Region.DESIGN,
                Region.COIL, Region.MAGNET, Region.AIRGAP} <= present

    def test_design_simply_connected(self):
        mesh = generate_square_benchmark(32)
        design = np.flatnonzero(mesh.region == Region.DESIGN)
        # flood fill over shared edges
        edge_map = {}
        for e in design:
            tri = mesh.tris[e]
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                edge_map.setdefault((min(a, b), max(a, b)), []).append(e)
        adj = {e: [] for e in design}
        for elems in edge_map.values():
            if len(elems) == 2:
                adj[elems[0]].append(elems[1])
                adj[elems[1]].append(elems[0])
        seen = {design[0]}
        stack = [design[0]]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        assert len(seen) == len(design)

    def test_edge_conformity(self):
        mesh = generate_square_benchmark(16)
        counts = mesh.edge_use_counts()
        assert max(counts.values()) == 2
        n_boundary = sum(1 for c in counts.values() if c == 1)
        n_dirichlet = int((mesh.btags == Boundary.DIRICHLET_OUTER).sum())
        assert n_boundary == n_dirichlet

    def test_euler_relation(self):
        assert euler_characteristic(generate_square_benchmark(16)) == 1

    def test_probe_curve_single_polyline(self):
        mesh = generate_square_benchmark(32)
        g = mesh.gap_probe_edges()
        assert len(g) > 0
        # ordered chain: consecutive edges share a node
        for (a, b), (c, d) in zip(g[:-1], g[1:]):
            assert b == c
        # straight horizontal segment
        ys = mesh.nodes[np.unique(g.ravel())][:, 1]
        assert np.ptp(ys) == 0.0


class TestDiscMesh:
    def test_inclusion_ring_exact(self):
        mesh = generate_disc_mesh(DiscSpec(disc_radius=50.0, h0=0.1, growth=1.15,
                                           n_theta=64))
        r = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
        ring = np.isclose(r, 1.0, atol=1e-12)
        assert ring.sum() == 64

    def test_total_area_close_to_disc(self):
        mesh = generate_disc_mesh(DiscSpec(disc_radius=10.0, h0=0.2, growth=1.2,
                                           n_theta=64))
        assert abs(mesh.areas.sum() - np.pi * 100.0) <= 0.01 * np.pi * 100.0

    def test_inclusion_area(self):
        mesh = generate_disc_mesh(DiscSpec(disc_radius=10.0, h0=0.2, growth=1.2,
                                           n_theta=64))
        incl = mesh.region == Region.DESIGN
        assert abs(mesh.areas[incl].sum() - np.pi) <= 0.01 * np.pi

    def test_invalid_radii(self):
        with pytest.raises(ValueError):
            DiscSpec(disc_radius=1.0, h0=0.05, growth=1.15, n_theta=128)
        with pytest.raises(ValueError):
            DiscSpec(disc_radius=10.0, h0=0.05, growth=0.9, n_theta=128)

    @pytest.mark.parametrize("name, value", [
        ("h0", 0.0), ("h0", -0.1), ("h0", np.nan), ("h0", np.inf),
        ("n_theta", 0), ("n_theta", -4), ("n_theta", 2),
        ("disc_radius", np.inf), ("disc_radius", np.nan), ("disc_radius", 1.0),
        ("disc_radius", 0.5),
        ("growth", np.nan), ("growth", np.inf)])
    def test_bad_input_names_its_parameter(self, name, value):
        # unguarded, these divide by zero, fail inside numpy, build a mesh
        # with non-finite nodes, cut a sector that is not a quarter or, for
        # h0 < 0, add rings without end; a radius up to 1 leaves no room
        # outside the unit inclusion
        kwargs = dict(disc_radius=10.0, h0=0.25, growth=1.2, n_theta=32)
        kwargs[name] = value
        with pytest.raises(ValueError, match=f"^{name} = "):
            DiscSpec(**kwargs)

    def test_euler_relation(self):
        mesh = generate_disc_mesh(DiscSpec(disc_radius=10.0, h0=0.25, growth=1.3,
                                           n_theta=32))
        assert euler_characteristic(mesh) == 1


@pytest.fixture(scope="module")
def motor64():
    return generate_mini_motor(64)


class TestCached:
    def test_build_runs_once_per_key_and_mesh(self):
        meshes = (generate_square_benchmark(8), generate_square_benchmark(8))
        calls = []

        def build():
            calls.append(None)
            return object()

        first = [mesh.cached(key, build) for mesh in meshes for key in ("a", "b")]
        again = [mesh.cached(key, build) for mesh in meshes for key in ("a", "b")]
        assert len(calls) == 4
        assert all(x is y for x, y in zip(first, again))
        assert len({id(x) for x in first}) == 4
        # a copy made by dataclasses.replace starts with its own, empty memo
        assert dataclasses.replace(meshes[0]).cached("a", build) is not first[0]
        assert len(calls) == 5

        # the quarter disc of the table build is kept on its disc mesh, which
        # perfbench's build-tables restores between timed units
        def refuse():
            raise AssertionError("quarter not kept on its disc mesh")

        disc = generate_disc_mesh(DiscSpec(disc_radius=10.0, h0=0.25, growth=1.3,
                                           n_theta=32))
        quarter = cell_problems._quarter(disc)
        assert disc.cached("quarter", refuse) is quarter
        assert cell_problems._quarter(disc) is quarter


class TestAsciiIO:
    def test_roundtrip_exact(self, tmp_path):
        mesh = generate_square_benchmark(8)
        p = tmp_path / "mesh.txt"
        save_mesh(p, mesh)
        for got, want in zip(read_meshv1(p), (mesh.nodes, mesh.tris, mesh.region,
                                              mesh.bedges, mesh.btags)):
            np.testing.assert_array_equal(got, want)


class TestMiniMotor:
    @pytest.fixture()
    def mesh(self, motor64):
        return motor64

    def test_regions_present(self, mesh):
        present = {Region(int(r)) for r in np.unique(mesh.region)}
        assert {Region.FERRO_FIXED, Region.DESIGN, Region.MAGNET,
                Region.AIRGAP} <= present

    def test_probe_curve_closed_loop(self, mesh):
        g = mesh.gap_probe_edges()
        for (a, b), (c, d) in zip(g[:-1], g[1:]):
            assert b == c
        assert g[-1, 1] == g[0, 0]

    def test_probe_curve_radius_inside_gap(self, mesh):
        g = np.unique(mesh.gap_probe_edges().ravel())
        r = np.hypot(mesh.nodes[g, 0], mesh.nodes[g, 1])
        assert np.allclose(r, MINI_MOTOR_PROBE_RADIUS, atol=1e-12)
        assert MINI_MOTOR_RADII["magnet"] < MINI_MOTOR_PROBE_RADIUS < MINI_MOTOR_RADII["gap_outer"]

    def test_conformity(self, mesh):
        assert max(mesh.edge_use_counts().values()) == 2


class TestDegenerateGeometry:
    def test_flat_triangle_rejected(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        tris = np.array([[0, 1, 2]])
        m = TriMesh(nodes, tris, np.zeros(1, np.int8),
                    np.empty((0, 2), np.int64), np.empty(0, np.int8))
        with pytest.raises(ValueError,
                           match="^triangle with non-positive signed area$"):
            m.areas


def _digest(a):
    """sha256 prefix of an array's dtype, shape and bytes."""
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


class TestLayoutPinned:
    """Index arrays of the shipped meshes, pinned byte for byte: a change of
    vertex order moves every result by round-off. Polar node coordinates are
    not pinned, since SIMD sin/cos may differ in the last bit across CPUs."""

    LAYOUTS = {  # tris, region, bedges, btags
        "square/8": ("d0053571e5c55855", "32d7423f0b7068ec",
                     "0cd60ffd91edcc40", "9b6eaadb575d258a"),
        "square/64": ("47d3efeb633cb7bd", "6373731607a637fa",
                      "cc350a5a0c467754", "38975fe14dbd6f8f"),
        "mini_motor/24": ("2a90e3e67776d29e", "218ea23cbdf693b5",
                          "c5d1928e33eae3ae", "fd5e4b28b358d5da"),
        "mini_motor/96": ("ca7b1a8c53963762", "722451ed43c75ae2",
                          "158bd1aefbc7caba", "46cc0803caf20371"),
        "disc/default": ("733ed74cda2c7e5e", "25031a6753938b93",
                         "6aa239500afa5dd9", "58375a5d0690baf9"),
    }
    BUILD = {
        "square/8": lambda: generate_square_benchmark(8),
        "square/64": lambda: generate_square_benchmark(64),
        "mini_motor/24": lambda: generate_mini_motor(24),
        "mini_motor/96": lambda: generate_mini_motor(96),
        "disc/default": lambda: disc_mesh(disc_spec(DEFAULTS)),
    }

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_index_arrays(self, name):
        mesh = self.BUILD[name]()
        got = tuple(_digest(getattr(mesh, a))
                    for a in ("tris", "region", "bedges", "btags"))
        assert got == self.LAYOUTS[name]

    def test_saved_square_bytes(self, tmp_path):
        # square/8 coordinates are exact binary fractions
        p = tmp_path / "mesh.txt"
        save_mesh(p, generate_square_benchmark(8))
        assert hashlib.sha256(p.read_bytes()).hexdigest()[:16] == "d06e950a9ae94410"
