import re

import numpy as np
import pytest

from magtopt.fem import assemble_rhs, solve_state
from magtopt.mesh import (Boundary, Region, TriMesh, generate_square_benchmark,
                          unit_square_mesh, MINI_MOTOR_RADII,
                          MINI_MOTOR_PROBE_RADIUS)
from magtopt.optimizer import DesignSpace
from magtopt.problem_setup import (_edge_elements, assemble_adjoint_rhs,
                                   build_benchmark_problem, default_levelset,
                                   eval_objective, load_target_csv, make_objective)
from oracles import digest, loop_edge_elements

RNG = np.random.default_rng(17)


@pytest.fixture(scope="module")
def square():
    return build_benchmark_problem("square", 16)


@pytest.fixture(scope="module")
def solved(square, marrocco):
    state = solve_state(square.mesh, marrocco, levelset=None,
                        sources=square.sources)
    return state.field


class TestEvalObjective:
    def test_exact_tracking_is_zero(self, square, solved):
        spec = make_objective(square.mesh,
                              lambda mid: square.objective.trace @ solved)
        assert eval_objective(square.mesh, solved, spec) == 0.0

    def test_constant_mismatch_gives_total_length(self, square):
        mesh = square.mesh
        spec = make_objective(mesh, lambda mid: np.ones(len(square.objective.lengths)))
        u = np.zeros(mesh.n_nodes)
        assert eval_objective(mesh, u, spec) == pytest.approx(
            spec.lengths.sum(), rel=1e-12)

    def test_quadratic_scaling(self, square, solved):
        mesh = square.mesh
        spec = make_objective(mesh, lambda mid: np.zeros(len(square.objective.lengths)))
        j1 = eval_objective(mesh, solved, spec)
        u2 = 2.0 * solved
        assert eval_objective(mesh, u2, spec) == pytest.approx(4.0 * j1, rel=1e-12)

    def test_nonnegative(self, square):
        mesh = square.mesh
        for _ in range(5):
            u = RNG.normal(size=mesh.n_nodes)
            assert eval_objective(mesh, u, square.objective) >= 0.0


class TestAdjointRhs:
    def test_perfect_tracking_zero_vector(self, square, solved):
        spec = make_objective(square.mesh,
                              lambda mid: square.objective.trace @ solved)
        out = assemble_adjoint_rhs(square.mesh, solved, spec)
        assert np.all(out == 0.0)

    def test_support_near_gap_only(self, square, solved):
        mesh = square.mesh
        out = assemble_adjoint_rhs(mesh, solved, square.objective)
        touched = set(np.flatnonzero(out != 0.0))
        allowed = set(np.unique(mesh.tris[_edge_elements(mesh, mesh.gap_probe_edges())]))
        assert touched <= allowed

    def test_central_difference_consistency(self, square, solved):
        # the tracking functional is quadratic: central differences are exact
        # up to roundoff
        mesh = square.mesh
        spec = square.objective
        gvec = assemble_adjoint_rhs(mesh, solved, spec)
        scale = max(1.0, np.abs(solved).max())
        h = 1e-6 * scale
        for _ in range(5):
            eta = RNG.normal(size=mesh.n_nodes)
            eta /= np.abs(eta).max()
            up = solved + h * eta
            dn = solved - h * eta
            fd = (eval_objective(mesh, up, spec)
                  - eval_objective(mesh, dn, spec)) / (2 * h)
            assert fd == pytest.approx(float(gvec @ eta), rel=1e-5)


class TestBenchmarks:
    def test_square_probe_curve_straight_horizontal(self, square):
        mesh = square.mesh
        g = np.unique(mesh.gap_probe_edges().ravel())
        assert np.ptp(mesh.nodes[g, 1]) == 0.0
        xext = np.ptp(mesh.nodes[g, 0])
        assert square.objective.lengths.sum() == pytest.approx(xext, rel=1e-12)

    def test_square_sources(self, square):
        assert square.sources.jz == 0.0
        magnet_area = square.mesh.areas[square.mesh.region == Region.MAGNET].sum()
        assert magnet_area > 0.0

    def test_mini_motor_geometry(self):
        prob = build_benchmark_problem("mini_motor", 48)
        assert MINI_MOTOR_RADII["rotor"] < MINI_MOTOR_PROBE_RADIUS < MINI_MOTOR_RADII["stator_outer"]
        assert prob.sources.jz == 0.0
        assert prob.mesh.areas[prob.mesh.region == Region.MAGNET].sum() > 0.0
        # radial magnetization, acting on magnet elements only: the load
        # vector vanishes at every node off the magnets
        m = prob.sources.magnetization
        mag = prob.mesh.region == Region.MAGNET
        rhs = assemble_rhs(prob.mesh, prob.sources)
        assert np.all(np.delete(rhs, prob.mesh.tris[mag].ravel()) == 0.0)
        cen = prob.mesh.centroids[mag]
        rad = cen / np.hypot(cen[:, 0], cen[:, 1])[:, None]
        align = np.einsum("ei,ei->e", m[mag], rad) / np.hypot(m[mag, 0], m[mag, 1])
        np.testing.assert_allclose(align, 1.0, rtol=1e-12)

    def test_mini_motor_solves(self, marrocco):
        prob = build_benchmark_problem("mini_motor", 48)
        state = solve_state(prob.mesh, marrocco, levelset=None,
                            sources=prob.sources)
        j = eval_objective(prob.mesh, state.field, prob.objective)
        assert np.isfinite(j) and j > 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="^unknown benchmark kind 'hexagon'$"):
            build_benchmark_problem("hexagon", 16)

    def test_mesh_without_gap_edges_refused(self):
        # the unit square tags only its outer boundary
        with pytest.raises(ValueError, match="^mesh has no GAP_PROBE edges$"):
            make_objective(unit_square_mesh(4), lambda mid: np.zeros(len(mid)))

    def test_design_adjacent_gap_rejected(self):
        mesh = generate_square_benchmark(16)
        g = mesh.gap_probe_edges()[0]
        bad = None
        for e, tri in enumerate(mesh.tris):
            if g[0] in tri and g[1] in tri:
                bad = e
                break
        region = mesh.region.copy()
        region[bad] = Region.DESIGN
        tampered = TriMesh(mesh.nodes, mesh.tris, region, mesh.bedges, mesh.btags)
        with pytest.raises(ValueError, match="DESIGN"):
            make_objective(tampered, lambda mid: np.zeros(len(mid)))

    def test_target_sample_count_checked(self, square):
        with pytest.raises(ValueError,
                           match="^target sample count must equal edge count$"):
            make_objective(square.mesh, lambda mid: np.zeros(3))

    def test_target_csv_override(self, tmp_path):
        p = tmp_path / "target.csv"
        th = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        rows = "\n".join(f"{a:.17g},{0.3 * np.sin(2 * a):.17g}" for a in th)
        p.write_text("theta,b_d\n" + rows + "\n")
        target = load_target_csv(p)
        prob = build_benchmark_problem("mini_motor", 48, b_target=target)
        edges = prob.mesh.nodes[prob.mesh.gap_probe_edges()]
        mid = 0.5 * (edges[:, 0] + edges[:, 1])
        ang = np.arctan2(mid[:, 1], mid[:, 0])
        np.testing.assert_allclose(prob.objective.b_target,
                                   np.interp(np.mod(ang, 2 * np.pi), th,
                                             0.3 * np.sin(2 * th),
                                             period=2 * np.pi), atol=1e-12)

    @pytest.mark.parametrize("header, line", [("", 2), ("0.0,0.5", 1), ("theta,b", 1),
                                              ("theta,b_d,x", 1)],
                             ids=["empty", "data_row", "wrong_name", "three_columns"])
    def test_target_csv_header_required(self, tmp_path, header, line):
        # a blank first line is skipped, so the data row after it is read as
        # the header
        p = tmp_path / "target.csv"
        p.write_text(header + "\n3.14159,-0.5\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: line {line}: "
                           "expected header 'theta,b_d'$"):
            load_target_csv(p)

    def test_target_csv_skips_comment_lines_before_the_header(self, tmp_path):
        p = tmp_path / "target.csv"
        p.write_text("# measured\ntheta,b_d\n0.5,0.25")
        prob = build_benchmark_problem("square", 16, b_target=load_target_csv(p))
        assert np.all(prob.objective.b_target == 0.25)

    def test_target_csv_line_numbers_count_comment_lines(self, tmp_path):
        p = tmp_path / "target.csv"
        p.write_text("# measured\n# at 1 A\nb_d,theta\n0.5,0.25\n")
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(p))}: line 3: expected header 'theta,b_d'$"):
            load_target_csv(p)

    def test_target_csv_header_ignores_case_and_spaces(self, tmp_path):
        p = tmp_path / "target.csv"
        p.write_text(" Theta , B_D \r\n0.5,0.25\n")
        prob = build_benchmark_problem("square", 16, b_target=load_target_csv(p))
        assert np.all(prob.objective.b_target == 0.25)

    def test_target_csv_single_row_is_constant(self, tmp_path):
        p = tmp_path / "target.csv"
        p.write_text("theta,b_d\n0.5,0.25\n")
        prob = build_benchmark_problem("square", 16, b_target=load_target_csv(p))
        assert np.all(prob.objective.b_target == 0.25)

    @pytest.mark.parametrize("body", ["", "0.5\n1.0\n", "0.5,0.2,3\n",
                                      "0.5,0.2\n1.0,0.1,3\n"],
                             ids=["no_rows", "one_column", "three_columns",
                                  "ragged"])
    def test_short_target_csv_names_file(self, tmp_path, body):
        p = tmp_path / "target.csv"
        p.write_text("theta,b_d\n" + body)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: "):
            load_target_csv(p)


class TestEdgeElements:
    @pytest.mark.parametrize("kind, resolution", [("square", 16), ("mini_motor", 24)])
    def test_chosen_element_holds_edge_on_its_left(self, kind, resolution):
        mesh = build_benchmark_problem(kind, resolution).mesh
        edges = mesh.gap_probe_edges()
        chosen = _edge_elements(mesh, edges)
        tris = mesh.tris[chosen]
        assert np.all((tris == edges[:, :1]).any(1) & (tris == edges[:, 1:]).any(1))
        a, b = mesh.nodes[edges[:, 0]], mesh.nodes[edges[:, 1]]
        tau, d = b - a, mesh.centroids[chosen] - 0.5 * (a + b)
        assert np.all(tau[:, 0] * d[:, 1] - tau[:, 1] * d[:, 0] > 0)

    @pytest.mark.parametrize("kind, resolution", [("square", 16), ("square", 64),
                                                  ("mini_motor", 24), ("mini_motor", 96)])
    def test_matches_per_edge_loop(self, kind, resolution):
        # gap edges in both directions, and outer edges next to air, whose
        # one element lies right of one of the two directions (the fallback)
        mesh = build_benchmark_problem(kind, resolution).mesh
        outer = mesh.bedges[mesh.btags == Boundary.DIRICHLET_OUTER]
        outer = outer[mesh.region[loop_edge_elements(mesh, outer)] == Region.AIR_FIXED]
        gap = mesh.gap_probe_edges()
        edges = np.concatenate([gap, gap[:, ::-1], outer, outer[:, ::-1]])
        np.testing.assert_array_equal(_edge_elements(mesh, edges),
                                      loop_edge_elements(mesh, edges))

    def test_design_neighbour_names_edge(self):
        mesh = generate_square_benchmark(16)
        edges = mesh.gap_probe_edges()
        i, j = edges[3]
        incident = np.flatnonzero((mesh.tris == i).any(1) & (mesh.tris == j).any(1))
        right, = np.setdiff1d(incident, _edge_elements(mesh, edges))
        region = mesh.region.copy()
        region[right] = Region.DESIGN
        tampered = TriMesh(mesh.nodes, mesh.tris, region, mesh.bedges, mesh.btags)
        with pytest.raises(ValueError,
                           match=rf"^gap edge \({i},{j}\) adjacent to a DESIGN element$"):
            _edge_elements(tampered, edges)

    def test_refusal_without_candidate_elements(self):
        # no triangle holds two of the probe nodes, so no triangle is a
        # candidate holder: the first edge is refused, not an empty search
        mesh = generate_square_benchmark(16)
        edges = np.array([[0, 40], [120, 288]])
        assert not np.any(np.isin(mesh.tris, edges).sum(axis=1) >= 2)
        with pytest.raises(ValueError, match=r"^gap edge \(0,40\) not in the mesh$"):
            _edge_elements(mesh, edges)

    @pytest.mark.parametrize("case, k, reason", [
        ("no_shared_triangle", 4, "not in the mesh"),
        ("ferro_neighbour", 3, "adjacent to non-air element"),
        ("ferro_below_design", 3, "adjacent to non-air element"),
        ("design_before_missing", 2, "adjacent to a DESIGN element"),
    ], ids=["no_shared_triangle", "ferro_neighbour", "ferro_below_design",
            "design_before_missing"])
    def test_refusal_names_first_failing_edge(self, case, k, reason):
        # the first failing edge in edge order is reported; within it, a
        # missing edge first, then the first incident element in index order
        # that is DESIGN or not air
        mesh = generate_square_benchmark(16)
        edges = mesh.gap_probe_edges().copy()
        incident = [np.flatnonzero((mesh.tris == i).any(1) & (mesh.tris == j).any(1))
                    for i, j in edges]
        region = mesh.region.copy()
        if case in ("no_shared_triangle", "design_before_missing"):
            edges[4, 1] = edges[6, 1]       # two cells apart on the probe line
        if case == "ferro_neighbour":
            region[incident[3][1]] = Region.FERRO_FIXED
        if case == "ferro_below_design":
            region[incident[3]] = [Region.FERRO_FIXED, Region.DESIGN]
        if case == "design_before_missing":
            region[incident[2][1]] = Region.DESIGN
        tampered = TriMesh(mesh.nodes, mesh.tris, region, mesh.bedges, mesh.btags)
        i, j = edges[k]
        with pytest.raises(ValueError,
                           match=rf"^gap edge \({i},{j}\) {reason}$"):
            _edge_elements(tampered, edges)


class TestSetupPinned:
    """Objective, sources and design space of the benchmark problems,
    pinned byte for byte by oracles.digest. The digests were taken at commit
    905d1d3, before the per-axis geometry kernels, the candidate-only edge
    key sort and the node mark of the design nodes."""

    PINNED = {
        "square/64": {
            "trace": ("f8bff47a3b153446", "f6024f43d15e66d2", "5220860921940a56"),
            "lengths": "f347ae73a6027361", "b_target": "f67691f407ff3c3b",
            "magnetization": "4afa7ce934d3ca5e", "nodes": "571c8af54e14e317",
            "area_sums": "44aeb81aebc3439f",
        },
        "mini_motor/96": {
            "trace": ("6622aa09ff080a95", "ae391b81545f97c6", "abe4b17ef97faa5b"),
            "lengths": "b2da428cba28ede6", "b_target": "63b57127647437fe",
            "magnetization": "4743f5b372c52fba", "nodes": "5f79a5a3b56e2b8c",
            "area_sums": "2f1bcee3c33f6464",
        },
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_outputs(self, name):
        kind, resolution = name.split("/")
        prob = build_benchmark_problem(kind, int(resolution))
        obj, space = prob.objective, DesignSpace(prob.mesh)
        got = {
            "trace": tuple(digest(a) for a in (obj.trace.data, obj.trace.indices,
                                               obj.trace.indptr)),
            "lengths": digest(obj.lengths), "b_target": digest(obj.b_target),
            "magnetization": digest(prob.sources.magnetization),
            "nodes": digest(space.nodes),
            "area_sums": digest(space._area_sums),
        }
        assert got == self.PINNED[name]


class TestDefaultLevelset:
    def test_all_ferro_at_centroids(self, square):
        mesh = square.mesh
        psi = default_levelset(mesh)
        design = mesh.region == Region.DESIGN
        psi_c = psi[mesh.tris[design]].mean(axis=1)
        assert np.all(psi_c > 0.0)

    def test_mesh_without_design_refused(self):
        # the unit square is all AIR_FIXED
        with pytest.raises(ValueError, match="^mesh has no DESIGN region$"):
            default_levelset(unit_square_mesh(4))

    def test_zero_outside_design_nodes(self, square):
        mesh = square.mesh
        psi = default_levelset(mesh)
        dn = np.unique(mesh.tris[mesh.region == Region.DESIGN].ravel())
        off = np.setdiff1d(np.arange(mesh.n_nodes), dn)
        assert np.all(psi[off] == 0.0)
