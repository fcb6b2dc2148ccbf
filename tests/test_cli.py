import codecs
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from magtopt import cli, fem, material, problem_setup
from magtopt.cell_problems import load_table
from magtopt.mesh import Region, TriMesh
from magtopt.optimizer import OptimizerOptions

README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path, name="run.cfg", **overrides):
    base = {
        "problem": "square",
        "resolution": "16",
        "curve": "linear",
        "nu_linear": "1000",
        "t_max": "1.0",
        "n_samples": "3",
        "disc_radius": "100",
        "h0": "0.3",
        "n_theta": "32",
        "kappa_start": "0.1",
        "max_iter": "6",
        "snapshot_every": "0",
    }
    base.update(overrides)
    p = tmp_path / name
    p.write_text("# test configuration\n"
                 + "\n".join(f"{k} = {v}" for k, v in base.items()) + "\n")
    return p


#: a 7-point spline fit of the default law on 0.1-3 T, whose (nu s)' dips
#: just below min nu
MEASURED_SPLINE = ["0.1,3103.52", "0.5,3103.52", "1,3104.04", "1.5,3116.89",
                   "2,3237", "2.5,3898.46", "3,6510.34"]

#: a spline whose nu falls by a factor 3 between 1 and 1.5 T: (nu s)' is
#: negative near 3 T, so the flux map is not monotone
FALLING_SPLINE = ["0.1,3000", "0.5,3000", "1,3000", "1.5,1000", "2,900", "3,900"]


def write_spline(tmp_path, rows):
    p = tmp_path / "law.csv"
    p.write_text("s,nu\n" + "\n".join(rows) + "\n")
    return p


class TestConfig:
    def test_defaults_without_file(self):
        cfg = cli.load_config(None)
        assert cfg["problem"] == "square"

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("volume_fraction = 0.5\n")
        with pytest.raises(ValueError, match="unknown key"):
            cli.load_config(p)

    def test_line_without_equals_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("# comment\nresolution 24\n")
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(str(p))}:2: expected 'key = value'$"):
            cli.load_config(p)

    def test_repeated_key_rejected(self, tmp_path, caplog):
        p = write_config(tmp_path)
        p.write_text(p.read_text() + "resolution = 24\n")
        rc = cli.main(["validate-material", "--config", str(p),
                       "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        last = len(p.read_text().splitlines())
        assert f":{last}: key 'resolution' already set on line 3" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "ok.cfg"
        p.write_text("\n# comment\nresolution = 24  # trailing\n\n")
        assert cli.load_config(p)["resolution"] == "24"

    def test_byte_order_mark_accepted(self, tmp_path):
        # as a "UTF-8 with BOM" save writes it, before the first key
        text = "resolution = 24\ncurve = linear\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_bytes(text.encode())
        marked.write_bytes(codecs.BOM_UTF8 + text.encode())
        assert cli.load_config(marked) == cli.load_config(plain)

    def test_hash_stable_and_sensitive(self, tmp_path):
        p = write_config(tmp_path)
        c1 = cli.config_hash(cli.load_config(p))
        c2 = cli.config_hash(cli.load_config(p))
        assert c1 == c2
        p2 = write_config(tmp_path, name="other.cfg", resolution="32")
        assert cli.config_hash(cli.load_config(p2)) != c1

    def test_readme_lists_the_defaults(self):
        text = re.split(r"Keys and\s+defaults:", README.read_text())[1]
        block = text.split("```", 2)[1]
        documented = {}
        for line in block.splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                k, v = (s.strip() for s in line.split("=", 1))
                documented[k] = v
        assert documented == cli.DEFAULTS

    def test_defaults_match_the_library(self):
        # the disc and nu_linear have no library default: DEFAULTS is their
        # only statement
        curve, opts = material.MarroccoCurve(), OptimizerOptions()
        library = {
            "alpha": curve.alpha, "c": curve.c, "tau": curve.tau,
            "kappa_start": opts.kappa_start, "theta_tol_deg": opts.theta_tol_deg,
            "max_iter": opts.max_iter,
        }
        assert {k: type(v)(cli.DEFAULTS[k]) for k, v in library.items()} == library

    def test_hash_ignores_workers_only(self):
        base = cli.load_config(None)
        h = cli.config_hash(base)
        assert cli.config_hash(dict(base, workers="2")) == h
        for k in base:
            if k != "workers":
                assert cli.config_hash(dict(base, **{k: base[k] + "1"})) != h, k


class TestValidateMaterial:
    @pytest.mark.parametrize("curve", ["linear", "marrocco", "spline"])
    def test_monotone_law_passes(self, tmp_path, curve):
        spline = write_spline(tmp_path, MEASURED_SPLINE)
        cfg = write_config(tmp_path, curve=curve, spline_csv=str(spline))
        rc = cli.main(["validate-material", "--config", str(cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        report = (tmp_path / "out" / "material_report.txt").read_text()
        assert "delta quotient" in report
        assert report.startswith("# config=")
        m = float(re.search(r"monotonicity m = min eigenvalue *: (\S+) at s = ",
                            report).group(1))
        assert m > 0

    def test_non_monotone_law_refused(self, tmp_path, caplog):
        spline = write_spline(tmp_path, FALLING_SPLINE)
        cfg = write_config(tmp_path, curve="spline", spline_csv=str(spline))
        rc = cli.main(["validate-material", "--config", str(cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        m, s = (float(v) for v in re.search(
            r"not strongly monotone: m = (\S+) at s = (\S+) T", caplog.text).groups())
        assert m < -1e4 and 2.9 < s <= 3.0
        report = (tmp_path / "out" / "material_report.txt").read_text()
        assert f"monotonicity m = min eigenvalue    : {m:.6g} at s = {s:.6g} T (VIOLATED)" in report
        # the law also fails the delta quotient, a warning: the report flags
        # it without saying that a refused run proceeds
        assert "delta-quotient admissibility       : violated (warning)\n" in report
        assert "run proceeds" not in report

    @pytest.mark.parametrize("command", ["build-tables", "solve", "optimize"])
    def test_other_commands_refuse_a_non_monotone_law(self, tmp_path, caplog,
                                                      command):
        # refused before any solve or output file
        spline = write_spline(tmp_path, FALLING_SPLINE)
        cfg = write_config(tmp_path, curve="spline", spline_csv=str(spline))
        out = tmp_path / "out"
        rc = cli.main([command, "--config", str(cfg), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        [record] = [r for r in caplog.records if r.levelname == "ERROR"]
        assert re.fullmatch(r"flux map is not strongly monotone: m = \S+ at "
                            r"s = \S+ T", record.getMessage())
        for name in ("j2_case*.csv", "state.vtk", "iterations.csv"):
            assert not list(tmp_path.rglob(name))
        assert not out.exists()

    def test_marrocco_warns_but_passes(self, tmp_path, caplog):
        # the Marrocco law overshoots the slope bound in its saturation band:
        # the report flags it, and only the log says that the run proceeds
        cfg = write_config(tmp_path, curve="marrocco")
        rc = cli.main(["validate-material", "--config", str(cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "soft assumption violations reported; run proceeds" in caplog.text
        report = (tmp_path / "out" / "material_report.txt").read_text()
        assert "slope bounds on (nu s)'            : violated (warning)\n" in report
        assert "run proceeds" not in report

    @pytest.mark.parametrize("overrides, violated", [
        ({"nu_linear": "1e7"}, "value bounds [nu_min, nu_air]      : VIOLATED\n"),
        ({"curve": "marrocco", "alpha": "1.2"},
         "C3 smoothness / nu'(0)=0           : VIOLATED\n")],
        ids=["nu_above_nu_air", "alpha_1.2"])
    def test_hard_violation_refused(self, tmp_path, caplog, overrides, violated):
        # both laws are strongly monotone, so the hard checks refuse them
        cfg = write_config(tmp_path, **overrides)
        rc = cli.main(["validate-material", "--config", str(cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert "material law violates hard assumptions" in caplog.text
        assert "not strongly monotone" not in caplog.text
        report = (tmp_path / "out" / "material_report.txt").read_text()
        assert violated in report

    def test_malformed_spline_fails(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("s,nu\n0,1000\n1,oops\n2,3000\n3,4000\n")
        cfg = write_config(tmp_path, curve="spline", spline_csv=str(bad))
        rc = cli.main(["validate-material", "--config", str(cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG


class TestBuildTables:
    def test_linear_tables_are_zero(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["build-tables", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        for name in ("j2_case1.csv", "j2_case2.csv"):
            table = load_table(out / name)
            assert np.abs(table.j2_e1).max() < 1e-9

    def test_rebuild_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["build-tables", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(["build-tables", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("j2_case1.csv", "j2_case2.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_tmax_zero_single_row(self, tmp_path):
        cfg = write_config(tmp_path, t_max="0")
        out = tmp_path / "out"
        rc = cli.main(["build-tables", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert len(load_table(out / "j2_case1.csv").t) == 1

    @pytest.mark.parametrize("key, value", [
        ("h0", "0"), ("n_theta", "0"), ("n_theta", "2"), ("n_theta", "30"),
        ("disc_radius", "0.5"), ("disc_radius", "1"), ("disc_radius", "inf")])
    def test_bad_disc_rejected(self, tmp_path, caplog, key, value):
        cfg = write_config(tmp_path, **{key: value})
        out = tmp_path / "out"
        rc = cli.main(["build-tables", "--config", str(cfg), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert f"{key} = {value} " in caplog.text
        assert list(out.glob("*.csv")) == []

    @pytest.mark.parametrize("key, value", [
        ("h0", "0"), ("n_theta", "0"), ("n_theta", "2"), ("disc_radius", "0.5"),
        ("disc_radius", "1"), ("disc_radius", "inf")])
    def test_bad_disc_rejected_without_samples(self, tmp_path, caplog, key, value):
        # t_max = 0 solves no sample and meshes no disc
        cfg = write_config(tmp_path, t_max="0", **{key: value})
        out = tmp_path / "out"
        rc = cli.main(["build-tables", "--config", str(cfg), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert f"{key} = {value} " in caplog.text
        assert list(out.glob("*.csv")) == []

    def test_failed_sample_named(self, tmp_path, caplog, monkeypatch):
        # no Newton step allowed: the first non-zero sample fails
        monkeypatch.setattr(fem, "MAX_NEWTON", 0)
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["build-tables", "--config", str(cfg), "--out", str(out)])
        assert rc == cli.EXIT_SOLVER
        assert "table sample 1 (t = 0.5) failed: Newton did not converge" \
            in caplog.text
        assert list(out.glob("*.csv")) == []

    @pytest.mark.parametrize("t_max", ["nan", "-1", "inf"])
    def test_bad_tmax_rejected(self, tmp_path, caplog, t_max):
        cfg = write_config(tmp_path, t_max=t_max)
        out = tmp_path / "out"
        rc = cli.main(["build-tables", "--config", str(cfg), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert f"t_max = {t_max} must be finite and non-negative" in caplog.text
        assert not (out / "j2_case1.csv").exists()

    @pytest.mark.parametrize("n_samples", ["1", "0"])
    def test_too_few_samples_rejected(self, tmp_path, caplog, n_samples):
        cfg = write_config(tmp_path, t_max="2", n_samples=n_samples)
        out = tmp_path / "out"
        rc = cli.main(["build-tables", "--config", str(cfg), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert f"n_samples = {n_samples} must be at least 2" in caplog.text
        assert not (out / "j2_case1.csv").exists()


class TestOptimize:
    def test_end_to_end_square(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["optimize", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        lines = (out / "iterations.csv").read_text().strip().splitlines()
        assert lines[0].startswith("# config=")
        assert lines[1] == "k,J,theta_deg,kappa,ferro_fraction"
        js = [float(l.split(",")[1]) for l in lines[2:]]
        assert all(b < a for a, b in zip(js, js[1:]))
        assert (out / "design_final.vtk").exists()

    def test_headerless_target_file_rejected(self, tmp_path, caplog):
        # read past its first line, this file would be a constant -0.5 target
        target = tmp_path / "target.csv"
        target.write_text("0.0,0.5\n3.14159,-0.5\n")
        cfg = write_config(tmp_path, target_csv=str(target))
        out = tmp_path / "out"
        rc = cli.main(["optimize", "--config", str(cfg), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert f"{target}: line 1: expected header 'theta,b_d'" in caplog.text
        assert not (out / "j2_case1.csv").exists()

    @pytest.mark.parametrize("tamper, message", [
        ("reversed_triangle", "triangle with non-positive signed area"),
        ("no_design", "mesh has no DESIGN region")],
        ids=["reversed_triangle", "no_design"])
    def test_bad_mesh_refused(self, tmp_path, caplog, monkeypatch, tamper,
                              message):
        build = problem_setup.build_benchmark_problem

        def tampered(kind, resolution, b_target=None):
            prob = build(kind, resolution, b_target=b_target)
            mesh = prob.mesh
            tris, region = mesh.tris.copy(), mesh.region.copy()
            if tamper == "reversed_triangle":
                tris[0] = tris[0, ::-1]
            else:
                region[region == Region.DESIGN] = Region.AIR_FIXED
            return dataclasses.replace(prob, mesh=TriMesh(
                mesh.nodes, tris, region, mesh.bedges, mesh.btags))

        monkeypatch.setattr(problem_setup, "build_benchmark_problem", tampered)
        # t_max = 0 builds the tables without a cell problem
        cfg = write_config(tmp_path, t_max="0")
        out = tmp_path / "out"
        rc = cli.main(["optimize", "--config", str(cfg), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert message in caplog.text
        assert not (out / "iterations.csv").exists()

    def test_short_target_file_rejected(self, tmp_path, caplog):
        target = tmp_path / "target.csv"
        target.write_text("theta,b_d\n")
        cfg = write_config(tmp_path, target_csv=str(target))
        out = tmp_path / "out"
        rc = cli.main(["optimize", "--config", str(cfg), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert f"{target}: need one or more rows of theta,b_d" in caplog.text
        assert not (out / "iterations.csv").exists()

    @pytest.mark.parametrize("row", ["3.0,nan", "inf,0.2"], ids=["nan_b_d", "inf_theta"])
    def test_non_finite_target_rejected(self, tmp_path, caplog, row):
        target = tmp_path / "target.csv"
        target.write_text(f"theta,b_d\n0.5,0.2\n{row}\n")
        cfg = write_config(tmp_path, target_csv=str(target))
        out = tmp_path / "out"
        rc = cli.main(["optimize", "--config", str(cfg), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert f"{target}: line 3: bad row {row.split(',')!r}" in caplog.text
        assert not (out / "iterations.csv").exists()
        assert not (out / "j2_case1.csv").exists()

    @pytest.mark.parametrize("key, value", [("max_iter", "abc"),
                                            ("kappa_start", "fast"),
                                            ("snapshot_every", "1.5")])
    def test_bad_setting_rejected_before_tables(self, tmp_path, caplog,
                                                key, value):
        cfg = write_config(tmp_path, **{key: value})
        out = tmp_path / "out"
        rc = cli.main(["optimize", "--config", str(cfg), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert f"{key} = {value!r} is not a valid" in caplog.text
        assert not (out / "j2_case1.csv").exists()

    @pytest.mark.parametrize("key, value", [("kappa_start", "0"),
                                            ("theta_tol_deg", "nan"),
                                            ("max_iter", "-1"),
                                            ("snapshot_every", "-3")])
    def test_bad_option_rejected_before_tables(self, tmp_path, caplog, key,
                                               value):
        cfg = write_config(tmp_path, **{key: value})
        out = tmp_path / "out"
        rc = cli.main(["optimize", "--config", str(cfg), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert f"{key} = {value} " in caplog.text
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("overrides, name", [
        ({"nu_linear": "nan"}, "nu_linear"),
        ({"curve": "marrocco", "tau": "inf"}, "tau")],
        ids=["nan_nu_linear", "inf_tau"])
    def test_non_finite_curve_rejected_before_tables(self, tmp_path, caplog,
                                                     overrides, name):
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        rc = cli.main(["optimize", "--config", str(cfg), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert f"{name} = " in caplog.text and "must be finite" in caplog.text
        assert not (out / "j2_case1.csv").exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"growth": "nan"}, "growth = nan is not finite and >= 1"),
        ({"resolution": "4"}, "resolution = 4 must be at least 8"),
        ({"problem": "mini_motor", "resolution": "16"},
         "resolution = 16 must be at least 24"),
        ({"curve": "marrocco", "alpha": "0.4"}, "alpha = 0.4 must be at least 1"),
        ({"curve": "marrocco", "c": "1.5"}, "c = 1.5 must be in (0, 1)"),
        ({"curve": "marrocco", "tau": "-1"}, "tau = -1 must be positive"),
        ({"curve": "spline"}, "curve = spline requires spline_csv"),
        ({"curve": "bogus"}, "unknown curve kind 'bogus'")],
        ids=["growth", "resolution", "motor_resolution", "alpha", "c", "tau",
             "spline_without_csv", "unknown_curve"])
    def test_out_of_range_key_named(self, tmp_path, caplog, overrides, message):
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        rc = cli.main(["optimize", "--config", str(cfg), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert message in caplog.text
        assert not (out / "j2_case1.csv").exists()

    @pytest.mark.parametrize("value, message", [
        ("nan", "nu_linear = nan must be finite"),
        ("-1", "nu_linear = -1 must be positive")], ids=["nan", "negative"])
    def test_bad_nu_linear_named_as_configured(self, tmp_path, caplog, value,
                                               message):
        cfg = write_config(tmp_path, nu_linear=value)
        rc = cli.main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert message in caplog.text and "nu_const" not in caplog.text

    def test_snapshots_every_second_iteration(self, tmp_path):
        cfg = write_config(tmp_path, curve="marrocco", snapshot_every="2")
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        k = len((out / "iterations.csv").read_text().splitlines()) - 2
        assert k >= 4
        written = {p.name for p in out.glob("design_*.vtk")}
        assert written == {f"design_{i:04d}.vtk" for i in range(2, k + 1, 2)} \
            | {"design_final.vtk"}

    def test_resume_guard(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        rc = cli.main(["optimize", "--config", str(cfg), "--out", str(out)])
        assert rc == cli.EXIT_IO
        rc = cli.main(["optimize", "--config", str(cfg), "--out", str(out),
                       "--force"])
        assert rc == 0

    def test_determinism(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        cli.main(["optimize", "--config", str(cfg), "--out", str(out1)])
        cli.main(["optimize", "--config", str(cfg), "--out", str(out2)])
        assert ((out1 / "iterations.csv").read_bytes()
                == (out2 / "iterations.csv").read_bytes())

    def test_linear_run_stamped_with_its_config(self, tmp_path):
        cfg = write_config(tmp_path, curve="linear")
        out = tmp_path / "out"
        rc = cli.main(["optimize", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        table = load_table(out / "j2_case1.csv")
        assert np.abs(table.j2_e1).max() < 1e-9
        # the run is stamped with the hash of the configuration it ran
        header = (out / "iterations.csv").read_text().splitlines()[0]
        assert header == f"# config={cli.config_hash(cli.load_config(cfg))}"

    def _stamp_of_run(self, tmp_path, tables, name):
        cfg = write_config(tmp_path, name=f"{name}.cfg",
                           table_case1=str(tables / "j2_case1.csv"),
                           table_case2=str(tables / "j2_case2.csv"))
        out = tmp_path / name
        assert cli.main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        return (out / "iterations.csv").read_text().splitlines()[0]

    def test_stamp_same_for_identical_tables_at_two_paths(self, tmp_path):
        tables, copy = tmp_path / "tables", tmp_path / "copy"
        assert cli.main(["build-tables", "--config", str(write_config(tmp_path)),
                         "--out", str(tables)]) == 0
        copy.mkdir()
        for name in ("j2_case1.csv", "j2_case2.csv"):
            (copy / name).write_bytes((tables / name).read_bytes())
        assert (self._stamp_of_run(tmp_path, tables, "run1")
                == self._stamp_of_run(tmp_path, copy, "run2"))

    def test_stamp_moves_when_a_table_row_is_rewritten(self, tmp_path):
        tables = tmp_path / "tables"
        assert cli.main(["build-tables", "--config", str(write_config(tmp_path)),
                         "--out", str(tables)]) == 0
        before = self._stamp_of_run(tmp_path, tables, "run1")
        path = tables / "j2_case1.csv"
        lines = path.read_text().splitlines(keepends=True)
        t_last = lines[-1].split(",")[0]
        path.write_text("".join(lines[:-1]) + f"{t_last},1e-9,0\n")
        assert self._stamp_of_run(tmp_path, tables, "run2") != before


class TestTableGuards:
    def test_tables_for_another_curve_rejected(self, tmp_path, caplog):
        out = tmp_path / "out"
        cfg = write_config(tmp_path)
        assert cli.main(["build-tables", "--config", str(cfg),
                         "--out", str(out)]) == 0
        cfg2 = write_config(tmp_path, name="marrocco.cfg", curve="marrocco")
        rc = cli.main(["optimize", "--config", str(cfg2), "--out", str(out),
                       "--force"])
        assert rc == cli.EXIT_CONFIG
        assert "not the configured curve" in caplog.text
        assert not (out / "iterations.csv").exists()

    def _run_on_tables(self, tmp_path, built, configured):
        """(exit code, table path, output dir) of `optimize` under the
        overrides `configured`, reading the tables that build-tables wrote
        under the overrides `built`."""
        tables = tmp_path / "tables"
        assert cli.main(["build-tables", "--out", str(tables), "--config",
                         str(write_config(tmp_path, name="built.cfg", **built))]) == 0
        paths = {f"table_case{i}": str(tables / f"j2_case{i}.csv") for i in (1, 2)}
        run = write_config(tmp_path, **configured, **paths)
        out = tmp_path / "out"
        rc = cli.main(["optimize", "--config", str(run), "--out", str(out)])
        return rc, paths["table_case1"], out

    @pytest.mark.parametrize("key, built, configured", [
        ("disc_radius", "100", "200"), ("h0", "0.3", "0.25")])
    def test_tables_for_another_disc_rejected(self, tmp_path, caplog, key,
                                              built, configured):
        rc, path, out = self._run_on_tables(tmp_path, {key: built},
                                            {key: configured})
        assert rc == cli.EXIT_CONFIG
        # the file's h0 = 0.29999999999999999 reads as the float 0.3
        assert (f"{path}: table built on a disc with {key} = {float(built)!r}, "
                f"not the configured {key} = {float(configured)!r}") in caplog.text
        assert not (out / "iterations.csv").exists()

    def test_tables_for_the_configured_disc_load(self, tmp_path):
        # the file records h0 = 0.10000000000000001, the float 0.1
        rc, path, out = self._run_on_tables(tmp_path, {"h0": "0.1"}, {"h0": "0.1"})
        assert "h0=0.10000000000000001 " in Path(path).read_text()
        assert rc == 0
        assert (out / "iterations.csv").exists()
        assert not (out / "j2_case1.csv").exists()

    def test_disc_keys_checked_when_loading_tables(self, tmp_path, caplog):
        rc, _, out = self._run_on_tables(tmp_path, {}, {"n_theta": "30"})
        assert rc == cli.EXIT_CONFIG
        assert "n_theta = 30 is not a positive multiple of 4" in caplog.text
        assert not (out / "iterations.csv").exists()

    def test_case2_table_in_case1_slot_rejected(self, tmp_path, caplog):
        tables = tmp_path / "tables"
        cfg = write_config(tmp_path)
        assert cli.main(["build-tables", "--config", str(cfg),
                         "--out", str(tables)]) == 0
        swapped = write_config(tmp_path, name="swapped.cfg",
                               table_case1=str(tables / "j2_case2.csv"),
                               table_case2=str(tables / "j2_case1.csv"))
        out = tmp_path / "out"
        rc = cli.main(["optimize", "--config", str(swapped), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert "is case II, expected case I" in caplog.text
        assert not (out / "iterations.csv").exists()

    @pytest.mark.parametrize("command, same", [
        ("build-tables", "same.csv"), ("optimize", "out/j2_case2.csv")])
    def test_one_file_for_both_tables_refused(self, tmp_path, caplog, command,
                                              same):
        # one file would hold only the table written last: build-tables
        # wrote case I and then case II over it, and a later optimize found
        # case II in the case-I slot; "out/j2_case2.csv" is case II's default
        path = str(tmp_path / same)
        overrides = {"table_case1": path}
        if command == "build-tables":
            overrides["table_case2"] = path
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        rc = cli.main([command, "--config", str(cfg), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert (f"table_case1 ({path}) and table_case2 ({path}) name one file"
                in caplog.text)
        assert list(tmp_path.rglob("*.csv")) == []

    def test_header_only_table_rejected(self, tmp_path, caplog):
        tables = tmp_path / "tables"
        cfg = write_config(tmp_path)
        assert cli.main(["build-tables", "--config", str(cfg),
                         "--out", str(tables)]) == 0
        header_only = tmp_path / "header_only.csv"
        lines = (tables / "j2_case1.csv").read_text().splitlines(keepends=True)
        header_only.write_text("".join(l for l in lines
                                       if l.startswith(("#", "t,"))))
        bad = write_config(tmp_path, name="bad.cfg",
                           table_case1=str(header_only),
                           table_case2=str(tables / "j2_case2.csv"))
        out = tmp_path / "out"
        rc = cli.main(["optimize", "--config", str(bad), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert f"{header_only}: empty table" in caplog.text
        assert not (out / "iterations.csv").exists()

    def test_nan_table_value_rejected(self, tmp_path, caplog):
        tables = tmp_path / "tables"
        cfg = write_config(tmp_path)
        assert cli.main(["build-tables", "--config", str(cfg),
                         "--out", str(tables)]) == 0
        nan_row = tmp_path / "nan_row.csv"
        lines = (tables / "j2_case1.csv").read_text().splitlines(keepends=True)
        t_last = lines[-1].split(",")[0]
        nan_row.write_text("".join(lines[:-1]) + f"{t_last},nan,0\n")
        bad = write_config(tmp_path, name="bad.cfg",
                           table_case1=str(nan_row),
                           table_case2=str(tables / "j2_case2.csv"))
        out = tmp_path / "out"
        rc = cli.main(["optimize", "--config", str(bad), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert (f"{nan_row}: line {len(lines)}: bad row "
                f"{[t_last, 'nan', '0']!r}") in caplog.text
        assert not (out / "iterations.csv").exists()

    def test_one_missing_table_keeps_the_other(self, tmp_path, caplog):
        tables = tmp_path / "tables"
        cfg = write_config(tmp_path, t_max="2", n_samples="3")
        assert cli.main(["build-tables", "--config", str(cfg),
                         "--out", str(tables)]) == 0
        kept = tables / "j2_case1.csv"
        before = kept.read_bytes()
        missing = tmp_path / "missing.csv"
        # a rebuild on this run's grid would replace the kept table
        run = write_config(tmp_path, name="run2.cfg", t_max="1", n_samples="2",
                           table_case1=str(kept), table_case2=str(missing))
        out = tmp_path / "out"
        rc = cli.main(["optimize", "--config", str(run), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert (f"correction table {missing} does not exist, but {kept} does"
                in caplog.text)
        assert not (out / "iterations.csv").exists()
        assert not missing.exists()
        assert kept.read_bytes() == before


class TestOtherCommands:
    def test_solve_writes_vtk(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        text = (out / "state.vtk").read_text()
        assert "UNSTRUCTURED_GRID" in text
        assert "POINT_DATA" in text and "CELL_DATA" in text

    def test_bad_config_path(self, tmp_path):
        rc = cli.main(["solve", "--config", str(tmp_path / "nope.cfg"),
                       "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
