import numpy as np
import pytest

from magtopt import cli
from magtopt.cell_problems import load_table

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


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


class TestConfig:
    def test_defaults_without_file(self):
        cfg = cli.load_config(None)
        assert cfg["problem"] == "square"

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("volume_fraction = 0.5\n")
        with pytest.raises(cli.ConfigError, match="unknown key"):
            cli.load_config(p)

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "ok.cfg"
        p.write_text("\n# comment\nresolution = 24  # trailing\n\n")
        assert cli.load_config(p)["resolution"] == "24"

    def test_hash_stable_and_sensitive(self, tmp_path):
        p = write_config(tmp_path)
        c1 = cli.config_hash(cli.load_config(p))
        c2 = cli.config_hash(cli.load_config(p))
        assert c1 == c2
        p2 = write_config(tmp_path, name="other.cfg", resolution="32")
        assert cli.config_hash(cli.load_config(p2)) != c1


class TestValidateMaterial:
    def test_linear_ok(self, tmp_path):
        cfg = write_config(tmp_path)
        rc = cli.main(["validate-material", "--config", str(cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        report = (tmp_path / "out" / "material_report.txt").read_text()
        assert "delta quotient" in report
        assert report.startswith("# config=")

    def test_marrocco_warns_but_passes(self, tmp_path):
        cfg = write_config(tmp_path, curve="marrocco")
        rc = cli.main(["validate-material", "--config", str(cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == 0

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

    def test_short_target_file_rejected(self, tmp_path, caplog):
        target = tmp_path / "target.csv"
        target.write_text("theta,b_d\n")
        cfg = write_config(tmp_path, target_csv=str(target))
        out = tmp_path / "out"
        rc = cli.main(["optimize", "--config", str(cfg), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert f"{target}: need one or more rows of theta,b_d" in caplog.text
        assert not (out / "iterations.csv").exists()

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

    def test_linear_flag_overrides_curve(self, tmp_path):
        cfg = write_config(tmp_path, curve="marrocco")
        out = tmp_path / "out"
        rc = cli.main(["optimize", "--config", str(cfg), "--out", str(out),
                       "--linear"])
        assert rc == 0
        table = load_table(out / "j2_case1.csv")
        assert np.abs(table.j2_e1).max() < 1e-9
        # the run is stamped with the hash of the configuration it ran
        ran = cli.load_config(cfg)
        ran["curve"] = "linear"
        header = (out / "iterations.csv").read_text().splitlines()[0]
        assert header == f"# config={cli.config_hash(ran)}"


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

    def test_case2_table_in_case1_slot_rejected(self, tmp_path, caplog):
        tables = tmp_path / "tables"
        cfg = write_config(tmp_path)
        assert cli.main(["build-tables", "--config", str(cfg),
                         "--out", str(tables)]) == 0
        swapped = write_config(tmp_path, name="swapped.cfg",
                               table_case1=str(tables / "j2_case2.csv"),
                               table_case2=str(tables / "j2_case2.csv"))
        out = tmp_path / "out"
        rc = cli.main(["optimize", "--config", str(swapped), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert "is case II, expected case I" in caplog.text
        assert not (out / "iterations.csv").exists()

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
        assert f"{nan_row}: table j2 values must be finite" in caplog.text
        assert not (out / "iterations.csv").exists()


class TestOtherCommands:
    def test_solve_writes_vtk(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        text = (out / "state.vtk").read_text()
        assert "UNSTRUCTURED_GRID" in text
        assert "POINT_DATA" in text and "CELL_DATA" in text

    def test_export(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["export", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert (out / "mesh.vtk").exists()
        assert (out / "mesh.txt").read_text().startswith("meshv1")

    def test_selftest_passes(self, tmp_path):
        cfg = write_config(tmp_path)
        rc = cli.main(["selftest", "--config", str(cfg),
                       "--out", str(tmp_path / "out")])
        assert rc == 0

    def test_bad_config_path(self, tmp_path):
        rc = cli.main(["solve", "--config", str(tmp_path / "nope.cfg"),
                       "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
