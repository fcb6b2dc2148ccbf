"""Batch front-end: material validation, correction-table builds, single
solves and optimization runs.

Configuration is a flat `key = value` text file (# comments). Verbosity via
the MAGTOPT_LOG environment variable (DEBUG/INFO/WARNING/ERROR). Exit codes:
0 success, 1 refused input (ValueError), 2 solver failure (fem.SolverError),
3 I/O error (OSError).
"""
from __future__ import annotations

import argparse
import hashlib
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import cell_problems, fem, material, optimizer, problem_setup, vtkio
from .cell_problems import PerturbationCase
from .mesh import DiscSpec

log = logging.getLogger("magtopt.cli")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_IO = 3

DEFAULTS = {
    "problem": "square",
    "resolution": "32",
    "curve": "marrocco",           # marrocco | linear | spline
    "alpha": "4", "c": "0.0039", "tau": "1.52e6",
    "nu_linear": "1000",
    "spline_csv": "",
    "target_csv": "",
    "t_max": "3.0", "n_samples": "61",
    "disc_radius": "1000", "h0": "0.05", "growth": "1.15", "n_theta": "128",
    "table_case1": "", "table_case2": "",
    "kappa_start": "0.1", "theta_tol_deg": "1.0", "max_iter": "400",
    "snapshot_every": "10",
    "workers": "1",
}


def load_config(path) -> dict:
    cfg = dict(DEFAULTS)
    if path:
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
        except OSError as exc:
            raise ValueError(f"cannot read config: {exc}") from exc
        seen = {}
        for ln, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected 'key = value'")
            k, v = (s.strip() for s in line.split("=", 1))
            if k not in DEFAULTS:
                raise ValueError(f"{path}:{ln}: unknown key {k!r}")
            if k in seen:
                raise ValueError(
                    f"{path}:{ln}: key {k!r} already set on line {seen[k]}")
            seen[k] = ln
            cfg[k] = v
    return cfg


#: keys that name an input file
_FILE_KEYS = ("spline_csv", "target_csv", "table_case1", "table_case2")


def config_hash(cfg: dict) -> str:
    """Short hash of the settings that can change a result. An input-file key
    that names an existing file counts by the file's bytes, not its path;
    `workers` only schedules the table build, whose output it leaves
    bit-identical."""
    def value(k):
        if k in _FILE_KEYS and Path(cfg[k]).is_file():
            return "sha256:" + hashlib.sha256(Path(cfg[k]).read_bytes()).hexdigest()
        return cfg[k]

    canon = "\n".join(f"{k}={value(k)}" for k in sorted(cfg) if k != "workers")
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _parse(cfg: dict, key: str, kind=float):
    """cfg[key] as a `kind`; ValueError naming the key if it is not."""
    try:
        return kind(cfg[key])
    except ValueError:
        raise ValueError(
            f"{key} = {cfg[key]!r} is not a valid {kind.__name__}") from None


def build_curve(cfg: dict):
    kind = cfg["curve"]
    if kind == "marrocco":
        return material.MarroccoCurve(alpha=_parse(cfg, "alpha"),
                                      c=_parse(cfg, "c"), tau=_parse(cfg, "tau"))
    if kind == "linear":
        return material.LinearCurve(nu_linear=_parse(cfg, "nu_linear"))
    if kind == "spline":
        if not cfg["spline_csv"]:
            raise ValueError("curve = spline requires spline_csv")
        return material.SplineCurve.from_csv(cfg["spline_csv"])
    raise ValueError(f"unknown curve kind {kind!r}")


def disc_spec(cfg: dict) -> DiscSpec:
    """The config's DiscSpec; ValueError naming the config key of the first
    disc parameter out of range."""
    return DiscSpec(disc_radius=_parse(cfg, "disc_radius"), h0=_parse(cfg, "h0"),
                    growth=_parse(cfg, "growth"), n_theta=_parse(cfg, "n_theta", int))


def _prepare_out(out: str, force: bool) -> Path:
    path = Path(out)
    if path.exists() and any(path.iterdir()) and not force:
        raise FileExistsError(f"output dir {out} is not empty (use --force)")
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate_material(cfg, args) -> int:
    curve = build_curve(cfg)
    report = material.validate_assumptions(curve)
    out = _prepare_out(args.out, args.force)
    text = (f"# config={config_hash(cfg)}\n"
            + report.summary() + "\n")
    (out / "material_report.txt").write_text(text)
    print(report.summary())
    if report.m <= 0:
        log.error("flux map is not strongly monotone: m = %.6g at s = %.6g T",
                  report.m, report.m_at)
        return EXIT_CONFIG
    if not (report.bounds_ok and report.c3_smoothness_ok):
        log.error("material law violates hard assumptions")
        return EXIT_CONFIG
    if not report.admissibility_ok or not report.slope_bounds_ok:
        log.warning("soft assumption violations reported; run proceeds")
    return EXIT_OK


def _table_paths(cfg, out: Path):
    """The paths of the case I and case II tables; ValueError if they name
    one file, which would hold only the table written last."""
    p1 = Path(cfg["table_case1"] or out / "j2_case1.csv")
    p2 = Path(cfg["table_case2"] or out / "j2_case2.csv")
    if p1.resolve() == p2.resolve():
        raise ValueError(f"table_case1 ({p1}) and table_case2 ({p2}) name one "
                         "file; each case needs its own")
    return p1, p2


def _build_tables(cfg, curve, out: Path):
    """Build both correction tables on the configured grid and disc, save
    them to their configured paths, and return them (case I, case II)."""
    spec, workers = disc_spec(cfg), _parse(cfg, "workers", int)
    t_max, n = _parse(cfg, "t_max"), _parse(cfg, "n_samples", int)
    if not (np.isfinite(t_max) and t_max >= 0.0):
        raise ValueError(f"t_max = {t_max:g} must be finite and non-negative")
    if t_max > 0 and n < 2:
        raise ValueError(f"n_samples = {n} must be at least 2 when t_max > 0")
    grid = np.linspace(0.0, t_max, n) if t_max > 0 else np.array([0.0])
    # the table paths name this build's outputs, not inputs
    h = config_hash(dict(cfg, table_case1="", table_case2=""))
    tables = []
    for case, path in zip(PerturbationCase, _table_paths(cfg, out)):
        log.info("building correction table %s -> %s", case.value, path)
        table = cell_problems.build_correction_table(curve, case, grid, spec,
                                                     workers=workers)
        cell_problems.save_table(path, table, config_hash=h)
        tables.append(table)
    return tuple(tables)


def cmd_build_tables(cfg, args) -> int:
    curve = build_curve(cfg)
    _build_tables(cfg, curve, _prepare_out(args.out, args.force))
    if isinstance(curve, material.LinearCurve):
        log.info("linear stub: both tables are identically zero")
    return EXIT_OK


def _load_or_build_tables(cfg, curve, out: Path):
    """Tables from the configured paths if both exist, else freshly built;
    if only one exists, ValueError, since a build would overwrite it.
    A loaded table must match the curve, its slot's case and the configured
    disc's radius and h0 (the ones its file records)."""
    spec, paths = disc_spec(cfg), _table_paths(cfg, out)
    missing = [p for p in paths if not p.exists()]
    if len(missing) == 1:
        present, = set(paths) - set(missing)
        raise ValueError(f"correction table {missing[0]} does not exist, but "
                         f"{present} does; building the pair would overwrite it")
    if missing:
        log.info("correction tables missing; building them first")
        return _build_tables(cfg, curve, out)
    log.info("loading correction tables from %s, %s", *paths)
    tables = tuple(cell_problems.load_table(p) for p in paths)
    for case, path, table in zip(PerturbationCase, paths, tables):
        if table.case is not case:
            raise ValueError(f"{path}: table is case {table.case.value}, "
                             f"expected case {case.value}")
        if table.curve_hash != curve.cache_key():
            raise ValueError(f"{path}: table built for curve {table.curve_hash}, "
                             f"not the configured curve {curve.cache_key()}")
        for key, built, configured in (("disc_radius", table.radius, spec.disc_radius),
                                       ("h0", table.h0, spec.h0)):
            if built != configured:
                raise ValueError(f"{path}: table built on a disc with {key} = "
                                 f"{built!r}, not the configured {key} = "
                                 f"{configured!r}")
    return tables


def _build_problem(cfg):
    target = None
    if cfg["target_csv"]:
        target = problem_setup.load_target_csv(cfg["target_csv"])
    return problem_setup.build_benchmark_problem(cfg["problem"],
                                                 _parse(cfg, "resolution", int),
                                                 b_target=target)


def cmd_solve(cfg, args) -> int:
    curve = build_curve(cfg)
    out = _prepare_out(args.out, args.force)
    prob = _build_problem(cfg)
    res = fem.solve_state(prob.mesh, curve, sources=prob.sources)
    j = problem_setup.eval_objective(prob.mesh, res.field, prob.objective)
    log.info("state solved in %d Newton iterations, objective %.6e",
             res.iterations, j)
    gu = prob.mesh.element_gradients(res.field)
    vtkio.write_vtk(out / "state.vtk", prob.mesh,
                    point_data={"u": res.field},
                    cell_data={"B_magnitude": np.hypot(gu[:, 0], gu[:, 1]),
                               "region": prob.mesh.region.astype(float)},
                    title=f"magtopt state config={config_hash(cfg)}")
    print(f"objective = {j:.17g}")
    return EXIT_OK


def cmd_optimize(cfg, args) -> int:
    curve = build_curve(cfg)
    prob = _build_problem(cfg)
    opts = optimizer.OptimizerOptions(
        kappa_start=_parse(cfg, "kappa_start"),
        theta_tol_deg=_parse(cfg, "theta_tol_deg"),
        max_iter=_parse(cfg, "max_iter", int))
    every = _parse(cfg, "snapshot_every", int)
    if every < 0:
        raise ValueError(f"snapshot_every = {every} is negative")
    out = _prepare_out(args.out, args.force)
    t1, t2 = _load_or_build_tables(cfg, curve, out)
    h = config_hash(cfg)

    def snapshot(state):
        if every > 0 and state.k % every == 0:
            psi = state.psi.expand()
            vtkio.write_vtk(out / f"design_{state.k:04d}.vtk", prob.mesh,
                            point_data={"psi": psi},
                            title=f"magtopt design k={state.k} config={h}")

    state = optimizer.run(prob, curve, t1, t2, opts, callback=snapshot)

    with open(out / "iterations.csv", "w") as f:
        f.write(f"# config={h}\n")
        f.write("k,J,theta_deg,kappa,ferro_fraction\n")
        for r in state.records:
            f.write(f"{r.k},{r.objective:.17g},{r.theta_deg:.17g},"
                    f"{r.kappa:.17g},{r.ferro_fraction:.17g}\n")
    indicator = state.solution.ferro_mask.astype(float)
    vtkio.write_vtk(out / "design_final.vtk", prob.mesh,
                    point_data={"psi": state.psi.expand()},
                    cell_data={"ferro": indicator},
                    title=f"magtopt final design config={h}")
    if isinstance(curve, material.LinearCurve):
        log.info("linear stub: correction term contributed exactly zero")
    print(f"status = {state.status}, iterations = {state.k}, "
          f"final objective = {state.objective:.17g}")
    return EXIT_OK


COMMANDS = {
    "validate-material": cmd_validate_material,
    "build-tables": cmd_build_tables,
    "solve": cmd_solve,
    "optimize": cmd_optimize,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="magtopt",
        description="Topological-derivative topology optimization for "
                    "2D nonlinear magnetostatics")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="key = value file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--force", action="store_true",
                        help="allow writing into a non-empty output directory")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=getattr(logging, os.environ.get("MAGTOPT_LOG", "INFO").upper(),
                      logging.INFO),
        format="%(levelname)s %(name)s: %(message)s")

    try:
        return COMMANDS[args.command](load_config(args.config), args)
    except ValueError as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    except fem.SolverError as exc:
        log.error("solver failure: %s", exc)
        return EXIT_SOLVER
    except OSError as exc:
        log.error("I/O failure: %s", exc)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
