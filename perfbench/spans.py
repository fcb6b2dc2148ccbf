"""In-memory span tracing around magtopt's public functions, and the
per-layer metrics computed from the spans.

The tracer wraps functions from outside the library: every module attribute
of the `magtopt` package that refers to a traced function is replaced for the
duration of the traced run, so a name imported with `from .x import f` is
patched where it is looked up, not only where it is defined.
"""
from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                      # index into the span list, -1 at the root
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        """Traced version of `fn`; `attrs(args, kwargs, result)` returns the
        counts stored on the span, evaluated after the span has ended."""
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({"name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent,
                                    "run": s.run_id, **s.attrs}) + "\n")


class _ModuleProxy:
    """Stands in for a module attribute so that one of its functions can be
    wrapped without patching the module for every other user."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


# -- counts recorded on spans ---------------------------------------------

def _state_attrs(args, kwargs, res):
    return {"iterations": int(res.iterations)}


def _splu_attrs(args, kwargs, lu):
    return {"a_nnz": int(args[0].nnz), "lu_nnz": int(lu.L.nnz + lu.U.nnz)}


def _lookup_attrs(args, kwargs, value):
    table, grad_u, grad_p = args[:3]
    t = float(np.hypot(grad_u[0], grad_u[1]))
    s = float(np.hypot(grad_p[0], grad_p[1]))
    clamped = t != 0.0 and s != 0.0 and (t > table.t[-1] or t < table.t[0])
    return {"clamped": int(clamped)}


def _td_attrs(args, kwargs, td):
    return {"elements": int(td.element_values.size)}


def _run_attrs(args, kwargs, state):
    return {"iterations": int(state.k)}


#: (span name, module, function name, attrs hook). The span name's prefix
#: before the first dot is the layer.
TRACED = [
    ("mesh.generate_square_benchmark", "mesh", "generate_square_benchmark", None),
    ("mesh.generate_mini_motor", "mesh", "generate_mini_motor", None),
    ("mesh.generate_disc_mesh", "mesh", "generate_disc_mesh", None),
    ("problem_setup.build_benchmark_problem", "problem_setup",
     "build_benchmark_problem", None),
    ("problem_setup.eval_objective", "problem_setup", "eval_objective", None),
    ("problem_setup.assemble_adjoint_rhs", "problem_setup",
     "assemble_adjoint_rhs", None),
    ("material.flux_map", "material", "flux_map", None),
    ("material.flux_jacobian", "material", "flux_jacobian", None),
    ("material.nonlinearity", "material", "nonlinearity", None),
    ("fem.solve_state", "fem", "solve_state", _state_attrs),
    ("fem.solve_adjoint", "fem", "solve_adjoint", None),
    ("fem.assemble_stiffness", "fem", "assemble_stiffness", None),
    ("fem.assemble_flux_divergence", "fem", "assemble_flux_divergence", None),
    ("polarization.matrix_air_in_ferro", "polarization",
     "matrix_air_in_ferro", None),
    ("polarization.matrix_ferro_in_air", "polarization",
     "matrix_ferro_in_air", None),
    ("cell_problems.solve_direct_variation", "cell_problems",
     "solve_direct_variation", None),
    ("cell_problems.solve_adjoint_variation", "cell_problems",
     "solve_adjoint_variation", None),
    ("cell_problems.compute_correction", "cell_problems",
     "compute_correction", None),
    ("cell_problems.eval_correction", "cell_problems", "eval_correction",
     _lookup_attrs),
    ("cell_problems.save_table", "cell_problems", "save_table", None),
    ("cell_problems.load_table", "cell_problems", "load_table", None),
    ("topo_derivative.assemble_generalized_td", "topo_derivative",
     "assemble_generalized_td", _td_attrs),
    ("optimizer.run", "optimizer", "run", _run_attrs),
    ("optimizer.step", "optimizer", "step", None),
    ("vtkio.write_vtk", "vtkio", "write_vtk", None),
]


@contextmanager
def traced(tracer: Tracer):
    """Patch every `magtopt` module attribute that refers to a traced
    function (and SuperLU's `splu` as `fem` looks it up) for the duration of
    the block, then restore the originals."""
    import importlib
    fem = importlib.import_module("magtopt.fem")
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "magtopt" or n.startswith("magtopt."))]
    saved = []
    try:
        for name, modname, fname, attrs in TRACED:
            fn = getattr(importlib.import_module(f"magtopt.{modname}"), fname)
            wrapped = tracer.wrap(name, fn, attrs)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        saved.append((mod, key, val))
                        setattr(mod, key, wrapped)
        splu = tracer.wrap("fem.splu", fem.spla.splu, _splu_attrs)
        saved.append((fem, "spla", fem.spla))
        fem.spla = _ModuleProxy(fem.spla, splu=splu)
        yield tracer
    finally:
        for mod, key, val in reversed(saved):
            setattr(mod, key, val)


# -- span arithmetic --------------------------------------------------------

def self_times(spans: list[Span]) -> np.ndarray:
    """Per span: its duration minus the part of its interval covered by its
    direct children."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = np.empty(len(spans))
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for j in sorted(children.get(i, ()), key=lambda j: spans[j].start):
            lo = max(spans[j].start, s.start)
            hi = min(spans[j].end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[i] = s.duration - covered
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times for one traced run. Times named `*_s`
    are inclusive wall time of the outermost calls of the named functions;
    `*self_s` excludes the time covered by child spans."""
    selfs = self_times(spans)
    ancestors: list[frozenset] = []
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        up = frozenset() if s.parent < 0 else \
            ancestors[s.parent] | {spans[s.parent].name}
        ancestors.append(up)
        by_name.setdefault(s.name, []).append(i)

    def pick(names, under=None):
        names = (names,) if isinstance(names, str) else names
        idx = sorted(i for n in names for i in by_name.get(n, ()))
        return [i for i in idx if ancestors[i].isdisjoint(names)
                and (under is None or under in ancestors[i])]

    def secs(idx):
        return float(sum(spans[i].duration for i in idx))

    def attr(idx, key):
        return int(sum(spans[i].attrs.get(key, 0) for i in idx))

    def ratio(a, b):
        return float(a) / b if b else 0.0

    m = {}
    mesh = pick(("mesh.generate_square_benchmark", "mesh.generate_mini_motor",
                 "mesh.generate_disc_mesh"))
    m["mesh.gen_calls"], m["mesh.gen_s"] = len(mesh), secs(mesh)

    m["problem_setup.build_s"] = secs(pick("problem_setup.build_benchmark_problem"))
    obj = pick(("problem_setup.eval_objective", "problem_setup.assemble_adjoint_rhs"))
    m["problem_setup.objective_calls"] = len(obj)
    m["problem_setup.objective_s"] = secs(obj)

    flux = pick(("material.flux_map", "material.flux_jacobian",
                 "material.nonlinearity"))
    m["material.flux_calls"], m["material.flux_s"] = len(flux), secs(flux)

    state = pick("fem.solve_state")
    resid = pick("fem.assemble_flux_divergence", under="fem.solve_state")
    m["fem.state_solves"], m["fem.state_s"] = len(state), secs(state)
    m["fem.newton_iters"] = attr(state, "iterations")
    m["fem.newton_per_solve"] = ratio(m["fem.newton_iters"], len(state))
    m["fem.residual_evals"], m["fem.residual_s"] = len(resid), secs(resid)
    m["fem.halvings"] = len(resid) - len(state) - m["fem.newton_iters"]

    asm = pick("fem.assemble_stiffness")
    m["fem.assembly_calls"], m["fem.assembly_s"] = len(asm), secs(asm)
    lu = pick("fem.splu")
    m["fem.factorizations"], m["fem.factor_s"] = len(lu), secs(lu)
    m["fem.factor_fill"] = ratio(attr(lu, "lu_nnz"), attr(lu, "a_nnz"))
    adj = pick("fem.solve_adjoint")
    m["fem.adjoint_solves"], m["fem.adjoint_s"] = len(adj), secs(adj)

    pol = pick(("polarization.matrix_air_in_ferro",
                "polarization.matrix_ferro_in_air"))
    m["polarization.calls"], m["polarization.s"] = len(pol), secs(pol)

    direct = pick("cell_problems.solve_direct_variation")
    cadj = pick("cell_problems.solve_adjoint_variation")
    m["cell_problems.direct_calls"] = len(direct)
    m["cell_problems.direct_s"] = secs(direct)
    m["cell_problems.newton_iters"] = len(
        pick("fem.splu", under="cell_problems.solve_direct_variation"))
    m["cell_problems.adjoint_calls"] = len(cadj)
    m["cell_problems.adjoint_s"] = secs(cadj)
    m["cell_problems.correction_s"] = secs(pick("cell_problems.compute_correction"))
    look = pick("cell_problems.eval_correction")
    m["cell_problems.lookups"], m["cell_problems.lookup_s"] = len(look), secs(look)
    m["cell_problems.lookup_clamped"] = attr(look, "clamped")
    m["cell_problems.table_io_s"] = secs(
        pick(("cell_problems.save_table", "cell_problems.load_table")))

    td = pick("topo_derivative.assemble_generalized_td")
    m["topo_derivative.calls"] = len(td)
    m["topo_derivative.elements"] = attr(td, "elements")
    m["topo_derivative.self_s"] = float(sum(selfs[i] for i in td))

    runs = pick("optimizer.run")
    opt = by_name.get("optimizer.run", []) + by_name.get("optimizer.step", [])
    m["optimizer.iterations"] = attr(runs, "iterations")
    m["optimizer.trials"] = len(pick("fem.solve_state", under="optimizer.step"))
    m["optimizer.accept_ratio"] = ratio(m["optimizer.iterations"], m["optimizer.trials"])
    m["optimizer.self_s"] = float(sum(selfs[i] for i in opt))

    vtk = pick("vtkio.write_vtk")
    m["vtkio.writes"], m["vtkio.s"] = len(vtk), secs(vtk)
    return m
