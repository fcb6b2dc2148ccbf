#!/usr/bin/env python3
"""magtopt benchmark: time to solution of descent runs and table builds,
with per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload optimize-square --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; magtopt is imported from `src/`.
The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. `--workload all` runs
every workload untraced, traced and untraced again in child processes and
prints each metric with its unit, the failed fraction and the tracing
overhead.
Scratch output goes to `.bench_build/perfbench/` in the checkout.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: extra cold set-ups before and again after the timed units of an untraced
#: run; with the unit's own set-up and the probes taken inside it (see
#: workloads.StepClock) they make the samples setup_s averages
N_EXTRA_SETUPS = 4


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(ln.split(":", 1)[1].strip() for ln in f
                       if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).exists():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit,
            "threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run: (result object, extra information)."""
    import numpy as np

    import checks
    import spans
    import workloads

    wl = workloads.WORKLOADS[name]
    WORK.mkdir(parents=True, exist_ok=True)
    wl.prepare(WORK)
    out = WORK / "runs" / f"{name}-seed{seed}-{os.getpid()}"
    setup_s, solve_s, steps, failures = [], [], [], []
    layer, self_by_span = None, {}
    attempted = failed = 0

    def timed_setup():
        # every timed region starts from an empty collector, as in a fresh
        # process, so that collections owed by earlier work do not land in it
        gc.collect()
        t0 = time.perf_counter()
        ctx = wl.setup()
        setup_s.append(time.perf_counter() - t0)
        return ctx

    begin = time.perf_counter()
    if not trace:
        for _ in range(N_EXTRA_SETUPS):
            timed_setup()
    while True:
        attempted += 1
        tracer = spans.Tracer(f"{name}-seed{seed}-{os.getpid()}") if trace else None
        clock = workloads.StepClock(None if trace else timed_setup)
        try:
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            with spans.traced(tracer) if trace else nullcontext():
                ctx = timed_setup()
                inp = wl.inputs(ctx, seed)
                gc.collect()
                t0 = clock.now()
                result = wl.run(ctx, inp, out, clock)
                t1 = clock.now()
            run_steps, bad = wl.check(ctx, inp, result, clock, out, seed)
            if trace:
                layer = spans.layer_metrics(tracer.spans)
                bad += checks.check_trace(layer, isinstance(wl, workloads.Optimize))
                layer["trace.time_to_solution_s"] = t1 - t0
                layer["trace.spans"] = len(tracer.spans)
                selfs = spans.self_times(tracer.spans)
                for s, v in zip(tracer.spans, selfs):
                    self_by_span[s.name] = self_by_span.get(s.name, 0.0) + float(v)
                (WORK / "spans").mkdir(exist_ok=True)
                tracer.write(WORK / "spans" / f"{name}-seed{seed}.jsonl")
        except Exception:   # a failed run is counted, reported and ends the loop
            traceback.print_exc()
            failed += 1
            failures.append("raised: " + traceback.format_exc().splitlines()[-1])
            break
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if bad:
            failed += 1
            failures += bad
            break
        solve_s.append(t1 - t0)
        steps += run_steps
        if trace or time.perf_counter() - begin + (t1 - t0) > seconds:
            break
    if not trace and not failed:
        for _ in range(N_EXTRA_SETUPS):
            timed_setup()

    spec = benchmark_spec()
    metrics = {}
    p50 = p75 = None
    if steps:
        p50, p75 = (float(v) for v in np.percentile(steps, [50, 75]) * 1e3)
    if not failed:
        if trace:
            values = layer
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            values = {"setup_s": statistics.fmean(setup_s),
                      "time_to_solution_s": statistics.median(solve_s),
                      "peak_rss_mb": resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}
    info = {"workload": name, "seed": seed, "trace": int(trace),
            "runs": attempted, "step_samples": len(steps),
            "step_p50_ms": p50, "step_p75_ms": p75, "setup_samples": len(setup_s),
            "failed_fraction": failed / attempted, "failures": failures,
            "self_s_by_span": self_by_span, "env": environment()}
    return ({"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": metrics}, info)


def summary(seed: int, seconds: float) -> int:
    """Every workload untraced, traced and untraced again, each in a child
    process; the tracing overhead compares the traced run with the mean of
    the two untraced runs around it, which halves the effect of the
    machine's speed drifting between runs."""
    spec = benchmark_spec()
    status = 0
    for w in spec["workloads"]:
        res = []
        for trace in (0, 1, 0):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   w["name"], "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                print(f"{w['name']} trace={trace}: FAILED (exit {proc.returncode})")
                status = 1
                break
            res.append((json.loads(lines[-1]), json.loads(lines[-2][len("info "):])))
        if len(res) < 3:
            continue
        (e2e, info0), (per_layer, info1), (e2e_after, _) = res
        print(f"== {w['name']}: {w['why']}")
        print(f"   units {info0['runs']}, set-up samples {info0['setup_samples']}, "
              f"failed_fraction {info0['failed_fraction']:g} "
              f"({e2e['failed']}/{e2e['attempted']})")
        for k, m in e2e["metrics"].items():
            print(f"   {k:34s} {m['value']:14.6g} {m['unit']}")
        for k in ("step_p50_ms", "step_p75_ms"):
            print(f"   {k:34s} {info0[k]:14.6g} ms "
                  f"(of {info0['step_samples']} steps; not gated)")
        ttsu = statistics.fmean(r["metrics"]["time_to_solution_s"]["value"]
                                for r in (e2e, e2e_after))
        ttst = per_layer["metrics"]["trace.time_to_solution_s"]["value"]
        print(f"   tracing overhead {100.0 * (ttst / ttsu - 1.0):+.1f}% "
              f"(traced {ttst:.3f} s against untraced {ttsu:.3f} s, "
              f"the mean of the runs before and after it)")
        print("   per layer (traced run):")
        for k, m in per_layer["metrics"].items():
            print(f"   {k:34s} {m['value']:14.6g} {m['unit']}")
        print("   self time by span (traced run):")
        for k, v in sorted(info1["self_s_by_span"].items(), key=lambda kv: -kv[1]):
            print(f"   {k:44s} {v:10.4f} s")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 gives the shipped inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring budget (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "magtopt").is_dir():
        print(f"error: no magtopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload == "all":
        return summary(args.seed, seconds)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result, info = measure(args.workload, args.seed, seconds, bool(args.trace))
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    sys.exit(main())
