"""Correctness checks applied to every benchmark run. Each check returns a
list of failure messages; an empty list means the run is correct."""
from __future__ import annotations

import numpy as np

TERMINAL_STATUSES = ("converged", "stalled", "max_iter")
#: relative tolerance on J against a fresh solve and against the reference
J_RTOL = 1e-9
#: relative tolerance on table values against the reference
TABLE_RTOL = 1e-10
#: the e2 column is zero in the continuum; on the symmetric disc it must stay
#: at round-off relative to the e1 column
E2_ROUNDOFF = 1e-9


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_descent(status: str, iterations: int, j_initial: float,
                  history: list[float], j_final: float,
                  j_fresh: float, reference: dict | None = None) -> list[str]:
    """Descent run: valid terminal status, strictly decreasing J, final J
    equal to a fresh solve of the final design, and (default seed) equal
    to the stored reference trajectory summary."""
    bad = []
    if status not in TERMINAL_STATUSES:
        bad.append(f"invalid terminal status {status!r}")
    if len(history) != iterations:
        bad.append(f"{len(history)} records for {iterations} iterations")
    js = [j_initial] + list(history)
    if any(b >= a for a, b in zip(js, js[1:])):
        bad.append("objective does not strictly decrease")
    if history and history[-1] != j_final:
        bad.append("final objective differs from the last record")
    if _rel(j_final, j_fresh) > J_RTOL:
        bad.append(f"final J {j_final!r} differs from a fresh solve {j_fresh!r}")
    if reference is not None:
        if status != reference["status"] or iterations != reference["iterations"]:
            bad.append(f"trajectory {status}/{iterations} differs from reference "
                       f"{reference['status']}/{reference['iterations']}")
        if _rel(j_final, reference["objective"]) > J_RTOL:
            bad.append(f"final J {j_final!r} differs from reference "
                       f"{reference['objective']!r}")
    return bad


def check_table(name: str, t, j2_e1, j2_e2, reference: dict | None = None) -> list[str]:
    """Correction table: zero row at t = 0, e2 column at round-off relative
    to e1, and (default seed) values equal to the stored reference."""
    t, e1, e2 = (np.asarray(a, dtype=float) for a in (t, j2_e1, j2_e2))
    bad = []
    if t[0] != 0.0 or e1[0] != 0.0 or e2[0] != 0.0:
        bad.append(f"{name}: t = 0 row is not zero")
    scale = max(float(np.abs(e1).max()), 1.0)
    if float(np.abs(e2).max()) > E2_ROUNDOFF * scale:
        bad.append(f"{name}: e2 column exceeds round-off "
                   f"({float(np.abs(e2).max()):.3g})")
    if reference is not None:
        ref = {k: np.asarray(reference[k], dtype=float) for k in ("t", "j2_e1", "j2_e2")}
        if ref["t"].shape != t.shape or not np.array_equal(ref["t"], t):
            bad.append(f"{name}: grid differs from reference")
        else:
            # e2 is round-off, so both columns are compared at the e1 scale
            ref_scale = float(np.abs(ref["j2_e1"]).max())
            for col, got in (("j2_e1", e1), ("j2_e2", e2)):
                dev = float(np.abs(got - ref[col]).max())
                if dev > TABLE_RTOL * ref_scale:
                    bad.append(f"{name}: {col} differs from reference by {dev:.3g}")
    return bad


def check_trace(metrics: dict, descent: bool) -> list[str]:
    """Traced run: halvings are never negative and, on a descent run, every
    κ trial is one state solve besides the initial one."""
    bad = []
    if metrics["fem.halvings"] < 0:
        bad.append(f"fem.halvings is negative ({metrics['fem.halvings']})")
    if descent and metrics["optimizer.trials"] != metrics["fem.state_solves"] - 1:
        bad.append(f"optimizer.trials {metrics['optimizer.trials']} != "
                   f"fem.state_solves {metrics['fem.state_solves']} - 1")
    return bad
