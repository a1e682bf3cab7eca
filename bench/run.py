"""polyshallow benchmark entry point.

    python3 bench/run.py --workload falsify_embed --seed 1 --seconds 60 --trace 0

Runs one workload (falsify_embed or solve) closed-loop in this
process: one thread, one op at a time. The inputs come from ``--seed``;
``--seconds`` sizes the run. Every op's output is validated after the timed
region. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's details (machine readings, exact work counts and the output
digest).

``--trace 0`` reports the end-to-end metrics. The op list runs in passes
until ``--seconds`` are used up, and an op's latency is the best of its
timings, so that it misses the slow spells of a shared machine as far as
the run allows. After ``MIN_PASSES`` full passes, a pass re-runs only the
ops with no calm timing yet (see ``Probe``), a short one up to ``TRIES``
times. ``--trace 1`` reports the per-layer metrics: each op runs once
untraced and once under the span wrappers of ``tracing.py``, and the spans
are written to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_PASSES = 3
# an op shorter than SHORT_S with no calm timing yet is timed up to TRIES
# times a pass: calm spells are short, and such tries cost little
SHORT_S = 0.005
TRIES = 4
SETUP_SLOTS = 2  # set-up slots in a run, besides the one at its end
SETUP_SLOT_S = 0.25
WORKLOAD_NAMES = ("falsify_embed", "solve")


def calibrate_ms() -> float:
    """Time of a fixed pure-Python job: sorting 3,000 seeded Fractions."""
    rng = random.Random(3000)
    values = [Fraction(rng.randint(1, 10**6), rng.randint(1, 1000)) for _ in range(3000)]
    t0 = perf_counter()
    sorted(values)
    return (perf_counter() - t0) * 1e3


def run_op(op):
    try:
        return op.run()
    except Exception as exc:  # a crash is a wrong answer, reported by validate()
        return exc


def validate(ops, outputs):
    """Checks every output; returns (failed, wrong, first reasons)."""
    from workloads import WRONG

    failed, wrong, reasons = 0, 0, []
    for op, out in zip(ops, outputs):
        bad = (WRONG, f"raised {out!r}") if isinstance(out, Exception) else op.check(out)
        if bad is None:
            continue
        failed += 1
        wrong += bad[0] == WRONG
        if len(reasons) < 5:
            reasons.append(f"{op.kind}: {bad[0]}: {bad[1]}")
    return failed, wrong, reasons


def canon_of(op, out) -> str:
    return f"raised:{type(out).__name__}|" if isinstance(out, Exception) else op.canon(out)


def work_counts(ops, outputs, canons) -> dict:
    from polyshallow import solvers

    hist = Counter(f"{op.kind}/{c.split('|', 1)[0]}" for op, c in zip(ops, canons))
    results = (r for out in outputs for r in (out if isinstance(out, tuple) else (out,)))
    nodes = sum(r.stats.nodes for r in results if isinstance(r, solvers.SolveResult))
    digest = hashlib.sha256("\n".join(canons).encode()).hexdigest()
    return {"outcomes": dict(sorted(hist.items())), "solver_nodes": nodes, "digest": digest}


class Probe:
    """A 0.3 ms pure-Python job timed between ops. On a shared machine the
    CPU alternates between calm spells, mostly 1 to 10 ms long, and slow
    ones, in which everything runs up to 2 times slower. A timing is calm
    when the probes on both sides of it were within CALM of the fastest
    probe of the run. Short ops soon get a calm timing and drop out of the
    later passes, which leaves the time to the long ops, whose best timing
    keeps improving with more tries."""

    CALM = 1.2

    def __init__(self):
        rng = random.Random(150)
        self.values = [Fraction(rng.randint(1, 10**6), rng.randint(1, 1000)) for _ in range(150)]
        self.floor = float("inf")

    def __call__(self) -> float:
        t0 = perf_counter()
        sorted(self.values)
        dt = perf_counter() - t0
        self.floor = min(self.floor, dt)
        return dt

    def calm(self, dt: float) -> bool:
        return dt <= self.CALM * self.floor


def untraced_run(wl, raw, workdir, detail, seconds):
    """Set-up runs before the first pass, again each time another
    1/SETUP_SLOTS of the run has passed, and at its end, each time repeated
    until SETUP_SLOT_S has passed, so its median samples the machine across
    the run like the op times do. The ops of the first slot are the ones
    timed. Passes go on while the last one still fits in ``seconds``."""
    setup_times = []

    def timed_setup():
        spent = 0.0
        while True:
            ops = None  # at most one set-up beside the timed ops, for a steady peak RSS
            gc.collect()
            t0 = perf_counter()
            ops = wl.setup(raw, workdir)
            setup_times.append(perf_counter() - t0)
            spent += setup_times[-1]
            if spent >= SETUP_SLOT_S:
                return ops

    t_begin = perf_counter()
    deadline = t_begin + seconds
    ops = timed_setup()
    next_slot = t_begin + seconds / SETUP_SLOTS
    detail["calibration_ms"].append(calibrate_ms())
    probe = Probe()
    best = [float("inf")] * len(ops)
    best_probe = [float("inf")] * len(ops)  # the slower probe beside each best timing
    outputs, canons, nondeterministic = [], [], 0
    passes, runs, last_pass = 0, 0, 0.0
    # the last set-up slot and the last pass must both fit before the deadline
    while passes < MIN_PASSES or (
            perf_counter() + last_pass + max(SETUP_SLOT_S, min(setup_times)) < deadline):
        todo = [i for i in range(len(ops)) if passes < MIN_PASSES or not probe.calm(best_probe[i])]
        if len(todo) == len(ops) or not todo:
            gc.collect()
        t_pass = perf_counter()
        before = probe()
        for i in todo or range(len(ops)):
            op = ops[i]
            for _ in range(TRIES if best[i] < SHORT_S else 1):
                t0 = perf_counter()
                out = run_op(op)
                dt = perf_counter() - t0
                after = probe()
                if dt < best[i]:
                    best[i], best_probe[i] = dt, max(before, after)
                before = after
                runs += 1
                if len(canons) == i:  # the first timing of this op
                    outputs.append(out)
                    canons.append(canon_of(op, out))
                elif canon_of(op, out) != canons[i]:
                    nondeterministic += 1
                if probe.calm(best_probe[i]):
                    break
        last_pass = perf_counter() - t_pass
        passes += 1
        if perf_counter() >= next_slot:
            timed_setup()
            detail["calibration_ms"].append(calibrate_ms())
            next_slot += seconds / SETUP_SLOTS
    timed_setup()
    detail["calibration_ms"].append(calibrate_ms())
    calm = sum(probe.calm(p) for p in best_probe)
    return ops, outputs, canons, nondeterministic, {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(ops) / sum(best), "1/s"),
        "op_ms.p50": (statistics.median(best) * 1e3, "ms"),
        "op_ms.p95": (statistics.quantiles(best, n=20, method="inclusive")[18] * 1e3, "ms"),
    }, {"passes": passes, "op_runs": runs, "calm_ops": calm, "setup_reps": len(setup_times),
        "op_ms_sum": sum(best) * 1e3}


def traced_run(wl, raw, workdir, detail, spans_path):
    from tracing import Tracer

    tracer = Tracer()
    t_start = perf_counter()
    tracer.install()
    try:
        ops = wl.setup(raw, workdir)
    finally:
        tracer.uninstall()
    detail["calibration_ms"].append(calibrate_ms())
    plain, traced = 0.0, 0.0
    outputs, canons, nondeterministic = [], [], 0
    gc.collect()
    for i, op in enumerate(ops):
        t0 = perf_counter()
        out = run_op(op)
        plain += perf_counter() - t0
        tracer.op = i
        tracer.install()
        try:
            t0 = perf_counter()
            out_traced = run_op(op)
            traced += perf_counter() - t0
        finally:
            tracer.uninstall()
            tracer.op = -1
        outputs.append(out)
        canons.append(canon_of(op, out))
        nondeterministic += canon_of(op, out_traced) != canons[-1]
    detail["calibration_ms"].append(calibrate_ms())
    metrics = tracer.layer_metrics(traced)
    metrics["trace.untraced_ops_per_s"] = (len(ops) / plain, "1/s")
    metrics["trace.traced_ops_per_s"] = (len(ops) / traced, "1/s")
    metrics["trace.overhead_frac"] = (traced / plain - 1.0, "frac")
    tracer.write(spans_path, t_start)
    detail["spans"] = {"file": os.path.relpath(spans_path, ROOT), "count": len(tracer.spans)}
    return ops, outputs, canons, nondeterministic, metrics, {
        "passes": 1, "capture_contains_calls": metrics["geometry.capture_contains.calls"][0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "polyshallow" / "__init__.py").is_file():
        print(f"error: no polyshallow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    # a run holds whole cycles of the workload's op mix
    n_ops = -(-max(workloads.MIN_OPS, wl.n_ops) // wl.cycle) * wl.cycle
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "implementation": platform.python_implementation()},
        "calibration_ms": [calibrate_ms()],
    }
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        raw = wl.plan(random.Random(f"{args.workload}/{args.seed}"), n_ops)
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            ops, outputs, canons, nondet, metrics, extra = traced_run(
                wl, raw, workdir, detail, spans_path)
        else:
            ops, outputs, canons, nondet, metrics, extra = untraced_run(
                wl, raw, workdir, detail, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed, wrong, reasons = validate(ops, outputs)
    if not args.trace:
        metrics["ok_frac"] = ((len(ops) - failed) / len(ops), "frac")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    detail.update(extra)
    detail["work"] = {"attempted": len(ops), "failed": failed, "wrong": wrong,
                      "nondeterministic": nondet, **work_counts(ops, outputs, canons)}
    detail["failed_frac"] = failed / len(ops)
    detail["samples"] = {"ops": len(ops), "beyond_p95": len(ops) - 1 - int(0.95 * (len(ops) - 1))}
    detail["failure_examples"] = reasons
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>9} {name:<52} {value:>14.6g} {unit}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": wrong == 0 and nondet == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
