"""Closed-loop benchmark of blockmech.

Run from the repository root:

    python3 perfbench/run.py --workload settle-wide --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One client in one process sends the next op after the previous one returns.
Every op's output is checked against `perfbench/reference.json`. With
`--trace 0` the run times whole passes over the workload's ops for about
`--seconds` and reports the end-to-end metrics. With `--trace 1` it runs
one pass untraced and traced, plus the bundle-count scaling curve, and
reports per-layer metrics.
The last line of standard output is one JSON object with the result; a
record of the run, with the trace spans, goes to `.perfbench/`.
`--workload all` runs every workload, each in a fresh process.
`--make-reference` re-records the reference outputs from the current code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("settle-wide", "enum-deep", "sweep-small")
SETUP_REPEATS = 5
TAIL_BEYOND = 10


def import_package():
    """Import the benchmark modules and blockmech from this checkout's
    `src/`; returns (workloads module, tracer module, import seconds)."""
    if not (SRC / "blockmech" / "__init__.py").is_file():
        sys.exit(f"error: no blockmech package under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    start = perf_counter()
    import tracer
    import workloads

    elapsed = perf_counter() - start
    import blockmech

    if Path(blockmech.__file__).resolve().parent != SRC / "blockmech":
        sys.exit(f"error: blockmech imported from {blockmech.__file__}, not {SRC}")
    return workloads, tracer, elapsed


def environment(workloads, name: str) -> dict:
    return {
        "workload": name,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "threads": workloads.sweep_threads() if name == "sweep-small" else 1,
    }


def tail(latencies: list) -> tuple:
    """(value, percentile): the highest nearest-rank percentile with at
    least TAIL_BEYOND samples above it, or the maximum when there are too
    few samples for one."""
    xs = sorted(latencies)
    rank = len(xs) - TAIL_BEYOND if len(xs) > TAIL_BEYOND else len(xs)
    return xs[rank - 1], 100.0 * rank / len(xs)


def measure(workloads, ops: list, reference: dict, seconds: float) -> dict:
    """Closed loop over whole passes of `ops`, so every run times the same
    mix of ops. The first pass always runs; another starts only if the
    previous pass's duration says it will end within `seconds`."""
    latencies, errors = [], []
    ok_ops = bundles = passes = 0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for op in ops:
            ok, elapsed, error = workloads.run_op(op, reference)
            latencies.append(elapsed)
            if ok:
                ok_ops += 1
                bundles += reference[op.key]["bundles"]
            else:
                errors.append(error)
        passes += 1
        now = perf_counter()
        if now + (now - pass_start) > start + seconds:
            break
    return {
        "latencies": latencies,
        "attempted": len(latencies),
        "failed": len(errors),
        "ok_ops": ok_ops,
        "bundles": bundles,
        "passes": passes,
        "errors": errors,
    }


def timed_run(workloads, name: str, seed: int, seconds: float, import_s: float):
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        ops = workloads.build_ops(name, seed)
        reference = workloads.load_reference()
        setups.append(perf_counter() - start)
    stats = measure(workloads, ops, reference, seconds)
    busy = sum(stats["latencies"])
    tail_value, tail_pct = tail(stats["latencies"])
    metrics = {
        "scenarios_per_s": (stats["ok_ops"] / busy, "1/s"),
        "bundles_per_s": (stats["bundles"] / busy, "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(stats["latencies"]), "ms"),
        "op_tail_ms": (1000.0 * tail_value, "ms"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "failed_frac": (stats["failed"] / stats["attempted"], "ratio"),
        "op_tail_percentile": (tail_pct, "%"),
        "op_samples": (len(stats["latencies"]), "count"),
        "passes": (stats["passes"], "count"),
    }
    keys = [op.key for op in ops] * stats["passes"]
    record = {
        "setup_repeats_s": setups,
        "import_s": import_s,
        "op_s": [[k, t] for k, t in zip(keys, stats["latencies"])],
    }
    return stats, metrics, notes, record


def traced_run(workloads, tracer, name: str, seed: int):
    """One pass, each op run once untraced and once traced, in alternating
    order so neither side always runs warm; then the scaling curve."""
    trace = tracer.Tracer()
    with trace.active():
        ops = workloads.build_ops(name, seed)
    reference = workloads.load_reference()
    errors = []
    seconds = {False: 0.0, True: 0.0}  # traced? -> summed op time
    for n, op in enumerate(ops):
        for traced in (False, True) if n % 2 == 0 else (True, False):
            if traced:
                with trace.active():
                    ok, elapsed, error = workloads.run_op(op, reference)
            else:
                ok, elapsed, error = workloads.run_op(op, reference)
            seconds[traced] += elapsed
            if not ok:
                errors.append(error)
    metrics = trace.layer_metrics()
    metrics["trace.overhead_frac"] = (seconds[True] / seconds[False] - 1.0, "ratio")

    curve = workloads.curve_ops()
    for size, op in zip(workloads.CURVE_SIZES, curve):
        point = tracer.Tracer()
        with point.active():
            ok, elapsed, error = workloads.run_op(op, reference)
        if not ok:
            errors.append(error)
        layers = point.layer_metrics()
        metrics[f"curve.n{size}.run_s"] = (elapsed, "s")
        metrics[f"curve.n{size}.block_bids_entries"] = layers["model.block_bids.entries"]
        metrics[f"curve.n{size}.refund_default_calls"] = layers[
            "mechanism.refund_default.calls"
        ]
    attempted = 2 * len(ops) + len(curve)
    stats = {"attempted": attempted, "failed": len(errors), "errors": errors}
    record = {
        "untraced_s": seconds[False],
        "traced_s": seconds[True],
        "counts": dict(trace.counts),
        "spans": [list(s) for s in trace.spans],
    }
    return stats, metrics, {}, record


def make_reference(workloads, tracer) -> None:
    """Record every corpus op's digest and settled-bundle count."""
    reference = {}
    ops = [op for name in WORKLOADS for op in workloads.build_ops(name, 0)]
    for op in ops + workloads.curve_ops():
        counter = tracer.Tracer()
        with counter.active():
            result = op.call()
        reference[op.key] = {
            "digest": op.digest(result),
            "bundles": counter.counts["mechanism.run.bundles"],
        }
        print(op.key, reference[op.key]["digest"][:12], file=sys.stderr)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def run_every_workload(args) -> int:
    code = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.workload == "all" and not args.make_reference:
        return run_every_workload(args)

    workloads, tracer, import_s = import_package()
    if args.make_reference:
        make_reference(workloads, tracer)
        return 0
    env = environment(workloads, args.workload)
    if args.trace:
        stats, metrics, notes, record = traced_run(
            workloads, tracer, args.workload, args.seed
        )
    else:
        stats, metrics, notes, record = timed_run(
            workloads, args.workload, args.seed, args.seconds, import_s
        )

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.update(env=env, metrics=metrics, notes=notes, errors=stats["errors"])
    out.write_text(json.dumps(record) + "\n")

    print("# env " + json.dumps(env))
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: "
        f"{stats['attempted']} ops, {stats['failed']} failed; record in {out.relative_to(ROOT)}"
    )
    for error in stats["errors"][:5]:
        print(f"# failed: {error}")
    for key, (value, unit) in {**metrics, **notes}.items():
        print(f"{key:40s} {value:.6g} {unit}")
    result = {
        "correct": stats["failed"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
