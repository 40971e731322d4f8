"""Closed-loop benchmark of currentext: one process, one thread, each op
starting only after the previous one returns.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else.  Set-up (importing the package and
building the seeded inputs) is repeated SETUP_REPS times and timed.  The
op list is then run in passes until --seconds is used up, at least
MIN_PASSES times, and every answer is checked (see workloads.py).

The end-to-end times are reported at a reference host speed: a fixed
calibration kernel is timed before and after each set-up and between
ops, and each measured time is rescaled by the kernel's time next to it
(see calibrate.py).  The raw seconds are reported too.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics (see tracing.py).  The
last line of standard output is the JSON result; the lines before it
are a readable report and the run's metadata.  Full results, and the
spans of a traced run, are written under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibrate
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 9
MIN_PASSES = 3
MIN_TRACE_PASSES = 2  # of each kind, untraced and traced
P90_MIN_SAMPLES = 100  # so that at least ten samples lie beyond the 90th percentile
CAL_EVERY_S = 0.1  # op time between two calibration samples within a pass


def purge_package():
    for name in [n for n in sys.modules if n == "currentext" or n.startswith("currentext.")]:
        del sys.modules[name]


def setup(workload, seed):
    """Import the package afresh and build the seeded op list; timed."""
    start = perf_counter()
    purge_package()
    ce = importlib.import_module("currentext")
    importlib.import_module("currentext.cli")
    ops = workloads.build(workload, ce, seed)
    return perf_counter() - start, ce, ops


def run_pass(ops, tracer=None, calibrator=None):
    """Run every op once, in order.  Returns (op times, failures).

    Only op.run is timed (and traced); op.check runs after the clock
    stops.  An op that raises or fails its check is a failure.  With a
    calibrator, a calibration sample is taken before the first op, after
    every CAL_EVERY_S of op time and after the last op; its size follows
    the op time on either side of it, as the previous pass measured it.
    """
    times, failures = [], []
    if calibrator is not None:
        last = calibrator.last_times or [0.0] * len(ops)
        calibrator.start_pass(last[0])
        since = 0.0
    for idx, op in enumerate(ops):
        error = None
        if tracer is not None:
            tracer.op = idx
            tracer.enabled = True
        start = perf_counter()
        try:
            result = op.run()
        except Exception:  # a failing op is counted, and the pass goes on
            error = traceback.format_exc(limit=3)
        finally:
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
        if error is None:
            try:
                error = op.check(result)
            except Exception:
                error = traceback.format_exc(limit=3)
        times.append(elapsed)
        if error is not None:
            failures.append((op.name, error))
        if calibrator is not None:
            since += elapsed
            if since >= CAL_EVERY_S or idx == len(ops) - 1:
                upcoming = last[idx + 1] if idx + 1 < len(ops) else 0.0
                calibrator.sample(idx + 1, max(since, upcoming))
                since = 0.0
    if calibrator is not None:
        calibrator.last_times = times
    return times, failures


def keep_going(passes, elapsed, seconds, minimum):
    """Start another pass while one more fits in the time, or below the minimum."""
    n = len(passes)
    return n < minimum or elapsed * (n + 1) / n <= seconds


def timings(passes, setups):
    """setup_s, wall_s, op_p50_s and the pooled op samples, from one kind of times."""
    walls = [sum(p) for p in passes]
    per_op = [statistics.median(p[i] for p in passes) for i in range(len(passes[0]))]
    pooled = [t for p in passes for t in p]
    return statistics.median(setups), statistics.median(walls), statistics.median(per_op), pooled


def end_to_end(passes, setups, raw_passes, raw_setups):
    """End-to-end metrics, report lines, sample counts and op_p90_s (or None).

    ``passes`` and ``setups`` are at reference speed, the raw_ ones as measured.
    """
    setup_s, wall_s, op_p50_s, pooled = timings(passes, setups)
    raw = timings(raw_passes, raw_setups)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "op_p50_s": (op_p50_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; {raw[0]:.6g} s as measured",
        "wall_s": f"median of {len(passes)} passes; {raw[1]:.6g} s as measured",
        "op_p50_s": (f"median over {len(passes[0])} ops of each op's median over "
                     f"{len(passes)} passes; {raw[2]:.6g} s as measured"),
        "peak_rss_mib": "peak resident set of this untraced process",
    }
    lines = [f"  {name:14s} {value:.6g} {unit}  ({notes[name]})"
             for name, (value, unit) in metrics.items()]
    if len(pooled) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(pooled, n=10)[8]
        lines.append(f"  {'op_p90_s':14s} {p90:.6g} s  (90th percentile of {len(pooled)} op samples)")
    else:
        p90 = None
        lines.append(f"  {'op_p90_s':14s} -  (omitted: {len(pooled)} op samples < {P90_MIN_SAMPLES})")
    samples = {"setup_s": len(setups), "wall_s": len(passes), "op_p50_s": len(pooled),
               "op_p90_s": len(pooled)}
    raw_metrics = {"setup_s": raw[0], "wall_s": raw[1], "op_p50_s": raw[2]}
    return metrics, lines, samples, p90, raw_metrics


def measure(ops, seconds, calibrator):
    """Passes until --seconds is used up: (reference-speed times, raw times, failures)."""
    passes, raw, failures = [], [], []
    start = perf_counter()
    while keep_going(raw, perf_counter() - start, seconds, MIN_PASSES):
        times, fails = run_pass(ops, calibrator=calibrator)
        raw.append(times)
        passes.append([t * k for t, k in zip(times, calibrator.scales(len(ops)))])
        failures += fails
    return passes, raw, failures


def measure_traced(ops, seconds):
    """Alternate untraced and traced passes; wrappers exist only in the latter."""
    tracer = tracing.Tracer()
    plain, traced, layers, spans, failures = [], [], [], [], []
    start = perf_counter()
    while keep_going(traced, perf_counter() - start, seconds, MIN_TRACE_PASSES):
        times, fails = run_pass(ops)
        plain.append(times)
        failures += fails
        tracer.reset()
        tracer.install()
        try:
            times, fails = run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        traced.append(times)
        failures += fails
        layers.append(tracer.layer_metrics())
        spans.append(tracer.spans)
    counts = {name for name, _ in tracing.COUNT_METRICS}
    merged, mismatched = tracing.median_layers(layers, counts)
    overhead = statistics.median(sum(p) for p in traced) / statistics.median(sum(p) for p in plain)
    merged[tracing.OVERHEAD_METRIC] = overhead
    for name in mismatched:
        failures.append(("trace counts", f"{name} differs between traced passes"))
    return plain, traced, merged, spans, failures


def git_sha():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "currentext").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "currentext" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'currentext'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    calibrator = calibrate.Calibrator()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPS):
        calibrator.start_pass()
        elapsed, ce, ops = setup(args.workload, args.seed)
        calibrator.sample(1)
        raw_setups.append(elapsed)
        setups.append(elapsed * calibrator.scales(1)[0])
    if Path(ce.__file__).resolve().parent != SRC / "currentext":
        print(f"perfbench: imported currentext from {ce.__file__}, not {SRC}", file=sys.stderr)
        return 2

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "ops_per_pass": len(ops),
        "loop": "closed, one client, single process and thread",
        "reference_sample_s": calibrate.REF_SAMPLE_S,
    }
    if args.trace:
        plain, traced, layers, spans, failures = measure_traced(ops, args.seconds)
        attempted = len(ops) * (len(plain) + len(traced))
        units = tracing.layer_metric_units()
        metrics = {name: (layers[name], units[name]) for name in units}
        meta["samples"] = {"untraced_passes": len(plain), "traced_passes": len(traced),
                           "time_metrics": f"median of {len(traced)} traced passes",
                           "count_metrics": f"identical in all {len(traced)} traced passes"}
        meta["untraced_wall_s"] = statistics.median(sum(p) for p in plain)
        meta["traced_wall_s"] = statistics.median(sum(p) for p in traced)
        lines = [f"  {name:34s} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    else:
        passes, raw, failures = measure(ops, args.seconds, calibrator)
        attempted = len(ops) * len(passes)
        (metrics, lines, meta["samples"], meta["op_p90_s"],
         meta["raw_s"]) = end_to_end(passes, setups, raw, raw_setups)
        meta["pass_walls_s"] = [sum(p) for p in passes]
        meta["raw_pass_walls_s"] = [sum(p) for p in raw]
        cal = calibrator.all
        meta["calibration"] = {"samples": len(cal), "median_s": statistics.median(cal),
                               "min_s": min(cal), "max_s": max(cal)}
        lines.append(f"  times above are at reference speed (one calibration sample = "
                     f"{calibrate.REF_SAMPLE_S} s); {len(cal)} samples here, median "
                     f"{statistics.median(cal):.6g} s, range {min(cal):.6g}-{max(cal):.6g} s")
    failed = len(failures)
    lines.append(f"  {'failed_ratio':14s} {failed}/{attempted} = {failed / attempted:.6g}"
                 "  (ops raised, exited unexpectedly or failed their check)")
    meta["attempted"], meta["failed"] = attempted, failed
    meta["failures"] = [f"{name}: {error}" for name, error in failures[:10]]

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    if args.trace:
        # [name, parent index, op index, start, end, covered] per span, per traced pass
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    for name, error in failures[:10]:
        print(f"perfbench: FAILED {name}: {error}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} ops/pass={len(ops)}")
    print("\n".join(lines))
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
