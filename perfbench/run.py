"""Pipeline benchmark for taskprune.

Run from the repository root:

    python3 perfbench/run.py --workload ga-small --seed 0 --seconds 25 --trace 0

Workloads are described in workloads.py. A run sets the fixture up
SETUP_REPEATS to SETUP_MAX_REPEATS times (setup_s is the median), then runs
timed rounds of the workload until --seconds have passed (at least one
round); every round does the same work, and times are medians over rounds.
The process moves over all its CPUs while it runs (cpu_spread.py). Outputs
are checked outside the timed region, and their digests (cache fingerprint,
sha256 of history.jsonl and report.json) are printed so that two versions
of the program can be shown to produce byte-identical artifacts.

--trace 0 prints the end-to-end metrics. --trace 1 runs one more round,
and one more set-up, with every library function the pipeline calls wrapped
in a span (spans.py), checks that the digests match the untraced round's,
and prints the per-layer metrics and the tracing overhead, which compares
the traced round with the last untraced one. That is one pair of rounds,
so it still carries the host's jitter between them.

Every reported time is CPU seconds of the process (spans.clock), not
wall-clock seconds: on a shared virtual machine the wall clock also counts
the time the host runs other guests, which varied by 50% between runs
minutes apart. The run's length (--seconds) is wall-clock.

peak_rss_mb is the process's high-water mark when the rounds end: one
fixture (inputs, and the capture and cache where set-up builds them) plus
the most any round or set-up allocates on top of it.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
An operation is one cache entry or one evaluated vector; it fails if it is
flagged, raises or fails a check. Checks that concern the run as a whole
(unpruned accuracy, GA history length, captured pairs, determinism) add one
failed operation each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

# The host's speed drifts in phases of a few seconds, so a sub-second set-up
# is repeated, at least SETUP_SPACING_S apart, until the repeats span
# SETUP_SPAN_S; its median then samples several phases instead of one.
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 16
SETUP_SPAN_S = 2.0
SETUP_SPACING_S = 0.25
HERE = os.path.dirname(os.path.abspath(__file__))

# name -> unit, in the order they are reported
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "capture_s": "s",
    "cache_build_s": "s",
    "search_s": "s",
    "evals_per_s": "1/s",
    "eval_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "task_accuracy": "ratio",
    "mean_calib_error": "ratio",
}
# Printed with the others but not gated: best_compression takes one of a
# few discrete values that differ between seeds, ops_failed_frac is 0 on a
# correct run, and eval_p99_ms needs 10 samples beyond it, which only
# ga-small has (the others evaluate 3 to 15 vectors a round).
REPORTED = {
    "eval_p99_ms": "ms",
    "best_compression": "ratio",
    "ops_failed_frac": "ratio",
}
P99_MIN_SAMPLES = 1000


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def blas_info() -> tuple[str, int | None]:
    import ctypes
    import glob

    import numpy as np

    config = getattr(np.__config__, "CONFIG", {})
    name = config.get("Build Dependencies", {}).get("blas", {}).get("name", "unknown")
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def environment(seed: int, workers: int, cpus_usable: int) -> dict:
    import numpy as np
    import scipy

    import cpu_spread

    name, threads = blas_info()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": cpus_usable,
        "cpu_spread_period_s": cpu_spread.PERIOD_S if cpus_usable > 1 else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": name,
        "blas_threads": threads,
        "seed": seed,
        "workers": workers,
        "clock": "process_time",
    }


def end_to_end(in_setup: dict[str, list[float]], rounds: list) -> dict[str, float]:
    """Stage times come from the set-ups on the workloads that build that
    stage there, from the rounds otherwise."""
    def stage(name: str) -> float:
        values = in_setup[name] or [getattr(r, name) for r in rounds]
        return statistics.median(values)

    first = rounds[0]
    latencies = [t for r in rounds for t in r.latencies]
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "capture_s": stage("capture_s"),
        "cache_build_s": stage("cache_build_s"),
        "search_s": statistics.median(r.search_s for r in rounds),
        "evals_per_s": len(latencies) / sum(r.search_s for r in rounds),
        "eval_p50_ms": 1e3 * statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "task_accuracy": first.task_accuracy,
        "mean_calib_error": statistics.fmean(first.calib_errors),
        "best_compression": first.best_compression,
    }
    if len(latencies) >= P99_MIN_SAMPLES:
        metrics["eval_p99_ms"] = 1e3 * percentile(latencies, 99)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # One caller on a shared machine: a single BLAS thread keeps the timings
    # steady. Set before numpy is first imported; an explicit setting wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    src = os.path.realpath(os.path.join(HERE, "..", "src"))
    sys.path.insert(0, src)
    try:
        import taskprune
    except ImportError as exc:
        print(f"perfbench: cannot import taskprune from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.realpath(taskprune.__file__).startswith(src + os.sep):
        print(f"perfbench: taskprune comes from {taskprune.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import cpu_spread
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    parent = os.path.join(os.getcwd(), ".perfbench_out")
    out_root = os.path.join(parent, f"{args.workload}-{os.getpid()}")
    # taken before the spreading starts, which narrows the CPU set at any instant
    env = environment(args.seed, workloads.WORKERS, len(os.sched_getaffinity(0)))
    try:
        with cpu_spread.spread_over_cpus():
            return run(args, env, workloads, spans, out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            os.rmdir(parent)
        except OSError:        # another run still uses it
            pass


def run(args, env: dict, workloads, spans, out_root: str) -> int:
    failures: list[str] = []     # run-level: each counts as one failed operation

    setup_times: list[float] = []
    in_setup: dict[str, list[float]] = {"capture_s": [], "cache_build_s": []}
    # One fixture at a time: the previous one is dropped before the next
    # set-up, so peak_rss_mb holds no copy that only the benchmark keeps.
    fixture = digest = None
    began = time.perf_counter()
    while True:
        fixture = None
        start, cpu = time.perf_counter(), spans.clock()
        fixture = workloads.set_up(args.workload, args.seed)
        setup_times.append(spans.clock() - cpu)
        for stage in in_setup:
            if getattr(fixture, stage) is not None:
                in_setup[stage].append(getattr(fixture, stage))
        if digest is None:
            digest = fixture.digest()
        elif fixture.digest() != digest:
            failures.append("set-up is not deterministic: fixtures differ between repeats")
        repeats = len(setup_times)
        if repeats >= SETUP_MAX_REPEATS or (
                repeats >= SETUP_REPEATS and time.perf_counter() - began >= SETUP_SPAN_S):
            break
        time.sleep(max(0.0, SETUP_SPACING_S - (time.perf_counter() - start)))

    rounds = []
    began = time.perf_counter()
    while True:
        rounds.append(workloads.run_round(args.workload, fixture,
                                          os.path.join(out_root, f"round{len(rounds)}")))
        elapsed = time.perf_counter() - began
        if elapsed + elapsed / len(rounds) > args.seconds:
            break
    for r in rounds[1:]:
        if r.digests != rounds[0].digests:
            failures.append(f"round digests differ: {r.digests} vs {rounds[0].digests}")

    metrics = {"setup_s": statistics.median(setup_times)}
    metrics.update(end_to_end(in_setup, rounds))

    checked = list(rounds)
    per_layer = None
    if args.trace:
        fixture = None
        recorder = spans.Recorder()
        with spans.tracing(recorder):
            traced_fixture = workloads.set_up(args.workload, args.seed)
            traced = workloads.run_round(args.workload, traced_fixture,
                                         os.path.join(out_root, "traced"))
        if traced_fixture.digest() != digest or traced.digests != rounds[0].digests:
            failures.append(f"tracing changed the outputs: {traced.digests} "
                            f"vs {rounds[0].digests}")
        # against the untraced round just before, not the median of all, so
        # that the host's slow drift in speed mostly cancels
        overhead = (traced.wall_s - rounds[-1].wall_s) / rounds[-1].wall_s
        per_layer = spans.per_layer_metrics(recorder, overhead)
        checked.append(traced)

    attempted = sum(r.entries + len(r.latencies) for r in checked)
    failed = len(failures) + sum(
        len(r.entry_failures) + r.eval_failed + len(r.failures) for r in checked)
    for r in checked:
        failures += r.entry_failures + r.failures
    metrics["ops_failed_frac"] = failed / attempted

    print("env " + json.dumps(env, sort_keys=True))
    print("digests " + json.dumps(rounds[0].digests, sort_keys=True))
    print(f"rounds {len(rounds)} setups {len(setup_times)} "
          f"eval_samples {sum(len(r.latencies) for r in rounds)}")
    for name, unit in {**END_TO_END, **REPORTED}.items():
        if name in metrics:
            print(f"{name} {metrics[name]!r} {unit}")
    if per_layer is not None:
        for name, unit in {**spans.PER_LAYER_UNITS, **spans.STRATEGY_UNITS}.items():
            print(f"{name} {per_layer[name]!r} {unit}")
    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)

    if per_layer is None:
        shown = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        shown = {k: {"value": per_layer[k], "unit": u}
                 for k, u in spans.PER_LAYER_UNITS.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
