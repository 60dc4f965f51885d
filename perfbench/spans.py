"""Outside-in tracing: wrap library functions at the names the library looks
them up by, record one span per call, and restore the originals afterwards.

Spans are kept in memory as (name, start, end, parent) and reduced to the
per-layer metrics only when the run ends. Self time is a span's duration
minus the durations of its direct children (calls are single-threaded, so
children never overlap).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

from taskprune import calibrate, factorize, model, report, search
from taskprune.factorize import FactorizationDiverged

import checks

# Every time the benchmark reports is read from this clock: CPU seconds of
# the whole process, all its threads. For this single-threaded pipeline that
# is its wall time on an idle machine, less the time a shared host keeps the
# virtual CPU from it (steal), which changes from minute to minute.
clock = time.process_time

# (span name, module, attribute). A name may be bound in several modules;
# every binding the pipeline calls through gets the same span name.
TARGETS: tuple[tuple[str, Any, str], ...] = (
    ("linalg.truncated_svd", factorize, "truncated_svd"),
    ("linalg.frobenius_rel_error", factorize, "frobenius_rel_error"),
    ("linalg.adam_step", factorize, "adam_step"),
    ("factorize.output_aligned", calibrate, "factorize_output_aligned"),
    ("factorize.svd_w", factorize, "factorize_svd_w"),
    ("factorize.pair_error", factorize, "pair_error"),
    ("factorize.gradients", factorize, "reconstruction_gradients"),
    ("model.forward", calibrate, "forward"),
    ("model.decode_batch", search, "greedy_decode_batch"),
    ("model.layer_norm", model, "layer_norm"),
    ("model.gelu", model, "gelu"),
    ("calibrate.capture", calibrate, "capture_calibration"),
    ("calibrate.capture", report, "capture_calibration"),
    ("calibrate.build_cache", calibrate, "build_cache"),
    ("calibrate.build_cache", report, "build_cache"),
    ("calibrate.assemble", search, "assemble"),
    ("calibrate.compression_ratio", search, "compression_ratio"),
    ("calibrate.compression_ratio", report, "compression_ratio"),
    ("search.evaluate", search, "evaluate"),
    ("search.ga", search, "ga_search"),
    ("search.binary", search, "binary_search_uniform"),
    ("report.sweep_uniform", report, "sweep_uniform"),
    ("report.calibration_sweep", report, "calibration_sweep"),
    ("report.build_report", report, "build_report"),
    ("report.emit_report", report, "emit_report"),
    # checks that run inside calibration_sweep; their own spans keep their
    # time out of the sweep's self time, and no metric reports them
    ("bench.checks", checks, "check_cache"),
    ("bench.checks", checks, "capture_sample"),
)

# The search strategy differs per workload; its self time is also reported
# under one name so that every workload reports a measured time for it.
STRATEGIES = ("search.ga", "search.binary", "report.sweep_uniform", "report.calibration_sweep")

# name -> unit, in the order they are reported with --trace 1
PER_LAYER_UNITS: dict[str, str] = {
    "linalg.truncated_svd.calls": "count",
    "linalg.truncated_svd.s": "s",
    "linalg.frobenius_rel_error.calls": "count",
    "linalg.frobenius_rel_error.s": "s",
    "linalg.adam_step.calls": "count",
    "linalg.adam_step.s": "s",
    "factorize.output_aligned.calls": "count",
    "factorize.output_aligned.self_s": "s",
    "factorize.svd_w.s": "s",
    "factorize.pair_error.calls": "count",
    "factorize.pair_error.s": "s",
    "factorize.pair_error.tokens": "tokens",
    "factorize.gradients.calls": "count",
    "factorize.gradients.s": "s",
    "factorize.diverged": "count",
    "model.forward.calls": "count",
    "model.forward.s": "s",
    "model.forward.tokens": "tokens",
    "model.decode_batch.calls": "count",
    "model.decode_batch.s": "s",
    "model.decode_rows": "rows",
    "model.layer_norm.calls": "count",
    "model.layer_norm.s": "s",
    "model.gelu.calls": "count",
    "model.gelu.s": "s",
    "calibrate.capture.s": "s",
    "calibrate.capture.tokens": "tokens",
    "calibrate.capture_bytes": "bytes",
    "calibrate.build_cache.self_s": "s",
    "calibrate.entries_built": "count",
    "calibrate.entries_flagged": "count",
    "calibrate.assemble.calls": "count",
    "calibrate.assemble.s": "s",
    "calibrate.compression_ratio.calls": "count",
    "calibrate.compression_ratio.s": "s",
    "search.evals_requested": "count",
    "search.evals_unique": "count",
    "search.memo_hit_ratio": "ratio",
    "search.evaluate.self_s": "s",
    "search.strategy.self_s": "s",
    "search.generations": "count",
    "report.build_report.s": "s",
    "report.emit_report.s": "s",
    "trace.overhead_frac": "ratio",
}

# Strategy self times under their own names; zero where a workload does not
# call that strategy, so they are printed with the report but not gated.
STRATEGY_UNITS: dict[str, str] = {f"{d}.self_s": "s" for d in STRATEGIES}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    raised: type | None = None


@dataclass
class Recorder:
    """Collects spans and the computed counts attached to some of them."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(self, name: str, fn: Callable) -> Callable:
        on_call = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.raised = type(exc)
                raise
            finally:
                span.end = clock()
                self._stack.pop()
            if on_call is not None:
                on_call(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def under(self, index: int, ancestor: str) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == ancestor:
                return True
            parent = self.spans[parent].parent
        return False


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _count_pair_error(rec: Recorder, args, kwargs, result) -> None:
    rec.add("factorize.pair_error.tokens", _arg(args, kwargs, 2, "x_cal").shape[1])


def _count_forward(rec: Recorder, args, kwargs, result) -> None:
    rec.add("model.forward.tokens", len(_arg(args, kwargs, 1, "tokens")))


def _count_decode(rec: Recorder, args, kwargs, result) -> None:
    # rows pushed through the transformer: every step re-runs the whole
    # sequence of every prompt, prompts of equal length run in lockstep
    prompts = _arg(args, kwargs, 1, "prompts")
    max_new = _arg(args, kwargs, 2, "max_new")
    rows = sum(len(p) + step for p in prompts for step in range(max_new))
    rec.add("model.decode_rows", rows)


def _count_capture(rec: Recorder, args, kwargs, result) -> None:
    rec.add("calibrate.capture.tokens", result.tokens)
    rec.add("calibrate.capture_bytes",
            sum(x.nbytes + y.nbytes for x, y in result.entries.values()))


def _count_cache(rec: Recorder, args, kwargs, result) -> None:
    rec.add("calibrate.entries_built", result.built_entries())
    rec.add("calibrate.entries_flagged", len(result.flagged))


def _count_ga(rec: Recorder, args, kwargs, result) -> None:
    rec.add("search.evals_requested", len(result.history))
    rec.add("search.generations", result.generations)


def _count_binary(rec: Recorder, args, kwargs, result) -> None:
    rec.add("search.evals_requested", result.evaluations + 1)


def _count_points(rec: Recorder, args, kwargs, result) -> None:
    rec.add("search.evals_requested", len(result))       # one evaluation per point


_COUNTERS: dict[str, Callable] = {
    "factorize.pair_error": _count_pair_error,
    "model.forward": _count_forward,
    "model.decode_batch": _count_decode,
    "calibrate.capture": _count_capture,
    "calibrate.build_cache": _count_cache,
    "search.ga": _count_ga,
    "search.binary": _count_binary,
    "report.sweep_uniform": _count_points,
    "report.calibration_sweep": _count_points,
}


@contextmanager
def patched(replacements: list[tuple[Any, str, Callable]]):
    """Bind each (module, attr) to its replacement; restore on exit and
    check that every attribute is the original function again."""
    originals = []
    try:
        for module, attr, new in replacements:
            originals.append((module, attr, getattr(module, attr)))
            setattr(module, attr, new)
        yield
    finally:
        for module, attr, old in reversed(originals):
            setattr(module, attr, old)
    for module, attr, old in originals:
        if getattr(module, attr) is not old:
            raise RuntimeError(f"{module.__name__}.{attr} was not restored")


@contextmanager
def tracing(recorder: Recorder):
    """Wrap every target that exists in the library for the duration."""
    replacements = [
        (module, attr, recorder.wrap(name, getattr(module, attr)))
        for name, module, attr in TARGETS
        if callable(getattr(module, attr, None))
    ]
    with patched(replacements):
        yield


def per_layer_metrics(rec: Recorder, overhead_frac: float) -> dict[str, float]:
    """Reduce the recorded spans to the per-layer metrics, strategy self times
    included under their own names."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    for span in rec.spans:
        dur = span.end - span.start
        calls[span.name] = calls.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0.0) + dur
        self_time[span.name] = self_time.get(span.name, 0.0) + dur
        if span.parent is not None:
            parent = rec.spans[span.parent].name
            self_time[parent] = self_time.get(parent, 0.0) - dur

    out: dict[str, float] = {}
    for key in PER_LAYER_UNITS:
        base, _, stat = key.rpartition(".")
        if stat == "calls":
            out[key] = calls.get(base, 0)
        elif stat == "s":
            out[key] = total.get(base, 0.0)
        elif stat == "self_s":
            out[key] = self_time.get(base, 0.0)
    for d in STRATEGIES:
        out[f"{d}.self_s"] = self_time.get(d, 0.0)
    out["search.strategy.self_s"] = sum(self_time.get(d, 0.0) for d in STRATEGIES)

    for key in ("factorize.pair_error.tokens", "model.forward.tokens", "model.decode_rows",
                "calibrate.capture.tokens", "calibrate.capture_bytes",
                "calibrate.entries_built", "calibrate.entries_flagged",
                "search.evals_requested", "search.generations"):
        out[key] = int(rec.counts.get(key, 0))
    out["factorize.diverged"] = sum(
        1 for s in rec.spans
        if s.name == "factorize.output_aligned" and s.raised is FactorizationDiverged)
    strategies = set(STRATEGIES)
    out["search.evals_unique"] = sum(
        1 for i, s in enumerate(rec.spans)
        if s.name == "search.evaluate" and any(rec.under(i, d) for d in strategies))
    requested = out["search.evals_requested"]
    out["search.memo_hit_ratio"] = (
        max(0.0, 1.0 - out["search.evals_unique"] / requested) if requested else 0.0)
    out["trace.overhead_frac"] = overhead_frac
    return out
