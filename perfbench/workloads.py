"""Seeded inputs, fixtures and timed rounds of the three benchmark workloads.

Every library call goes through its module attribute (``search.ga_search``,
not a name bound at import), so the tracer's wrappers see the benchmark's
own calls as well as the library's internal ones.

- ga-small: the 2-layer GA fixture of acceptance criterion 8. Capture and
  the 16-entry cache are set-up; a round is ga_search at GA seeds 0, 1 and
  2 with the default GaConfig, each followed by the report step. Decoding
  does almost all of the work, and the search memo serves most requests.
- cache-levels: the 4-layer sweep fixture of criterion 9 at 5 epochs. The
  capture is set-up; a round builds the full 10-level cache (144 entries,
  16 distinct weights), then runs sweep_uniform, binary_search_uniform and
  the report. The SVD and the full-data error dominate.
- calib-scale: the same 4-layer model. A round is calibration_sweep at
  level 0.5 over 12k, 24k and 48k tokens with the default FactorizeOptions,
  then the report. Long tapped forwards and a full-data error that grows
  with the token count lead; the 48 SVDs cost the same at any size. One
  level per site, so nothing is shared between levels of one site.

Workload seed 0 reproduces the acceptance-suite fixtures; any other seed
draws another calibration corpus for the same model and task.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from taskprune import calibrate, report, search
from taskprune.calibrate import DEFAULT_FACTOR_SET, FactorSet, PruningVector
from taskprune.factorize import FactorizeOptions
from taskprune.linalg import derive_rng
from taskprune.model import (
    ActivationCapture,
    ModelWeights,
    TransformerConfig,
    model_to_bytes,
    random_model,
    sites,
)
from taskprune.search import GaConfig, TaskMode, TaskSpec

import checks
from spans import clock, patched

WORKLOADS = ("ga-small", "cache-levels", "calib-scale")

GA_MODEL = TransformerConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32, max_seq_len=32)
SWEEP_MODEL = TransformerConfig(n_layers=4, d_model=32, n_heads=4, d_ff=64, max_seq_len=48)
GA_FACTORS = FactorSet((1.0, 0.5, 0.1))
GA_OPTS = FactorizeOptions(epochs=25, batch_tokens=1000, learning_rate=0.003, seed=0)
LEVELS_OPTS = FactorizeOptions(epochs=5, batch_tokens=1000, learning_rate=0.003, seed=0)
GA_SEEDS = (0, 1, 2)
CALIB_SIZES = (12000, 24000, 48000)
CALIB_LEVEL = 0.5
# One process, one caller: the thread pools of build_cache and ga_search
# are not exercised.
WORKERS = 1


@dataclass
class Inputs:
    """What the program receives: a model, a corpus and a task."""

    model: ModelWeights
    corpus: bytes
    task: TaskSpec

    def to_bytes(self) -> bytes:
        task = json.dumps(self.task.to_dict(), sort_keys=True).encode()
        return model_to_bytes(self.model) + self.corpus + task


def _letters(rng) -> list[int]:
    return sorted(rng.choice(np.arange(1, 256), size=16, replace=False).tolist())


def make_inputs(workload: str, seed: int) -> Inputs:
    """Inputs of one workload, a pure function of (workload, seed).

    The model and the task are the workload's acceptance fixture; the seed
    draws the calibration corpus, over the fixture's alphabet. Seed 0 gives
    the fixture's own corpus. Keeping model and task fixed keeps the search
    landscape, and with it the amount of search work, alike across seeds.
    """
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if workload == "ga-small":
        config, model_seed, data_seed, n_corpus, n_prompt, eps = GA_MODEL, 3, 700, 4000, 10, 0.1
    elif workload in ("cache-levels", "calib-scale"):
        config, model_seed, data_seed, n_corpus, n_prompt, eps = SWEEP_MODEL, 1, 501, 6000, 12, 0.05
    else:
        raise ValueError(f"unknown workload {workload!r}")
    model = random_model(config, seed=model_seed, spectral_decay=0.6)
    rng = derive_rng(data_seed)
    letters = _letters(rng)
    corpus = rng.choice(letters, size=n_corpus).tolist()
    prompts = [bytes(rng.choice(letters, size=n_prompt).tolist()) for _ in range(64)]
    task = TaskSpec(TaskMode.BASELINE_AGREEMENT, prompts, None, 4, eps)
    total = max(CALIB_SIZES) if workload == "calib-scale" else n_corpus
    if seed == 0:
        corpus += rng.choice(letters, size=total - n_corpus).tolist()
    else:
        corpus = derive_rng(data_seed, seed).choice(letters, size=total).tolist()
    return Inputs(model, bytes(corpus), task)


@dataclass
class Fixture:
    inputs: Inputs
    capture: ActivationCapture | None = None
    cache: calibrate.AdapterCache | None = None
    capture_s: float | None = None
    cache_build_s: float | None = None

    def digest(self) -> str:
        h = hashlib.sha256(self.inputs.to_bytes())
        if self.capture is not None:
            for site in sites(self.inputs.model.config):
                x, y = self.capture.entries[site]
                h.update(x.tobytes())
                h.update(y.tobytes())
        if self.cache is not None:
            h.update(self.cache.fingerprint().encode())
        return h.hexdigest()


def set_up(workload: str, seed: int) -> Fixture:
    """Generate the inputs and the untimed part of the pipeline."""
    fx = Fixture(make_inputs(workload, seed))
    model, corpus = fx.inputs.model, fx.inputs.corpus
    if workload in ("ga-small", "cache-levels"):
        tokens = 4000 if workload == "ga-small" else 6000
        start = clock()
        fx.capture = calibrate.capture_calibration(model, corpus, min_tokens=tokens)
        fx.capture_s = clock() - start
    if workload == "ga-small":
        start = clock()
        fx.cache = calibrate.build_cache(model, fx.capture, GA_FACTORS, GA_OPTS, workers=WORKERS)
        fx.cache_build_s = clock() - start
    return fx


class TimedEval:
    """Wraps an eval function: one latency sample and one checked result
    per evaluated vector."""

    def __init__(self, fn: Callable, n_prompts: int):
        self.fn = fn
        self.n_prompts = n_prompts
        self.latencies: list[float] = []
        self.failed = 0

    def __call__(self, vector: PruningVector):
        start = clock()
        result = self.fn(vector)
        self.latencies.append(clock() - start)
        if not checks.eval_ok(result, self.n_prompts):
            self.failed += 1
        return result


@dataclass
class Round:
    """One timed pass of a workload and everything checked about it."""

    wall_s: float = 0.0
    search_s: float = 0.0
    capture_s: float | None = None
    cache_build_s: float | None = None
    latencies: list[float] = field(default_factory=list)
    eval_failed: int = 0
    entries: int = 0
    entry_failures: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    best_compression: float = math.nan
    task_accuracy: float = math.nan
    calib_errors: list[float] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def add_cache(self, model, capture, cache) -> None:
        n, failures = checks.check_cache(model, capture, cache)
        self.entries += n
        self.entry_failures += failures
        self.calib_errors += [fm.calib_error for (_, fi), fm in cache.entries.items()
                              if fi > 0 and fm is not None]


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _joint_sha256(paths) -> str:
    return hashlib.sha256("".join(_sha256(p) for p in paths).encode()).hexdigest()


def _ga_round(fx: Fixture, out_dir: str) -> Round:
    model, task, cache = fx.inputs.model, fx.inputs.task, fx.cache
    r = Round()
    start = clock()
    ev = TimedEval(search.make_eval_fn(model, cache, task), len(task.prompts))
    r.search_s = clock() - start
    results = []
    for ga_seed in GA_SEEDS:
        history = os.path.join(out_dir, f"history_{ga_seed}.jsonl")
        t0 = clock()
        res = search.ga_search(model, cache, task, GaConfig(seed=ga_seed, workers=WORKERS),
                               eval_fn=ev, history_path=history)
        r.search_s += clock() - t0
        rep = report.build_report(
            model, PruningVector(res.best.genes, cache.factor_set), "ga",
            res.a_star, res.a0, res.best.accuracy, task.epsilon,
            cache.model_fingerprint, cache.calib_fingerprint,
            history=res.history, history_file=os.path.basename(history),
            feasible=res.feasible)
        report.emit_report(rep, os.path.join(out_dir, f"report_{ga_seed}"))
        results.append((res, history))
    r.wall_s = clock() - start

    r.latencies, r.eval_failed = ev.latencies, ev.failed
    population = GaConfig().population
    for res, history in results:
        r.failures += checks.check_unpruned(res.a_star)
        r.failures += checks.check_feasible(res.best.accuracy, res.a0, res.feasible)
        r.failures += checks.check_ga_history(res, population, history)
    r.best_compression = statistics.median(res.best.compression for res, _ in results)
    r.task_accuracy = statistics.median(res.best.accuracy for res, _ in results)
    r.add_cache(model, fx.capture, cache)
    r.digests = {
        "cache": cache.fingerprint(),
        "history.jsonl": _joint_sha256(h for _, h in results),
        "report.json": _joint_sha256(os.path.join(out_dir, f"report_{s}", "report.json")
                                     for s in GA_SEEDS),
    }
    return r


def _levels_round(fx: Fixture, out_dir: str) -> Round:
    model, task, capture = fx.inputs.model, fx.inputs.task, fx.capture
    r = Round()
    start = clock()
    cache = calibrate.build_cache(model, capture, DEFAULT_FACTOR_SET, LEVELS_OPTS,
                                  workers=WORKERS)
    mid = clock()
    ev = TimedEval(search.make_eval_fn(model, cache, task), len(task.prompts))
    points = report.sweep_uniform(model, cache, task, eval_fn=ev)
    result = search.binary_search_uniform(model, cache, task, eval_fn=ev)
    searched = clock()
    history = os.path.join(out_dir, "history.jsonl")
    search.write_history(result.history, history)
    rep = report.build_report(
        model, result.vector, "up", result.a_star, result.a0,
        result.eval_result.accuracy, task.epsilon,
        cache.model_fingerprint, cache.calib_fingerprint,
        history=None, history_file="history.jsonl", feasible=result.pruned)
    report.emit_report(rep, out_dir)
    r.wall_s = clock() - start
    r.cache_build_s, r.search_s = mid - start, searched - mid

    r.latencies, r.eval_failed = ev.latencies, ev.failed
    r.add_cache(model, capture, cache)
    r.failures += checks.check_unpruned(result.a_star)
    r.failures += checks.check_unpruned(points[0].accuracy)
    r.failures += checks.check_feasible(result.eval_result.accuracy, result.a0)
    r.best_compression = rep.compression
    r.task_accuracy = result.eval_result.accuracy
    r.digests = {
        "cache": cache.fingerprint(),
        "history.jsonl": _sha256(history),
        "report.json": _sha256(os.path.join(out_dir, "report.json")),
    }
    return r


def _calib_round(fx: Fixture, out_dir: str) -> Round:
    """calibration_sweep builds its captures and caches internally, so its
    stages are timed by binding timers at the names it calls them by."""
    model, task = fx.inputs.model, fx.inputs.task
    r = Round(capture_s=0.0, cache_build_s=0.0)
    probe_s = 0.0        # time spent checking inside the sweep, not counted
    evals: list[TimedEval] = []
    kept = {}

    def capture(*args, **kwargs):
        nonlocal probe_s
        t0 = clock()
        cap = original_capture(*args, **kwargs)
        t1 = clock()
        r.capture_s += t1 - t0
        kept["sample"] = checks.capture_sample(model, cap)
        kept["capture"] = cap
        probe_s += clock() - t1
        return cap

    def build_cache(*args, **kwargs):
        nonlocal probe_s
        t0 = clock()
        cache = original_build_cache(*args, **kwargs)
        t1 = clock()
        r.cache_build_s += t1 - t0
        r.add_cache(model, kept.pop("capture"), cache)
        kept["cache"] = cache
        probe_s += clock() - t1
        return cache

    def make_eval_fn(*args, **kwargs):
        ev = TimedEval(original_make_eval_fn(*args, **kwargs), len(task.prompts))
        evals.append(ev)
        return ev

    original_capture = report.capture_calibration
    original_build_cache = report.build_cache
    original_make_eval_fn = report.make_eval_fn
    with patched([(report, "capture_calibration", capture),
                  (report, "build_cache", build_cache),
                  (report, "make_eval_fn", make_eval_fn)]):
        start = clock()
        points = report.calibration_sweep(
            model, fx.inputs.corpus, CALIB_SIZES, task, level=CALIB_LEVEL,
            opts=FactorizeOptions(), workers=WORKERS)
        swept = clock() - start - probe_s

    cache = kept["cache"]
    n_sites = len(sites(model.config))
    a_star = evals[-1](PruningVector.all_ones(cache.factor_set, n_sites)).accuracy
    a0 = search.threshold_accuracy(a_star, task.epsilon)
    start = clock()
    vector = PruningVector.uniform(cache.factor_set, n_sites, 1)
    accuracy = points[-1][1]
    rep = report.build_report(
        model, vector, "up", a_star, a0, accuracy, task.epsilon,
        cache.model_fingerprint, cache.calib_fingerprint,
        history=None, history_file=None, feasible=accuracy >= a0)
    report.emit_report(rep, out_dir)
    r.wall_s = swept + clock() - start
    r.search_s = swept - r.capture_s - r.cache_build_s

    # the first call of each size's eval function is the sweep's; the last
    # function also scored the unpruned vector after the timer stopped
    r.latencies = [ev.latencies[0] for ev in evals]
    r.eval_failed = sum(ev.failed for ev in evals)
    r.failures += checks.check_capture_sample(kept["sample"])
    r.failures += checks.check_unpruned(a_star)
    if [size for size, _ in points] != list(CALIB_SIZES):
        r.failures.append(f"calibration sweep covered {[s for s, _ in points]}")
    r.best_compression = rep.compression
    r.task_accuracy = accuracy
    r.digests = {
        "cache": cache.fingerprint(),
        "history.jsonl": "none",
        "report.json": _sha256(os.path.join(out_dir, "report.json")),
    }
    return r


def run_round(workload: str, fx: Fixture, out_dir: str) -> Round:
    os.makedirs(out_dir, exist_ok=True)
    if workload == "ga-small":
        r = _ga_round(fx, out_dir)
    elif workload == "cache-levels":
        r = _levels_round(fx, out_dir)
    else:
        r = _calib_round(fx, out_dir)
    if fx.capture is not None:
        r.failures += checks.check_capture_sample(checks.capture_sample(fx.inputs.model,
                                                                        fx.capture))
    return r
