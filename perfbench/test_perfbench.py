"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import cpu_spread  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from taskprune import calibrate, search  # noqa: E402
from taskprune.calibrate import FactorSet, PruningVector  # noqa: E402
from taskprune.factorize import FactorizeOptions  # noqa: E402
from taskprune.linalg import derive_rng  # noqa: E402
from taskprune.model import model_to_bytes, random_model  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    first = workloads.make_inputs(workload, 7).to_bytes()
    assert workloads.make_inputs(workload, 7).to_bytes() == first
    assert workloads.make_inputs(workload, 8).to_bytes() != first
    assert workloads.make_inputs(workload, 0).to_bytes() != first


def test_seed_zero_is_the_acceptance_fixture():
    # the criterion-8 and criterion-9 fixtures, generated as the suite does
    rng = derive_rng(700)
    letters = sorted(rng.choice(np.arange(1, 256), size=16, replace=False).tolist())
    corpus = bytes(rng.choice(letters, size=4000).tolist())
    prompts = [bytes(rng.choice(letters, size=10).tolist()) for _ in range(64)]
    ga = workloads.make_inputs("ga-small", 0)
    assert ga.corpus == corpus and ga.task.prompts == prompts
    assert ga.task.max_new_tokens == 4 and ga.task.epsilon == 0.1
    assert model_to_bytes(ga.model) == model_to_bytes(
        random_model(workloads.GA_MODEL, seed=3, spectral_decay=0.6))

    rng = derive_rng(501)
    letters = sorted(rng.choice(np.arange(1, 256), size=16, replace=False).tolist())
    corpus = bytes(rng.choice(letters, size=6000).tolist())
    prompts = [bytes(rng.choice(letters, size=12).tolist()) for _ in range(64)]
    for name in ("cache-levels", "calib-scale"):
        sweep = workloads.make_inputs(name, 0)
        assert sweep.corpus[:6000] == corpus and sweep.task.prompts == prompts
        assert model_to_bytes(sweep.model) == model_to_bytes(
            random_model(workloads.SWEEP_MODEL, seed=1, spectral_decay=0.6))
    assert len(workloads.make_inputs("calib-scale", 0).corpus) == max(workloads.CALIB_SIZES)


def test_metric_names_and_units_match_the_benchmark_file():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == spans.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    names = [*run.END_TO_END, *run.REPORTED, *spans.PER_LAYER_UNITS, *spans.STRATEGY_UNITS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


@pytest.fixture(scope="module")
def small_cache():
    inputs = workloads.make_inputs("ga-small", 0)
    capture = calibrate.capture_calibration(inputs.model, inputs.corpus, min_tokens=4000)
    cache = calibrate.build_cache(inputs.model, capture, FactorSet((1.0, 0.5, 0.1)),
                                  FactorizeOptions(epochs=1, batch_tokens=2000), workers=1)
    return inputs, capture, cache


def test_correct_outputs_pass_the_checks(small_cache):
    inputs, capture, cache = small_cache
    n, failures = checks.check_cache(inputs.model, capture, cache)
    assert (n, failures) == (16, [])
    assert checks.check_capture_sample(checks.capture_sample(inputs.model, capture)) == []


def test_corrupted_outputs_are_counted_not_raised(small_cache, tmp_path):
    inputs, capture, cache = small_cache
    keys = sorted((k for k in cache.entries if k[1] > 0), key=str)
    entries = dict(cache.entries)
    fm = entries[keys[0]]
    entries[keys[0]] = type(fm)(fm.b, fm.c, fm.rank, fm.method, math.nan, fm.achieved_factor)
    entries[keys[1]] = type(fm)(fm.b[:, :1], fm.c, fm.rank, fm.method, 0.0, fm.achieved_factor)
    del entries[keys[2]]
    broken = calibrate.AdapterCache(cache.config, cache.factor_set, cache.model_fingerprint,
                                    cache.calib_fingerprint, cache.options, entries,
                                    frozenset({keys[3]}))
    n, failures = checks.check_cache(inputs.model, capture, broken)
    assert n == 16 and len(failures) == 4

    assert checks.check_cache(inputs.model, None, cache)[1]        # check itself raises
    sample = checks.capture_sample(inputs.model, capture)
    name, w, x, y = sample[0]
    sample[0] = (name, w, x, y + 1e-3)
    assert len(checks.check_capture_sample(sample)) == 1

    assert not checks.eval_ok(search.EvalResult(0.5, (True,)), 1)
    assert not checks.eval_ok(None, 1)
    assert checks.check_unpruned(0.98)
    assert checks.check_feasible(0.8, 0.9)
    result = search.GaResult(None, [], 1.0, 0.9, True, 3)
    assert checks.check_ga_history(result, 100, tmp_path / "missing.jsonl")


def test_tracing_changes_nothing_and_restores_every_name(small_cache):
    inputs, capture, cache = small_cache
    originals = {(m.__name__, a): getattr(m, a) for _, m, a in spans.TARGETS}
    vector = PruningVector((1, 2, 0, 1, 2, 0, 1, 2), cache.factor_set)

    def pipeline():
        ev = search.make_eval_fn(inputs.model, cache, inputs.task)
        return ev(vector).verdicts

    plain = pipeline()
    recorder = spans.Recorder()
    with spans.tracing(recorder):
        traced = pipeline()
    assert traced == plain
    assert {(m.__name__, a): getattr(m, a) for _, m, a in spans.TARGETS} == originals
    layer = spans.per_layer_metrics(recorder, 0.0)
    assert set(layer) == set(spans.PER_LAYER_UNITS) | set(spans.STRATEGY_UNITS)
    assert layer["model.decode_batch.calls"] == 2          # baseline, then the vector
    assert layer["model.decode_rows"] == 2 * 64 * (10 + 11 + 12 + 13)
    assert layer["calibrate.assemble.calls"] == 1


def test_self_time_excludes_children(monkeypatch):
    clock = iter([0.0, 1.0, 3.0, 10.0])     # outer start, inner start/end, outer end
    monkeypatch.setattr(spans, "clock", lambda: next(clock))
    rec = spans.Recorder()
    inner = rec.wrap("model.gelu", lambda: None)
    outer = rec.wrap("factorize.output_aligned", inner)
    outer()
    layer = spans.per_layer_metrics(rec, 0.0)
    assert layer["factorize.output_aligned.self_s"] == 8.0
    assert layer["model.gelu.s"] == 2.0
    assert layer["model.gelu.calls"] == 1


def test_cpu_spreading_moves_the_process_and_restores_its_cpus():
    before = os.sched_getaffinity(0)
    narrowed = False
    with cpu_spread.spread_over_cpus():
        deadline = time.monotonic() + 5.0
        while len(before) > 1 and not narrowed and time.monotonic() < deadline:
            narrowed = len(os.sched_getaffinity(0)) == 1
            time.sleep(0.01)
    assert narrowed or len(before) == 1
    assert os.sched_getaffinity(0) == before


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert run.percentile(samples, 50) == 50
    assert run.percentile(samples, 99) == 99
    assert run.percentile([3.0], 99) == 3.0


def test_without_the_library_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ga-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
