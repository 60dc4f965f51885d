"""Acceptance suite: one test per criterion, tolerances pinned.

Heavy fixtures (the 50-instance factorization family, the GA-vs-exhaustive
setup, the 4-layer sweep model) are module-scoped so each is built once.
Criteria are numbered in the test names; the terminal summary prints one
PASS/FAIL line per criterion.
"""

from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

import taskprune as tp
from taskprune.calibrate import (
    FactorSet,
    PruningVector,
    build_cache,
    capture_calibration,
    compression_ratio,
    load_cache,
    save_cache,
)
from taskprune.factorize import (
    FactorizeOptions,
    OutputAlignedSite,
    rank_for_factor,
    reconstruction_gradients,
)
from taskprune.linalg import derive_rng
from taskprune.model import forward, model_to_bytes, sites
from taskprune.report import emit_report, build_report, sweep_uniform
from taskprune.search import (
    EvalRecord,
    EvalResult,
    GaConfig,
    TaskMode,
    TaskSpec,
    binary_search_uniform,
    bottleneck_analysis,
    evaluate,
    fitness_from_compression,
    ga_search,
    load_task,
    make_eval_fn,
    save_task,
    threshold_accuracy,
)

S_LEVELS = (1.0, 0.9, 0.75, 0.6, 0.5, 0.35, 0.25, 0.2, 0.1, 0.05)


# --- criteria 1 & 2: the 50-instance misaligned factorization family --------

def misaligned(seed: int, d: int = 32, n_tokens: int = 256, decay: float = 0.6):
    rng = derive_rng(seed)
    w = rng.normal(size=(d, d))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    x = q @ (decay ** np.arange(d)[:, None] * rng.normal(size=(d, n_tokens)))
    return w, x


@pytest.fixture(scope="module")
def fifty_instances():
    cases = []
    for seed in range(17):
        for rank in (2, 4, 8):
            if len(cases) == 50:
                break
            w, x = misaligned(seed)
            cases.append((seed, rank, w, x))
    return cases


def test_criterion_01_oracle_dominance(fifty_instances):
    start = time.time()
    wins = 0
    for seed, rank, w, x in fifty_instances:
        site = OutputAlignedSite(w, x)
        rrr, svd, pca = site.closed_form(rank), site.svd_w(rank), site.pca_x(rank)
        assert rrr.calib_error < svd.calib_error   # strict: misaligned family
        assert rrr.calib_error < pca.calib_error
        wins += 1
    assert wins == 50
    assert time.time() - start < 60.0


def test_criterion_02_gd_within_5pct_of_oracle(fifty_instances):
    start = time.time()
    for seed, rank, w, x in fifty_instances:
        site = OutputAlignedSite(w, x)
        rrr, init = site.closed_form(rank), site.svd_w(rank)
        gd = site.fit(
            rank,
            FactorizeOptions(epochs=5000, batch_tokens=64, learning_rate=0.003,
                             seed=seed),
        )
        assert gd.calib_error <= init.calib_error
        assert gd.calib_error <= rrr.calib_error * 1.05
    assert time.time() - start < 300.0


def test_criterion_03_gradient_correctness():
    rng = derive_rng(1000)
    for _ in range(20):
        b = rng.normal(size=(6, 3))
        c = rng.normal(size=(3, 6))
        x = rng.normal(size=(6, 6))
        y = rng.normal(size=(6, 6))
        gb, gc = reconstruction_gradients(b, c, x, y)

        def loss():
            r = y - b @ c @ x
            return 0.5 * float(np.sum(r * r))

        h = 1e-6
        for mat, grad in ((b, gb), (c, gc)):
            numeric = np.zeros_like(mat)
            for i in range(mat.shape[0]):
                for j in range(mat.shape[1]):
                    orig = mat[i, j]
                    mat[i, j] = orig + h
                    up = loss()
                    mat[i, j] = orig - h
                    down = loss()
                    mat[i, j] = orig
                    numeric[i, j] = (up - down) / (2.0 * h)
            scale = max(float(np.max(np.abs(numeric))), 1e-12)
            assert float(np.max(np.abs(grad - numeric))) / scale < 1e-6


def test_criterion_04_pruning_factor_arithmetic():
    shapes = [(8, 8), (16, 48), (32, 96), (16, 32), (32, 16),
              (64, 64), (24, 72), (48, 24), (2048, 8192), (8192, 2048)]
    assert len(shapes) == 10
    for d_in, d_out in shapes:
        for level in S_LEVELS:
            rank, af = rank_for_factor(level, d_in, d_out)
            if level == 1.0:
                assert rank is None and af == 1.0
                continue
            # the achieved factor is exactly R(H+D)/DH and round-trips to R
            assert af == rank * (d_in + d_out) / (d_in * d_out)
            rank2, af2 = rank_for_factor(af, d_in, d_out)
            assert rank2 == rank
            assert af2 == af
    # 80 layers x 4 matrix kinds = 320 adapters per pruned factor level
    cfg80 = tp.TransformerConfig(n_layers=80, d_model=8, n_heads=2, d_ff=16,
                                 max_seq_len=8)
    site_list = sites(cfg80)
    assert len(site_list) == 320
    jobs_per_level = [(s, fi) for s in site_list for fi in range(1, len(S_LEVELS))]
    assert len(jobs_per_level) == 320 * 9
    assert sum(1 for _, fi in jobs_per_level if fi == 1) == 320


def test_criterion_05_identity_pruning(tiny_model, tiny_cache, tiny_task):
    rng = derive_rng(1001)
    vec = PruningVector.all_ones(tiny_cache.factor_set, 8)
    pruned = tp.assemble(tiny_model, vec, tiny_cache)
    for _ in range(100):
        tokens = rng.integers(0, 256, size=int(rng.integers(1, 16))).tolist()
        base, _ = forward(tiny_model, tokens)
        same, _ = forward(pruned, tokens)
        assert np.array_equal(base, same)
    ev = make_eval_fn(tiny_model, tiny_cache, tiny_task)
    a_star = ev(vec).accuracy
    from taskprune.search import exact_match_task
    direct = evaluate(tiny_model, exact_match_task(tiny_model, tiny_task))
    assert a_star == direct.accuracy


def test_criterion_06_fitness_formula():
    assert fitness_from_compression(0.4, 0.7, 0.7) == pytest.approx(0.8, abs=1e-9)
    assert fitness_from_compression(0.5, 0.5, 0.7) == pytest.approx(
        0.5 * (1.0 + math.exp(-10.0)), abs=1e-9)
    assert fitness_from_compression(0.5, 0.72, 0.7) == pytest.approx(
        0.5 * (1.0 + math.exp(1.0)), abs=1e-9)
    rng = derive_rng(1002)
    for _ in range(1000):
        c = float(rng.uniform(0.001, 1.0))
        a = float(rng.uniform(0.0, 1.0))
        a0 = float(rng.uniform(0.0, 1.0))
        f = fitness_from_compression(c, a, a0)
        if a >= a0:
            assert f >= 2.0 * c
        else:
            assert f < 2.0 * c


def test_criterion_07_binary_search_boundaries(tiny_model, tiny_cache):
    task = TaskSpec(TaskMode.BASELINE_AGREEMENT, [b"ab"], None, 2, 0.05)
    for boundary in range(10):
        calls = []

        def ev(vector, _b=boundary, _calls=None):
            calls.append(vector.indices[0])
            return EvalResult(accuracy=1.0 if vector.indices[0] <= _b else 0.0,
                              verdicts=(True,))

        result = binary_search_uniform(tiny_model, tiny_cache, task, eval_fn=ev)
        assert result.level_index == boundary
        assert result.evaluations <= 4


# --- criterion 8: GA vs exhaustive enumeration ------------------------------

@pytest.fixture(scope="module")
def ga_fixture():
    cfg = tp.TransformerConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                               max_seq_len=32)
    model = tp.random_model(cfg, seed=3, spectral_decay=0.6)
    rng = derive_rng(700)
    letters = sorted(rng.choice(np.arange(1, 256), size=16, replace=False).tolist())
    corpus = bytes(rng.choice(letters, size=4000).tolist())
    capture = capture_calibration(model, corpus, min_tokens=4000)
    factor_set = FactorSet((1.0, 0.5, 0.1))
    cache = build_cache(model, capture, factor_set,
                        FactorizeOptions(epochs=25, batch_tokens=1000,
                                         learning_rate=0.003, seed=0),
                        workers=8)
    prompts = [bytes(rng.choice(letters, size=10).tolist()) for _ in range(64)]
    task = TaskSpec(TaskMode.BASELINE_AGREEMENT, prompts, None, 4, 0.1)
    return model, cache, task


def test_criterion_08_ga_vs_exhaustive(ga_fixture):
    start = time.time()
    model, cache, task = ga_fixture
    ev = make_eval_fn(model, cache, task)
    a_star = ev(PruningVector.all_ones(cache.factor_set, 8)).accuracy
    a0 = threshold_accuracy(a_star, task.epsilon)

    # independent oracle: enumerate all 3^8 = 6561 configurations
    best_fitness = -math.inf
    for genes in itertools.product(range(3), repeat=8):
        vec = PruningVector(genes, cache.factor_set)
        res = ev(vec)
        c = compression_ratio(vec, model.config)
        best_fitness = max(best_fitness, fitness_from_compression(c, res.accuracy, a0))

    for seed in range(5):
        result = ga_search(model, cache, task, GaConfig(seed=seed))
        assert result.best.fitness >= 0.95 * best_fitness
    assert time.time() - start < 1800.0


# --- criterion 9: two-phase uniform sweep ------------------------------------

@pytest.fixture(scope="module")
def sweep_fixture():
    cfg = tp.TransformerConfig(n_layers=4, d_model=32, n_heads=4, d_ff=64,
                               max_seq_len=48)
    model = tp.random_model(cfg, seed=1, spectral_decay=0.6)
    rng = derive_rng(501)
    letters = sorted(rng.choice(np.arange(1, 256), size=16, replace=False).tolist())
    corpus = bytes(rng.choice(letters, size=6000).tolist())
    capture = capture_calibration(model, corpus, min_tokens=6000)
    cache = build_cache(model, capture,
                        opts=FactorizeOptions(epochs=25, batch_tokens=1000,
                                              learning_rate=0.003, seed=0),
                        workers=8)
    prompts = [bytes(rng.choice(letters, size=12).tolist()) for _ in range(64)]
    task = TaskSpec(TaskMode.BASELINE_AGREEMENT, prompts, None, 4, 0.05)
    return model, cache, task


def test_criterion_09_two_phase_trend(sweep_fixture):
    model, cache, task = sweep_fixture
    points = sweep_uniform(model, cache, task)
    accs = [p.accuracy for p in points]
    pruned_fraction = [p.compression for p in points]
    a_star = accs[0]
    assert a_star == 1.0
    # non-increasing in pruned fraction
    assert all(b <= a for a, b in zip(accs, accs[1:]))
    rho = spearmanr(pruned_fraction, accs).statistic
    assert rho <= -0.9
    # flat region at low pruning, collapse at the aggressive end
    assert min(accs[:4]) >= 0.95 * a_star
    assert accs[-1] <= 0.2 * a_star


def test_criterion_10_determinism_and_persistence(
    tiny_model, tiny_capture, tiny_cache, tiny_task, tmp_path
):
    # cache fingerprints reproduce under identical seeds and worker counts
    opts = FactorizeOptions(epochs=3, batch_tokens=500, seed=13)
    fset = FactorSet((1.0, 0.5, 0.1))
    cache_a = build_cache(tiny_model, tiny_capture, fset, opts, workers=1)
    cache_b = build_cache(tiny_model, tiny_capture, fset, opts, workers=4)
    assert cache_a.fingerprint() == cache_b.fingerprint()

    # GA histories byte-for-byte
    cfg = GaConfig(population=16, seed=21, stall_generations=3, max_generations=5)
    ga_search(tiny_model, tiny_cache, tiny_task, cfg, history_path=tmp_path / "a.jsonl")
    ga_search(tiny_model, tiny_cache, tiny_task, cfg, history_path=tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    # reports byte-for-byte
    history = [EvalRecord(0, (0, 1, 2, 3, 0, 1, 2, 3), 0.9, 0.4, 5.0)]
    report = build_report(tiny_model, PruningVector((0, 1, 2, 3, 0, 1, 2, 3)),
                          "ga", 1.0, 0.95, 0.9, 0.05, "m" * 64, "c" * 64,
                          history=history, history_file="h.jsonl")
    emit_report(report, tmp_path / "r1")
    emit_report(report, tmp_path / "r2")
    assert ((tmp_path / "r1" / "report.json").read_bytes()
            == (tmp_path / "r2" / "report.json").read_bytes())

    # bit-exact round trips: model, cache, task
    tp.save_model(tiny_model, tmp_path / "m.siev")
    assert model_to_bytes(tp.load_model(tmp_path / "m.siev")) == model_to_bytes(tiny_model)
    save_cache(cache_a, tmp_path / "cache.siev")
    loaded = load_cache(tmp_path / "cache.siev")
    assert loaded.fingerprint() == cache_a.fingerprint()
    save_cache(loaded, tmp_path / "cache2.siev")
    assert (tmp_path / "cache.siev").read_bytes() == (tmp_path / "cache2.siev").read_bytes()
    task = TaskSpec(TaskMode.EXACT_MATCH, [b"ping"], [b"pong"], 4, 0.05)
    save_task(task, tmp_path / "t.json")
    assert load_task(tmp_path / "t.json") == task
    save_task(load_task(tmp_path / "t.json"), tmp_path / "t2.json")
    assert (tmp_path / "t.json").read_bytes() == (tmp_path / "t2.json").read_bytes()


def test_criterion_11_bottleneck_analysis():
    rng = derive_rng(1003)
    n_sites = 8
    records = []
    for _ in range(60):
        genes = [int(g) for g in rng.integers(1, 4, size=n_sites)]
        genes[2] = 0   # exactly sites 2 and 5 stay unpruned in the top cohort
        genes[5] = 0
        records.append(EvalRecord(0, tuple(genes), 0.95, 0.5,
                                  float(rng.uniform(9.0, 10.0))))
    for _ in range(40):  # below the 20% window, with those sites pruned
        genes = [int(g) for g in rng.integers(1, 4, size=n_sites)]
        records.append(EvalRecord(1, tuple(genes), 0.2, 0.8,
                                  float(rng.uniform(0.1, 1.0))))
    probs, flagged = bottleneck_analysis(records)
    assert flagged == [2, 5]
    assert probs[2] == 1.0 and probs[5] == 1.0
