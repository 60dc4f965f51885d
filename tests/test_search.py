from __future__ import annotations

import json
import math

import numpy as np
import pytest

import taskprune as tp
from taskprune.calibrate import DEFAULT_FACTOR_SET, FactorSet, PruningVector, compression_ratio
from taskprune.linalg import derive_rng
from taskprune.search import (
    Chromosome,
    EvalRecord,
    EvalResult,
    GaConfig,
    TaskMode,
    TaskSpec,
    baseline_decodes,
    binary_search_uniform,
    bottleneck_analysis,
    evaluate,
    fitness_from_compression,
    ga_search,
    load_task,
    make_eval_fn,
    read_history,
    save_task,
    threshold_accuracy,
    write_history,
)


class TestTaskSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TaskSpec(TaskMode.BASELINE_AGREEMENT, [], None, 4, 0.05)
        with pytest.raises(ValueError):
            TaskSpec(TaskMode.EXACT_MATCH, [b"a"], None, 4, 0.05)
        with pytest.raises(ValueError):
            TaskSpec(TaskMode.EXACT_MATCH, [b"a"], [b"x", b"y"], 4, 0.05)
        with pytest.raises(ValueError):
            TaskSpec(TaskMode.BASELINE_AGREEMENT, [b"a"], None, 4, 1.0)
        with pytest.raises(ValueError):
            TaskSpec(TaskMode.BASELINE_AGREEMENT, [b"a"], None, 0, 0.1)

    def test_json_round_trip(self, tmp_path):
        task = TaskSpec(TaskMode.EXACT_MATCH, [b"hello", b"there"],
                        [b"yes", b"no"], 6, 0.05)
        path = tmp_path / "task.json"
        save_task(task, path)
        loaded = load_task(path)
        assert loaded == task
        # canonical serialization is byte-stable
        save_task(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


class TestEvaluate:
    def test_unpruned_agreement_is_one(self, tiny_model, tiny_task):
        baseline = baseline_decodes(tiny_model, tiny_task)
        res = evaluate(tiny_model, tiny_task, baseline)
        assert res.accuracy == 1.0
        assert all(res.verdicts)

    def test_all_ones_vector_scores_a_star(self, tiny_model, tiny_cache, tiny_task):
        ev = make_eval_fn(tiny_model, tiny_cache, tiny_task)
        res = ev(PruningVector.all_ones(tiny_cache.factor_set, 8))
        assert res.accuracy == 1.0

    def test_exact_match_half_wrong(self, tiny_model, tiny_letters):
        rng = derive_rng(70)
        prompts = [bytes(rng.choice(tiny_letters, size=6).tolist()) for _ in range(8)]
        probe = TaskSpec(TaskMode.BASELINE_AGREEMENT, prompts, None, 3, 0.0)
        decodes = baseline_decodes(tiny_model, probe)
        expected = []
        for i, d in enumerate(decodes):
            text = bytes(d)
            if i % 2 == 1:
                text = text + b"\x01"  # deliberately wrong
            expected.append(text)
        task = TaskSpec(TaskMode.EXACT_MATCH, prompts, expected, 3, 0.0)
        res = evaluate(tiny_model, task)
        assert res.accuracy == 0.5
        assert res.verdicts == (True, False) * 4

    def test_agreement_requires_baseline(self, tiny_model, tiny_task):
        with pytest.raises(ValueError, match="baseline"):
            evaluate(tiny_model, tiny_task)

    def test_expected_truncates_at_stop_byte(self, tiny_model, tiny_letters):
        rng = derive_rng(71)
        prompts = [bytes(rng.choice(tiny_letters, size=6).tolist())]
        probe = TaskSpec(TaskMode.BASELINE_AGREEMENT, prompts, None, 3, 0.0)
        decoded = bytes(baseline_decodes(tiny_model, probe)[0])
        task = TaskSpec(TaskMode.EXACT_MATCH, prompts, [decoded + b"\x00garbage"], 3, 0.0)
        assert evaluate(tiny_model, task).accuracy == 1.0


class TestThreshold:
    def test_formula(self):
        assert threshold_accuracy(0.9, 0.05) == pytest.approx(0.855)
        assert threshold_accuracy(0.75, 0.0) == 0.75
        assert threshold_accuracy(0.66, 0.05) == pytest.approx(0.627)

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            threshold_accuracy(0.9, 1.0)
        with pytest.raises(ValueError):
            threshold_accuracy(0.9, -0.01)


class TestFitness:
    def test_at_threshold_doubles_compression(self):
        assert fitness_from_compression(0.4, 0.7, 0.7) == pytest.approx(0.8, abs=1e-9)

    def test_below_threshold(self):
        expected = 0.5 * (1 + math.exp(-10))
        assert fitness_from_compression(0.5, 0.5, 0.7) == pytest.approx(expected, abs=1e-9)

    def test_above_threshold(self):
        expected = 0.5 * (1 + math.exp(1))
        assert fitness_from_compression(0.5, 0.72, 0.7) == pytest.approx(expected, abs=1e-9)

    def test_exponent_clamped(self):
        val = fitness_from_compression(1.0, 100.0, 0.0)
        assert val == pytest.approx(1.0 + math.exp(60.0))
        assert math.isfinite(val)

    def test_monotone_in_compression_and_accuracy(self):
        rng = derive_rng(72)
        for _ in range(50):
            a0 = float(rng.uniform(0.2, 0.9))
            a = float(rng.uniform(0.0, 1.0))
            c1, c2 = sorted(rng.uniform(0.01, 1.0, size=2))
            assert (fitness_from_compression(c1, a, a0)
                    <= fitness_from_compression(c2, a, a0))
            c = float(rng.uniform(0.01, 1.0))
            a1, a2 = sorted(rng.uniform(0.0, 1.0, size=2))
            assert (fitness_from_compression(c, a1, a0)
                    <= fitness_from_compression(c, a2, a0))

    def test_feasibility_dominance(self):
        rng = derive_rng(73)
        a0 = 0.8
        for _ in range(200):
            c = float(rng.uniform(0.01, 1.0))
            a = float(rng.uniform(0.0, 1.0))
            f = fitness_from_compression(c, a, a0)
            if a >= a0:
                assert f >= 2.0 * c
            else:
                assert f < 2.0 * c


def scripted_eval(boundary_index: int, n_sites: int = 8):
    """Step-function evaluator: uniform levels up to boundary_index stay at
    accuracy 1.0, more aggressive levels collapse to 0. Counts calls."""
    calls = []

    def ev(vector: PruningVector) -> EvalResult:
        calls.append(vector.indices)
        level_index = vector.indices[0]
        acc = 1.0 if level_index <= boundary_index else 0.0
        return EvalResult(accuracy=acc, verdicts=(acc == 1.0,) * 4)

    return ev, calls


class TestBinarySearch:
    @pytest.mark.parametrize("boundary", range(10))
    def test_every_boundary_position(self, tiny_model, tiny_cache, boundary):
        tasks = TaskSpec(TaskMode.BASELINE_AGREEMENT, [b"ab"], None, 2, 0.05)
        ev, calls = scripted_eval(boundary)
        result = binary_search_uniform(tiny_model, tiny_cache, tasks, eval_fn=ev)
        assert result.level_index == boundary
        assert result.evaluations <= 4
        assert len(calls) == result.evaluations + 1  # plus the baseline call

    def test_all_feasible_returns_most_aggressive(self, tiny_model, tiny_cache):
        task = TaskSpec(TaskMode.BASELINE_AGREEMENT, [b"ab"], None, 2, 0.05)
        ev, calls = scripted_eval(9)
        result = binary_search_uniform(tiny_model, tiny_cache, task, eval_fn=ev)
        assert result.vector.levels() == (0.05,) * 8
        assert result.evaluations == 4
        assert result.warning is None

    def test_nothing_feasible_warns_and_returns_all_ones(self, tiny_model, tiny_cache):
        task = TaskSpec(TaskMode.BASELINE_AGREEMENT, [b"ab"], None, 2, 0.05)
        ev, _ = scripted_eval(0)
        result = binary_search_uniform(tiny_model, tiny_cache, task, eval_fn=ev)
        assert result.vector.is_all_ones()
        assert result.warning is not None
        assert not result.pruned

    def test_real_pipeline(self, tiny_model, tiny_cache, tiny_task):
        result = binary_search_uniform(tiny_model, tiny_cache, tiny_task)
        assert result.a_star == 1.0
        assert result.a0 == pytest.approx(0.9)
        assert result.eval_result.accuracy >= result.a0
        assert result.evaluations <= 4
        assert len(result.history) == result.evaluations + 1

    def test_history_records_are_consistent(self, tiny_model, tiny_cache, tiny_task):
        result = binary_search_uniform(tiny_model, tiny_cache, tiny_task)
        for rec in result.history:
            vec = PruningVector(rec.genes, tiny_cache.factor_set)
            assert rec.compression == pytest.approx(compression_ratio(vec, tiny_model))


def constant_accuracy_eval(acc: float):
    def ev(vector: PruningVector) -> EvalResult:
        return EvalResult(accuracy=acc, verdicts=(True,))
    return ev


class TestGaSearch:
    def test_trivially_easy_task_converges_to_max_compression(self, tiny_model, tiny_cache):
        task = TaskSpec(TaskMode.BASELINE_AGREEMENT, [b"ab"], None, 2, 0.05)
        cfg = GaConfig(population=40, seed=4, max_generations=40)
        result = ga_search(tiny_model, tiny_cache, task, cfg,
                           eval_fn=constant_accuracy_eval(1.0))
        # with accuracy pinned at a*, fitness is maximized by pruning everything
        # (the most aggressive levels share rank 1 at this scale, so compare
        # compression, not raw gene indices)
        max_c = compression_ratio(PruningVector((9,) * 8, tiny_cache.factor_set), tiny_model)
        assert result.best.compression == pytest.approx(max_c)
        assert min(result.best.genes) >= 8
        assert result.feasible

    def test_elitism_keeps_best_of_generation_non_decreasing(self, tiny_model, tiny_cache, tiny_task):
        cfg = GaConfig(population=20, seed=5, stall_generations=4, max_generations=12)
        result = ga_search(tiny_model, tiny_cache, tiny_task, cfg)
        per_gen: dict[int, float] = {}
        for rec in result.history:
            per_gen[rec.generation] = max(per_gen.get(rec.generation, -1), rec.fitness)
        gens = sorted(per_gen)
        assert all(per_gen[b] >= per_gen[a] - 1e-12 for a, b in zip(gens, gens[1:]))

    def test_deterministic_given_seed(self, tiny_model, tiny_cache, tiny_task, tmp_path):
        cfg = GaConfig(population=16, seed=6, stall_generations=3, max_generations=6)
        a = ga_search(tiny_model, tiny_cache, tiny_task, cfg,
                      history_path=tmp_path / "h1.jsonl")
        b = ga_search(tiny_model, tiny_cache, tiny_task, cfg,
                      history_path=tmp_path / "h2.jsonl")
        assert (tmp_path / "h1.jsonl").read_bytes() == (tmp_path / "h2.jsonl").read_bytes()
        assert a.best.genes == b.best.genes
        assert a.best.fitness == b.best.fitness

    def test_workers_do_not_change_results(self, tiny_model, tiny_cache, tiny_task):
        base = GaConfig(population=16, seed=7, stall_generations=3,
                        max_generations=5, workers=1)
        par = GaConfig(population=16, seed=7, stall_generations=3,
                       max_generations=5, workers=4)
        a = ga_search(tiny_model, tiny_cache, tiny_task, base)
        b = ga_search(tiny_model, tiny_cache, tiny_task, par)
        assert a.best.genes == b.best.genes
        assert [r.to_dict() for r in a.history] == [r.to_dict() for r in b.history]

    def test_population_seeded_with_uniform_levels(self, tiny_model, tiny_cache, tiny_task):
        cfg = GaConfig(population=20, seed=8, max_generations=1, stall_generations=1)
        result = ga_search(tiny_model, tiny_cache, tiny_task, cfg)
        gen0 = [rec.genes for rec in result.history if rec.generation == 0]
        for idx in range(10):
            assert (idx,) * 8 in gen0

    def test_infeasible_run_warns_and_returns_best_by_fitness(self, tiny_model, tiny_cache, caplog):
        task = TaskSpec(TaskMode.BASELINE_AGREEMENT, [b"ab"], None, 2, 0.05)
        state = {"first": True}

        def ev(vector: PruningVector) -> EvalResult:
            if state["first"]:
                state["first"] = False
                return EvalResult(accuracy=1.0, verdicts=(True,))
            return EvalResult(accuracy=0.0, verdicts=(False,))

        cfg = GaConfig(population=12, n_uniform_seeds=0, seed=9,
                       stall_generations=2, max_generations=3)
        import logging
        with caplog.at_level(logging.WARNING, logger="taskprune.search"):
            result = ga_search(tiny_model, tiny_cache, task, cfg, eval_fn=ev)
        assert not result.feasible
        assert any("threshold" in rec.message for rec in caplog.records)

    def test_resume_reuses_memoized_evaluations(self, tiny_model, tiny_cache, tiny_task, tmp_path):
        cfg = GaConfig(population=12, seed=10, stall_generations=2, max_generations=3)
        path = tmp_path / "hist.jsonl"
        first = ga_search(tiny_model, tiny_cache, tiny_task, cfg, history_path=path)
        calls = []
        real = make_eval_fn(tiny_model, tiny_cache, tiny_task)

        def counting(vector):
            calls.append(vector.indices)
            return real(vector)

        second = ga_search(tiny_model, tiny_cache, tiny_task, cfg, eval_fn=counting,
                           history_path=path, resume=True)
        evaluated_first = {rec.genes for rec in first.history}
        # nothing previously scored is re-decoded (only the baseline + new genes)
        assert all(g not in evaluated_first or g == (0,) * 8 for g in calls)
        assert second.best.fitness >= first.best.fitness - 1e-12


    def test_interrupted_resume_keeps_earlier_history(self, tiny_model, tiny_cache, tiny_task,
                                                      tmp_path):
        cfg = GaConfig(population=12, seed=11, stall_generations=2, max_generations=3)
        path = tmp_path / "hist.jsonl"
        ga_search(tiny_model, tiny_cache, tiny_task, cfg, history_path=path)
        before = path.read_bytes()
        real = make_eval_fn(tiny_model, tiny_cache, tiny_task)
        calls = []

        def interrupted(vector):
            calls.append(vector)
            if len(calls) > 3:
                raise KeyboardInterrupt
            return real(vector)

        resumed = GaConfig(population=12, seed=12, stall_generations=2, max_generations=3)
        with pytest.raises(KeyboardInterrupt):
            ga_search(tiny_model, tiny_cache, tiny_task, resumed, eval_fn=interrupted,
                      history_path=path, resume=True)
        assert len(calls) > 3
        assert path.read_bytes() == before

    def test_completed_resume_rewrites_identical_history(self, tiny_model, tiny_cache, tiny_task,
                                                         tmp_path):
        cfg = GaConfig(population=12, seed=13, stall_generations=2, max_generations=3)
        path = tmp_path / "hist.jsonl"
        first = ga_search(tiny_model, tiny_cache, tiny_task, cfg, history_path=path)
        before = path.read_bytes()
        second = ga_search(tiny_model, tiny_cache, tiny_task, cfg, history_path=path,
                           resume=True)
        assert second.history == first.history
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["hist.jsonl"]


class TestBottleneckAnalysis:
    def test_constructed_fixture(self):
        rng = derive_rng(74)
        records = []
        for i in range(40):
            genes = [int(g) for g in rng.integers(0, 5, size=6)]
            genes[1] = 0  # sites 1 and 4 always unpruned in the top cohort
            genes[4] = 0
            records.append(EvalRecord(0, tuple(genes), 1.0, 0.5, 10.0))
        # low-fitness noise with those sites pruned, excluded from the cohort
        records.append(EvalRecord(1, (3, 3, 3, 3, 3, 3), 0.0, 0.9, 1.0))
        probs, flagged = bottleneck_analysis(records)
        assert flagged == [1, 4]
        assert probs[1] == 1.0 and probs[4] == 1.0
        assert all(p < 1.0 for i, p in enumerate(probs) if i not in (1, 4))

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            bottleneck_analysis([])

    def test_matches_counting_oracle(self):
        rng = derive_rng(75)
        records = [
            EvalRecord(0, tuple(int(g) for g in rng.integers(0, 4, size=5)),
                       0.5, 0.5, float(rng.uniform(0.1, 10.0)))
            for _ in range(200)
        ]
        probs, _ = bottleneck_analysis(records)
        best = max(r.fitness for r in records)
        top = [r for r in records if r.fitness >= 0.8 * best]
        for i in range(5):
            manual = sum(1 for r in top if r.genes[i] == 0) / len(top)
            assert probs[i] == pytest.approx(manual)


def test_history_round_trip(tmp_path):
    records = [EvalRecord(0, (1, 2, 3), 0.5, 0.25, 1.5),
               EvalRecord(1, (0, 0, 9), 1.0, 0.9, 30.0)]
    path = tmp_path / "h.jsonl"
    write_history(records, path)
    assert read_history(path) == records
    # canonical JSONL is byte-stable
    write_history(read_history(path), tmp_path / "h2.jsonl")
    assert (tmp_path / "h2.jsonl").read_bytes() == path.read_bytes()


def test_ga_config_validation():
    with pytest.raises(ValueError):
        GaConfig(population=5, n_uniform_seeds=10)
    with pytest.raises(ValueError):
        GaConfig(crossover_prob=1.5)
    with pytest.raises(ValueError):
        GaConfig(elitism_count=-1)
