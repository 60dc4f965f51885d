from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import logging
import math
import os
import re
import sys
import threading
from decimal import Decimal

import numpy as np
import pytest

import taskprune as tp
from taskprune import search
from taskprune.calibrate import (
    DEFAULT_FACTOR_SET,
    FactorSet,
    PruningVector,
    assemble,
    compression_ratio,
)
from taskprune.linalg import derive_rng
from taskprune.model import FormatError, greedy_decode_batch
from taskprune.search import (
    EvalRecord,
    EvalResult,
    GaConfig,
    TaskMode,
    TaskSpec,
    binary_search_uniform,
    bottleneck_analysis,
    evaluate,
    exact_match_task,
    fitness_from_compression,
    ga_search,
    load_task,
    make_eval_fn,
    read_history,
    save_task,
    threshold_accuracy,
    write_history,
)


def no_decode(*args, **kwargs):
    raise AssertionError("decoded")


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

    def test_expected_longer_than_max_new_rejected(self):
        with pytest.raises(ValueError, match="can never match"):
            TaskSpec(TaskMode.EXACT_MATCH, [b"a", b"b"], [b"xyz", b"xyzw"], 3, 0.05)
        # the expected string counts only up to the stop byte
        TaskSpec(TaskMode.EXACT_MATCH, [b"a", b"b"], [b"xyz", b"xyz\x00tail"], 3, 0.05)

    def test_targets_are_cut_once_and_expected_is_kept(self):
        task = TaskSpec(TaskMode.EXACT_MATCH, [b"a", b"b"], [b"xyz", b"xy\x00tail"], 3, 0.05)
        assert task.targets == [b"xyz", b"xy"]
        assert task.targets is task.targets
        copy = dataclasses.replace(task)
        assert copy.targets == task.targets and copy.targets is not task.targets
        assert task.to_dict()["expected"] == ["xyz", "xy\u0000tail"]

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

    def test_failed_save_keeps_the_earlier_file(self, tmp_path):
        task = TaskSpec(TaskMode.EXACT_MATCH, [b"hello"], [b"yes"], 6, 0.05)
        path = tmp_path / "task.json"
        save_task(task, path)
        before = path.read_bytes()
        # a Decimal passes the epsilon check but is not JSON; it is the
        # first value of the sorted document
        with pytest.raises(TypeError):
            save_task(dataclasses.replace(task, epsilon=Decimal("0.1")), path)
        assert os.listdir(tmp_path) == ["task.json"]
        assert path.read_bytes() == before


class TestEvaluate:
    def test_unpruned_agreement_is_one(self, tiny_model, tiny_task):
        res = evaluate(tiny_model, exact_match_task(tiny_model, tiny_task))
        assert res.accuracy == 1.0
        assert all(res.verdicts)

    def test_exact_match_task_is_returned_as_is(self, tiny_model, monkeypatch):
        task = TaskSpec(TaskMode.EXACT_MATCH, [b"ab", b"cd"], [b"x", b"y\x00z"], 3, 0.1)
        monkeypatch.setattr(search, "greedy_decode_batch", no_decode)
        assert exact_match_task(tiny_model, task) is task

    def test_eval_fn_scores_agreement_as_its_resolved_form(self, tiny_model, tiny_cache,
                                                          tiny_task):
        resolved = exact_match_task(tiny_model, tiny_task)
        rng = derive_rng(72)
        vectors = [PruningVector.all_ones(tiny_cache.factor_set, 8)] + [
            PruningVector(tuple(int(g) for g in rng.integers(0, 10, size=8)),
                          tiny_cache.factor_set)
            for _ in range(12)]
        agreement = make_eval_fn(tiny_model, tiny_cache, tiny_task)
        exact = make_eval_fn(tiny_model, tiny_cache, resolved)
        scored = [agreement(v) for v in vectors]
        assert scored == [exact(v) for v in vectors]
        assert len({r.verdicts for r in scored}) > 1  # the vectors do not all agree

    def test_all_ones_vector_scores_a_star(self, tiny_model, tiny_cache, tiny_task):
        ev = make_eval_fn(tiny_model, tiny_cache, tiny_task)
        res = ev(PruningVector.all_ones(tiny_cache.factor_set, 8))
        assert res.accuracy == 1.0

    def test_exact_match_half_wrong(self, tiny_model, tiny_letters):
        rng = derive_rng(70)
        prompts = [bytes(rng.choice(tiny_letters, size=6).tolist()) for _ in range(8)]
        probe = TaskSpec(TaskMode.BASELINE_AGREEMENT, prompts, None, 3, 0.0)
        expected = []
        for i, text in enumerate(exact_match_task(tiny_model, probe).expected):
            if i % 2 == 1:
                text = text[:-1] + bytes([text[-1] % 255 + 1])  # deliberately wrong
            expected.append(text)
        task = TaskSpec(TaskMode.EXACT_MATCH, prompts, expected, 3, 0.0)
        res = evaluate(tiny_model, task)
        assert res.accuracy == 0.5
        assert res.verdicts == (True, False) * 4

    def test_agreement_requires_baseline(self, tiny_model, tiny_task, monkeypatch):
        monkeypatch.setattr(search, "greedy_decode_batch", no_decode)
        with pytest.raises(ValueError, match="exact_match_task"):
            evaluate(tiny_model, tiny_task)

    def test_expected_truncates_at_stop_byte(self, tiny_model, tiny_letters):
        rng = derive_rng(71)
        prompts = [bytes(rng.choice(tiny_letters, size=6).tolist())]
        probe = TaskSpec(TaskMode.BASELINE_AGREEMENT, prompts, None, 3, 0.0)
        [decoded] = exact_match_task(tiny_model, probe).expected
        task = TaskSpec(TaskMode.EXACT_MATCH, prompts, [decoded + b"\x00garbage"], 3, 0.0)
        assert evaluate(tiny_model, task).accuracy == 1.0

    def test_evaluate_keeps_only_the_decoders_keys_in_reuse(self, tiny_model, tiny_task):
        task = exact_match_task(tiny_model, tiny_task)
        r1: dict = {}
        r2: dict = {}
        evaluate(tiny_model, task, r1)
        greedy_decode_batch(tiny_model, task.prompts, task.max_new_tokens,
                            expected=task.targets, reuse=r2)
        assert r1.keys() == r2.keys()

    def test_shared_reuse_scores_each_task_as_a_fresh_call(self, tiny_model, tiny_letters):
        # two tasks on one reuse dict, their expected strings differing in
        # one byte and past a stop byte: each call scores as a fresh one
        rng = derive_rng(73)
        prompts = [bytes(rng.choice(tiny_letters, size=6).tolist()) for _ in range(4)]
        probe = TaskSpec(TaskMode.BASELINE_AGREEMENT, prompts, None, 3, 0.0)
        decoded = exact_match_task(tiny_model, probe).expected
        right = TaskSpec(TaskMode.EXACT_MATCH, prompts, [d + b"\x00a" for d in decoded], 3, 0.0)
        wrong = dataclasses.replace(right, expected=[d[:-1] + bytes([d[-1] % 255 + 1])
                                                     for d in decoded])
        assert right.targets == list(decoded)
        reuse: dict = {}
        for task in (right, right, wrong, wrong, right):
            assert evaluate(tiny_model, task, reuse) == evaluate(tiny_model, task)
        assert evaluate(tiny_model, right).accuracy == 1.0
        assert evaluate(tiny_model, wrong).accuracy == 0.0


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
        assert result.vector.indices == (0,) * 8
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
            assert rec.compression == pytest.approx(compression_ratio(vec, tiny_model.config))


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
        max_c = compression_ratio(PruningVector((9,) * 8, tiny_cache.factor_set), tiny_model.config)
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

    def test_each_worker_scores_one_contiguous_run(self, tiny_model, tiny_cache, tiny_task):
        ev = make_eval_fn(tiny_model, tiny_cache, tiny_task)
        calls = []

        def recording(vector: PruningVector) -> EvalResult:
            calls.append((threading.get_ident(), vector.indices))
            return ev(vector)

        cfg = GaConfig(population=24, seed=11, stall_generations=3, max_generations=5, workers=3)
        result = ga_search(tiny_model, tiny_cache, tiny_task, cfg, eval_fn=recording)
        calls = calls[1:]  # the baseline
        seen: set = set()
        for gen in range(result.generations):
            pop = {rec.genes for rec in result.history if rec.generation == gen}
            pending = sorted(pop - seen)
            seen |= pop
            here, calls = calls[:len(pending)], calls[len(pending):]
            runs: dict = {}
            for thread, genes in here:
                runs.setdefault(thread, []).append(genes)
            assert len(runs) == min(3, len(pending))
            for run in runs.values():
                start = pending.index(run[0])
                assert run == pending[start:start + len(run)]
        assert calls == []

    def test_logs_evaluations_requested_unique_and_memoized(self, tiny_model, tiny_cache,
                                                            tiny_task, caplog):
        ev = make_eval_fn(tiny_model, tiny_cache, tiny_task)
        calls = [0]

        def counting(vector: PruningVector) -> EvalResult:
            calls[0] += 1
            return ev(vector)

        cfg = GaConfig(population=16, seed=12, stall_generations=3, max_generations=6)
        with caplog.at_level(logging.INFO, logger="taskprune.search"):
            result = ga_search(tiny_model, tiny_cache, tiny_task, cfg, eval_fn=counting)
        requested, unique = len(result.history), calls[0] - 1  # less the baseline
        assert unique < requested
        assert (f"ga_search: {requested} evaluations requested, {unique} unique, "
                f"{requested - unique} served by the memo") in caplog.messages

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

        cfg = GaConfig(population=12, seed=9, stall_generations=2, max_generations=3)
        import logging
        with caplog.at_level(logging.WARNING, logger="taskprune.search"):
            result = ga_search(tiny_model, tiny_cache, task, cfg, eval_fn=ev)
        assert not result.feasible
        # the unpruned uniform vector opens the population and scores 0 too
        assert (0,) * 8 in [rec.genes for rec in result.history]
        assert all(rec.accuracy == 0.0 for rec in result.history)
        assert any("threshold" in rec.message for rec in caplog.records)

    def test_best_is_the_earliest_record_of_highest_fitness(self, tiny_model, tiny_cache,
                                                            tiny_task):
        def earliest_best(records):
            top = max(rec.fitness for rec in records)
            return next(rec for rec in records if rec.fitness == top)

        def later_repeats(result):
            return [rec for rec in result.history if rec.genes == result.best.genes
                    and rec.generation > result.best.generation]

        cfg = GaConfig(population=12, seed=13, stall_generations=3, max_generations=6)
        result = ga_search(tiny_model, tiny_cache, tiny_task, cfg)
        feasible = [rec for rec in result.history if rec.accuracy >= result.a0]
        assert result.feasible
        assert result.best == earliest_best(feasible)
        # elitism carried the best genes on, so the generation decides the tie
        assert later_repeats(result)

        task = TaskSpec(TaskMode.BASELINE_AGREEMENT, [b"ab"], None, 2, 0.05)
        calls = []

        def ev(vector: PruningVector) -> EvalResult:
            # the baseline alone scores 1, so no record reaches a0
            calls.append(vector)
            return EvalResult(accuracy=float(len(calls) == 1), verdicts=(len(calls) == 1,))

        result = ga_search(tiny_model, tiny_cache, task, cfg, eval_fn=ev)
        assert not result.feasible
        assert result.best == earliest_best(result.history)
        assert later_repeats(result)

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

    def test_interrupted_run_streams_beside_earlier_history(self, tiny_model, tiny_cache,
                                                           tiny_task, tmp_path):
        # a fresh run, not only a resume, keeps the earlier history until it
        # ends; a resume then takes the finished generations from its partial
        cfg = GaConfig(population=12, seed=15, stall_generations=2, max_generations=3)
        path = tmp_path / "hist.jsonl"
        ga_search(tiny_model, tiny_cache, tiny_task, cfg, history_path=path)
        before = path.read_bytes()
        real = make_eval_fn(tiny_model, tiny_cache, tiny_task)
        calls = []

        def interrupted(vector):
            calls.append(vector.indices)
            if len(calls) > 16:     # the baseline and generation 0 take at most 13
                raise KeyboardInterrupt
            return real(vector)

        other = dataclasses.replace(cfg, seed=16)
        with pytest.raises(KeyboardInterrupt):
            ga_search(tiny_model, tiny_cache, tiny_task, other, eval_fn=interrupted,
                      history_path=path)
        assert path.read_bytes() == before
        streamed = read_history(f"{path}.partial")
        assert [rec.generation for rec in streamed] == [0] * 12
        assert {rec.genes for rec in streamed} <= set(calls)
        calls.clear()

        def counting(vector):
            calls.append(vector.indices)
            return real(vector)

        ga_search(tiny_model, tiny_cache, tiny_task, other, eval_fn=counting,
                  history_path=path, resume=True)
        assert calls[0] == (0,) * 8
        assert not {rec.genes for rec in streamed} & set(calls[1:])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["hist.jsonl"]

    def test_resume_drops_a_cut_last_line_of_the_partial(self, tiny_model, tiny_cache,
                                                        tiny_task, tmp_path, caplog):
        # a kill or a full disk mid-write leaves a last line without its newline
        cfg = GaConfig(population=12, seed=16, stall_generations=2, max_generations=3)
        path = tmp_path / "hist.jsonl"
        partial = tmp_path / "hist.jsonl.partial"
        real = make_eval_fn(tiny_model, tiny_cache, tiny_task)
        calls = []

        def interrupted(vector):
            calls.append(vector.indices)
            if len(calls) > 16:     # the baseline and generation 0 take at most 13
                raise KeyboardInterrupt
            return real(vector)

        with pytest.raises(KeyboardInterrupt):
            ga_search(tiny_model, tiny_cache, tiny_task, cfg, eval_fn=interrupted,
                      history_path=path)
        cut = partial.read_bytes()[:-20]
        partial.write_bytes(cut)
        whole = cut[:cut.rindex(b"\n") + 1]
        kept = {tuple(json.loads(line)["genes"]) for line in whole.splitlines()}
        assert len(kept) > 1
        calls.clear()

        def counting(vector):
            calls.append(vector.indices)
            return real(vector)

        with caplog.at_level(logging.WARNING, logger="taskprune.search"):
            ga_search(tiny_model, tiny_cache, tiny_task, cfg, eval_fn=counting,
                      history_path=path, resume=True)
        assert f"cut short ({len(cut) - len(whole)} bytes)" in caplog.text
        assert calls[0] == (0,) * 8
        assert not kept & set(calls[1:])

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

    def test_resume_rescores_fitness_under_its_own_threshold(self, tiny_model, tiny_cache,
                                                             tiny_task, tmp_path):
        cfg = GaConfig(population=12, seed=14, stall_generations=2, max_generations=3)
        path = tmp_path / "hist.jsonl"
        strict = dataclasses.replace(tiny_task, epsilon=0.0)
        ga_search(tiny_model, tiny_cache, strict, cfg, history_path=path)
        loose = dataclasses.replace(tiny_task, epsilon=0.5)
        resumed = ga_search(tiny_model, tiny_cache, loose, cfg, history_path=path, resume=True)
        assert resumed.a0 == threshold_accuracy(resumed.a_star, 0.5)
        for rec in resumed.history + read_history(path):
            assert rec.fitness == fitness_from_compression(rec.compression, rec.accuracy,
                                                           resumed.a0)
        assert resumed.best.fitness == max(rec.fitness for rec in resumed.history
                                           if rec.accuracy >= resumed.a0)


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


def test_malformed_history_lines_raise_format_error(tmp_path):
    first = EvalRecord(0, (1, 2, 3), 0.5, 0.25, 1.5)
    path = tmp_path / "h.jsonl"
    write_history([first, EvalRecord(1, (0, 0, 9), 1.0, 0.9, 30.0)], path)
    data = path.read_bytes()
    cut = tmp_path / "cut.jsonl"
    cut.write_bytes(data[:-20])
    assert read_history(cut, partial=True) == [first]
    with pytest.raises(FormatError, match="line 2"):
        read_history(cut)       # only a partial may end in a cut line
    line1, line2 = data.splitlines(keepends=True)
    cut.write_bytes(line1[:-20] + b"\n" + line2)
    with pytest.raises(FormatError, match="line 1"):
        read_history(cut, partial=True)


def test_failed_history_write_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "h.jsonl"
    write_history([EvalRecord(0, (1, 2, 3), 0.5, 0.25, 1.5),
                   EvalRecord(1, (0, 0, 9), 1.0, 0.9, 30.0)], path)
    before = path.read_bytes()
    # the set fails the second record's line
    with pytest.raises(TypeError):
        write_history([EvalRecord(0, (1, 2, 3), 0.5, 0.25, 1.5),
                       EvalRecord(1, (0, 0, 9), {1.0}, 0.9, 30.0)], path)
    assert os.listdir(tmp_path) == ["h.jsonl"]
    assert path.read_bytes() == before


def test_ga_config_validation():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        GaConfig(seed=-1)
    with pytest.raises(ValueError, match="stall_generations must be >= 1"):
        GaConfig(stall_generations=0)
    with pytest.raises(ValueError, match="max_generations must be >= 1"):
        GaConfig(max_generations=0)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            GaConfig(workers=workers)
    GaConfig(max_generations=None)      # no limit


def test_ga_config_rejects_an_empty_population(tiny_model, tiny_cache, tiny_task):
    # an empty population leaves ga_search no record to take its best from
    with pytest.raises(ValueError, match="population must be >= 1"):
        GaConfig(population=0)
    # a population of one is its first uniform vector, then the elite alone
    cfg = GaConfig(population=1, stall_generations=10, max_generations=3)
    result = ga_search(tiny_model, tiny_cache, tiny_task, cfg,
                       eval_fn=lambda vector: EvalResult(accuracy=1.0, verdicts=(True,)))
    assert [rec.generation for rec in result.history] == [0, 1, 2]
    assert result.history[0].genes == (0,) * 8


def test_eval_fn_shared_by_threads_matches_fresh_evaluations(tiny_model, tiny_cache, tiny_task):
    # three layer-0 gene sets, so that a thread's consecutive vectors often
    # share their first layer and resume after it
    rng = derive_rng(330)
    heads = [(0, 0, 0, 0), (2, 5, 1, 7), (9, 3, 3, 0)]
    vectors = [PruningVector(heads[int(rng.integers(3))]
                             + tuple(int(g) for g in rng.integers(0, 10, size=4)),
                             tiny_cache.factor_set)
               for _ in range(200)]
    ev = make_eval_fn(tiny_model, tiny_cache, tiny_task)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            shared = list(pool.map(ev, vectors, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    task = exact_match_task(tiny_model, tiny_task)
    assert shared == [evaluate(assemble(tiny_model, v, tiny_cache), task) for v in vectors]


def test_eval_fn_lays_the_task_out_once(tiny_model, tiny_cache, tiny_task, monkeypatch):
    # 32 prompts of three lengths, so three blocks in the one layout
    prompts = [p[:n] for p, n in zip(tiny_task.prompts, [8, 5, 3] * 11)]
    task = dataclasses.replace(tiny_task, prompts=prompts)
    layouts = []
    real_layout = tp.model._decode_layout

    def counting_layout(*args, **kwargs):
        layouts.append(real_layout(*args, **kwargs))
        return layouts[-1]

    monkeypatch.setattr(tp.model, "_decode_layout", counting_layout)
    ev = make_eval_fn(tiny_model, tiny_cache, task)
    layouts.clear()
    rng = derive_rng(331)
    vectors = [PruningVector(tuple(int(g) for g in rng.integers(0, 10, size=8)),
                             tiny_cache.factor_set) for _ in range(12)]
    results = [ev(v) for v in vectors]
    assert len(layouts) == 1                                  # once, not per vector
    # each block holds its prompts and a draft of max_new_tokens - 1 = 2 bytes
    assert sorted(ids.shape for _, ids, _ in layouts[0]) == [(10, 5), (11, 7), (11, 10)]
    monkeypatch.undo()
    resolved = exact_match_task(tiny_model, task)
    assert results == [evaluate(assemble(tiny_model, v, tiny_cache), resolved) for v in vectors]


@pytest.mark.parametrize("bad, message, in_corpus", [
    ([], "is empty", False),
    ([1] * 9, "has 9 bytes", False),
    ([1, 100, 2], "holds byte 100 >= vocab_size 64", True),
    ([1, -1, 2], "holds byte -1 < 0", True),
], ids=["empty", "overflow", "past-vocab", "negative"])
def test_bad_prompt_is_rejected_where_it_enters(monkeypatch, bad, message, in_corpus):
    # every entry point names the prompt, and no pass through the layers runs
    cfg = tp.TransformerConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16,
                               vocab_size=64, max_seq_len=8)
    model = tp.random_model(cfg, seed=21)
    prompts = [[1, 2], [3, 4, 5], bad]
    tasks = [TaskSpec(TaskMode.BASELINE_AGREEMENT, prompts, None, 3, 0.1),
             TaskSpec(TaskMode.EXACT_MATCH, prompts, [b"ab"] * 3, 3, 0.1)]
    passes = []
    for module in (tp.model, tp.calibrate):
        monkeypatch.setattr(module, "_transformer", lambda *a, **k: passes.append(a))
    calls = [(2, lambda: tp.greedy_decode_batch(model, prompts, 3)),
             (2, lambda: tp.greedy_decode_batch(model, prompts, 3, expected=[[1]] * 3)),
             (0, lambda: tp.forward(model, bad)),
             *((2, lambda task=task: exact_match_task(model, task)) for task in tasks),
             # the sizes are checked first, then the task, then the first size captured
             *((2, lambda task=task: tp.calibration_sweep(model, bytes(range(1, 64)), [40, 20], task))
               for task in tasks)]
    if in_corpus:
        calls.append((1, lambda: tp.capture_calibration(model, list(range(1, 9)) + bad, 11)))
    for index, call in calls:
        with pytest.raises(ValueError, match=re.escape(f"prompt {index} {message}")):
            call()
    assert passes == []


# --- histories pinned across commits ------------------------------------------
#
# The eval function below is synthetic (accuracy is a pure function of the
# genes), so these digests move only when the RNG stream, the record order or
# the fitness bookkeeping does, never with model numerics.

PIN_TASK = TaskSpec(TaskMode.BASELINE_AGREEMENT, [b"ab"], None, 2, 0.1)
PIN_GA = GaConfig(population=24, stall_generations=6, max_generations=10)


def synthetic_eval(vector: PruningVector) -> EvalResult:
    # sites 0 and 5 are bottlenecks; the others cost a little in aggregate
    g = vector.indices
    hits = max(32 - 3 * g[0] - 3 * g[5] - sum(g) // 8, 0)
    return EvalResult(accuracy=hits / 32, verdicts=(hits == 32,))


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def best_digest(best) -> str:
    fields = {"genes": list(best.genes), "accuracy": best.accuracy,
              "compression": best.compression, "fitness": best.fitness}
    return sha(json.dumps(fields, sort_keys=True).encode())


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("seed, history_sha, best_sha", [
    (0, "ee02b0a8606fe55f", "6a510fdba38ad669"),
    (7, "7faa397c63882fcc", "6a510fdba38ad669"),
])
def test_ga_history_is_pinned(tiny_model, tiny_cache, tmp_path, workers, seed,
                              history_sha, best_sha):
    path = tmp_path / "history.jsonl"
    result = ga_search(tiny_model, tiny_cache, PIN_TASK,
                       dataclasses.replace(PIN_GA, seed=seed, workers=workers),
                       eval_fn=synthetic_eval, history_path=path)
    assert (sha(path.read_bytes()), best_digest(result.best)) == (history_sha, best_sha)


def test_resumed_ga_history_is_pinned(tiny_model, tiny_cache, tmp_path):
    path = tmp_path / "history.jsonl"
    ga_search(tiny_model, tiny_cache, PIN_TASK, dataclasses.replace(PIN_GA, seed=0),
              eval_fn=synthetic_eval, history_path=path)
    # another seed and threshold: the memo serves the accuracies, the fitness
    # is derived again under this run's a0
    result = ga_search(tiny_model, tiny_cache, dataclasses.replace(PIN_TASK, epsilon=0.2),
                       dataclasses.replace(PIN_GA, seed=7), eval_fn=synthetic_eval,
                       history_path=path, resume=True)
    assert (sha(path.read_bytes()), best_digest(result.best)) == ("c29a65194aa7f5e6",
                                                                  "56ce1c3d37ffa849")


def test_binary_search_history_is_pinned(tiny_model, tiny_cache, tmp_path):
    task = dataclasses.replace(PIN_TASK, epsilon=0.5)
    result = binary_search_uniform(tiny_model, tiny_cache, task, eval_fn=synthetic_eval)
    write_history(result.history, tmp_path / "history.jsonl")
    assert (result.level_index, result.evaluations) == (2, 3)
    assert sha((tmp_path / "history.jsonl").read_bytes()) == "46111aa2b8c21dbb"
