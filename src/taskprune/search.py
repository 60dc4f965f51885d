"""Pruning-level search under an end-to-end accuracy tolerance.

Two strategies over the factor-set grid:

- binary_search_uniform: one shared retention level for every site, found by
  bisection over the grid.
- ga_search: a genetic algorithm over per-site levels, driven by the fitness
  F(p, a) = c(p) * (1 + exp(gain * (a - a0))), which rewards compression hard
  once accuracy clears the threshold a0 = (1 - epsilon) * a*.

Task accuracy is deterministic: greedy decodes compared byte-for-byte either
against expected strings (EXACT_MATCH) or against the unpruned model's own
decodes (BASELINE_AGREEMENT).
"""

from __future__ import annotations

import concurrent.futures
import json
import logging
import math
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .calibrate import AdapterCache, PruningVector, assemble, compression_ratio
from .model import STOP_BYTE, ModelWeights, greedy_decode_batch, sites, tokenize

log = logging.getLogger(__name__)

FITNESS_EXP_CLAMP = 60.0


class TaskMode(str, Enum):
    EXACT_MATCH = "exact_match"
    BASELINE_AGREEMENT = "baseline_agreement"


@dataclass
class TaskSpec:
    mode: TaskMode
    prompts: list[bytes]
    expected: list[bytes] | None
    max_new_tokens: int
    epsilon: float

    def __post_init__(self) -> None:
        if not self.prompts:
            raise ValueError("task needs at least one prompt")
        if self.mode is TaskMode.EXACT_MATCH:
            if self.expected is None or len(self.expected) != len(self.prompts):
                raise ValueError("EXACT_MATCH needs one expected string per prompt")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")

    def to_dict(self) -> dict:
        # latin-1 maps every byte value to one code point, so arbitrary
        # prompt bytes survive the JSON round trip
        d = {
            "schema": "taskprune-task-v1",
            "mode": self.mode.value,
            "prompts": [p.decode("latin-1") for p in self.prompts],
            "max_new_tokens": self.max_new_tokens,
            "epsilon": self.epsilon,
        }
        if self.expected is not None:
            d["expected"] = [e.decode("latin-1") for e in self.expected]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TaskSpec":
        expected = d.get("expected")
        return cls(
            mode=TaskMode(d["mode"]),
            prompts=[p.encode("latin-1") for p in d["prompts"]],
            expected=None if expected is None else [e.encode("latin-1") for e in expected],
            max_new_tokens=int(d["max_new_tokens"]),
            epsilon=float(d["epsilon"]),
        )


def save_task(task: TaskSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(task.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_task(path) -> TaskSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return TaskSpec.from_dict(json.load(fh))


@dataclass
class EvalResult:
    accuracy: float
    verdicts: tuple[bool, ...]


def _truncate_at_stop(tokens: Sequence[int]) -> tuple[int, ...]:
    out = []
    for t in tokens:
        if t == STOP_BYTE:
            break
        out.append(int(t))
    return tuple(out)


def baseline_decodes(model, task: TaskSpec) -> list[tuple[int, ...]]:
    """Greedy decodes of the (unpruned) model for every prompt."""
    decoded = greedy_decode_batch(model, [tokenize(p) for p in task.prompts],
                                  task.max_new_tokens)
    return [tuple(d) for d in decoded]


def evaluate(
    model,
    task: TaskSpec,
    baseline_outputs: Sequence[Sequence[int]] | None = None,
) -> EvalResult:
    """Deterministic accuracy = correct decodes / prompts."""
    if task.mode is TaskMode.BASELINE_AGREEMENT and baseline_outputs is None:
        raise ValueError("BASELINE_AGREEMENT requires baseline_outputs")
    decoded_all = greedy_decode_batch(model, [tokenize(p) for p in task.prompts],
                                      task.max_new_tokens)
    verdicts = []
    for i, decoded in enumerate(decoded_all):
        if task.mode is TaskMode.EXACT_MATCH:
            target = _truncate_at_stop(tokenize(task.expected[i]))
        else:
            target = tuple(int(t) for t in baseline_outputs[i])
        verdicts.append(tuple(decoded) == target)
    return EvalResult(accuracy=sum(verdicts) / len(verdicts), verdicts=tuple(verdicts))


def threshold_accuracy(a_star: float, epsilon: float) -> float:
    """a0 such that (a* - a0) / a* == epsilon."""
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    return (1.0 - epsilon) * a_star


def fitness_from_compression(
    c: float, a: float, a0: float, penalty_gain: float = 50.0
) -> float:
    """F = c * (1 + e^{gain (a - a0)}), exponent clamped at +60 against overflow."""
    z = min(penalty_gain * (a - a0), FITNESS_EXP_CLAMP)
    return c * (1.0 + math.exp(z))


def fitness(
    vector: PruningVector, a: float, a0: float, model: ModelWeights,
    penalty_gain: float = 50.0,
) -> float:
    return fitness_from_compression(compression_ratio(vector, model), a, a0, penalty_gain)


# --- shared evaluation plumbing --------------------------------------------

EvalFn = Callable[[PruningVector], EvalResult]


def make_eval_fn(model: ModelWeights, cache: AdapterCache, task: TaskSpec) -> EvalFn:
    """Default pipeline: assemble the pruned model and score it on the task.

    For BASELINE_AGREEMENT the unpruned decodes are computed once and reused.
    """
    baseline = None
    if task.mode is TaskMode.BASELINE_AGREEMENT:
        baseline = baseline_decodes(model, task)

    def run(vector: PruningVector) -> EvalResult:
        pruned = assemble(model, vector, cache)
        return evaluate(pruned, task, baseline)

    return run


@dataclass
class EvalRecord:
    """One scored pruning vector; streamed to the history as a JSON line."""

    generation: int
    genes: tuple[int, ...]
    accuracy: float
    compression: float
    fitness: float

    def to_dict(self) -> dict:
        return {
            "generation": self.generation,
            "genes": list(self.genes),
            "accuracy": self.accuracy,
            "compression": self.compression,
            "fitness": self.fitness,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvalRecord":
        return cls(
            generation=int(d["generation"]),
            genes=tuple(int(g) for g in d["genes"]),
            accuracy=float(d["accuracy"]),
            compression=float(d["compression"]),
            fitness=float(d["fitness"]),
        )


def write_history(records: Iterable[EvalRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def read_history(path) -> list[EvalRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(EvalRecord.from_dict(json.loads(line)))
    return records


# --- uniform binary search --------------------------------------------------

@dataclass
class BinarySearchResult:
    vector: PruningVector
    eval_result: EvalResult
    a_star: float
    a0: float
    level_index: int
    evaluations: int           # bisection evaluations, excluding the baseline
    warning: str | None = None
    history: list[EvalRecord] = field(default_factory=list)

    @property
    def pruned(self) -> bool:
        return self.level_index > 0


def binary_search_uniform(
    model: ModelWeights,
    cache: AdapterCache,
    task: TaskSpec,
    eval_fn: EvalFn | None = None,
) -> BinarySearchResult:
    """Bisect the factor-set grid for the most aggressive feasible uniform level.

    Index bounds: `low` tracks the most-retained level known feasible (starts
    at 1.0, feasible by construction), `high` the most aggressive known
    infeasible bound (starts one past the end of the grid). Accuracy need not
    be monotone in the level; the result is the most aggressive level the
    bisection actually visited and found feasible.
    """
    factor_set = cache.factor_set
    n_sites = len(sites(model.config))
    ev = eval_fn or make_eval_fn(model, cache, task)

    def uniform(idx: int) -> PruningVector:
        return PruningVector.uniform(factor_set, n_sites, idx)

    results: dict[int, EvalResult] = {}
    results[0] = ev(uniform(0))
    a_star = results[0].accuracy
    a0 = threshold_accuracy(a_star, task.epsilon)

    history: list[EvalRecord] = []

    def record(step: int, idx: int, res: EvalResult) -> None:
        vec = uniform(idx)
        c = compression_ratio(vec, model)
        history.append(EvalRecord(step, vec.indices, res.accuracy, c,
                                  fitness_from_compression(c, res.accuracy, a0)))

    record(0, 0, results[0])
    low, high = 0, len(factor_set)
    evaluations = 0
    while high - low > 1:
        mid = (low + high) // 2
        res = ev(uniform(mid))
        evaluations += 1
        results[mid] = res
        record(evaluations, mid, res)
        if res.accuracy >= a0:
            low = mid
        else:
            high = mid

    warning = None
    if low == 0:
        warning = "no pruning level meets the accuracy threshold; returning the unpruned vector"
        log.warning(warning)
    return BinarySearchResult(
        vector=uniform(low),
        eval_result=results[low],
        a_star=a_star,
        a0=a0,
        level_index=low,
        evaluations=evaluations,
        warning=warning,
        history=history,
    )


# --- genetic algorithm -------------------------------------------------------

@dataclass
class GaConfig:
    population: int = 100
    n_uniform_seeds: int = 10
    crossover_prob: float = 0.5
    mutation_prob: float = 0.2
    penalty_gain: float = 50.0
    stall_generations: int = 10
    stall_improvement: float = 0.05
    elitism_count: int = 1
    seed: int = 0
    workers: int = 1
    max_generations: int | None = None

    def __post_init__(self) -> None:
        if self.n_uniform_seeds > self.population:
            raise ValueError("n_uniform_seeds must be <= population")
        for name in ("crossover_prob", "mutation_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.elitism_count < 0 or self.elitism_count > self.population:
            raise ValueError("elitism_count out of range")


@dataclass
class Chromosome:
    genes: tuple[int, ...]
    fitness: float | None = None
    accuracy: float | None = None
    compression: float | None = None

    @property
    def evaluated(self) -> bool:
        return self.fitness is not None


@dataclass
class GaResult:
    best: Chromosome
    history: list[EvalRecord]
    a_star: float
    a0: float
    feasible: bool
    generations: int


def ga_search(
    model: ModelWeights,
    cache: AdapterCache,
    task: TaskSpec,
    cfg: GaConfig | None = None,
    eval_fn: EvalFn | None = None,
    history_path=None,
    resume: bool = False,
) -> GaResult:
    """Evolve per-site pruning levels; returns the best chromosome and the
    full evaluation history (one record per population member per generation).

    Evaluation is memoized on the gene tuple, which also makes the run
    resumable: with `resume=True` an existing history file at `history_path`
    pre-seeds the memo so previously scored vectors are not re-decoded. A
    resumed run streams its records to `<history_path>.partial` and moves
    that file over the history only when it finishes, so an interrupted
    resume leaves the earlier history as it was.
    """
    cfg = cfg or GaConfig()
    factor_set = cache.factor_set
    n_levels = len(factor_set)
    n_sites = len(sites(model.config))
    ev = eval_fn or make_eval_fn(model, cache, task)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[cfg.seed]))

    baseline_res = ev(PruningVector.all_ones(factor_set, n_sites))
    a_star = baseline_res.accuracy
    a0 = threshold_accuracy(a_star, task.epsilon)

    memo: dict[tuple[int, ...], tuple[float, float, float]] = {}
    stream_path = history_path
    if resume and history_path is not None:
        try:
            for rec in read_history(history_path):
                memo[rec.genes] = (rec.accuracy, rec.compression, rec.fitness)
            log.info("resumed %d memoized evaluations from %s", len(memo), history_path)
        except FileNotFoundError:
            pass
        stream_path = os.fspath(history_path) + ".partial"

    stream = open(stream_path, "w", encoding="utf-8") if stream_path is not None else None

    def score(chrom: Chromosome) -> None:
        a, c, f = memo[chrom.genes]
        chrom.accuracy, chrom.compression, chrom.fitness = a, c, f

    def eval_population(pop: list[Chromosome]) -> None:
        pending = sorted({ch.genes for ch in pop if ch.genes not in memo})

        def job(genes: tuple[int, ...]):
            vec = PruningVector(genes, factor_set)
            res = ev(vec)
            c = compression_ratio(vec, model)
            return genes, (res.accuracy, c,
                           fitness_from_compression(c, res.accuracy, a0, cfg.penalty_gain))

        if cfg.workers > 1 and len(pending) > 1:
            with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.workers) as pool:
                for genes, triple in pool.map(job, pending):
                    memo[genes] = triple
        else:
            for genes in pending:
                _, triple = job(genes)
                memo[genes] = triple
        for ch in pop:
            score(ch)

    history: list[EvalRecord] = []

    def record_generation(gen: int, pop: list[Chromosome]) -> None:
        for ch in pop:
            rec = EvalRecord(gen, ch.genes, ch.accuracy, ch.compression, ch.fitness)
            history.append(rec)
            if stream is not None:
                stream.write(json.dumps(rec.to_dict(), sort_keys=True, separators=(",", ":")))
                stream.write("\n")
        if stream is not None:
            stream.flush()

    # Initial population: one uniform chromosome per factor level, the rest
    # with genes drawn uniformly from the grid.
    population: list[Chromosome] = []
    for i in range(min(cfg.n_uniform_seeds, n_levels)):
        population.append(Chromosome(genes=(i,) * n_sites))
    while len(population) < cfg.population:
        genes = tuple(int(g) for g in rng.integers(0, n_levels, size=n_sites))
        population.append(Chromosome(genes=genes))
    population = population[:cfg.population]

    def roulette_pick(pop: list[Chromosome]) -> Chromosome:
        weights = np.array([max(ch.fitness, 0.0) for ch in pop])
        total = weights.sum()
        if total <= 0.0:
            idx = int(rng.integers(0, len(pop)))
        else:
            idx = int(rng.choice(len(pop), p=weights / total))
        return pop[idx]

    def mutate(genes: tuple[int, ...]) -> tuple[int, ...]:
        out = list(genes)
        for i in range(n_sites):
            if rng.random() < cfg.mutation_prob:
                step = 1 if rng.random() < 0.5 else -1
                out[i] = min(max(out[i] + step, 0), n_levels - 1)
        return tuple(out)

    best: Chromosome | None = None
    best_feasible: Chromosome | None = None
    stall_ref = -math.inf
    stall = 0
    generation = 0

    try:
        while True:
            eval_population(population)
            record_generation(generation, population)

            for ch in population:
                if best is None or ch.fitness > best.fitness:
                    best = ch
                if ch.accuracy >= a0 and (
                    best_feasible is None or ch.fitness > best_feasible.fitness
                ):
                    best_feasible = ch

            improved = (best.fitness > stall_ref * (1.0 + cfg.stall_improvement)
                        if stall_ref > 0.0 else best.fitness > stall_ref)
            if improved:
                stall_ref = best.fitness
                stall = 0
            else:
                stall += 1
            log.info("generation %d: best fitness %.6f (stall %d/%d)",
                     generation, best.fitness, stall, cfg.stall_generations)
            if stall >= cfg.stall_generations:
                break
            if cfg.max_generations is not None and generation + 1 >= cfg.max_generations:
                log.warning("stopping at max_generations=%d before stall", cfg.max_generations)
                break

            ranked = sorted(population, key=lambda ch: -ch.fitness)
            next_pop: list[Chromosome] = [
                Chromosome(genes=ch.genes) for ch in ranked[:cfg.elitism_count]
            ]
            while len(next_pop) < cfg.population:
                p1 = roulette_pick(population)
                p2 = roulette_pick(population)
                if n_sites > 1 and rng.random() < cfg.crossover_prob:
                    point = int(rng.integers(1, n_sites))
                    g1 = p1.genes[:point] + p2.genes[point:]
                    g2 = p2.genes[:point] + p1.genes[point:]
                else:
                    g1, g2 = p1.genes, p2.genes
                for genes in (g1, g2):
                    if len(next_pop) < cfg.population:
                        next_pop.append(Chromosome(genes=mutate(genes)))
            population = next_pop
            generation += 1
    finally:
        if stream is not None:
            stream.close()
    if stream_path != history_path:
        os.replace(stream_path, history_path)

    feasible = best_feasible is not None
    winner = best_feasible if feasible else best
    if not feasible:
        log.warning("no chromosome met the accuracy threshold a0=%.4f; "
                    "returning the best by fitness", a0)
    return GaResult(
        best=winner,
        history=history,
        a_star=a_star,
        a0=a0,
        feasible=feasible,
        generations=generation + 1,
    )


def bottleneck_analysis(
    history: Sequence[EvalRecord], fitness_window: float = 0.8
) -> tuple[list[float], list[int]]:
    """Per-site probability of staying unpruned among top-fitness chromosomes.

    Top = fitness within (1 - fitness_window) of the best recorded value,
    i.e. >= fitness_window * best. Returns (probabilities in canonical site
    order, indices of sites unpruned in every qualifying chromosome).
    """
    if not history:
        raise ValueError("empty history")
    best = max(rec.fitness for rec in history)
    qualifying = [rec for rec in history if rec.fitness >= fitness_window * best]
    if not qualifying:
        raise ValueError("no chromosomes within the fitness window")
    n_sites = len(qualifying[0].genes)
    probs = []
    for i in range(n_sites):
        unpruned = sum(1 for rec in qualifying if rec.genes[i] == 0)
        probs.append(unpruned / len(qualifying))
    flagged = [i for i, p in enumerate(probs) if p == 1.0]
    return probs, flagged
