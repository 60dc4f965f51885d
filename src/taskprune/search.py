"""Pruning-level search under an end-to-end accuracy tolerance.

Two strategies over the factor-set grid:

- binary_search_uniform: one shared retention level for every site, found by
  bisection over the grid.
- ga_search: a genetic algorithm over per-site levels, driven by the fitness
  F(p, a) = c(p) * (1 + exp(gain * (a - a0))), which rewards compression hard
  once accuracy clears the threshold a0 = (1 - epsilon) * a*.

Task accuracy is deterministic: each prompt's greedy decode must equal its
expected string. A BASELINE_AGREEMENT task is an EXACT_MATCH task whose
expected strings are the unpruned model's own decodes; exact_match_task
resolves it so, decoding once. The decode is then verified rather than
generated: the expected bytes are greedy_decode_batch's draft, and one pass
over prompt + draft gives every greedy token up to the first one off the
draft, which decides the verdict.

Files are written whole (model.write_atomic), except ga_search's history: it is
streamed into `<history>.partial`, flushed per generation, and moved over the
history when the run ends, so that an interrupted run keeps the earlier
history and can be resumed from both.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import json
import logging
import math
import os
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .calibrate import AdapterCache, PruningVector, assemble, compression_ratio
from .model import (STOP_BYTE, FormatError, ModelWeights, check_prompts, greedy_decode_batch,
                    read_fields, read_json, sites, write_atomic, write_json)

log = logging.getLogger(__name__)

FITNESS_EXP_CLAMP = 60.0
PENALTY_GAIN = 50.0       # the fitness exponent's gain
CROSSOVER_PROB = 0.5      # ga_search: one-point crossover per pair of parents
MUTATION_PROB = 0.2       # ga_search: a +-1 level step per gene
STALL_IMPROVEMENT = 0.05  # ga_search: a generation stalls below this relative gain
ELITISM_COUNT = 1         # ga_search: the best vectors carried on unchanged
N_UNIFORM_SEEDS = 10      # ga_search: uniform vectors that open the initial population
FITNESS_WINDOW = 0.8      # bottleneck_analysis: top = fitness >= this share of the best


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
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if self.mode is TaskMode.EXACT_MATCH:
            if self.expected is None or len(self.expected) != len(self.prompts):
                raise ValueError("EXACT_MATCH needs one expected string per prompt")
            for i, target in enumerate(self.targets):
                # a decode never holds more than max_new_tokens bytes
                if len(target) > self.max_new_tokens:
                    raise ValueError(
                        f"expected string {i} is longer than max_new_tokens "
                        f"({self.max_new_tokens}) and can never match"
                    )

    @functools.cached_property
    def targets(self) -> list[bytes]:
        """Each expected string up to its first STOP_BYTE; `expected` stays as given."""
        return [e.partition(bytes([STOP_BYTE]))[0] for e in self.expected]

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


def save_task(task: TaskSpec, path) -> None:
    write_json(path, task.to_dict())


def load_task(path) -> TaskSpec:
    return read_fields(TaskSpec, read_json(path), "taskprune-task-v1")


@dataclass
class EvalResult:
    accuracy: float
    verdicts: tuple[bool, ...]


def exact_match_task(model, task: TaskSpec) -> TaskSpec:
    """The task in EXACT_MATCH form, its prompts checked first against
    `model`'s config (check_prompts). An EXACT_MATCH task is returned as it
    is; a BASELINE_AGREEMENT task gets `model`'s greedy decodes, decoded once,
    as its expected strings."""
    check_prompts(model.config, task.prompts, task.max_new_tokens)
    if task.mode is TaskMode.EXACT_MATCH:
        return task
    decoded = greedy_decode_batch(model, task.prompts, task.max_new_tokens)
    return dataclasses.replace(task, mode=TaskMode.EXACT_MATCH,
                               expected=[bytes(d) for d in decoded])


def evaluate(model, task: TaskSpec, reuse: dict | None = None) -> EvalResult:
    """Deterministic accuracy of an EXACT_MATCH task = correct decodes / prompts.

    Each decode is verified against its target in `task.targets` (see
    greedy_decode_batch): it is only followed up to its first token off that
    target, which decides its verdict. `reuse` goes to greedy_decode_batch.
    """
    if task.mode is not TaskMode.EXACT_MATCH:
        raise ValueError(f"evaluate needs an EXACT_MATCH task, not {task.mode.value}; "
                         f"resolve it with exact_match_task first")
    decoded_all = greedy_decode_batch(model, task.prompts, task.max_new_tokens,
                                      expected=task.targets, reuse=reuse)
    verdicts = tuple(bytes(decoded) == target for decoded, target in zip(decoded_all, task.targets))
    return EvalResult(accuracy=sum(verdicts) / len(verdicts), verdicts=verdicts)


def threshold_accuracy(a_star: float, epsilon: float) -> float:
    """a0 such that (a* - a0) / a* == epsilon."""
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    return (1.0 - epsilon) * a_star


def fitness_from_compression(c: float, a: float, a0: float) -> float:
    """F = c * (1 + e^{gain (a - a0)}), exponent clamped at +60 against overflow."""
    z = min(PENALTY_GAIN * (a - a0), FITNESS_EXP_CLAMP)
    return c * (1.0 + math.exp(z))


# --- shared evaluation plumbing --------------------------------------------

EvalFn = Callable[[PruningVector], EvalResult]


def make_eval_fn(model: ModelWeights, cache: AdapterCache, task: TaskSpec) -> EvalFn:
    """Default pipeline: assemble the pruned model and score it on the task.

    The task is resolved once with exact_match_task, so a BASELINE_AGREEMENT
    task decodes the unpruned model here and not per vector. Each thread
    lays the task out once, as checked prompt + draft blocks whose rows one
    vectorized stop rule cuts, and keeps the per-site states of the last
    vector it scored, so a vector resumes at its first gene that differs
    from that one's (see greedy_decode_batch's `reuse`).
    """
    task = exact_match_task(model, task)
    local = threading.local()

    def run(vector: PruningVector) -> EvalResult:
        pruned = assemble(model, vector, cache)
        return evaluate(pruned, task, vars(local).setdefault("reuse", {}))

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
        # not dataclasses.asdict, which deep-copies and costs 4x as much per line
        return {"generation": self.generation, "genes": self.genes, "accuracy": self.accuracy,
                "compression": self.compression, "fitness": self.fitness}


def _history_line(rec: EvalRecord) -> str:
    return json.dumps(rec.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def write_history(records: Iterable[EvalRecord], path) -> None:
    write_atomic(path, "".join(map(_history_line, records)).encode("utf-8"))


def read_history(path, partial: bool = False) -> list[EvalRecord]:
    """The records of a history file; a line that is not one raises FormatError.

    `partial=True` reads the stream of a run that may have been killed. The
    stream writes whole lines, so a last line without its newline was cut
    short; it is dropped with a warning."""
    with open(path, "rb") as fh:
        *lines, tail = fh.read().split(b"\n")
    if tail and partial:
        log.warning("%s: dropped a last line cut short (%d bytes)", path, len(tail))
    elif tail:
        lines.append(tail)
    records = []
    for number, line in enumerate(lines, 1):
        if line.strip():
            try:
                obj = json.loads(line)
            except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
                raise FormatError(f"{path}: history line {number} is not JSON: {exc}") from exc
            records.append(read_fields(EvalRecord, obj))
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

    # level index -> result, in visiting order; bisection never revisits one
    results = {0: ev(uniform(0))}
    a_star = results[0].accuracy
    a0 = threshold_accuracy(a_star, task.epsilon)
    low, high = 0, len(factor_set)
    while high - low > 1:
        mid = (low + high) // 2
        results[mid] = ev(uniform(mid))
        if results[mid].accuracy >= a0:
            low = mid
        else:
            high = mid

    history = []
    for step, (idx, res) in enumerate(results.items()):
        vec = uniform(idx)
        c = compression_ratio(vec, model.config)
        history.append(EvalRecord(step, vec.indices, res.accuracy, c,
                                  fitness_from_compression(c, res.accuracy, a0)))
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
        evaluations=len(results) - 1,
        warning=warning,
        history=history,
    )


# --- genetic algorithm -------------------------------------------------------

@dataclass
class GaConfig:
    population: int = 100
    stall_generations: int = 10
    seed: int = 0
    workers: int = 1
    max_generations: int | None = None     # None: stop on stall alone

    def __post_init__(self) -> None:
        if self.population < 1:
            raise ValueError("population must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.stall_generations < 1:
            raise ValueError("stall_generations must be >= 1")
        if self.max_generations is not None and self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")


@dataclass
class GaResult:
    best: EvalRecord
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
    """Evolve per-site pruning levels; returns the best evaluation record and
    the full evaluation history (one record per population member per
    generation).

    A population is a list of gene tuples; its scored form is the list of
    records it adds to the history, and selection reads those records.

    Every run streams its records to `<history_path>.partial` and moves that
    file over the history only when it ends, so an interrupted run leaves
    the earlier history as it was, and its finished generations in the
    partial. Evaluation is memoized on the gene tuple, which also makes the
    run resumable: with `resume=True` the history at `history_path`, then a
    partial that an interrupted run left, pre-seed the memo so previously
    scored vectors are not re-decoded. The memo keeps accuracy and
    compression only; a resume re-derives fitness from them under this run's
    a0, which the earlier run may not share. The best record is the first of
    highest fitness among the feasible ones (accuracy >= a0), or among all of
    them when none is feasible.
    """
    cfg = cfg or GaConfig()
    factor_set = cache.factor_set
    n_levels = len(factor_set)
    n_sites = len(sites(model.config))
    ev = eval_fn or make_eval_fn(model, cache, task)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[cfg.seed]))

    a_star = ev(PruningVector.all_ones(factor_set, n_sites)).accuracy
    a0 = threshold_accuracy(a_star, task.epsilon)

    memo: dict[tuple[int, ...], tuple[float, float]] = {}
    partial = None if history_path is None else os.fspath(history_path) + ".partial"
    if resume and partial is not None:
        for path in (history_path, partial):
            try:
                for rec in read_history(path, partial=path is partial):
                    memo[rec.genes] = (rec.accuracy, rec.compression)
            except FileNotFoundError:
                pass
        log.info("resumed %d memoized evaluations from %s", len(memo), history_path)

    stream = open(partial, "w", encoding="utf-8") if partial is not None else None

    def job(genes: tuple[int, ...]) -> tuple[float, float]:
        vec = PruningVector(genes, factor_set)
        return ev(vec).accuracy, compression_ratio(vec, model.config)

    def run_chunk(chunk: list[tuple[int, ...]], barrier: threading.Barrier):
        # every chunk waits until each has a thread of its own, so no thread
        # takes a second chunk of the same generation
        barrier.wait()
        return [job(genes) for genes in chunk]

    pool = (concurrent.futures.ThreadPoolExecutor(max_workers=cfg.workers)
            if cfg.workers > 1 else None)
    resumed = len(memo)
    history: list[EvalRecord] = []

    # Initial population: up to N_UNIFORM_SEEDS uniform chromosomes, one per
    # factor level, the rest with genes drawn uniformly from the grid.
    population = [(i,) * n_sites for i in range(min(N_UNIFORM_SEEDS, n_levels, cfg.population))]
    while len(population) < cfg.population:
        population.append(tuple(int(g) for g in rng.integers(0, n_levels, size=n_sites)))

    def mutate(genes: tuple[int, ...]) -> tuple[int, ...]:
        out = list(genes)
        for i in range(n_sites):
            if rng.random() < MUTATION_PROB:
                step = 1 if rng.random() < 0.5 else -1
                out[i] = min(max(out[i] + step, 0), n_levels - 1)
        return tuple(out)

    best_fitness = stall_ref = -math.inf
    stall = 0
    generation = 0

    try:
        while True:
            # sorted, so that neighbours share leading genes; each worker scores
            # one contiguous run of them and resumes from its own last vector
            pending = sorted(set(population) - memo.keys())
            n = min(cfg.workers, len(pending))
            if n > 1:
                cuts = [len(pending) * i // n for i in range(n + 1)]
                chunks = [pending[a:b] for a, b in zip(cuts, cuts[1:])]
                parts = pool.map(run_chunk, chunks, [threading.Barrier(n)] * n)
                scored = [t for part in parts for t in part]
            else:
                scored = [job(genes) for genes in pending]
            memo.update(zip(pending, scored))
            records = []
            for genes in population:
                a, c = memo[genes]
                records.append(EvalRecord(generation, genes, a, c,
                                          fitness_from_compression(c, a, a0)))
            history.extend(records)
            if stream is not None:
                stream.write("".join(map(_history_line, records)))
                stream.flush()

            best_fitness = max(best_fitness, *(rec.fitness for rec in records))
            improved = (best_fitness > stall_ref * (1.0 + STALL_IMPROVEMENT)
                        if stall_ref > 0.0 else best_fitness > stall_ref)
            if improved:
                stall_ref = best_fitness
                stall = 0
            else:
                stall += 1
            log.info("generation %d: best fitness %.6f (stall %d/%d)",
                     generation, best_fitness, stall, cfg.stall_generations)
            if stall >= cfg.stall_generations:
                break
            if cfg.max_generations is not None and generation + 1 >= cfg.max_generations:
                log.warning("stopping at max_generations=%d before stall", cfg.max_generations)
                break

            ranked = sorted(records, key=lambda rec: -rec.fitness)
            population = [rec.genes for rec in ranked[:ELITISM_COUNT]]
            # roulette selection by fitness, or uniform when none is positive
            weights = np.array([max(rec.fitness, 0.0) for rec in records])
            total = weights.sum()
            p = weights / total if total > 0.0 else None
            n = len(records)
            while len(population) < cfg.population:
                g1, g2 = (records[int(rng.integers(0, n) if p is None
                                      else rng.choice(n, p=p))].genes for _ in range(2))
                if n_sites > 1 and rng.random() < CROSSOVER_PROB:
                    point = int(rng.integers(1, n_sites))
                    g1, g2 = g1[:point] + g2[point:], g2[:point] + g1[point:]
                for genes in (g1, g2):
                    if len(population) < cfg.population:
                        population.append(mutate(genes))
            generation += 1
    finally:
        if pool is not None:
            pool.shutdown()
        if stream is not None:
            stream.close()
    if partial is not None:
        os.replace(partial, history_path)
    unique = len(memo) - resumed
    log.info("ga_search: %d evaluations requested, %d unique, %d served by the memo",
             len(history), unique, len(history) - unique)

    feasible = [rec for rec in history if rec.accuracy >= a0]
    if not feasible:
        log.warning("no chromosome met the accuracy threshold a0=%.4f; "
                    "returning the best by fitness", a0)
    return GaResult(
        best=max(feasible or history, key=lambda rec: rec.fitness),
        history=history,
        a_star=a_star,
        a0=a0,
        feasible=bool(feasible),
        generations=generation + 1,
    )


def bottleneck_analysis(history: Sequence[EvalRecord]) -> tuple[list[float], list[int]]:
    """Per-site probability of staying unpruned among top-fitness chromosomes.

    Top = fitness within (1 - FITNESS_WINDOW) of the best recorded value,
    i.e. >= FITNESS_WINDOW * best. Returns (probabilities in canonical site
    order, indices of sites unpruned in every qualifying chromosome).
    """
    if not history:
        raise ValueError("empty history")
    best = max(rec.fitness for rec in history)
    qualifying = [rec for rec in history if rec.fitness >= FITNESS_WINDOW * best]
    if not qualifying:
        raise ValueError("no chromosomes within the fitness window")
    n_sites = len(qualifying[0].genes)
    probs = []
    for i in range(n_sites):
        unpruned = sum(1 for rec in qualifying if rec.genes[i] == 0)
        probs.append(unpruned / len(qualifying))
    flagged = [i for i, p in enumerate(probs) if p == 1.0]
    return probs, flagged
