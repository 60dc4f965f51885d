"""Command-line pipeline: capture -> cache -> search -> eval/report/sweep.

Exit codes: 0 success, 2 infeasible (no pruned vector meets the accuracy
threshold), 3 input/format error.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

from .calibrate import (
    FactorizeOptions,
    FactorSet,
    PruningVector,
    assemble,
    build_cache,
    capture_calibration,
    check_workers,
    compression_ratio,
    load_cache,
    load_capture,
    save_cache,
    save_capture,
)
from .model import (
    TransformerConfig,
    check_prompts,
    load_model,
    model_fingerprint,
    read_fields,
    read_json,
    write_json,
)
from .report import (
    build_report,
    calibration_sweep,
    emit_report,
    sweep_uniform,
    write_calibration_csv,
    write_sweep_csv,
)
from .search import (
    GaConfig,
    binary_search_uniform,
    evaluate,
    exact_match_task,
    ga_search,
    load_task,
    read_history,
    write_history,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INPUT_ERROR = 3

log = logging.getLogger("taskprune")


def _read_corpus(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


RUN_SCHEMA = "taskprune-run-v1"
# run.json leaves out the fields of the other search mode
_LEFT_OUT = {"up": ("generations", "seed"), "ga": ("evaluations", "warning")}


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """run.json: what `search` found and ran on, which `report` reads back."""

    mode: str
    epsilon: float
    a_star: float
    a0: float
    accuracy: float
    best_indices: tuple[int, ...]
    factor_set: FactorSet
    feasible: bool
    config: TransformerConfig
    model_fingerprint: str
    calib_fingerprint: str
    history: str
    evaluations: int | None = None      # up only
    warning: str | None = None          # up only
    generations: int | None = None      # ga only
    seed: int | None = None             # ga only: the bisection draws no random numbers

    def to_dict(self) -> dict:
        d = {k: v for k, v in dataclasses.asdict(self).items() if k not in _LEFT_OUT[self.mode]}
        return {**d, "schema": RUN_SCHEMA, "factor_set": list(self.factor_set.levels)}


def _factorize_opts(args) -> FactorizeOptions:
    check_workers(args.workers)
    return FactorizeOptions(
        epochs=args.epochs,
        batch_tokens=args.batch,
        learning_rate=args.lr,
        seed=args.seed,
    )


def cmd_capture(args) -> int:
    model = load_model(args.model)
    capture = capture_calibration(model, _read_corpus(args.corpus), min_tokens=args.tokens)
    save_capture(capture, model.config, args.out)
    print(f"captured {capture.tokens} tokens over {len(capture.inputs)} sites -> {args.out}")
    return EXIT_OK


def cmd_cache(args) -> int:
    opts = _factorize_opts(args)
    model = load_model(args.model)
    capture = load_capture(args.capture, model)
    cache = build_cache(model, capture, opts=opts, workers=args.workers)
    save_cache(cache, args.out)
    print(f"built {cache.built_entries()} adapter entries -> {args.out} "
          f"(fingerprint {cache.fingerprint()[:12]})")
    return EXIT_OK


def _load_run_inputs(args):
    model = load_model(args.model)
    cache = load_cache(args.cache)
    task = load_task(args.task)
    if args.epsilon is not None:
        task = dataclasses.replace(task, epsilon=args.epsilon)
    check_prompts(model.config, task.prompts, task.max_new_tokens)
    cache.check_model(model)
    return model, cache, task


def cmd_search(args) -> int:
    cfg = (GaConfig(seed=args.seed, workers=args.workers, max_generations=args.max_generations)
           if args.mode == "ga" else None)
    model, cache, task = _load_run_inputs(args)
    os.makedirs(args.out, exist_ok=True)
    history_path = os.path.join(args.out, "history.jsonl")

    if args.mode == "up":
        result = binary_search_uniform(model, cache, task)
        write_history(result.history, history_path)
        best_vector, accuracy, feasible = result.vector, result.eval_result.accuracy, result.pruned
        extra = {"evaluations": result.evaluations, "warning": result.warning}
    else:
        result = ga_search(model, cache, task, cfg, history_path=history_path)
        best_vector = PruningVector(result.best.genes, cache.factor_set)
        accuracy, feasible = result.best.accuracy, result.feasible
        extra = {"generations": result.generations, "seed": args.seed}

    write_json(os.path.join(args.out, "best.json"), best_vector.to_dict())
    run = RunRecord(mode=args.mode, epsilon=task.epsilon, a_star=result.a_star, a0=result.a0,
                    accuracy=accuracy, best_indices=best_vector.indices,
                    factor_set=cache.factor_set, feasible=feasible, config=model.config,
                    model_fingerprint=model_fingerprint(model),
                    calib_fingerprint=cache.calib_fingerprint, history="history.jsonl", **extra)
    write_json(os.path.join(args.out, "run.json"), run.to_dict())
    print(f"mode={args.mode} accuracy={accuracy:.4f} a0={run.a0:.4f} "
          f"compression={compression_ratio(best_vector, model.config):.4f} feasible={feasible}")
    return EXIT_OK if feasible else EXIT_INFEASIBLE


def cmd_eval(args) -> int:
    model = load_model(args.model)
    task = load_task(args.task)
    check_prompts(model.config, task.prompts, task.max_new_tokens)
    target = model
    if args.pruning:
        if not args.cache:
            raise ValueError("--pruning requires --cache to assemble the pruned model")
        vector = PruningVector.from_dict(read_json(args.pruning))
        target = assemble(model, vector, load_cache(args.cache))
    result = evaluate(target, exact_match_task(model, task))
    correct = sum(result.verdicts)
    print(f"accuracy={result.accuracy:.4f} ({correct}/{len(result.verdicts)} prompts)")
    return EXIT_OK


def cmd_report(args) -> int:
    run = read_fields(RunRecord, read_json(os.path.join(args.run, "run.json")), RUN_SCHEMA)
    history = read_history(os.path.join(args.run, run.history))
    report = build_report(
        run.config, PruningVector(run.best_indices, run.factor_set), run.mode, run.a_star,
        run.a0, run.accuracy, run.epsilon, run.model_fingerprint, run.calib_fingerprint,
        history=history if run.mode == "ga" else None, history_file=run.history,
        feasible=run.feasible)
    emit_report(report, args.out)
    print(f"report written to {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.kind == "uniform" and not args.cache:
        raise ValueError("--kind uniform requires --cache")
    if args.kind == "calibration" and not (args.corpus and args.sizes):
        raise ValueError("--kind calibration requires --corpus and --sizes")
    model = load_model(args.model)
    task = load_task(args.task)
    check_prompts(model.config, task.prompts, task.max_new_tokens)
    if args.kind == "uniform":
        cache = load_cache(args.cache)
        cache.check_model(model)
        points = sweep_uniform(model, cache, task)
        write_sweep_csv(points, args.out)
        print(f"{len(points)} sweep points -> {args.out}")
    else:
        corpus = _read_corpus(args.corpus)
        sizes = [int(s) for s in args.sizes.split(",") if s]
        points = calibration_sweep(
            model, corpus, sizes, task, level=args.level,
            opts=_factorize_opts(args), workers=args.workers,
        )
        write_calibration_csv(points, args.out)
        print(f"{len(points)} calibration points -> {args.out}")
    return EXIT_OK


def _add_factorize_args(p: argparse.ArgumentParser) -> None:
    defaults = FactorizeOptions()
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    p.add_argument("--batch", type=int, default=defaults.batch_tokens)
    p.add_argument("--lr", type=float, default=defaults.learning_rate)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--workers", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taskprune",
        description="Prune a toy transformer to the minimal per-matrix ranks for a task.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capture", help="record per-site calibration activations")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True, help="raw bytes file (byte-level tokens)")
    p.add_argument("--tokens", type=int, default=200_000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_capture)

    p = sub.add_parser("cache", help="factorize every site at every level")
    p.add_argument("--model", required=True)
    p.add_argument("--capture", required=True)
    p.add_argument("--out", required=True)
    _add_factorize_args(p)
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("search", help="find a pruning vector meeting the tolerance")
    p.add_argument("--mode", choices=["up", "ga"], required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--epsilon", type=float, default=None,
                   help="override the tolerance in the task file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--max-generations", type=int, default=None)
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="evaluate a model (optionally pruned) on a task")
    p.add_argument("--model", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--pruning", default=None, help="pruning vector JSON")
    p.add_argument("--cache", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="aggregate a run directory into JSON + CSVs")
    p.add_argument("--run", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sweep", help="uniform pruning curve or calibration-size curve")
    p.add_argument("--kind", choices=["uniform", "calibration"], required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--cache", default=None, help="required for --kind uniform")
    p.add_argument("--corpus", default=None, help="required for --kind calibration")
    p.add_argument("--sizes", default="", help="comma-separated token counts")
    p.add_argument("--level", type=float, default=0.5)
    p.add_argument("--out", required=True)
    _add_factorize_args(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:  # FormatError and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
