"""Command-line pipeline: capture -> cache -> search -> eval/report/sweep.

Exit codes: 0 success, 2 infeasible (no pruned vector meets the accuracy
threshold), 3 input/format error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .calibrate import (
    CorpusTooSmallError,
    CacheMismatchError,
    FactorizeOptions,
    PruningVector,
    assemble,
    build_cache,
    capture_calibration,
    load_cache,
    load_capture,
    save_cache,
    save_capture,
)
from .model import FormatError, load_model, model_fingerprint, sites
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
    TaskMode,
    baseline_decodes,
    binary_search_uniform,
    evaluate,
    ga_search,
    load_task,
    read_history,
    write_history,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INPUT_ERROR = 3

log = logging.getLogger("taskprune")


def _write_json(obj: dict, path) -> None:
    """Write via `<path>.partial` and rename, so a failed dump never leaves
    a truncated file in place of an earlier one."""
    partial = f"{path}.partial"
    with open(partial, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
    os.replace(partial, path)


def _read_corpus(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _factorize_opts(args) -> FactorizeOptions:
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
    print(f"captured {capture.tokens} tokens over {len(capture.entries)} sites -> {args.out}")
    return EXIT_OK


def cmd_cache(args) -> int:
    model = load_model(args.model)
    capture, _ = load_capture(args.capture)
    cache = build_cache(model, capture, opts=_factorize_opts(args), workers=args.workers)
    save_cache(cache, args.out)
    print(f"built {cache.built_entries()} adapter entries -> {args.out} "
          f"(fingerprint {cache.fingerprint()[:12]})")
    return EXIT_OK


def _load_run_inputs(args):
    model = load_model(args.model)
    cache = load_cache(args.cache)
    task = load_task(args.task)
    if args.epsilon is not None:
        task.epsilon = args.epsilon
    return model, cache, task


def cmd_search(args) -> int:
    model, cache, task = _load_run_inputs(args)
    os.makedirs(args.out, exist_ok=True)
    history_path = os.path.join(args.out, "history.jsonl")

    if args.mode == "up":
        result = binary_search_uniform(model, cache, task)
        write_history(result.history, history_path)
        best_vector = result.vector
        accuracy = result.eval_result.accuracy
        a_star, a0 = result.a_star, result.a0
        feasible = result.pruned
        extra = {"evaluations": result.evaluations, "warning": result.warning}
    else:
        cfg = GaConfig(seed=args.seed, workers=args.workers,
                       max_generations=args.max_generations)
        result = ga_search(model, cache, task, cfg, history_path=history_path)
        best_vector = PruningVector(result.best.genes, cache.factor_set)
        accuracy = result.best.accuracy
        a_star, a0 = result.a_star, result.a0
        feasible = result.feasible
        extra = {"generations": result.generations}

    _write_json(best_vector.to_dict(), os.path.join(args.out, "best.json"))
    run = {
        "schema": "taskprune-run-v1",
        "mode": args.mode,
        "epsilon": task.epsilon,
        "a_star": a_star,
        "a0": a0,
        "accuracy": accuracy,
        "best_indices": list(best_vector.indices),
        "factor_set": list(cache.factor_set.levels),
        "feasible": feasible,
        "seed": args.seed,
        "config": model.config.to_dict(),
        "model_fingerprint": model_fingerprint(model),
        "calib_fingerprint": cache.calib_fingerprint,
        "history": "history.jsonl",
    }
    run.update(extra)
    _write_json(run, os.path.join(args.out, "run.json"))
    print(f"mode={args.mode} accuracy={accuracy:.4f} a0={a0:.4f} "
          f"compression={_compression(best_vector, model):.4f} feasible={feasible}")
    return EXIT_OK if feasible else EXIT_INFEASIBLE


def _compression(vector, model) -> float:
    from .calibrate import compression_ratio
    return compression_ratio(vector, model)


def cmd_eval(args) -> int:
    model = load_model(args.model)
    task = load_task(args.task)
    target = model
    if args.pruning:
        if not args.cache:
            raise ValueError("--pruning requires --cache to assemble the pruned model")
        with open(args.pruning, "r", encoding="utf-8") as fh:
            vector = PruningVector.from_dict(json.load(fh))
        target = assemble(model, vector, load_cache(args.cache))
    baseline = None
    if task.mode is TaskMode.BASELINE_AGREEMENT:
        baseline = baseline_decodes(model, task)
    result = evaluate(target, task, baseline)
    correct = sum(result.verdicts)
    print(f"accuracy={result.accuracy:.4f} ({correct}/{len(result.verdicts)} prompts)")
    return EXIT_OK


def cmd_report(args) -> int:
    with open(os.path.join(args.run, "run.json"), "r", encoding="utf-8") as fh:
        run = json.load(fh)
    from .calibrate import FactorSet
    from .model import TransformerConfig, random_model

    config = TransformerConfig.from_dict(run["config"])
    factor_set = FactorSet(tuple(float(x) for x in run["factor_set"]))
    vector = PruningVector(tuple(int(i) for i in run["best_indices"]), factor_set)
    history = read_history(os.path.join(args.run, run["history"]))
    # retention/FLOP accounting only needs the shapes, not the weights
    shape_model = random_model(config, seed=0)
    report = build_report(
        model=shape_model,
        vector=vector,
        mode=run["mode"],
        a_star=float(run["a_star"]),
        a0=float(run["a0"]),
        accuracy=float(run["accuracy"]),
        epsilon=float(run["epsilon"]),
        model_fp=str(run["model_fingerprint"]),
        calib_fp=str(run["calib_fingerprint"]),
        history=history if run["mode"] == "ga" else None,
        history_file=run["history"],
        feasible=bool(run["feasible"]),
    )
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
    if args.kind == "uniform":
        cache = load_cache(args.cache)
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
    p.add_argument("--epochs", type=int, default=2)
    p.add_argument("--batch", type=int, default=5000)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--seed", type=int, default=0)
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
    except (FormatError, CorpusTooSmallError, CacheMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
