"""Aggregation of search outputs into analysis artifacts (JSON + CSV).

No plotting here; the CSVs carry the data the usual figures are drawn from:
accuracy-vs-pruning curves, per-layer / per-matrix-type retention, and the
bottleneck (probability-unpruned) table. Emission is a pure function of the
run artifacts, so re-emitting from the same inputs is byte-identical. Every
file is written whole through model.write_json or model.write_csv, so a
failed emission leaves the earlier file in place.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Sequence

from .calibrate import (
    AdapterCache,
    FactorSet,
    PruningVector,
    build_cache,
    capture_calibration,
    check_calibration_size,
    check_workers,
    compression_ratio,
    count_params,
    estimate_flops_per_token,
)
from .factorize import FactorizeOptions, rank_for_factor
from .model import (KIND_ORDER, ModelWeights, TransformerConfig, site_dims, sites, tokenize,
                    write_csv, write_json)
from .search import (
    EvalFn,
    EvalRecord,
    TaskSpec,
    bottleneck_analysis,
    exact_match_task,
    make_eval_fn,
)

REPORT_SCHEMA = "taskprune-report-v1"


@dataclass
class SweepPoint:
    level: float
    compression: float
    accuracy: float


def sweep_uniform(
    model: ModelWeights,
    cache: AdapterCache,
    task: TaskSpec,
    eval_fn: EvalFn | None = None,
) -> list[SweepPoint]:
    """Evaluate each uniform retention level, most retained first."""
    ev = eval_fn or make_eval_fn(model, cache, task)
    n_sites = len(sites(model.config))
    points = []
    for idx in range(len(cache.factor_set)):
        vec = PruningVector.uniform(cache.factor_set, n_sites, idx)
        res = ev(vec)
        points.append(SweepPoint(
            level=cache.factor_set[idx],
            compression=compression_ratio(vec, cache.config),
            accuracy=res.accuracy,
        ))
    return points


def write_sweep_csv(points: Sequence[SweepPoint], path) -> None:
    write_csv(path, ("level", "compression", "accuracy"),
              ((p.level, p.compression, p.accuracy) for p in points))


def retention_tables(
    vector: PruningVector, config: TransformerConfig
) -> tuple[list[dict], dict[int, float], dict[str, float]]:
    """Per-site achieved retention plus per-layer and per-kind means."""
    rows = []
    for site, level in zip(sites(config), vector.levels()):
        d_in, d_out = site_dims(config, site)
        _, achieved = rank_for_factor(level, d_in, d_out)
        rows.append({
            "layer": site.layer,
            "kind": site.kind.value,
            "level": level,
            "retention": achieved,
        })
    per_layer: dict[int, float] = {}
    for layer in range(config.n_layers):
        vals = [r["retention"] for r in rows if r["layer"] == layer]
        per_layer[layer] = sum(vals) / len(vals)
    per_kind: dict[str, float] = {}
    for kind in KIND_ORDER:
        vals = [r["retention"] for r in rows if r["kind"] == kind.value]
        per_kind[kind.value] = sum(vals) / len(vals)
    return rows, per_layer, per_kind


def calibration_sweep(
    model: ModelWeights,
    corpus: bytes,
    sizes: Sequence[int],
    task: TaskSpec,
    level: float = 0.5,
    opts: FactorizeOptions | None = None,
    workers: int | None = None,
) -> list[tuple[int, float]]:
    """Accuracy of a fixed uniform pruning level as calibration size grows.

    Captures each size, builds its cache (only at `level`) and evaluates.
    The captures share one `reuse` dict over the first max(sizes) corpus
    tokens, so each sequence runs through the model once, whatever the
    order of the sizes, and a size's capture is a column view of those
    buffers, so the sweep holds one buffer per site, max(sizes) tokens wide,
    whatever the number of sizes. The level, every size and
    `workers` are checked, and the task is resolved against the unpruned
    model once, before the first size.
    """
    factor_set = FactorSet((1.0, level))
    tokens = tokenize(corpus)
    for size in sizes:
        check_calibration_size(len(tokens), size)
    check_workers(workers)
    tokens = tokens[:max(sizes, default=0)]
    task = exact_match_task(model, task)
    reuse: dict = {}
    points = []
    for size in sizes:
        capture = capture_calibration(model, tokens, min_tokens=size, reuse=reuse)
        cache = build_cache(model, capture, factor_set, opts, workers=workers)
        ev = make_eval_fn(model, cache, task)
        vec = PruningVector.uniform(cache.factor_set, len(sites(model.config)), 1)
        points.append((size, ev(vec).accuracy))
    return points


def write_calibration_csv(points: Sequence[tuple[int, float]], path) -> None:
    write_csv(path, ("tokens", "accuracy"), points)


@dataclass
class SearchReport:
    """Everything a run produced, ready for serialization."""

    mode: str                    # "up" | "ga"
    model_fingerprint: str
    calib_fingerprint: str
    epsilon: float
    a_star: float
    a0: float
    accuracy: float
    best_indices: tuple[int, ...]
    factor_set: tuple[float, ...]
    compression: float
    whole_model_compression: float
    per_site: list[dict]
    per_layer: dict[int, float]
    per_kind: dict[str, float]
    bottleneck_probs: list[float] | None
    bottleneck_sites: list[int] | None
    flops_dense: int
    flops_pruned: int
    history_file: str | None = None
    feasible: bool = True

    def to_dict(self) -> dict:
        # per_site has its own CSV; string layer keys sort as JSON sorts them
        d = asdict(self)
        del d["per_site"]
        d["per_layer_retention"] = {str(k): v for k, v in d.pop("per_layer").items()}
        d["per_kind_retention"] = d.pop("per_kind")
        d["schema"] = REPORT_SCHEMA
        return d


def build_report(
    model: ModelWeights | TransformerConfig,
    vector: PruningVector,
    mode: str,
    a_star: float,
    a0: float,
    accuracy: float,
    epsilon: float,
    model_fp: str,
    calib_fp: str,
    history: Sequence[EvalRecord] | None = None,
    history_file: str | None = None,
    feasible: bool = True,
) -> SearchReport:
    # the accounting needs only the shapes; perfbench/workloads.py passes
    # the ModelWeights, the CLI the TransformerConfig from run.json
    config = getattr(model, "config", model)
    n_sites = len(sites(config))
    for i, rec in enumerate(history or ()):
        if len(rec.genes) != n_sites:
            raise ValueError(f"history record {i} has {len(rec.genes)} genes, "
                             f"but the config has {n_sites} sites")
    comp = compression_ratio(vector, config)       # first: it rejects a vector of another length
    per_site, per_layer, per_kind = retention_tables(vector, config)
    flops_dense = estimate_flops_per_token(config)
    flops_pruned = estimate_flops_per_token(config, vector.levels())
    removed = (flops_dense - flops_pruned) // 2     # two FLOPs per site parameter
    probs = flagged = None
    if history:
        probs, flagged = bottleneck_analysis(history)
    return SearchReport(
        mode=mode,
        model_fingerprint=model_fp,
        calib_fingerprint=calib_fp,
        epsilon=epsilon,
        a_star=a_star,
        a0=a0,
        accuracy=accuracy,
        best_indices=vector.indices,
        factor_set=vector.factor_set.levels,
        compression=comp,
        whole_model_compression=removed / count_params(config),
        per_site=per_site,
        per_layer=per_layer,
        per_kind=per_kind,
        bottleneck_probs=probs,
        bottleneck_sites=flagged,
        flops_dense=flops_dense,
        flops_pruned=flops_pruned,
        history_file=history_file,
        feasible=feasible,
    )


def emit_report(report: SearchReport, out_dir) -> None:
    """Write report.json plus the CSV bundle under out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "report.json"), report.to_dict())
    write_csv(os.path.join(out_dir, "per_site_retention.csv"),
              ("layer", "kind", "level", "retention"),
              ((r["layer"], r["kind"], r["level"], r["retention"]) for r in report.per_site))
    write_csv(os.path.join(out_dir, "per_layer_retention.csv"),
              ("layer", "mean_retention"), sorted(report.per_layer.items()))
    write_csv(os.path.join(out_dir, "per_kind_retention.csv"),
              ("kind", "mean_retention"), report.per_kind.items())
    if report.bottleneck_probs is not None:
        flagged = report.bottleneck_sites or []
        write_csv(os.path.join(out_dir, "bottlenecks.csv"),
                  ("layer", "kind", "prob_unpruned", "bottleneck"),
                  ((r["layer"], r["kind"], report.bottleneck_probs[i], int(i in flagged))
                   for i, r in enumerate(report.per_site)))
