"""Calibration capture, adapter-cache construction, and pruned-model assembly.

The cache holds one factorization per (site, retention level < 1), built once
from captured activations so the searches never re-factorize. Entries are
keyed by content hashes of the model and the calibration corpus to prevent
silent mismatches during long runs.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import io
import logging
import os
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .factorize import (
    DegenerateSiteError,
    FactorizationDiverged,
    FactorizedMatrix,
    FactorizeOptions,
    Method,
    OutputAlignedSite,
    factorize_output_aligned,  # noqa: F401 - perfbench/spans.py traces it under this module
    rank_for_factor,
)
from .linalg import Matrix, derive_rng
from .model import (
    CACHE_VERSION,
    CAPTURE_VERSION,
    ActivationCapture,
    FormatError,
    ModelWeights,
    SiteId,
    SiteKind,
    TransformerConfig,
    _transformer,
    forward,  # noqa: F401 - perfbench/spans.py traces it under this module
    model_fingerprint,
    read_container,
    site_dims,
    sites,
    tokenize,
    write_container,
)

log = logging.getLogger(__name__)

DEFAULT_LEVELS = (1.0, 0.9, 0.75, 0.6, 0.5, 0.35, 0.25, 0.2, 0.1, 0.05)


class CorpusTooSmallError(ValueError):
    pass


class CacheMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class FactorSet:
    """Ordered retention levels; index 0 is always the unpruned level 1.0."""

    levels: tuple[float, ...] = DEFAULT_LEVELS

    def __post_init__(self) -> None:
        if not self.levels or self.levels[0] != 1.0:
            raise ValueError("factor set must start at 1.0")
        if any(b >= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("factor levels must be strictly descending")
        if any(not 0.0 < lv <= 1.0 for lv in self.levels):
            raise ValueError("factor levels must lie in (0, 1]")

    def __len__(self) -> int:
        return len(self.levels)

    def __getitem__(self, i: int) -> float:
        return self.levels[i]

    def index(self, level: float) -> int:
        return self.levels.index(level)


DEFAULT_FACTOR_SET = FactorSet()


@dataclass(frozen=True)
class PruningVector:
    """One factor-set index per prunable site, in canonical site order."""

    indices: tuple[int, ...]
    factor_set: FactorSet = DEFAULT_FACTOR_SET

    def __post_init__(self) -> None:
        if any(not 0 <= i < len(self.factor_set) for i in self.indices):
            raise ValueError("factor index out of range")

    def __len__(self) -> int:
        return len(self.indices)

    def levels(self) -> tuple[float, ...]:
        return tuple(self.factor_set[i] for i in self.indices)

    def is_all_ones(self) -> bool:
        return all(i == 0 for i in self.indices)

    @classmethod
    def uniform(cls, factor_set: FactorSet, n_sites: int, level_index: int) -> "PruningVector":
        return cls((level_index,) * n_sites, factor_set)

    @classmethod
    def all_ones(cls, factor_set: FactorSet, n_sites: int) -> "PruningVector":
        return cls.uniform(factor_set, n_sites, 0)

    def to_dict(self) -> dict:
        return {
            "schema": "taskprune-pruning-v1",
            "factor_set": list(self.factor_set.levels),
            "indices": list(self.indices),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PruningVector":
        return cls(tuple(int(i) for i in d["indices"]),
                   FactorSet(tuple(float(x) for x in d["factor_set"])))


def capture_calibration(
    model: ModelWeights,
    corpus: bytes | Sequence[int],
    min_tokens: int = 200_000,
) -> ActivationCapture:
    """Run the first min_tokens corpus tokens through the model with every
    site tapped; inputs are chunked into max_seq_len sequences."""
    tokens = tokenize(corpus) if isinstance(corpus, (bytes, str)) else list(corpus)
    if len(tokens) < min_tokens:
        raise CorpusTooSmallError(
            f"corpus supplies {len(tokens)} tokens, {min_tokens} required"
        )
    tokens = tokens[:min_tokens]
    corpus_fp = hashlib.sha256(bytes(tokens)).hexdigest()

    # all full-length chunks run as one batch, the trailing partial chunk
    # (if any) as a second one; columns stay in corpus order
    tap_set = frozenset(sites(model.config))
    step = model.config.max_seq_len
    n_full = len(tokens) // step
    ids = np.asarray(tokens, dtype=np.int64)
    blocks = [ids[:n_full * step].reshape(n_full, step), ids[n_full * step:].reshape(1, -1)]
    parts = [_transformer(model, block, tap_set)[1] for block in blocks if block.size]
    if len(parts) == 1:
        entries = parts[0]      # no copy: the capture can be most of the memory
    else:
        entries = {
            site: (
                np.concatenate([pairs[site][0] for pairs in parts], axis=1),
                np.concatenate([pairs[site][1] for pairs in parts], axis=1),
            )
            for site in tap_set
        }
    return ActivationCapture(
        entries=entries,
        tokens=min_tokens,
        model_fingerprint=model_fingerprint(model),
        corpus_fingerprint=corpus_fp,
    )


def _calib_fingerprint(capture: ActivationCapture) -> str:
    basis = f"{capture.corpus_fingerprint}:{capture.tokens}".encode()
    return hashlib.sha256(basis).hexdigest()


@dataclass
class AdapterCache:
    """Immutable-after-build map (site, factor-index) -> factorization.

    Index 0 (level 1.0) maps to None, meaning the dense weights are kept.
    Entries that could not be factorized (a diverged descent, or a site whose
    calibration outputs are all zero) also map to None; `flagged` maps each
    of them to the reason.
    """

    config: TransformerConfig
    factor_set: FactorSet
    model_fingerprint: str
    calib_fingerprint: str
    options: FactorizeOptions
    entries: dict[tuple[SiteId, int], FactorizedMatrix | None]
    flagged: dict[tuple[SiteId, int], str] = field(default_factory=dict)

    def entry(self, site: SiteId, factor_index: int) -> FactorizedMatrix | None:
        key = (site, factor_index)
        if key not in self.entries:
            raise KeyError(f"no cache entry for {site} at factor index {factor_index}")
        return self.entries[key]

    def built_entries(self) -> int:
        return sum(1 for (_, fi) in self.entries if fi > 0)

    def fingerprint(self) -> str:
        return hashlib.sha256(cache_to_bytes(self)).hexdigest()


def _entry_seed(base_seed: int, site: SiteId, factor_index: int) -> int:
    kind_idx = list(SiteKind).index(site.kind)
    return int(derive_rng(base_seed, site.layer, kind_idx, factor_index)
               .integers(0, 2 ** 63 - 1))


def build_cache(
    model: ModelWeights,
    capture: ActivationCapture,
    factor_set: FactorSet = DEFAULT_FACTOR_SET,
    opts: FactorizeOptions | None = None,
    workers: int | None = None,
) -> AdapterCache:
    """Factorize every site at every level below 1.0.

    One job per site, run on `workers` threads: the site's SVD and error
    statistics are computed once (OutputAlignedSite) and shared by all its
    levels. Each entry gets its own seed derived from (opts.seed, site,
    level), so the result is bit-identical regardless of worker count or
    scheduling. A diverged entry is flagged and kept dense; a site whose
    calibration outputs are all zero has every level flagged and kept dense.
    """
    opts = opts or FactorizeOptions()
    model_fp = model_fingerprint(model)
    if capture.model_fingerprint and capture.model_fingerprint != model_fp:
        raise CacheMismatchError("capture was recorded from a different model")

    site_list = sites(model.config)
    missing = [s for s in site_list if s not in capture.entries]
    if missing:
        raise ValueError(f"capture is missing sites: {missing}")
    levels = range(1, len(factor_set))

    def run(site: SiteId) -> list[tuple[int, FactorizedMatrix | None, str | None]]:
        d_in, d_out = site_dims(model.config, site)
        try:
            fit = OutputAlignedSite(model.site_weight(site), *capture.entries[site])
        except DegenerateSiteError as exc:
            log.warning("%s: %s; keeping all %d levels dense", site, exc, len(levels))
            return [(fi, None, str(exc)) for fi in levels]
        out = []
        for fi in levels:
            rank, _ = rank_for_factor(factor_set[fi], d_in, d_out)
            entry_opts = replace(opts, seed=_entry_seed(opts.seed, site, fi))
            try:
                out.append((fi, fit.fit(rank, entry_opts), None))
            except FactorizationDiverged as exc:
                log.warning("factorization diverged for %s at level %.2f; keeping dense",
                            site, factor_set[fi])
                out.append((fi, None, str(exc)))
        return out

    entries: dict[tuple[SiteId, int], FactorizedMatrix | None] = {
        (site, 0): None for site in site_list
    }
    flagged: dict[tuple[SiteId, int], str] = {}
    max_workers = workers or os.cpu_count() or 1
    if max_workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(run, site_list))
    else:
        results = [run(site) for site in site_list]
    for site, site_results in zip(site_list, results):
        for fi, fm, reason in site_results:
            entries[(site, fi)] = fm
            if reason is not None:
                flagged[(site, fi)] = reason

    cache = AdapterCache(
        config=model.config,
        factor_set=factor_set,
        model_fingerprint=model_fp,
        calib_fingerprint=_calib_fingerprint(capture),
        options=opts,
        entries=entries,
        flagged=flagged,
    )
    log.info("built %d adapter entries (%d sites x %d levels)",
             cache.built_entries(), len(site_list), len(factor_set) - 1)
    return cache


@dataclass
class PrunedModel:
    """A base model plus low-rank adapters for the sites pruned below 1.0."""

    base: ModelWeights
    adapters: dict[SiteId, FactorizedMatrix]
    vector: PruningVector

    @property
    def config(self) -> TransformerConfig:
        return self.base.config


def assemble(model: ModelWeights, vector: PruningVector, cache: AdapterCache) -> PrunedModel:
    """Attach cache adapters per the vector; level-1.0 sites stay dense."""
    if cache.model_fingerprint != model_fingerprint(model):
        raise CacheMismatchError("cache was built for a different model")
    if vector.factor_set.levels != cache.factor_set.levels:
        raise CacheMismatchError("pruning vector uses a different factor set")
    site_list = sites(model.config)
    if len(vector) != len(site_list):
        raise ValueError(f"vector length {len(vector)} != site count {len(site_list)}")
    adapters: dict[SiteId, FactorizedMatrix] = {}
    for site, fi in zip(site_list, vector.indices):
        if fi == 0:
            continue
        fm = cache.entry(site, fi)
        if fm is not None:
            adapters[site] = fm
    return PrunedModel(base=model, adapters=adapters, vector=vector)


def retained_site_params(vector: PruningVector, model: ModelWeights) -> int:
    total = 0
    for site, level in zip(sites(model.config), vector.levels()):
        d_in, d_out = site_dims(model.config, site)
        rank, _ = rank_for_factor(level, d_in, d_out)
        total += d_in * d_out if rank is None else rank * (d_in + d_out)
    return total


def compression_ratio(vector: PruningVector, model: ModelWeights) -> float:
    """Fraction of prunable parameters removed (higher = more compressed)."""
    dense = sum(d_in * d_out for d_in, d_out in
                (site_dims(model.config, s) for s in sites(model.config)))
    return 1.0 - retained_site_params(vector, model) / dense


# --- persistence ----------------------------------------------------------

def _kind_index(kind: SiteKind) -> int:
    return list(SiteKind).index(kind)


def cache_to_bytes(cache: AdapterCache) -> bytes:
    ordered = sorted(
        ((site, fi) for (site, fi) in cache.entries if fi > 0),
        key=lambda k: (k[0].layer, _kind_index(k[0].kind), k[1]),
    )
    manifest = []
    tensors: list[tuple[str, np.ndarray]] = []
    for i, (site, fi) in enumerate(ordered):
        fm = cache.entries[(site, fi)]
        flagged = (site, fi) in cache.flagged
        row = {
            "layer": site.layer,
            "kind": site.kind.value,
            "factor_index": fi,
            "factor": cache.factor_set[fi],
            "flagged": flagged,
        }
        if flagged:
            row["reason"] = cache.flagged[(site, fi)]
        if fm is not None:
            row.update(rank=fm.rank, method=fm.method.value,
                       calib_error=fm.calib_error, achieved_factor=fm.achieved_factor)
            tensors.append((f"e{i}.b", fm.b))
            tensors.append((f"e{i}.c", fm.c))
        manifest.append(row)
    meta = {
        "kind": "adapter_cache",
        "config": cache.config.to_dict(),
        "factor_set": list(cache.factor_set.levels),
        "model_fingerprint": cache.model_fingerprint,
        "calib_fingerprint": cache.calib_fingerprint,
        "options": {
            "epochs": cache.options.epochs,
            "batch_tokens": cache.options.batch_tokens,
            "learning_rate": cache.options.learning_rate,
            "seed": cache.options.seed,
        },
        "entries": manifest,
    }
    buf = io.BytesIO()
    write_container(buf, CACHE_VERSION, meta, tensors)
    return buf.getvalue()


def save_cache(cache: AdapterCache, path) -> None:
    with open(path, "wb") as fh:
        fh.write(cache_to_bytes(cache))


def load_cache(path) -> AdapterCache:
    with open(path, "rb") as fh:
        _, meta, tensors = read_container(fh, expected_version=CACHE_VERSION)
    if meta.get("kind") != "adapter_cache":
        raise FormatError(f"not an adapter cache: kind={meta.get('kind')!r}")
    config = TransformerConfig.from_dict(meta["config"])
    factor_set = FactorSet(tuple(float(x) for x in meta["factor_set"]))
    opts = FactorizeOptions(
        epochs=int(meta["options"]["epochs"]),
        batch_tokens=int(meta["options"]["batch_tokens"]),
        learning_rate=float(meta["options"]["learning_rate"]),
        seed=int(meta["options"]["seed"]),
    )
    entries: dict[tuple[SiteId, int], FactorizedMatrix | None] = {
        (site, 0): None for site in sites(config)
    }
    flagged: dict[tuple[SiteId, int], str] = {}
    for i, row in enumerate(meta["entries"]):
        site = SiteId(int(row["layer"]), SiteKind(row["kind"]))
        fi = int(row["factor_index"])
        if row.get("flagged"):
            entries[(site, fi)] = None
            flagged[(site, fi)] = str(row.get("reason", ""))
            continue
        fm = FactorizedMatrix(
            b=tensors[f"e{i}.b"],
            c=tensors[f"e{i}.c"],
            rank=int(row["rank"]),
            method=Method(row["method"]),
            calib_error=float(row["calib_error"]),
            achieved_factor=float(row["achieved_factor"]),
        )
        entries[(site, fi)] = fm
        flagged.pop((site, fi), None)
    expected = {(s, fi) for s in sites(config) for fi in range(len(factor_set))}
    if set(entries) != expected:
        raise FormatError("cache manifest does not cover every site and factor level")
    return AdapterCache(
        config=config,
        factor_set=factor_set,
        model_fingerprint=str(meta["model_fingerprint"]),
        calib_fingerprint=str(meta["calib_fingerprint"]),
        options=opts,
        entries=entries,
        flagged=flagged,
    )


def capture_to_bytes(capture: ActivationCapture, config: TransformerConfig) -> bytes:
    ordered = sorted(capture.entries, key=lambda s: (s.layer, _kind_index(s.kind)))
    manifest = [{"layer": s.layer, "kind": s.kind.value} for s in ordered]
    tensors: list[tuple[str, np.ndarray]] = []
    for i, site in enumerate(ordered):
        x, y = capture.entries[site]
        tensors.append((f"s{i}.x", x))
        tensors.append((f"s{i}.y", y))
    meta = {
        "kind": "capture",
        "config": config.to_dict(),
        "tokens": capture.tokens,
        "model_fingerprint": capture.model_fingerprint,
        "corpus_fingerprint": capture.corpus_fingerprint,
        "sites": manifest,
    }
    buf = io.BytesIO()
    write_container(buf, CAPTURE_VERSION, meta, tensors)
    return buf.getvalue()


def save_capture(capture: ActivationCapture, config: TransformerConfig, path) -> None:
    with open(path, "wb") as fh:
        fh.write(capture_to_bytes(capture, config))


def load_capture(path) -> tuple[ActivationCapture, TransformerConfig]:
    with open(path, "rb") as fh:
        _, meta, tensors = read_container(fh, expected_version=CAPTURE_VERSION)
    if meta.get("kind") != "capture":
        raise FormatError(f"not a capture file: kind={meta.get('kind')!r}")
    config = TransformerConfig.from_dict(meta["config"])
    entries: dict[SiteId, tuple[Matrix, Matrix]] = {}
    for i, row in enumerate(meta["sites"]):
        site = SiteId(int(row["layer"]), SiteKind(row["kind"]))
        entries[site] = (tensors[f"s{i}.x"], tensors[f"s{i}.y"])
    capture = ActivationCapture(
        entries=entries,
        tokens=int(meta["tokens"]),
        model_fingerprint=str(meta["model_fingerprint"]),
        corpus_fingerprint=str(meta["corpus_fingerprint"]),
    )
    return capture, config
