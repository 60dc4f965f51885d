"""Calibration capture, adapter-cache construction, and pruned-model assembly.

The cache holds one factorization per (site, retention level < 1), built once
from captured activations so the searches never re-factorize. Entries are
keyed by content hashes of the model and the calibration corpus to prevent
silent mismatches during long runs.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import logging
import math
import os
from dataclasses import asdict, dataclass, field
from functools import lru_cache
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
from .linalg import Matrix
from .model import (
    CACHE_VERSION,
    CAPTURE_VERSION,
    KIND_ORDER,
    STOP_BYTE,
    ActivationCapture,
    FormatError,
    ModelWeights,
    SiteId,
    SiteKind,
    TransformerConfig,
    _transformer,
    check_prompts,
    checked_tensor,
    container_bytes,
    forward,  # noqa: F401 - perfbench/spans.py traces it under this module
    model_fingerprint,
    model_shapes,
    read_fields,
    read_kind,
    save_container,
    site_dims,
    sites,
    tokenize,
)

log = logging.getLogger(__name__)

DEFAULT_LEVELS = (1.0, 0.9, 0.75, 0.6, 0.5, 0.35, 0.25, 0.2, 0.1, 0.05)
# Tokens per block of a capture's layer loop, rounded down to whole
# sequences (a short last one runs padded): small enough that a block's
# inputs are still in cache when they are copied into the capture, large
# enough that the per-block overhead is small. Capturing 12k, 24k and 48k
# tokens of the 4-layer calib-scale benchmark model (48-token sequences)
# afresh, 84k tokens in all, took 3.1-3.4 s with blocks of 4 to 64
# sequences, and over 5 s with 1 sequence or with 1000 per block. The
# calibration sweep now runs those 48k tokens once, through a `reuse` dict.
CAPTURE_BLOCK_TOKENS = 1024


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
        return read_fields(cls, d, "taskprune-pruning-v1")


def check_calibration_size(available: int, min_tokens: int) -> None:
    """Reject a calibration size below 1 or above the `available` corpus tokens."""
    if min_tokens < 1:
        raise ValueError(f"calibration needs at least 1 token, not {min_tokens}")
    if available < min_tokens:
        raise CorpusTooSmallError(f"corpus supplies {available} tokens, {min_tokens} required")


def check_workers(workers: int | None) -> None:
    """Reject a worker count below 1; None means one worker per CPU."""
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")


def capture_calibration(
    model: ModelWeights,
    corpus: bytes | Sequence[int],
    min_tokens: int = 200_000,
    reuse: dict | None = None,
) -> ActivationCapture:
    """Run the first min_tokens corpus tokens through the model with every
    site tapped, as max_seq_len sequences; a short last sequence is padded
    with STOP_BYTE, which causal attention hides from the tokens before it.
    Batch rows never mix, so a capture of n tokens is, bit for bit, the
    first n columns of any longer capture of the same corpus.

    Each site's input x (its outputs are W x) is allocated once, at its full
    width. The sequences run through the layer loop in blocks of about
    CAPTURE_BLOCK_TOKENS tokens (at least one sequence each), and each
    block's inputs are copied into their columns, in corpus order.

    `reuse`, a dict that the caller owns, keeps those buffers from one call
    to the next: they are as wide as all the corpus tokens passed in, and
    are kept while the model and those tokens are the same (a new model or
    corpus allocates new ones and checks the corpus as prompts). A call then
    runs only the sequences that no earlier call ran, through the one
    holding its last token, and returns column-prefix views of the buffers.
    Columns are written once, so the views stay valid.
    """
    tokens = tokenize(corpus) if isinstance(corpus, (bytes, str)) else list(corpus)
    check_calibration_size(len(tokens), min_tokens)
    if reuse is None:
        reuse, tokens = {}, tokens[:min_tokens]
    step = model.config.max_seq_len
    ids = np.asarray(tokens, dtype=np.int64)
    # hashed as int64: bytes() would raise on an id past a byte before its check
    key = (model_fingerprint(model), hashlib.sha256(ids.tobytes()).hexdigest())
    if reuse.get("key") != key:
        check_prompts(model.config, (tokens[lo:lo + step] for lo in range(0, len(tokens), step)), 0)
        reuse.clear()
        reuse.update(key=key, held=0, inputs={
            site: np.empty((site_dims(model.config, site)[0], len(tokens)))
            for site in sites(model.config)})
    inputs: dict[SiteId, Matrix] = reuse["inputs"]
    held, end = reuse["held"], min(-(-min_tokens // step) * step, len(tokens))
    width = max(1, CAPTURE_BLOCK_TOKENS // step) * step
    tap_set = frozenset(inputs)
    for lo in range(held, end, width):
        hi = min(lo + width, end)
        block = ids[lo:hi]
        if (hi - lo) % step:
            block = np.pad(block, (0, -(hi - lo) % step), constant_values=STOP_BYTE)
        _, taps = _transformer(model, block.reshape(-1, step), tap_set)
        for site, x in taps.items():
            inputs[site][:, lo:hi] = x.reshape(-1, x.shape[-1])[:hi - lo].T
    reuse["held"] = max(held, end)
    return ActivationCapture(
        model=model,
        inputs={site: x[:, :min_tokens] for site, x in inputs.items()},
        tokens=min_tokens,
        corpus_fingerprint=hashlib.sha256(bytes(tokens[:min_tokens])).hexdigest(),
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

    def check_model(self, model: ModelWeights) -> None:
        if self.model_fingerprint != model_fingerprint(model):
            raise CacheMismatchError("cache was built for a different model")

    def fingerprint(self) -> str:
        return hashlib.sha256(cache_to_bytes(self)).hexdigest()


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
    levels. A fit reads nothing random and nothing of another site, so the
    result is bit-identical regardless of worker count or scheduling. A
    diverged entry is flagged and kept dense; a site whose calibration
    outputs are all zero has every level flagged and kept dense.
    """
    check_workers(workers)
    opts = opts or FactorizeOptions()
    model_fp = model_fingerprint(model)
    if model_fingerprint(capture.model) != model_fp:
        raise CacheMismatchError("capture was recorded from a different model")

    site_list = sites(model.config)
    missing = [s for s in site_list if s not in capture.inputs]
    if missing:
        raise ValueError(f"capture is missing sites: {missing}")
    levels = range(1, len(factor_set))

    def run(site: SiteId) -> list[tuple[int, FactorizedMatrix | None, str | None]]:
        d_in, d_out = site_dims(model.config, site)
        try:
            fit = OutputAlignedSite(model.site_weight(site), capture.inputs[site])
        except DegenerateSiteError as exc:
            log.warning("%s: %s; keeping all %d levels dense", site, exc, len(levels))
            return [(fi, None, str(exc)) for fi in levels]
        out = []
        for fi in levels:
            rank, _ = rank_for_factor(factor_set[fi], d_in, d_out)
            try:
                out.append((fi, fit.fit(rank, opts), None))
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

    @property
    def config(self) -> TransformerConfig:
        return self.base.config


def assemble(model: ModelWeights, vector: PruningVector, cache: AdapterCache) -> PrunedModel:
    """Attach cache adapters per the vector; level-1.0 sites stay dense."""
    cache.check_model(model)
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
    return PrunedModel(base=model, adapters=adapters)


@lru_cache(maxsize=16)
def _all_site_dims(config: TransformerConfig) -> tuple[tuple[int, int], ...]:
    """site_dims of every site in `sites` order; the GA asks once per vector."""
    return tuple(site_dims(config, site) for site in sites(config))


def _site_params(config: TransformerConfig, levels: Sequence[float] | None) -> int:
    """Parameters the prunable sites keep at per-site retention `levels`
    (all dense when None): d_in*d_out for a dense site, R*(d_in+d_out) for
    a site of rank R from the pruning-factor formula."""
    dims = _all_site_dims(config)
    if levels is None:
        levels = (1.0,) * len(dims)
    if len(levels) != len(dims):
        raise ValueError("levels length must equal the site count")
    total = 0
    for (d_in, d_out), level in zip(dims, levels):
        rank, _ = rank_for_factor(level, d_in, d_out)
        total += d_in * d_out if rank is None else rank * (d_in + d_out)
    return total


def compression_ratio(vector: PruningVector, config: TransformerConfig) -> float:
    """Fraction of prunable parameters removed (higher = more compressed)."""
    return 1.0 - _site_params(config, vector.levels()) / _site_params(config, None)


def count_params(config: TransformerConfig) -> int:
    """Every parameter of the model: prunable sites, embeddings, biases, norms."""
    return sum(math.prod(shape) for shape in model_shapes(config).values())


def estimate_flops_per_token(config: TransformerConfig, levels: Sequence[float] | None = None) -> int:
    """Multiply-add count of the prunable matmuls for one token at per-site
    retention `levels` (dense when None): two per retained site parameter."""
    return 2 * _site_params(config, levels)


# --- persistence ----------------------------------------------------------

def _cache_container(cache: AdapterCache) -> tuple[int, dict, list[tuple[str, np.ndarray]]]:
    ordered = [(site, fi) for site in sites(cache.config) for fi in range(1, len(cache.factor_set))]
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
        "config": asdict(cache.config),
        "factor_set": list(cache.factor_set.levels),
        "model_fingerprint": cache.model_fingerprint,
        "calib_fingerprint": cache.calib_fingerprint,
        "options": asdict(cache.options),
        "entries": manifest,
    }
    return CACHE_VERSION, meta, tensors


def cache_to_bytes(cache: AdapterCache) -> bytes:
    return container_bytes(*_cache_container(cache))


def save_cache(cache: AdapterCache, path) -> None:
    save_container(path, *_cache_container(cache))


@dataclass(frozen=True)
class CacheRow:
    """One row of a cache manifest. A flagged entry is kept dense and may
    give its reason; any other entry has its rank, method and errors."""

    layer: int
    kind: SiteKind
    factor_index: int
    flagged: bool
    reason: str | None = None
    rank: int | None = None
    method: Method | None = None
    calib_error: float | None = None
    achieved_factor: float | None = None

    def __post_init__(self) -> None:
        if not self.flagged and None in (self.rank, self.method, self.calib_error,
                                         self.achieved_factor):
            raise ValueError("an entry that is not flagged needs its rank, method, "
                             "calib_error and achieved_factor")


@dataclass(frozen=True)
class CacheMeta:
    """The fields of a cache container's metadata that load_cache reads
    (read_kind reads its kind and config)."""

    factor_set: FactorSet
    options: FactorizeOptions
    model_fingerprint: str
    calib_fingerprint: str
    entries: list[CacheRow]


def load_cache(path) -> AdapterCache:
    meta, tensors, config = read_kind(path, CACHE_VERSION, "adapter_cache")
    try:
        fields = read_fields(CacheMeta, meta)
        factor_set = fields.factor_set
        entries: dict[tuple[SiteId, int], FactorizedMatrix | None] = {}
        flagged: dict[tuple[SiteId, int], str] = {}
        for i, row in enumerate(fields.entries):
            site, fi = SiteId(row.layer, row.kind), row.factor_index
            # level 0 is dense and implied, so listing it counts as twice
            if (site, fi) in entries or fi == 0:
                raise FormatError(f"cache manifest lists {site} at level {fi} twice")
            if row.flagged:
                entries[(site, fi)] = None
                flagged[(site, fi)] = row.reason or ""
                continue
            d_in, d_out = site_dims(config, site)
            # compression_ratio counts parameters from the level, not the rank
            expected, _ = rank_for_factor(factor_set[fi], d_in, d_out)
            if row.rank != expected:
                raise FormatError(f"{site} has rank {row.rank} at level {factor_set[fi]}, "
                                  f"expected {expected}")
            entries[(site, fi)] = FactorizedMatrix(
                b=checked_tensor(tensors, f"e{i}.b", (d_out, row.rank)),
                c=checked_tensor(tensors, f"e{i}.c", (row.rank, d_in)),
                rank=row.rank,
                method=row.method,
                calib_error=row.calib_error,
                achieved_factor=row.achieved_factor,
            )
    except (LookupError, ValueError) as exc:
        raise FormatError(f"bad cache metadata: {exc}") from exc
    levels = range(1, len(factor_set))
    # counted before sites() lists every claimed layer
    if (len(entries) != len(KIND_ORDER) * config.n_layers * len(levels)
            or set(entries) != {(s, fi) for s in sites(config) for fi in levels}):
        raise FormatError("cache manifest does not cover every site and factor level")
    entries.update(((site, 0), None) for site in sites(config))
    return AdapterCache(config, factor_set, fields.model_fingerprint, fields.calib_fingerprint,
                        fields.options, entries, flagged)


def _capture_container(capture: ActivationCapture) -> tuple[int, dict, list[tuple[str, np.ndarray]]]:
    config = capture.model.config
    ordered = sites(config)
    manifest = [{"layer": s.layer, "kind": s.kind.value} for s in ordered]
    tensors = [(f"s{i}.x", capture.inputs[site]) for i, site in enumerate(ordered)]
    meta = {
        "kind": "capture",
        "config": asdict(config),
        "tokens": capture.tokens,
        "model_fingerprint": model_fingerprint(capture.model),
        "corpus_fingerprint": capture.corpus_fingerprint,
        "sites": manifest,
    }
    return CAPTURE_VERSION, meta, tensors


def save_capture(capture: ActivationCapture, path) -> None:
    """Write the capture, with the config of its model, straight into its file: a
    48k-token capture of the 4-layer model is over 500 MB, which a copy in memory
    would double."""
    save_container(path, *_capture_container(capture))


@dataclass(frozen=True)
class CaptureMeta:
    """The fields of a capture container's metadata that load_capture reads."""

    tokens: int
    model_fingerprint: str
    corpus_fingerprint: str
    sites: list[SiteId]


def load_capture(path, model: ModelWeights) -> ActivationCapture:
    """The capture at `path`, holding `model`, which it was recorded from."""
    meta, tensors, config = read_kind(path, CAPTURE_VERSION, "capture")
    try:
        fields = read_fields(CaptureMeta, meta)
        tokens = fields.tokens
        inputs: dict[SiteId, Matrix] = {}
        for i, site in enumerate(fields.sites):
            if site in inputs:
                raise FormatError(f"capture manifest lists {site} twice")
            inputs[site] = checked_tensor(tensors, f"s{i}.x", (site_dims(config, site)[0], tokens))
        # counted before sites() lists every claimed layer
        if len(inputs) != len(KIND_ORDER) * config.n_layers or set(inputs) != set(sites(config)):
            raise FormatError("capture manifest does not cover every site of its config")
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad capture metadata: {exc}") from exc
    if fields.model_fingerprint != model_fingerprint(model) or config != model.config:
        raise CacheMismatchError("capture was recorded from a different model")
    return ActivationCapture(model, inputs, tokens, fields.corpus_fingerprint)
