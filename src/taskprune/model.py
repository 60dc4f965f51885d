"""Toy decoder-only transformer with per-site activation taps.

Pre-norm residual blocks, byte-level vocabulary (256), learned positional
embeddings, GeLU FFN, greedy decoding. Weights live in plain numpy arrays so
forward passes are pure functions; the four weight matrices per layer
(qkv / out / ffn1 / ffn2) are the prunable sites. `layer_shapes` and
`model_shapes` are the one table of tensor names, shapes and order.

Also owns the binary weight container ("SIEV"): magic, u32 version, u64
JSON-metadata length, JSON metadata with an ordered tensor manifest, then
little-endian float64 payloads in manifest order. Every file is written into
`<path>.partial` and then renamed: containers by `save_container`, text
through `write_atomic` (`write_json`/`write_csv`).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
import types
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, is_dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence, get_args, get_origin, get_type_hints

import numpy as np
from scipy.special import erf

from .linalg import Matrix, derive_rng

VOCAB_SIZE = 256
STOP_BYTE = 0
LN_EPS = 1e-5

MAGIC = b"SIEV"
MODEL_VERSION = 1
CACHE_VERSION = 2
CAPTURE_VERSION = 4


class FormatError(ValueError):
    """Raised for malformed input files: containers and text artifacts."""


class SiteKind(str, Enum):
    QKV = "QKV"
    OUT = "OUT"
    FFN1 = "FFN1"
    FFN2 = "FFN2"


KIND_ORDER = (SiteKind.QKV, SiteKind.OUT, SiteKind.FFN1, SiteKind.FFN2)


@dataclass(frozen=True)
class SiteId:
    layer: int
    kind: SiteKind

    def __str__(self) -> str:
        return f"layer{self.layer}.{self.kind.value.lower()}"


@dataclass(frozen=True)
class TransformerConfig:
    n_layers: int
    d_model: int
    n_heads: int
    d_ff: int
    vocab_size: int = VOCAB_SIZE
    max_seq_len: int = 64

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1")
        # an id of VOCAB_SIZE or more could never be written as an expected byte
        if self.vocab_size > VOCAB_SIZE:
            raise ValueError(f"vocab_size {self.vocab_size} exceeds {VOCAB_SIZE}: "
                             "token ids are bytes")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


@lru_cache(maxsize=16)
def sites(config: TransformerConfig) -> tuple[SiteId, ...]:
    """Canonical prunable-site order: layer-major, qkv/out/ffn1/ffn2 within a layer."""
    return tuple(SiteId(layer, kind) for layer in range(config.n_layers) for kind in KIND_ORDER)


def layer_shapes(config: TransformerConfig) -> dict[str, tuple[int, ...]]:
    """The tensors of one layer, name -> shape, in LayerWeights field order,
    which is also their container order: (rows, cols) for a matrix, (n,)
    for a vector. A site's weight is `w_<kind>`, (d_out, d_in)."""
    d, f = config.d_model, config.d_ff
    return {
        "w_qkv": (3 * d, d),
        "w_out": (d, d),
        "w_ffn1": (f, d),
        "b_ffn1": (f,),
        "w_ffn2": (d, f),
        "b_ffn2": (d,),
        "ln1_gain": (d,),
        "ln1_bias": (d,),
        "ln2_gain": (d,),
        "ln2_bias": (d,),
    }


def model_shapes(config: TransformerConfig) -> dict[str, tuple[int, ...]]:
    """The model container's manifest, name -> shape, in container order:
    ModelWeights' fields, with every layer's tensors, `layer<i>.<name>`, in
    place of `layers`."""
    d, v = config.d_model, config.vocab_size
    layer = layer_shapes(config).items()
    layers = {f"layer{li}.{name}": shape for li in range(config.n_layers) for name, shape in layer}
    return {"embed": (v, d), "pos_embed": (config.max_seq_len, d), **layers,
            "final_gain": (d,), "final_bias": (d,), "unembed": (v, d)}


_SITE_TENSOR = {kind: f"w_{kind.value.lower()}" for kind in SiteKind}


def site_dims(config: TransformerConfig, site: SiteId) -> tuple[int, int]:
    """(d_in, d_out) of the site's weight matrix."""
    d_out, d_in = layer_shapes(config)[_SITE_TENSOR[site.kind]]
    return d_in, d_out


@dataclass
class LayerWeights:
    """One layer's tensors; `layer_shapes` gives their shapes."""

    w_qkv: Matrix
    w_out: Matrix
    w_ffn1: Matrix
    b_ffn1: np.ndarray
    w_ffn2: Matrix
    b_ffn2: np.ndarray
    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray


@dataclass
class ModelWeights:
    """Every tensor of the model; `model_shapes` gives their shapes."""

    config: TransformerConfig
    embed: Matrix
    pos_embed: Matrix
    layers: list[LayerWeights]
    final_gain: np.ndarray
    final_bias: np.ndarray
    unembed: Matrix

    def site_weight(self, site: SiteId) -> Matrix:
        return getattr(self.layers[site.layer], _SITE_TENSOR[site.kind])

    @classmethod
    def from_tensors(cls, config: TransformerConfig, tensors: dict[str, np.ndarray]) -> "ModelWeights":
        """The model whose tensors, named as in `model_shapes`, are `tensors`."""
        tensors, names = dict(tensors), layer_shapes(config)
        layers = [LayerWeights(**{name: tensors.pop(f"layer{li}.{name}") for name in names})
                  for li in range(config.n_layers)]
        return cls(config=config, layers=layers, **tensors)

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        """(name, array) of every tensor, in `model_shapes` order."""
        names = layer_shapes(self.config)
        layers = {f"layer{li}.{name}": getattr(layer, name)
                  for li, layer in enumerate(self.layers) for name in names}
        return [(name, layers[name] if name in layers else getattr(self, name))
                for name in model_shapes(self.config)]


@dataclass
class ActivationCapture:
    """Per-site calibration inputs x (d_in x T), tokens as columns, of the model
    they were recorded from; the outputs W x are not stored."""

    model: ModelWeights
    inputs: dict[SiteId, Matrix]
    tokens: int
    corpus_fingerprint: str

    @property
    def entries(self) -> Mapping[SiteId, tuple[Matrix, Matrix]]:
        """Read-only (x, W x) per site, W x formed on each access; only perfbench reads it."""
        return _Pairs(self)


class _Pairs(Mapping):
    def __init__(self, capture: ActivationCapture):
        self.capture = capture

    def __getitem__(self, site: SiteId) -> tuple[Matrix, Matrix]:
        x = self.capture.inputs[site]
        return x, self.capture.model.site_weight(site) @ x

    def __iter__(self) -> Iterator[SiteId]:
        return iter(self.capture.inputs)

    def __len__(self) -> int:
        return len(self.capture.inputs)


def random_model(
    config: TransformerConfig,
    seed: int,
    scale: float = 0.02,
    spectral_decay: float | None = None,
) -> ModelWeights:
    """Seeded random weights: N(0, scale^2) matrices, zero biases, unit norms.

    spectral_decay, when set, gives every prunable site matrix a geometric
    singular-value spectrum (ratio per index), i.e. a model with genuine
    low-rank structure to prune; fully random matrices are incompressible and
    collapse under any rank truncation.
    """
    rng = derive_rng(seed)

    def init(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if len(shape) == 1:
            return np.ones(shape) if name.endswith("gain") else np.zeros(shape)
        if name.startswith("w_") and spectral_decay is not None:
            return site_w(*shape)
        return rng.normal(0.0, scale, size=shape)

    def site_w(rows: int, cols: int) -> Matrix:
        k = min(rows, cols)
        q1, _ = np.linalg.qr(rng.normal(0.0, 1.0, size=(rows, k)))
        q2, _ = np.linalg.qr(rng.normal(0.0, 1.0, size=(cols, k)))
        sigma = spectral_decay ** np.arange(k)
        mat = (q1 * sigma) @ q2.T
        # keep the same Frobenius norm as an N(0, scale^2) matrix would have
        return mat * (scale * np.sqrt(rows * cols) / np.linalg.norm(mat))

    shapes = model_shapes(config)
    # the layers draw before the embeddings, unlike the container order, so
    # that a seed keeps giving the same weights
    order = [n for n in shapes if "." in n] + [n for n in shapes if "." not in n]
    tensors = {name: init(name.rpartition(".")[2], shapes[name]) for name in order}
    return ModelWeights.from_tensors(config, tensors)


def tokenize(data: bytes | str) -> list[int]:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return list(data)


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    # the same bits as x.var(), which subtracts the mean a second time
    d = x - x.mean(axis=-1, keepdims=True)
    var = (d * d).mean(axis=-1, keepdims=True)
    return d / np.sqrt(var + LN_EPS) * gain + bias


def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


@lru_cache(maxsize=256)
def _causal_mask(n_q: int, n_k: int) -> np.ndarray:
    """Causal mask of the last n_q of n_k positions, 0 or -inf: as x + 0.0 is x
    and x + -inf is -inf, adding it gives the bits of setting -inf."""
    mask = np.where(np.triu(np.ones((n_q, n_k), dtype=bool), k=1 + n_k - n_q), -np.inf, 0.0)
    mask.flags.writeable = False
    return mask


def _attention(qkv: np.ndarray, n_heads: int, kv: np.ndarray) -> np.ndarray:
    """Causal scaled dot-product attention over a (batch, seq, 3*d) block of
    packed q/k/v rows; returns the concatenated heads, (batch, seq, d).

    `kv` holds the packed k|v rows (batch, n_k, 2*d) of every position up to
    and including this block's own, which are the last seq of them; a block
    that attends to itself alone passes its own `qkv[..., d:]`.
    """
    d_model = qkv.shape[-1] // 3
    head_dim = d_model // n_heads
    q, k, v = qkv[..., :d_model], kv[..., :d_model], kv[..., d_model:]
    n_q, n_k = q.shape[1], k.shape[1]
    mask = _causal_mask(n_q, n_k)
    outs = []
    for h in range(n_heads):
        sl = slice(h * head_dim, (h + 1) * head_dim)
        scores = (q[..., sl] @ k[..., sl].transpose(0, 2, 1)) / np.sqrt(float(head_dim))
        scores += mask
        scores -= scores.max(axis=-1, keepdims=True)
        weights = np.exp(scores)
        weights /= weights.sum(axis=-1, keepdims=True)
        outs.append(weights @ v[..., sl])
    return np.concatenate(outs, axis=-1)


def check_prompts(config: TransformerConfig, prompts: Iterable[Sequence[int]], max_new: int) -> None:
    """Reject, by its index, a prompt the model cannot decode: empty, holding
    an id outside [0, vocab_size), or overflowing the context with max_new
    tokens appended. The one check of ids, made where they enter the program."""
    for i, prompt in enumerate(prompts):
        if len(prompt) == 0:
            raise ValueError(f"prompt {i} is empty")
        if len(prompt) + max_new > config.max_seq_len:
            raise ValueError(
                f"prompt {i} has {len(prompt)} bytes; with max_new_tokens "
                f"{max_new} it overflows max_seq_len {config.max_seq_len}")
        lo, hi = min(prompt), max(prompt)
        if lo < 0 or hi >= config.vocab_size:
            bad = f"{lo} < 0" if lo < 0 else f"{hi} >= vocab_size {config.vocab_size}"
            raise ValueError(f"prompt {i} holds byte {bad}: token id out of range")


def _rows_product(x: np.ndarray, *weights: Matrix) -> np.ndarray:
    """x @ w₁ᵀ @ w₂ᵀ … over x's last axis, as one 2-D product per weight of
    all of x's rows.

    numpy runs a stacked (batch, seq, d) matmul as one small product per
    batch row. One product over all the rows is faster, and the bits of a
    row then do not depend on how the rows split into (batch, seq). The
    transposed weight is copied contiguous (about 1 µs at these sizes),
    which BLAS multiplies faster than the strided view.
    """
    rows = x.reshape(-1, x.shape[-1])
    for w in weights:
        rows = rows @ np.ascontiguousarray(w.T)
    return rows.reshape(*x.shape[:-1], rows.shape[-1])


def _site_product(base: ModelWeights, adapters: dict, site: SiteId, x: np.ndarray) -> np.ndarray:
    """One prunable site's product x @ Wᵀ, through its adapter when it has one."""
    fm = adapters.get(site)
    if fm is None:
        return _rows_product(x, base.site_weight(site))
    # low-rank path: y = B (C x), done as two chained products
    return _rows_product(x, fm.c, fm.b)


def _transformer(model, ids: np.ndarray, taps: set[SiteId] | frozenset[SiteId] | None = None,
                 cache: list[np.ndarray] | None = None, outputs: list | None = None,
                 read_from: int = 0):
    """Run a (batch, seq) block of token ids, which its callers check
    (check_prompts), through every layer.

    `model` is a ModelWeights or anything exposing `.base` / `.adapters`
    (a pruned model). Returns the final residual stream (batch, seq, d_model)
    and, for each tapped site, the exact input (batch, seq, d_in) of its
    matrix product.

    `cache`, when given, is the per-layer K/V cache of one decode: entry i
    holds layer i's packed k|v rows, (batch, n_seen, 2*d_model), of the
    positions seen so far. The block sits at positions n_seen onward,
    attends to those rows and its own, and its k|v rows are appended. An
    empty list starts at position 0.

    The pass walks the sites in `sites(config)` order and has a state after
    each: after QKV the residual and the attention output, after OUT the
    residual, after FFN1 the residual and the GeLU activation, after FFN2
    the residual. `outputs`, when given, holds the states after sites
    0..k-1 for this same block from an earlier pass whose sites 0..k-1 had
    these weights (and the same `read_from`). The pass resumes at site k
    from the last of them (k = 0 starts from the embeddings) and appends
    the state after every site it runs.

    `read_from` > 0 keeps only the rows from that position on through the
    last layer: it still projects q|k|v at every position, so that they all
    serve as keys and values, but runs the attention queries and everything
    after them on rows read_from.. only, and returns just those rows. They
    equal the full pass's rows to rounding, not bit for bit.
    """
    base: ModelWeights = getattr(model, "base", model)
    adapters: dict = getattr(model, "adapters", None) or {}
    start = cache[0].shape[1] if cache else 0
    d_model = base.config.d_model
    last = base.config.n_layers - 1
    inputs: dict[SiteId, np.ndarray] = {}

    def site_product(site: SiteId, x: np.ndarray) -> np.ndarray:
        if taps and site in taps:
            inputs[site] = x
        return _site_product(base, adapters, site, x)

    first = len(outputs) if outputs else 0
    if first:
        state = outputs[-1]
    else:
        state = base.embed[ids] + base.pos_embed[start:start + ids.shape[1]]
    for site in sites(base.config)[first:]:
        li, layer = site.layer, base.layers[site.layer]
        if site.kind is SiteKind.QKV:
            x = state
            qkv = site_product(site, layer_norm(x, layer.ln1_gain, layer.ln1_bias))
            kv = qkv[..., d_model:]
            if cache is not None:
                if li < len(cache):
                    kv = np.concatenate([cache[li], kv], axis=1)
                    cache[li] = kv
                else:
                    cache.append(kv)
            if read_from and li == last:
                qkv, x = qkv[:, read_from:], x[:, read_from:]
            state = (x, _attention(qkv, base.config.n_heads, kv))
            # a capture block's q|k|v is its largest array; free it before the FFN
            del qkv, kv
        elif site.kind is SiteKind.OUT:
            x, heads = state
            state = x + site_product(site, heads)
        elif site.kind is SiteKind.FFN1:
            x = state
            h2 = layer_norm(x, layer.ln2_gain, layer.ln2_bias)
            state = (x, gelu(site_product(site, h2) + layer.b_ffn1))
        else:
            x, act = state
            state = x + site_product(site, act) + layer.b_ffn2
        if outputs is not None:
            outputs.append(state)
    return state, inputs


def _head(base: ModelWeights, x: np.ndarray) -> np.ndarray:
    """Final layer norm and unembedding: residual rows -> logits."""
    return _rows_product(layer_norm(x, base.final_gain, base.final_bias), base.unembed)


def forward(
    model,
    tokens: Sequence[int],
    taps: set[SiteId] | frozenset[SiteId] | None = None,
) -> tuple[Matrix, ActivationCapture | None]:
    """Logits at every position of one sequence, and the capture of the tapped sites
    (None without taps), which holds the dense model and the corpus fingerprint
    as capture_calibration's does."""
    base: ModelWeights = getattr(model, "base", model)
    check_prompts(base.config, [tokens], 0)
    x, inputs = _transformer(model, np.asarray(tokens, dtype=np.int64).reshape(1, -1), taps)
    logits = _head(base, x[0])
    if not taps:
        return logits, None
    inputs = {site: np.ascontiguousarray(rows[0].T) for site, rows in inputs.items()}
    return logits, ActivationCapture(base, inputs, len(tokens),
                                     hashlib.sha256(bytes(list(tokens))).hexdigest())


def greedy_decode_batch(model, prompts: Sequence[Sequence[int]], max_new: int,
                        expected: Sequence[Sequence[int]] | None = None,
                        reuse: dict | None = None) -> list[list[int]]:
    """Greedy continuation of every prompt; equal-length prompts run in lockstep.

    Each continuation stops at STOP_BYTE (excluded) or after max_new tokens,
    and argmax ties break toward the lower token id. Returns only the
    generated tokens.

    `expected`, one continuation per prompt, is a draft to verify: a
    continuation also stops at its first token off the expected one, which
    is included. Each row is then a prefix of the free decode, and equals
    expected[i] exactly when the free decode does. Both stops are one
    vectorized cut per block (`_stop_cuts`).

    Each block of equal-length prompts runs through the layers once over
    prompt + draft (expected[:max_new-1] padded with STOP_BYTE, or nothing):
    the argmax after the last prompt token and each draft token gives the
    first tokens, and K/V steps the rest. Only the rows whose logits are
    read run through the last layer (see `_transformer`'s `read_from`).

    `reuse`, a dict of the decoder's own keys, which a call with `expected`
    reads and updates, keeps the blocks' layout, built once per prompts,
    expected strings and max_new (held by reference: edit no prompt in
    place), and per block each site's weights and the states after all sites
    but the last. A later call on the same layout whose leading sites have
    the same weights (the same objects) resumes after the last of them, so a
    vector restarts at its first changed site. A free decode uses a dict of
    its own: a resumed pass would leave the steps' K/V cache short.
    """
    base: ModelWeights = getattr(model, "base", model)
    width = 0 if expected is None else max_new - 1
    if expected is None:
        expected, reuse = [()] * len(prompts), None
    elif len(expected) != len(prompts):
        raise ValueError("expected needs one continuation per prompt")
    reuse = {} if reuse is None else reuse
    key = (max_new, tuple(prompts), tuple(expected))
    if reuse.get("key") != key:     # a new layout drops the states of the old one
        reuse.clear()
        reuse.update(key=key, layout=_decode_layout(base.config, prompts, expected, width, max_new))
    results: list[list[int]] = [[] for _ in prompts]
    for idxs, ids, length in reuse["layout"]:
        rows = _decode_block(model, ids, length, max_new, reuse)
        for i, row, n in zip(idxs, rows.tolist(), _stop_cuts(rows, ids[:, length:]).tolist()):
            results[i] = row[:n]
    return results


def _decode_layout(config: TransformerConfig, prompts, expected, width: int,
                   max_new: int) -> list[tuple[list[int], np.ndarray, int]]:
    """(prompt indices, checked prompt + draft ids, prompt length) per length."""
    check_prompts(config, prompts, max_new)
    by_len: dict[int, list[int]] = {}
    for i, p in enumerate(prompts):
        by_len.setdefault(len(p), []).append(i)
    layout = []
    for length, idxs in by_len.items():
        ids = np.full((len(idxs), length + width), STOP_BYTE, dtype=np.int64)
        ids[:, :length] = [list(prompts[i]) for i in idxs]
        for r, i in enumerate(idxs):
            # a token outside the vocabulary never matches, so what follows
            # it is never read; feed STOP_BYTE in its place
            e = [t if 0 <= t < config.vocab_size else STOP_BYTE for t in expected[i][:width]]
            ids[r, length:length + len(e)] = e
        layout.append((idxs, ids, length))
    return layout


def _stop_cuts(rows: np.ndarray, draft: np.ndarray) -> np.ndarray:
    """Per row, the length up to its first STOP_BYTE (excluded) or token off
    `draft` (included), whichever comes first; no token is off past the draft."""
    j = np.arange(rows.shape[1])
    off = rows != np.concatenate([draft, rows[:, draft.shape[1]:]], axis=1)
    return np.where(rows == STOP_BYTE, j, np.where(off, j + 1, len(j))).min(axis=1)


def _decode_block(model, ids: np.ndarray, length: int, max_new: int, reuse: dict) -> np.ndarray:
    """max_new greedy tokens per row of a block of equal-length prompts plus
    their drafts, (batch, max_new): one pass over the ids, then K/V steps."""
    base: ModelWeights = getattr(model, "base", model)
    adapters: dict = getattr(model, "adapters", None) or {}
    weights = [(base, adapters.get(site)) for site in sites(base.config)]
    outputs: list = []
    if length in reuse:
        seen_weights, seen_outputs = reuse[length]
        for was, now, out in zip(seen_weights, weights, seen_outputs):
            if was[0] is not now[0] or was[1] is not now[1]:
                break
            outputs.append(out)
    steps = max_new - 1 - (ids.shape[1] - length)
    cache: list[np.ndarray] | None = [] if steps else None
    x, _ = _transformer(model, ids, cache=cache, outputs=outputs, read_from=length - 1)
    reuse[length] = (weights, outputs[:-1])
    new = [np.argmax(_head(base, x), axis=2)]
    for _ in range(steps):
        x, _ = _transformer(model, new[-1][:, -1:], cache=cache)
        new.append(np.argmax(_head(base, x), axis=2))
    return np.concatenate(new, axis=1)


# --- SIEV container -------------------------------------------------------

def write_container(buf, version: int, meta: dict, tensors: list[tuple[str, np.ndarray]]) -> None:
    """Write a container to the binary stream `buf`; each payload goes
    straight from its array, without a copy when it is C-ordered float64."""
    manifest = []
    for name, arr in tensors:
        if arr.ndim not in (1, 2):
            raise ValueError(f"tensor {name!r} must be 1-D or 2-D")
        rows, cols = np.atleast_2d(arr).shape
        manifest.append({"name": name, "rows": int(rows), "cols": int(cols)})
    meta = dict(meta)
    meta["tensors"] = manifest
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf.write(MAGIC)
    buf.write(struct.pack("<I", version))
    buf.write(struct.pack("<Q", len(meta_bytes)))
    buf.write(meta_bytes)
    for _, arr in tensors:
        buf.write(np.ascontiguousarray(arr, dtype="<f8"))


def read_container(buf, expected_version: int | None = None) -> tuple[int, dict, dict[str, np.ndarray]]:
    """Parse a SIEV container from a seekable binary stream.

    The whole manifest is checked against the bytes that remain before any
    payload is read; every defect raises FormatError.
    """
    magic = buf.read(4)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    head = buf.read(12)
    if len(head) != 12:
        raise FormatError("truncated header")
    version, meta_len = struct.unpack("<IQ", head)
    if expected_version is not None and version != expected_version:
        raise FormatError(f"version mismatch: expected {expected_version}, got {version}")
    here = buf.tell()
    remaining = buf.seek(0, io.SEEK_END) - here
    buf.seek(here)
    if meta_len > remaining:
        raise FormatError("truncated metadata")
    meta_bytes = buf.read(meta_len)
    remaining -= meta_len
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"invalid metadata: {exc}") from exc
    manifest = meta.get("tensors") if isinstance(meta, dict) else None
    if not isinstance(manifest, list):
        raise FormatError("metadata is missing the tensor manifest")
    for entry in manifest:
        # bool is an int subclass, so the dims are checked by exact type
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and all(type(entry.get(k)) is int and entry[k] >= 0 for k in ("rows", "cols"))):
            raise FormatError(f"malformed manifest entry {entry!r}")
        remaining -= entry["rows"] * entry["cols"] * 8
        if remaining < 0:
            raise FormatError(f"truncated payload for tensor {entry['name']!r}")
    if remaining > 0:
        raise FormatError("trailing bytes after tensor payload")
    tensors: dict[str, np.ndarray] = {}
    for entry in manifest:
        rows, cols = entry["rows"], entry["cols"]
        arr = np.frombuffer(buf.read(rows * cols * 8), dtype="<f8").astype(np.float64).reshape(rows, cols)
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"tensor {entry['name']!r} contains non-finite entries")
        tensors[entry["name"]] = arr
    return version, meta, tensors


def container_bytes(version: int, meta: dict, tensors: list[tuple[str, np.ndarray]]) -> bytes:
    """The bytes `write_container` writes, in memory (for fingerprints)."""
    buf = io.BytesIO()
    write_container(buf, version, meta, tensors)
    return buf.getvalue()


@contextmanager
def _partial_file(path):
    """`<path>.partial`, open for writing and renamed to `path` when the block
    ends, so a failed write never leaves a truncated file in place of an
    earlier one; a block that raises removes it."""
    partial = f"{path}.partial"
    fh = open(partial, "wb")
    try:
        with fh:
            yield fh
    except BaseException:
        os.remove(partial)
        raise
    os.replace(partial, path)


def save_container(path, version: int, meta: dict, tensors: list[tuple[str, np.ndarray]]) -> None:
    """`write_container` straight into a file at `path`, through `_partial_file`."""
    with _partial_file(path) as fh:
        write_container(fh, version, meta, tensors)


def _model_container(model: ModelWeights) -> tuple[int, dict, list[tuple[str, np.ndarray]]]:
    return MODEL_VERSION, {"kind": "model", "config": asdict(model.config)}, model.tensors()


def model_to_bytes(model: ModelWeights) -> bytes:
    return container_bytes(*_model_container(model))


def write_atomic(path, data: bytes) -> None:
    """Write `data` to `path` through `_partial_file`."""
    with _partial_file(path) as fh:
        fh.write(data)


def write_json(path, obj) -> None:
    """`obj` as JSON with sorted keys, indented by 2, and a trailing newline."""
    write_atomic(path, (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8"))


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_fields(cls, obj, schema: str | None = None):
    """The dataclass `cls` built from the JSON value `obj` by the types its
    fields declare; any other value raises FormatError naming its field.
    An int is never a bool, a float may be an int, `bytes` is latin-1 text,
    lists and tuples read each element, and an Enum names one of its
    values. An absent field reads as null, which only `X | None` takes. A
    nested dataclass reads from an object, or from the value of its one
    field (FactorSet). `schema`, when given, must be the `schema` tag."""
    found = obj.get("schema") if isinstance(obj, dict) else None
    if schema is not None and found != schema:
        raise FormatError(f"expected schema {schema!r}, found {found!r}")
    return _read(cls, obj, cls.__name__)


_type_hints = lru_cache(maxsize=None)(get_type_hints)
# the JSON types that each declared scalar type reads
_SCALARS = {int: (int,), float: (int, float), str: (str,), bool: (bool,), bytes: (str,)}


def _read(tp, value, where: str):
    found = "null" if value is None else type(value).__name__
    if tp in _SCALARS:
        if type(value) in _SCALARS[tp]:
            try:
                return value.encode("latin-1") if tp is bytes else tp(value)
            except (OverflowError, UnicodeEncodeError):  # an int past float's range; a char past a byte
                pass
        raise FormatError(f"{where}: expected {tp.__name__}, found {found}")
    origin, args = get_origin(tp), get_args(tp)
    if origin is types.UnionType:                   # X | None
        return None if value is None else _read(args[0], value, where)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise FormatError(f"{where}: expected a list, found {found}")
        return origin(_read(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if is_dataclass(tp):
        names, hints = [f.name for f in fields(tp)], _type_hints(tp)
        if len(names) == 1:                         # stored as its one field
            value = {names[0]: value}
        if not isinstance(value, dict):
            raise FormatError(f"{where}: expected an object, found {found}")
        value = {n: _read(hints[n], value.get(n), f"{where}.{n}") for n in names}
    try:                                            # a dataclass or an Enum
        return tp(**value) if is_dataclass(tp) else tp(value)
    except ValueError as exc:                       # their own checks
        raise FormatError(f"{where}: {exc}") from exc


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header line, then one line per row: floats as `repr`, the rest as `str`."""
    lines = [header, *([repr(v) if isinstance(v, float) else str(v) for v in row] for row in rows)]
    write_atomic(path, "".join(",".join(line) + "\n" for line in lines).encode("utf-8"))


def save_model(model: ModelWeights, path) -> None:
    save_container(path, *_model_container(model))


def read_kind(path, version: int, kind: str) -> tuple[dict, dict[str, np.ndarray], TransformerConfig]:
    """Read the container at `path`, which must be of `version` and `kind`:
    its metadata, its tensors and the TransformerConfig it records."""
    with open(path, "rb") as fh:
        _, meta, tensors = read_container(fh, expected_version=version)
    if meta.get("kind") != kind:
        raise FormatError(f"expected a {kind} container, found kind={meta.get('kind')!r}")
    try:
        config = read_fields(TransformerConfig, meta.get("config"))
    except FormatError as exc:
        raise FormatError(f"bad {kind} config: {exc}") from exc
    return meta, tensors, config


def checked_tensor(tensors: dict[str, np.ndarray], name: str, shape: tuple[int, ...]) -> np.ndarray:
    """The container tensor `name`, which must have `shape`; a vector is
    stored as one row."""
    arr = tensors[name]
    stored = shape if len(shape) == 2 else (1, *shape)
    if arr.shape != stored:
        raise FormatError(f"tensor {name!r} has shape {arr.shape}, expected {stored}")
    return arr.reshape(shape)


def load_model(path) -> ModelWeights:
    _, tensors, config = read_kind(path, MODEL_VERSION, "model")
    # counted before model_shapes lists every claimed layer; 5 tensors are outside them
    if len(tensors) != 5 + len(layer_shapes(config)) * config.n_layers:
        raise FormatError(f"{len(tensors)} tensors cannot be those of {config.n_layers} layers")
    try:
        return ModelWeights.from_tensors(config, {
            name: checked_tensor(tensors, name, shape) for name, shape in model_shapes(config).items()})
    except KeyError as exc:
        raise FormatError(f"missing tensor {exc}") from exc


def model_fingerprint(model: ModelWeights) -> str:
    """sha256 of the serialized model; cached on the object (weights are immutable)."""
    fp = getattr(model, "_fingerprint", None)
    if fp is None:
        fp = hashlib.sha256(model_to_bytes(model)).hexdigest()
        model._fingerprint = fp
    return fp
