"""Toy decoder-only transformer with per-site activation taps.

Pre-norm residual blocks, byte-level vocabulary (256), learned positional
embeddings, GeLU FFN, greedy decoding. Weights live in plain numpy arrays so
forward passes are pure functions; the four weight matrices per layer
(qkv / out / ffn1 / ffn2) are the prunable sites.

Also owns the binary weight container ("SIEV"): magic, u32 version, u64
JSON-metadata length, JSON metadata with an ordered tensor manifest, then
little-endian float64 payloads in manifest order.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np
from scipy.special import erf

from .factorize import rank_for_factor
from .linalg import Matrix, derive_rng, require_finite

VOCAB_SIZE = 256
STOP_BYTE = 0
LN_EPS = 1e-5

MAGIC = b"SIEV"
MODEL_VERSION = 1
CACHE_VERSION = 2
CAPTURE_VERSION = 3


class FormatError(ValueError):
    """Raised for malformed container files."""


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
        for name in ("n_layers", "d_model", "n_heads", "d_ff", "vocab_size", "max_seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    def to_dict(self) -> dict:
        return {
            "n_layers": self.n_layers,
            "d_model": self.d_model,
            "n_heads": self.n_heads,
            "d_ff": self.d_ff,
            "vocab_size": self.vocab_size,
            "max_seq_len": self.max_seq_len,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TransformerConfig":
        return cls(**{k: int(d[k]) for k in
                      ("n_layers", "d_model", "n_heads", "d_ff", "vocab_size", "max_seq_len")})


def sites(config: TransformerConfig) -> list[SiteId]:
    """Canonical prunable-site order: layer-major, qkv/out/ffn1/ffn2 within a layer."""
    return [SiteId(layer, kind) for layer in range(config.n_layers) for kind in KIND_ORDER]


def site_dims(config: TransformerConfig, site: SiteId) -> tuple[int, int]:
    """(d_in, d_out) of the site's weight matrix."""
    d, f = config.d_model, config.d_ff
    if site.kind is SiteKind.QKV:
        return d, 3 * d
    if site.kind is SiteKind.OUT:
        return d, d
    if site.kind is SiteKind.FFN1:
        return d, f
    return f, d


@dataclass
class LayerWeights:
    w_qkv: Matrix        # (3*d_model, d_model)
    w_out: Matrix        # (d_model, d_model)
    w_ffn1: Matrix       # (d_ff, d_model)
    b_ffn1: np.ndarray   # (d_ff,)
    w_ffn2: Matrix       # (d_model, d_ff)
    b_ffn2: np.ndarray   # (d_model,)
    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray


@dataclass
class ModelWeights:
    config: TransformerConfig
    embed: Matrix        # (vocab, d_model)
    pos_embed: Matrix    # (max_seq_len, d_model)
    layers: list[LayerWeights]
    final_gain: np.ndarray
    final_bias: np.ndarray
    unembed: Matrix      # (vocab, d_model)

    def site_weight(self, site: SiteId) -> Matrix:
        layer = self.layers[site.layer]
        return {
            SiteKind.QKV: layer.w_qkv,
            SiteKind.OUT: layer.w_out,
            SiteKind.FFN1: layer.w_ffn1,
            SiteKind.FFN2: layer.w_ffn2,
        }[site.kind]


@dataclass
class ActivationCapture:
    """Per-site calibration pairs, tokens as columns: x (d_in x T), y (d_out x T)."""

    entries: dict[SiteId, tuple[Matrix, Matrix]]
    tokens: int
    model_fingerprint: str = ""
    corpus_fingerprint: str = ""


def random_model(
    config: TransformerConfig,
    seed: int,
    scale: float = 0.02,
    pos_scale: float = 1.0,
    spectral_decay: float | None = None,
) -> ModelWeights:
    """Seeded random weights: N(0, scale^2) matrices, zero biases, unit norms.

    pos_scale damps the positional embeddings relative to the token
    embeddings. spectral_decay, when set, gives every prunable site matrix a
    geometric singular-value spectrum (ratio per index), i.e. a model with
    genuine low-rank structure to prune; fully random matrices are
    incompressible and collapse under any rank truncation.
    """
    rng = derive_rng(seed)
    d, f = config.d_model, config.d_ff

    def w(rows: int, cols: int) -> Matrix:
        return rng.normal(0.0, scale, size=(rows, cols))

    def site_w(rows: int, cols: int) -> Matrix:
        if spectral_decay is None:
            return w(rows, cols)
        k = min(rows, cols)
        q1, _ = np.linalg.qr(rng.normal(0.0, 1.0, size=(rows, k)))
        q2, _ = np.linalg.qr(rng.normal(0.0, 1.0, size=(cols, k)))
        sigma = spectral_decay ** np.arange(k)
        mat = (q1 * sigma) @ q2.T
        # keep the same Frobenius norm as an N(0, scale^2) matrix would have
        return mat * (scale * np.sqrt(rows * cols) / np.linalg.norm(mat))

    layers = [
        LayerWeights(
            w_qkv=site_w(3 * d, d),
            w_out=site_w(d, d),
            w_ffn1=site_w(f, d),
            b_ffn1=np.zeros(f),
            w_ffn2=site_w(d, f),
            b_ffn2=np.zeros(d),
            ln1_gain=np.ones(d),
            ln1_bias=np.zeros(d),
            ln2_gain=np.ones(d),
            ln2_bias=np.zeros(d),
        )
        for _ in range(config.n_layers)
    ]
    return ModelWeights(
        config=config,
        embed=w(config.vocab_size, d),
        pos_embed=w(config.max_seq_len, d) * pos_scale,
        layers=layers,
        final_gain=np.ones(d),
        final_bias=np.zeros(d),
        unembed=w(config.vocab_size, d),
    )


def tokenize(data: bytes | str) -> list[int]:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return list(data)


def detokenize(tokens: Iterable[int]) -> bytes:
    return bytes(int(t) for t in tokens)


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LN_EPS) * gain + bias


def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _attention(qkv: np.ndarray, n_heads: int) -> np.ndarray:
    """Causal scaled dot-product attention over a (batch, seq, 3*d) block of
    packed q/k/v rows; returns the concatenated heads, (batch, seq, d)."""
    d_model = qkv.shape[-1] // 3
    head_dim = d_model // n_heads
    q, k, v = qkv[..., :d_model], qkv[..., d_model:2 * d_model], qkv[..., 2 * d_model:]
    mask = np.triu(np.ones((qkv.shape[1], qkv.shape[1]), dtype=bool), k=1)
    outs = []
    for h in range(n_heads):
        sl = slice(h * head_dim, (h + 1) * head_dim)
        scores = (q[..., sl] @ k[..., sl].transpose(0, 2, 1)) / np.sqrt(float(head_dim))
        scores[:, mask] = -np.inf
        scores -= scores.max(axis=-1, keepdims=True)
        weights = np.exp(scores)
        weights /= weights.sum(axis=-1, keepdims=True)
        outs.append(weights @ v[..., sl])
    return np.concatenate(outs, axis=-1)


def _check_ids(config: TransformerConfig, ids: np.ndarray, max_new: int = 0) -> None:
    """Reject a (batch, seq) block that is empty, that overflows the context
    once max_new tokens are appended, or that holds an id outside the vocabulary."""
    seq = ids.shape[1]
    if seq == 0:
        raise ValueError("token sequence is empty")
    if seq + max_new > config.max_seq_len:
        raise ValueError(
            f"context overflow: {seq} tokens + {max_new} new tokens "
            f"> max_seq_len {config.max_seq_len}"
        )
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise ValueError("token id out of range")


def _columns(a: np.ndarray) -> Matrix:
    """(batch, seq, d) -> (d, batch*seq): tokens as columns, batch-major."""
    return np.ascontiguousarray(a.reshape(-1, a.shape[-1]).T)


def _transformer(model, ids: np.ndarray, taps: set[SiteId] | frozenset[SiteId] | None = None):
    """Run a (batch, seq) block of token ids through every layer.

    `model` is a ModelWeights or anything exposing `.base` / `.adapters`
    (a pruned model). Returns the final residual stream (batch, seq, d_model)
    and, for each tapped site, the exact operand pair (x, y) of its matrix
    product with tokens as columns.
    """
    base: ModelWeights = getattr(model, "base", model)
    adapters: dict = getattr(model, "adapters", None) or {}
    _check_ids(base.config, ids)
    pairs: dict[SiteId, tuple[Matrix, Matrix]] = {}

    def site_product(layer: int, kind: SiteKind, x: np.ndarray) -> np.ndarray:
        site = SiteId(layer, kind)
        fm = adapters.get(site)
        # the products stay 3-D: flattened to (batch*seq, d) they change the
        # captured pairs and the logits in the last bits
        if fm is None:
            y = x @ base.site_weight(site).T
        else:
            # low-rank path: y = B (C x), done as two chained products
            y = (x @ fm.c.T) @ fm.b.T
        if taps and site in taps:
            pairs[site] = (_columns(x), _columns(y))
        return y

    x = base.embed[ids] + base.pos_embed[:ids.shape[1]]
    for li, layer in enumerate(base.layers):
        h = layer_norm(x, layer.ln1_gain, layer.ln1_bias)
        heads = _attention(site_product(li, SiteKind.QKV, h), base.config.n_heads)
        x = x + site_product(li, SiteKind.OUT, heads)
        h2 = layer_norm(x, layer.ln2_gain, layer.ln2_bias)
        act = gelu(site_product(li, SiteKind.FFN1, h2) + layer.b_ffn1)
        x = x + site_product(li, SiteKind.FFN2, act) + layer.b_ffn2
    return x, pairs


def _head(base: ModelWeights, x: np.ndarray) -> np.ndarray:
    """Final layer norm and unembedding: residual rows -> logits."""
    return layer_norm(x, base.final_gain, base.final_bias) @ base.unembed.T


def forward(
    model,
    tokens: Sequence[int],
    taps: set[SiteId] | frozenset[SiteId] | None = None,
) -> tuple[Matrix, ActivationCapture | None]:
    """Logits at every position of one sequence, and the capture of the
    tapped sites (None without taps)."""
    base: ModelWeights = getattr(model, "base", model)
    x, pairs = _transformer(model, np.asarray(tokens, dtype=np.int64).reshape(1, -1), taps)
    logits = _head(base, x[0])
    if not taps:
        return logits, None
    return logits, ActivationCapture(entries=pairs, tokens=len(tokens))


def greedy_decode_batch(model, prompts: Sequence[Sequence[int]], max_new: int) -> list[list[int]]:
    """Greedy continuation of every prompt; equal-length prompts run in lockstep.

    Each continuation stops at STOP_BYTE (excluded) or after max_new tokens,
    and argmax ties break toward the lower token id. Returns only the
    generated tokens.
    """
    base: ModelWeights = getattr(model, "base", model)
    by_len: dict[int, list[int]] = {}
    for i, p in enumerate(prompts):
        by_len.setdefault(len(p), []).append(i)
    blocks = {
        length: np.array([list(prompts[i]) for i in idxs], dtype=np.int64).reshape(len(idxs), length)
        for length, idxs in by_len.items()
    }
    for seqs in blocks.values():
        _check_ids(base.config, seqs, max_new)

    results: list[list[int]] = [[] for _ in prompts]
    for length, seqs in blocks.items():
        for _ in range(max_new):
            x, _ = _transformer(model, seqs)
            nxt = np.argmax(_head(base, x[:, -1, :]), axis=1)
            seqs = np.concatenate([seqs, nxt[:, None]], axis=1)
        for i, row in zip(by_len[length], seqs[:, length:].tolist()):
            results[i] = row[:row.index(STOP_BYTE)] if STOP_BYTE in row else row
    return results


def count_params(model: ModelWeights, sites_only: bool = False) -> int:
    config = model.config
    total = sum(d_in * d_out for d_in, d_out in
                (site_dims(config, s) for s in sites(config)))
    if sites_only:
        return total
    d = config.d_model
    total += model.embed.size + model.pos_embed.size + model.unembed.size
    total += config.n_layers * (config.d_ff + d)      # FFN biases
    total += config.n_layers * 4 * d                  # two LayerNorm pairs
    total += 2 * d                                    # final LayerNorm
    return total


def estimate_flops_per_token(
    model: ModelWeights, pruning_levels: Sequence[float] | None = None
) -> int:
    """Multiply-add count of the prunable matmuls for one token.

    A dense site costs 2*d_in*d_out; a site at retention level p < 1 costs
    2*R*(d_in+d_out) with R from the pruning-factor formula. Accepts either
    a sequence of per-site retention levels or a PruningVector.
    """
    config = model.config
    site_list = sites(config)
    if pruning_levels is not None and hasattr(pruning_levels, "levels"):
        pruning_levels = pruning_levels.levels()
    if pruning_levels is not None and len(pruning_levels) != len(site_list):
        raise ValueError("pruning_levels length must equal the site count")
    total = 0
    for i, site in enumerate(site_list):
        d_in, d_out = site_dims(config, site)
        level = 1.0 if pruning_levels is None else float(pruning_levels[i])
        rank, _ = rank_for_factor(level, d_in, d_out)
        if rank is None:
            total += 2 * d_in * d_out
        else:
            total += 2 * rank * (d_in + d_out)
    return total


# --- SIEV container -------------------------------------------------------

def write_container(buf, version: int, meta: dict, tensors: list[tuple[str, np.ndarray]]) -> None:
    manifest = []
    for name, arr in tensors:
        if arr.ndim == 1:
            rows, cols = 1, arr.shape[0]
        elif arr.ndim == 2:
            rows, cols = arr.shape
        else:
            raise ValueError(f"tensor {name!r} must be 1-D or 2-D")
        manifest.append({"name": name, "rows": int(rows), "cols": int(cols)})
    meta = dict(meta)
    meta["tensors"] = manifest
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf.write(MAGIC)
    buf.write(struct.pack("<I", version))
    buf.write(struct.pack("<Q", len(meta_bytes)))
    buf.write(meta_bytes)
    for _, arr in tensors:
        buf.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_container(buf, expected_version: int | None = None) -> tuple[int, dict, dict[str, np.ndarray]]:
    magic = buf.read(4)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    head = buf.read(12)
    if len(head) != 12:
        raise FormatError("truncated header")
    version, meta_len = struct.unpack("<IQ", head)
    if expected_version is not None and version != expected_version:
        raise FormatError(f"version mismatch: expected {expected_version}, got {version}")
    meta_bytes = buf.read(meta_len)
    if len(meta_bytes) != meta_len:
        raise FormatError("truncated metadata")
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"invalid metadata: {exc}") from exc
    manifest = meta.get("tensors")
    if not isinstance(manifest, list):
        raise FormatError("metadata is missing the tensor manifest")
    tensors: dict[str, np.ndarray] = {}
    for entry in manifest:
        rows, cols = int(entry["rows"]), int(entry["cols"])
        nbytes = rows * cols * 8
        raw = buf.read(nbytes)
        if len(raw) != nbytes:
            raise FormatError(f"truncated payload for tensor {entry['name']!r}")
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(rows, cols)
        require_finite(arr, f"tensor {entry['name']!r}")
        tensors[entry["name"]] = arr
    if buf.read(1):
        raise FormatError("trailing bytes after tensor payload")
    return version, meta, tensors


def _model_tensors(model: ModelWeights) -> list[tuple[str, np.ndarray]]:
    tensors: list[tuple[str, np.ndarray]] = [
        ("embed", model.embed),
        ("pos_embed", model.pos_embed),
    ]
    for li, layer in enumerate(model.layers):
        p = f"layer{li}."
        tensors += [
            (p + "w_qkv", layer.w_qkv),
            (p + "w_out", layer.w_out),
            (p + "w_ffn1", layer.w_ffn1),
            (p + "b_ffn1", layer.b_ffn1),
            (p + "w_ffn2", layer.w_ffn2),
            (p + "b_ffn2", layer.b_ffn2),
            (p + "ln1_gain", layer.ln1_gain),
            (p + "ln1_bias", layer.ln1_bias),
            (p + "ln2_gain", layer.ln2_gain),
            (p + "ln2_bias", layer.ln2_bias),
        ]
    tensors += [
        ("final_gain", model.final_gain),
        ("final_bias", model.final_bias),
        ("unembed", model.unembed),
    ]
    return tensors


def model_to_bytes(model: ModelWeights) -> bytes:
    buf = io.BytesIO()
    write_container(buf, MODEL_VERSION, {"kind": "model", "config": model.config.to_dict()},
                    _model_tensors(model))
    return buf.getvalue()


def save_model(model: ModelWeights, path) -> None:
    with open(path, "wb") as fh:
        fh.write(model_to_bytes(model))


def _vec(tensors: dict[str, np.ndarray], name: str, size: int) -> np.ndarray:
    arr = tensors[name]
    if arr.shape != (1, size):
        raise FormatError(f"tensor {name!r} has shape {arr.shape}, expected (1, {size})")
    return arr.reshape(size).copy()


def _mat(tensors: dict[str, np.ndarray], name: str, rows: int, cols: int) -> np.ndarray:
    arr = tensors[name]
    if arr.shape != (rows, cols):
        raise FormatError(f"tensor {name!r} has shape {arr.shape}, expected ({rows}, {cols})")
    return arr.copy()


def load_model(path) -> ModelWeights:
    with open(path, "rb") as fh:
        _, meta, tensors = read_container(fh, expected_version=MODEL_VERSION)
    if meta.get("kind") != "model":
        raise FormatError(f"not a model container: kind={meta.get('kind')!r}")
    try:
        config = TransformerConfig.from_dict(meta["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad model config: {exc}") from exc
    d, f = config.d_model, config.d_ff
    layers = []
    try:
        for li in range(config.n_layers):
            p = f"layer{li}."
            layers.append(LayerWeights(
                w_qkv=_mat(tensors, p + "w_qkv", 3 * d, d),
                w_out=_mat(tensors, p + "w_out", d, d),
                w_ffn1=_mat(tensors, p + "w_ffn1", f, d),
                b_ffn1=_vec(tensors, p + "b_ffn1", f),
                w_ffn2=_mat(tensors, p + "w_ffn2", d, f),
                b_ffn2=_vec(tensors, p + "b_ffn2", d),
                ln1_gain=_vec(tensors, p + "ln1_gain", d),
                ln1_bias=_vec(tensors, p + "ln1_bias", d),
                ln2_gain=_vec(tensors, p + "ln2_gain", d),
                ln2_bias=_vec(tensors, p + "ln2_bias", d),
            ))
        model = ModelWeights(
            config=config,
            embed=_mat(tensors, "embed", config.vocab_size, d),
            pos_embed=_mat(tensors, "pos_embed", config.max_seq_len, d),
            layers=layers,
            final_gain=_vec(tensors, "final_gain", d),
            final_bias=_vec(tensors, "final_bias", d),
            unembed=_mat(tensors, "unembed", config.vocab_size, d),
        )
    except KeyError as exc:
        raise FormatError(f"missing tensor {exc}") from exc
    return model


def model_fingerprint(model: ModelWeights) -> str:
    """sha256 of the serialized model; cached on the object (weights are immutable)."""
    fp = getattr(model, "_fingerprint", None)
    if fp is None:
        fp = hashlib.sha256(model_to_bytes(model)).hexdigest()
        model._fingerprint = fp
    return fp
