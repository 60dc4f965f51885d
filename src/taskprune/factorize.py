"""Rank-R factorizations of a weight matrix against calibration activations.

Every method emits the same shape of result: a pair (b, c) with
b (d_out x R) and c (R x d_in) replacing the dense multiply y = W x by
y = b (c x). One OutputAlignedSite serves all four methods at any rank of
one weight, from one SVD of W and one eigendecomposition of X X^T:

- svd_w:          truncated SVD of the weights, ignores activations.
- pca_x:          projects inputs onto their top principal directions
                  (eigenvectors of X X^T), then applies the dense weights.
- closed_form:    minimizer of ||W X - b c X||_F over rank-R pairs, the
                  quality oracle for the learned method (method RRR_ORACLE).
- output_aligned: gradient descent on both factors against the layer's
                  outputs, initialized from svd_w, keeping the
                  best-so-far iterate by calib_error (`fit`).

With the outputs of the dense site Y = W X, E = W - b c and G = X X^T,

    ||Y - b c X||^2 = sum((E G) * E),

so an error costs O(d_out d_in^2) instead of a pass over every token. This
one form gives ||W X||, every calib_error ||E X|| / ||W X|| and the
statistic `fit` ranks its iterates by, so a fit's calib_error is its
ranking statistic; only where the sum's rounding bound exceeds
_GRAM_NORM_RTOL of it, as for a near-exact fit, is a norm taken from the
full data, a block of columns at a time. The closed form is the best
rank-R approximation of W G^(1/2) mapped back through its pseudo-inverse:
reduced-rank regression (Izenman 1975), which is SVD-LLM's truncation-aware
whitening (Wang et al., arXiv:2403.07378). No method forms Y: a gradient
step needs only its batch's Gram x x^T.

A gradient step gathers its token batch as rows of a token-major copy of
X, made once per site, and updates b and c together: they are views into
one packed buffer with one Adam state (Kingma & Ba, arXiv:1412.6980), one
update per step as in multi-tensor Adam. Adam is elementwise, so the
packed update has the bits of one update per factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (
    AdamState,
    Matrix,
    SvdResult,
    adam_step,
    derive_rng,
    frobenius_rel_error,  # noqa: F401 - perfbench/spans.py traces it under this module
    truncated_svd,
)

UNPRUNED = None
_RANK_EPS = 1e-9          # floor guard so achieved factors round-trip exactly
_GRAM_RTOL = 1e-12        # eigenvalues of X X^T below rtol * the largest count as zero
_NORM_BLOCK = 1024        # columns of X per product when a norm is measured on the full data
_GRAM_NORM_RTOL = 1e-10   # a Gram-form norm^2 stands while its rounding bound is below this share


class Method(str, Enum):
    OUTPUT_ALIGNED_GD = "output_aligned_gd"
    RRR_ORACLE = "rrr_oracle"
    SVD_W = "svd_w"
    PCA_X = "pca_x"


class RankDeficiencyError(ValueError):
    """Calibration inputs have fewer nonzero principal directions than the rank asks for."""


class DegenerateSiteError(ValueError):
    """Calibration outputs have zero norm, so no relative error is defined."""


class FactorizationDiverged(RuntimeError):
    """Gradient descent produced a non-finite loss; carries the last finite best iterate."""

    def __init__(self, best: "FactorizedMatrix"):
        super().__init__("factorization diverged to a non-finite loss")
        self.best = best


@dataclass
class FactorizeOptions:
    epochs: int = 2
    batch_tokens: int = 5000
    learning_rate: float = 0.001
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_tokens < 1:
            raise ValueError("batch_tokens must be >= 1")
        # written so that NaN fails too
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class FactorizedMatrix:
    b: Matrix            # (d_out, rank)
    c: Matrix            # (rank, d_in)
    rank: int
    method: Method
    calib_error: float
    achieved_factor: float


def achieved_factor(rank: int, d_in: int, d_out: int) -> float:
    return rank * (d_in + d_out) / (d_in * d_out)


def rank_for_factor(p: float, d_in: int, d_out: int) -> tuple[int | None, float]:
    """Rank storing ~p of the dense parameters; p=1 keeps the dense matrix.

    Returns (rank, achieved_factor); rank is UNPRUNED (None) for p=1,
    otherwise floor(p*d_in*d_out/(d_in+d_out)) clamped to [1, min(d_in,d_out)-1].
    """
    if p <= 0.0:
        raise ValueError("retention factor must be positive")
    if p > 1.0:
        raise ValueError("retention factor must be <= 1")
    if p == 1.0:
        return UNPRUNED, 1.0
    if min(d_in, d_out) < 2:
        raise ValueError("matrix too small to factorize")
    raw = p * d_in * d_out / (d_in + d_out)
    rank = int(math.floor(raw + _RANK_EPS))
    rank = max(1, min(rank, min(d_in, d_out) - 1))
    return rank, achieved_factor(rank, d_in, d_out)


def _output_norm(m: Matrix, x_cal: Matrix) -> float:
    """||m X||_F, formed _NORM_BLOCK columns of X at a time."""
    blocks = (m @ x_cal[:, i:i + _NORM_BLOCK] for i in range(0, x_cal.shape[1], _NORM_BLOCK))
    return math.sqrt(math.fsum(np.sum(np.multiply(p, p, out=p)) for p in blocks))


def pair_error(b: Matrix, c: Matrix, x_cal: Matrix, w: Matrix) -> float:
    """||(W - b c) X|| / ||W X||, both measured on the full data."""
    return _output_norm(w - b @ c, x_cal) / _output_norm(w, x_cal)


def _svd_factors(svd: SvdResult) -> tuple[Matrix, Matrix]:
    """b = U sqrt(S), c = sqrt(S) Vt."""
    root = np.sqrt(svd.sigma)
    return svd.u * root, root[:, None] * svd.vt


def factorize_svd_w(w: Matrix, rank: int, x_cal: Matrix) -> FactorizedMatrix:
    """OutputAlignedSite.svd_w; kept by name because perfbench/spans.py traces it."""
    return OutputAlignedSite(w, x_cal).svd_w(rank)


def reconstruction_gradients(b: Matrix, c: Matrix, w: Matrix, x: Matrix) -> tuple[Matrix, Matrix]:
    """Gradients of L(b,c) = 0.5 * ||W x - b c x||_F^2 w.r.t. b and c: with
    D = b c - W and the batch Gram G = x x^T, (D G) c^T and b^T (D G)."""
    d = b @ c
    d -= w
    dg = d @ (x @ x.T)
    return dg @ c.T, b.T @ dg


class OutputAlignedSite:
    """Every factorization method of one weight, at any number of ranks.

    Construction does the rank-independent work once: the Gram X X^T, the
    output norm ||W X||, the full SVD of W, sliced per rank for svd_w and
    GD's initialization, the Gram's eigendecomposition behind pca_x and the
    closed form, and a token-major copy of X for the batch gathers. It never
    forms W X; errors come from the Gram (`_gram_sq`), and norms from X only
    where rounding could spoil that (`_norm`). Raises DegenerateSiteError on
    zero-norm outputs.
    """

    def __init__(self, w: Matrix, x_cal: Matrix):
        if x_cal.ndim != 2 or x_cal.shape[0] != w.shape[1]:
            raise ValueError(f"inputs {x_cal.shape} do not match the weight shape {w.shape}")
        self.w, self.x_cal = w, x_cal
        self.gram = x_cal @ x_cal.T
        self.y_norm = self._norm(w)
        if self.y_norm == 0.0:
            raise DegenerateSiteError("calibration outputs have zero norm")
        # token-major copy: a batch is then a gather of contiguous rows
        self.xt = np.ascontiguousarray(x_cal.T)
        self.svd = truncated_svd(w, min(w.shape))
        # X X^T is singular for layer-norm-fed sites, which rules out
        # Cholesky; rounding can leave its zero eigenvalues slightly negative
        eigval, eigvec = np.linalg.eigh(self.gram)
        # the directions pca_x and the closed form keep, largest first; on
        # the benchmark fixtures the root of the direction a layer norm
        # leaves empty is <= 2.1e-8 of the largest, the weakest kept >= 3.7e-5
        n_kept = int(np.count_nonzero(eigval > eigval[-1] * _GRAM_RTOL))
        self.x_basis = eigvec[:, ::-1][:, :n_kept]
        self.x_root = np.sqrt(eigval[::-1][:n_kept])

    def _gram_sq(self, m: Matrix) -> float:
        """||m X||_F^2 as sum((m G) * m) over the Gram G."""
        return float(np.sum((m @ self.gram) * m))

    def _norm(self, m: Matrix) -> float:
        """||m X||_F as sqrt(`_gram_sq`), unless that sum's rounding bound
        2 (d_in + 1) u sum((|m| |G|) * |m|), u = 2^-53, exceeds
        _GRAM_NORM_RTOL of it; then on the full data (`_output_norm`)."""
        sq = self._gram_sq(m)
        am = np.abs(m)
        bound = (m.shape[1] + 1) * 2.0 ** -52 * float(np.sum((am @ np.abs(self.gram)) * am))
        return math.sqrt(sq) if bound <= _GRAM_NORM_RTOL * sq else _output_norm(m, self.x_cal)

    def error(self, b: Matrix, c: Matrix) -> float:
        """pair_error(b, c, x_cal, W) from the Gram alone: the calib_error
        `_result` records wherever `_norm`'s rounding bound holds. A sum that
        rounding leaves below 0 reads as 0; a non-finite one as NaN."""
        sq = self._gram_sq(self.w - b @ c)
        return math.sqrt(max(sq, 0.0)) / self.y_norm if math.isfinite(sq) else math.nan

    def fit(self, rank: int, opts: FactorizeOptions | None = None) -> FactorizedMatrix:
        """Learn (b, c) of one rank by Adam on the output reconstruction error.

        Starts from the svd_w factors, runs `opts.epochs` passes over
        shuffled token batches of `opts.batch_tokens` columns, and keeps the
        iterate of lowest `error`, taken after every batch. A batch is a
        gather of rows of the token-major copy of X, and b and c live in one
        packed buffer that one `adam_step` per batch updates. The returned
        calib_error (`_norm`) is the chosen iterate's `error` bit for bit
        unless rounding sends `_norm` to the full data. No early stopping; a
        non-finite loss (which any non-finite entry of b or c makes) raises
        FactorizationDiverged carrying the best finite iterate.
        """
        opts = opts or FactorizeOptions()
        self._check_rank(rank)
        d_out, d_in = self.w.shape
        n_b = d_out * rank

        def split(packed: np.ndarray) -> tuple[Matrix, Matrix]:
            return packed[:n_b].reshape(d_out, rank), packed[n_b:].reshape(rank, d_in)

        params = np.empty(n_b + rank * d_in)
        grads = np.empty_like(params)
        (b, c), (grad_b, grad_c) = split(params), split(grads)
        b[...], c[...] = _svd_factors(self.svd.top(rank))
        best_err = self.error(b, c)
        best = params.copy()

        state = AdamState(lr=opts.learning_rate)
        rng = derive_rng(opts.seed)
        xt = self.xt
        n_tokens = xt.shape[0]

        # a non-finite loss is an explicitly handled signal, not a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(opts.epochs):
                perm = rng.permutation(n_tokens)
                for start in range(0, n_tokens, opts.batch_tokens):
                    idx = perm[start:start + opts.batch_tokens]
                    grad_b[...], grad_c[...] = reconstruction_gradients(
                        b, c, self.w, xt[idx].T)
                    adam_step(params, grads, state)
                    err = self.error(b, c)
                    if not math.isfinite(err):
                        raise FactorizationDiverged(self._result(*split(best), rank))
                    if err < best_err:
                        best_err = err
                        best[...] = params

        return self._result(*split(best), rank)

    def svd_w(self, rank: int) -> FactorizedMatrix:
        """The truncated SVD of W, b = U sqrt(S), c = sqrt(S) Vt: GD's init."""
        self._check_rank(rank)
        return self._result(*_svd_factors(self.svd.top(rank)), rank, Method.SVD_W)

    def pca_x(self, rank: int) -> FactorizedMatrix:
        """c projects x onto the top `rank` eigenvectors of X X^T (its
        uncentered second moment) and b = W c^T applies the dense weights."""
        self._check_rank(rank)
        if self.x_root.size < rank:
            raise RankDeficiencyError(f"calibration inputs have {self.x_root.size} nonzero "
                                      f"directions, rank {rank} requested")
        p = self.x_basis[:, :rank]
        return self._result(self.w @ p, p.T.copy(), rank, Method.PCA_X)

    def closed_form(self, rank: int) -> FactorizedMatrix:
        """The minimizer of ||W X - b c X||_F: with W L = U S Q^T for the
        root L = x_basis diag(x_root) of X X^T over the kept directions,
        b = U_r sqrt(S_r) and c = sqrt(S_r) Q_r^T L^+. The rank is capped at
        the number of kept directions, of which construction leaves >= 1."""
        self._check_rank(rank)
        rank = min(rank, self.x_root.size)
        b, q = _svd_factors(truncated_svd((self.w @ self.x_basis) * self.x_root, rank))
        return self._result(b, (q / self.x_root) @ self.x_basis.T, rank, Method.RRR_ORACLE)

    def _check_rank(self, rank: int) -> None:
        if not 1 <= rank <= self.svd.sigma.size:
            raise ValueError(f"rank {rank} out of range [1, {self.svd.sigma.size}]")

    def _result(self, b: Matrix, c: Matrix, rank: int,
                method: Method = Method.OUTPUT_ALIGNED_GD) -> FactorizedMatrix:
        d_out, d_in = self.w.shape
        return FactorizedMatrix(b, c, rank, method, self._norm(self.w - b @ c) / self.y_norm,
                                achieved_factor(rank, d_in, d_out))


def factorize_output_aligned(
    w: Matrix,
    x_cal: Matrix,
    rank: int,
    opts: FactorizeOptions | None = None,
) -> FactorizedMatrix:
    """OutputAlignedSite.fit at one rank; kept by name because
    perfbench/spans.py traces it through calibrate."""
    return OutputAlignedSite(w, x_cal).fit(rank, opts)
