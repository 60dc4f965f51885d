"""Rank-R factorizations of a weight matrix against calibration activations.

Every method emits the same shape of result: a pair (b, c) with
b (d_out x R) and c (R x d_in) replacing the dense multiply y = W x by
y = b (c x). Methods differ in what they optimize:

- svd_w:          truncated SVD of the weights, ignores activations.
- pca_x:          projects inputs onto their top principal directions.
- rrr_oracle:     closed-form minimizer of ||Y - M X||_F over rank-R maps;
                  used as the quality oracle for the learned method.
- output_aligned: gradient descent on both factors against the layer's
                  actual outputs, initialized from svd_w, keeping the
                  best-so-far iterate by full-data error.

OutputAlignedSite runs output_aligned at any number of ranks of one weight
and shares what does not depend on the rank: the full SVD of W and the
statistics of the full-data error. With E = W - b c and R0 = Y - W X,

    ||Y - b c X||^2 = ||R0||^2 + 2 <R0 X^T, E> + ||E L||^2,  X X^T = L L^T,

so an error costs O(d_out d_in^2) instead of a pass over every token.
Whitening by a factor of X X^T is the idea behind SVD-LLM's truncation.

A gradient step gathers its token batch as rows of token-major copies of
X and Y, made once per site, and updates b and c together: they are views
into one packed buffer with one Adam state (Kingma & Ba, arXiv:1412.6980),
one update per step as in multi-tensor Adam. Adam is elementwise, so the
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
    frobenius_norm,
    frobenius_rel_error,
    truncated_svd,
)

UNPRUNED = None
_RANK_EPS = 1e-9          # floor guard so achieved factors round-trip exactly
_PINV_RTOL = 1e-10        # singular values below rtol * sigma_max count as zero


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


def pair_error(b: Matrix, c: Matrix, x_cal: Matrix, y_cal: Matrix,
               y_norm: float | None = None) -> float:
    """||Y - b c X|| / ||Y||; `y_norm` is ||Y|| when the caller has it."""
    return frobenius_rel_error(y_cal, b @ (c @ x_cal), y_norm)


def _svd_factors(svd: SvdResult) -> tuple[Matrix, Matrix]:
    """b = U sqrt(S), c = sqrt(S) Vt."""
    root = np.sqrt(svd.sigma)
    return svd.u * root, root[:, None] * svd.vt


def factorize_svd_w(
    w: Matrix, rank: int, x_cal: Matrix | None = None, y_cal: Matrix | None = None
) -> FactorizedMatrix:
    """Weight-space truncated SVD: b = U sqrt(S), c = sqrt(S) Vt."""
    b, c = _svd_factors(truncated_svd(w, rank))
    if x_cal is not None:
        if y_cal is None:
            y_cal = w @ x_cal
        err = pair_error(b, c, x_cal, y_cal)
    else:
        err = frobenius_rel_error(w, b @ c)
    d_out, d_in = w.shape
    return FactorizedMatrix(b, c, rank, Method.SVD_W, err, achieved_factor(rank, d_in, d_out))


def factorize_pca_x(w: Matrix, x_cal: Matrix, rank: int) -> FactorizedMatrix:
    """Input-space PCA: project x onto the top principal directions of its
    uncentered second moment, then apply the dense weights in that basis."""
    d_out, d_in = w.shape
    if x_cal.shape[0] != d_in:
        raise ValueError(f"x_cal rows {x_cal.shape[0]} != d_in {d_in}")
    if x_cal.shape[1] < rank:
        raise ValueError("x_cal must supply at least `rank` columns")
    second_moment = x_cal @ x_cal.T
    full = truncated_svd(second_moment, d_in)
    nonzero = int(np.sum(full.sigma > full.sigma[0] * 1e-12)) if full.sigma[0] > 0 else 0
    if nonzero < rank:
        raise RankDeficiencyError(
            f"calibration inputs have {nonzero} nonzero directions, rank {rank} requested"
        )
    p = full.u[:, :rank].T          # (rank, d_in), orthonormal rows
    b = w @ p.T
    c = p
    err = pair_error(b, c, x_cal, w @ x_cal)
    return FactorizedMatrix(b, c, rank, Method.PCA_X, err, achieved_factor(rank, d_in, d_out))


def factorize_rrr_oracle(w: Matrix, x_cal: Matrix, rank: int) -> FactorizedMatrix:
    """Closed-form minimizer of ||W X - M X||_F over rank-R maps M.

    With thin SVD X = U S Vt, the objective reduces to the best rank-R
    approximation of Z = W U S; rank-deficient X is handled through the
    pseudo-inverse of S.
    """
    d_out, d_in = w.shape
    if x_cal.shape[0] != d_in:
        raise ValueError(f"x_cal rows {x_cal.shape[0]} != d_in {d_in}")
    k = min(x_cal.shape)
    svd_x = truncated_svd(x_cal, k)
    keep = svd_x.sigma > svd_x.sigma[0] * _PINV_RTOL if svd_x.sigma[0] > 0 else np.zeros(k, bool)
    u = svd_x.u[:, keep]
    s = svd_x.sigma[keep]
    if s.size == 0:
        raise RankDeficiencyError("calibration inputs are all zero")
    r_eff = min(rank, s.size, d_out)
    z = (w @ u) * s
    svd_z = truncated_svd(z, r_eff)
    root = np.sqrt(svd_z.sigma)
    b = svd_z.u * root
    q = root[:, None] * svd_z.vt
    c = (q / s) @ u.T
    err = pair_error(b, c, x_cal, w @ x_cal)
    return FactorizedMatrix(b, c, r_eff, Method.RRR_ORACLE, err,
                            achieved_factor(r_eff, d_in, d_out))


def reconstruction_gradients(
    b: Matrix, c: Matrix, x: Matrix, y: Matrix
) -> tuple[Matrix, Matrix]:
    """Gradients of L(b,c) = 0.5 * ||y - b c x||_F^2 w.r.t. b and c."""
    cx = c @ x
    # r = b c x - y is minus the residual, so neither gradient negates a copy
    r = b @ cx
    r -= y
    return r @ cx.T, (b.T @ r) @ x.T


class OutputAlignedSite:
    """Output-aligned factorization of one weight, at any number of ranks.

    Construction does the rank-independent work once: the full SVD of W,
    sliced per rank for the svd_w initialization, the statistics of the
    full-data error (see the module docstring), and token-major copies of
    the calibration pair for the batch gathers. Raises DegenerateSiteError
    when the calibration outputs have zero norm.
    """

    def __init__(self, w: Matrix, x_cal: Matrix, y_cal: Matrix):
        if x_cal.shape[1] != y_cal.shape[1]:
            raise ValueError("x_cal and y_cal must have the same number of columns")
        d_out, d_in = w.shape
        if x_cal.shape[0] != d_in or y_cal.shape[0] != d_out:
            raise ValueError("calibration pair does not match the weight shape")
        self.w, self.x_cal, self.y_cal = w, x_cal, y_cal
        # token-major copies: a batch is then a gather of contiguous rows
        self.xt, self.yt = np.ascontiguousarray(x_cal.T), np.ascontiguousarray(y_cal.T)
        self.y_norm = frobenius_norm(y_cal)
        if self.y_norm == 0.0:
            raise DegenerateSiteError("calibration outputs have zero norm")
        self.svd = truncated_svd(w, min(w.shape))
        # R0 = Y - W X and then its squares in one (d_out, T) buffer: at
        # 48k tokens each temporary it saves is tens of MB
        r0 = w @ x_cal
        np.subtract(y_cal, r0, out=r0)
        self.r0_xt = r0 @ x_cal.T
        np.multiply(r0, r0, out=r0)
        self.r0_sq = float(np.sum(r0))
        # X X^T is singular for layer-norm-fed sites, which rules out
        # Cholesky; rounding can leave its zero eigenvalues slightly negative
        eigval, eigvec = np.linalg.eigh(x_cal @ x_cal.T)
        self.l = eigvec * np.sqrt(np.clip(eigval, 0.0, None))

    def error(self, b: Matrix, c: Matrix) -> float:
        """pair_error(b, c, x_cal, y_cal) from the per-site statistics."""
        e = self.w - b @ c
        el = e @ self.l
        sq = self.r0_sq + 2.0 * float(np.sum(self.r0_xt * e)) + float(np.sum(el * el))
        return math.sqrt(max(sq, 0.0)) / self.y_norm

    def fit(
        self, rank: int, opts: FactorizeOptions | None = None,
        _trace: list[float] | None = None,
    ) -> FactorizedMatrix:
        """Learn (b, c) of one rank by Adam on the output reconstruction error.

        Starts from the svd_w factors, runs `opts.epochs` passes over
        shuffled token batches of `opts.batch_tokens` columns, and keeps the
        iterate with the lowest full-data error, evaluated from the per-site
        statistics after every batch. A batch is a gather of rows of the
        token-major copies, and b and c live in one packed buffer that one
        `adam_step` per batch updates. The returned calib_error is measured
        directly on the chosen iterate. No early stopping; a non-finite loss
        (which any non-finite entry of b or c makes) raises
        FactorizationDiverged carrying the best finite iterate.
        """
        opts = opts or FactorizeOptions()
        if not 1 <= rank <= self.svd.sigma.size:
            raise ValueError(f"rank {rank} out of range [1, {self.svd.sigma.size}]")
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
        xt, yt = self.xt, self.yt
        n_tokens = xt.shape[0]

        # a non-finite loss is an explicitly handled signal, not a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(opts.epochs):
                perm = rng.permutation(n_tokens)
                for start in range(0, n_tokens, opts.batch_tokens):
                    idx = perm[start:start + opts.batch_tokens]
                    grad_b[...], grad_c[...] = reconstruction_gradients(
                        b, c, xt[idx].T, yt[idx].T)
                    adam_step(params, grads, state)
                    err = self.error(b, c)
                    if not math.isfinite(err):
                        raise FactorizationDiverged(self._result(*split(best), rank))
                    if err < best_err:
                        best_err = err
                        best[...] = params
                    if _trace is not None:
                        _trace.append(best_err)

        return self._result(*split(best), rank)

    def _result(self, b: Matrix, c: Matrix, rank: int) -> FactorizedMatrix:
        d_out, d_in = self.w.shape
        return FactorizedMatrix(b, c, rank, Method.OUTPUT_ALIGNED_GD,
                                pair_error(b, c, self.x_cal, self.y_cal, self.y_norm),
                                achieved_factor(rank, d_in, d_out))


def factorize_output_aligned(
    w: Matrix,
    x_cal: Matrix,
    y_cal: Matrix,
    rank: int,
    opts: FactorizeOptions | None = None,
    _trace: list[float] | None = None,
) -> FactorizedMatrix:
    """Output-aligned factorization at one rank; see OutputAlignedSite.fit."""
    return OutputAlignedSite(w, x_cal, y_cal).fit(rank, opts, _trace)
