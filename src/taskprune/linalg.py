"""Minimal dense linear-algebra kernel.

Everything operates on 2-D float64 numpy arrays ("matrices"). The SVD is
LAPACK's, through ``np.linalg.svd``, with each singular pair sign-fixed, so
a result is deterministic for one numpy/BLAS build; another build may
differ in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

Matrix = np.ndarray


def require_finite(m: np.ndarray, what: str = "array") -> None:
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} contains non-finite entries")


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for (seed, key...); independent per key."""
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), *map(int, key)]))


def frobenius_norm(m: Matrix) -> float:
    return float(np.sqrt(np.sum(m * m)))


def frobenius_rel_error(y: Matrix, y_hat: Matrix, y_norm: float | None = None) -> float:
    """Relative error ||y - y_hat||_F / ||y||_F; the reference must be nonzero.

    `y_norm`, when given, is frobenius_norm(y), computed once by a caller
    that scores many y_hat against one y.
    """
    if y.shape != y_hat.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {y_hat.shape}")
    denom = frobenius_norm(y) if y_norm is None else y_norm
    if denom == 0.0:
        raise ValueError("zero-norm reference matrix")
    # the bits of frobenius_norm(y - y_hat), squared in place
    d = y - y_hat
    np.multiply(d, d, out=d)
    return float(np.sqrt(np.sum(d))) / denom


@dataclass
class SvdResult:
    """Top-r singular triplets: u (rows x r), sigma (r, descending), vt (r x cols)."""

    u: Matrix
    sigma: np.ndarray
    vt: Matrix

    def top(self, r: int) -> "SvdResult":
        """The leading r triplets, copied out of this decomposition."""
        return SvdResult(self.u[:, :r].copy(), self.sigma[:r].copy(), self.vt[:r, :].copy())


def _fix_signs(u: Matrix, vt: Matrix) -> None:
    # First nonzero component of each left singular vector made positive;
    # zero columns fall back to the right vector so the result stays unique.
    for k in range(u.shape[1]):
        col = u[:, k]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size:
            if col[nz[0]] < 0.0:
                u[:, k] = -col
                vt[k, :] = -vt[k, :]
            continue
        row = vt[k, :]
        nz = np.nonzero(np.abs(row) > 1e-12)[0]
        if nz.size and row[nz[0]] < 0.0:
            vt[k, :] = -row


def truncated_svd(m: Matrix, r: int) -> SvdResult:
    """Top-r SVD, deterministic (sign-fixed), Eckart-Young optimal."""
    if m.ndim != 2:
        raise ValueError("truncated_svd expects a 2-D array")
    require_finite(m, "truncated_svd input")
    k = min(m.shape)
    if not 1 <= r <= k:
        raise ValueError(f"rank {r} out of range [1, {k}] for shape {m.shape}")
    u, sigma, vt = np.linalg.svd(m, full_matrices=False)
    # sigma at or below sigma_0 * 1e-15 is rounding noise: make it exactly 0
    # and its u column exactly 0, so rank deficiency is exact downstream
    tail = sigma <= sigma[0] * 1e-15
    sigma[tail] = 0.0
    u[:, tail] = 0.0
    _fix_signs(u, vt)
    return SvdResult(u, sigma, vt).top(r)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Per-parameter Adam accumulator; moments are allocated on first use."""

    lr: float = 0.001
    step: int = 0
    m: np.ndarray | None = field(default=None, repr=False)
    v: np.ndarray | None = field(default=None, repr=False)


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState) -> np.ndarray:
    """One Adam update, applied to param in place; returns param."""
    if param.shape != grad.shape:
        raise ValueError(f"shape mismatch: param {param.shape} vs grad {grad.shape}")
    if state.m is None:
        state.m = np.zeros_like(param)
        state.v = np.zeros_like(param)
    if state.m.shape != param.shape:
        raise ValueError("Adam state was created for a different parameter shape")
    state.step += 1
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grad
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * (grad * grad)
    m_hat = state.m / (1.0 - ADAM_BETA1 ** state.step)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** state.step)
    param -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return param
