"""Minimal dense linear-algebra kernel.

Everything operates on 2-D float64 numpy arrays ("matrices"). The SVD is a
one-sided Jacobi implementation: deterministic, accurate to machine
precision at the small sizes this package works with, and free of any
LAPACK-version dependence in test fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

Matrix = np.ndarray

_JACOBI_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 100


def as_matrix(data) -> Matrix:
    """Coerce to a 2-D float64 C-order array, rejecting non-finite entries."""
    m = np.array(data, dtype=np.float64, order="C")
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={m.ndim}")
    require_finite(m, "matrix")
    return m


def require_finite(m: np.ndarray, what: str = "array") -> None:
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} contains non-finite entries")


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for (seed, key...); independent per key."""
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), *map(int, key)]))


def frobenius_norm(m: Matrix) -> float:
    return float(np.sqrt(np.sum(m * m)))


def frobenius_rel_error(y: Matrix, y_hat: Matrix) -> float:
    """Relative error ||y - y_hat||_F / ||y||_F; the reference must be nonzero."""
    if y.shape != y_hat.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {y_hat.shape}")
    denom = frobenius_norm(y)
    if denom == 0.0:
        raise ValueError("zero-norm reference matrix")
    return frobenius_norm(y - y_hat) / denom


@dataclass
class SvdResult:
    """Top-r singular triplets: u (rows x r), sigma (r, descending), vt (r x cols)."""

    u: Matrix
    sigma: np.ndarray
    vt: Matrix

    def reconstruct(self) -> Matrix:
        return (self.u * self.sigma) @ self.vt

    def top(self, r: int) -> "SvdResult":
        """The leading r triplets, copied out of this decomposition."""
        return SvdResult(self.u[:, :r].copy(), self.sigma[:r].copy(), self.vt[:r, :].copy())


def _jacobi_onesided(a: Matrix) -> tuple[Matrix, np.ndarray, Matrix]:
    """Full SVD of a tall-or-square matrix by Hestenes one-sided Jacobi.

    Returns (u, sigma, v) with a = u @ diag(sigma) @ v.T, sigma descending.
    Columns of u belonging to zero singular values are left as zeros.
    """
    u = np.array(a, dtype=np.float64, copy=True)
    n = u.shape[1]
    v = np.eye(n)
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                gamma = float(u[:, i] @ u[:, j])
                if gamma == 0.0:
                    continue
                alpha = float(u[:, i] @ u[:, i])
                beta = float(u[:, j] @ u[:, j])
                denom = math.sqrt(alpha * beta)
                if denom == 0.0:
                    continue
                rel = abs(gamma) / denom
                off = max(off, rel)
                if rel <= _JACOBI_TOL:
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                ui = c * u[:, i] - s * u[:, j]
                uj = s * u[:, i] + c * u[:, j]
                u[:, i], u[:, j] = ui, uj
                vi = c * v[:, i] - s * v[:, j]
                vj = s * v[:, i] + c * v[:, j]
                v[:, i], v[:, j] = vi, vj
        if off <= _JACOBI_TOL:
            break
    sigma = np.sqrt(np.sum(u * u, axis=0))
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    u = u[:, order]
    v = v[:, order]
    cutoff = sigma[0] * 1e-15 if sigma.size and sigma[0] > 0 else 0.0
    for k in range(n):
        if sigma[k] > cutoff:
            u[:, k] /= sigma[k]
        else:
            sigma[k] = 0.0
            u[:, k] = 0.0
    return u, sigma, v


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
    if m.shape[1] <= m.shape[0]:
        u, sigma, v = _jacobi_onesided(m)
        vt = np.ascontiguousarray(v.T)
    else:
        u2, sigma, v2 = _jacobi_onesided(m.T)
        u = v2
        vt = np.ascontiguousarray(u2.T)
    _fix_signs(u, vt)
    return SvdResult(u, sigma, vt).top(r)


@dataclass
class AdamState:
    """Per-parameter Adam accumulator; moments are allocated on first use."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * grad
    state.v *= state.beta2
    state.v += (1.0 - state.beta2) * (grad * grad)
    m_hat = state.m / (1.0 - state.beta1 ** state.step)
    v_hat = state.v / (1.0 - state.beta2 ** state.step)
    param -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return param
