from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskprune.linalg import (
    AdamState,
    adam_step,
    derive_rng,
    frobenius_norm,
    frobenius_rel_error,
    truncated_svd,
)


class TestTruncatedSvd:
    def test_diagonal(self):
        res = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(res.sigma, [3.0, 2.0])

    def test_rank_one_exact(self):
        rng = derive_rng(3)
        u = rng.normal(size=(6, 1))
        v = rng.normal(size=(1, 4))
        m = u @ v
        res = truncated_svd(m, 1)
        assert frobenius_rel_error(m, (res.u * res.sigma) @ res.vt) < 1e-12

    def test_matches_lapack_oracle(self):
        rng = derive_rng(4)
        m = rng.normal(size=(6, 4))
        res = truncated_svd(m, 2)
        # independent full decomposition truncated to rank 2
        u, s, vt = np.linalg.svd(m)
        oracle = (u[:, :2] * s[:2]) @ vt[:2]
        err_ours = frobenius_rel_error(m, (res.u * res.sigma) @ res.vt)
        err_oracle = frobenius_rel_error(m, oracle)
        assert abs(err_ours - err_oracle) < 1e-9
        assert np.allclose(res.sigma, s[:2], rtol=1e-10)

    def test_full_rank_reconstruction(self):
        for seed, shape in [(5, (5, 5)), (6, (7, 3)), (7, (3, 7))]:
            m = derive_rng(seed).normal(size=shape)
            res = truncated_svd(m, min(shape))
            assert frobenius_rel_error(m, (res.u * res.sigma) @ res.vt) < 1e-9

    def test_orthonormal_and_descending(self):
        m = derive_rng(8).normal(size=(9, 6))
        res = truncated_svd(m, 4)
        assert np.allclose(res.u.T @ res.u, np.eye(4), atol=1e-10)
        assert np.allclose(res.vt @ res.vt.T, np.eye(4), atol=1e-10)
        assert np.all(np.diff(res.sigma) <= 1e-12)
        assert np.all(res.sigma >= 0)

    def test_deterministic_and_sign_fixed(self):
        for shape in [(8, 5), (5, 8)]:
            m = derive_rng(9).normal(size=shape)
            a = truncated_svd(m, 3)
            b = truncated_svd(m, 3)
            assert np.array_equal(a.u, b.u)
            assert np.array_equal(a.vt, b.vt)
            for k in range(3):
                first_nonzero = a.u[np.abs(a.u[:, k]) > 1e-12, k][0]
                assert first_nonzero > 0

    def test_beyond_rank_is_exactly_zero(self):
        rng = derive_rng(14)
        low = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 4))
        for m, rank in [(low, 2), (low.T, 2), (np.zeros((3, 5)), 0)]:
            res = truncated_svd(m, min(m.shape))
            assert np.all(res.sigma[:rank] > 0)
            assert not np.any(res.sigma[rank:])
            assert not np.any(res.u[:, rank:])
            assert frobenius_norm(m - (res.u * res.sigma) @ res.vt) <= 1e-12 * max(1.0, frobenius_norm(m))

    def test_eckart_young_beats_random_candidates(self):
        rng = derive_rng(10)
        m = rng.normal(size=(10, 7))
        r = 3
        res = truncated_svd(m, r)
        best = frobenius_norm(m - (res.u * res.sigma) @ res.vt)
        for _ in range(100):
            b = rng.normal(size=(10, r))
            c = rng.normal(size=(r, 7))
            # least-squares polish of one factor keeps candidates competitive
            c_ls, *_ = np.linalg.lstsq(b, m, rcond=None)
            assert frobenius_norm(m - b @ c_ls) >= best - 1e-9
            assert frobenius_norm(m - b @ c) >= best - 1e-9

    def test_rank_out_of_range(self):
        m = np.eye(4)
        with pytest.raises(ValueError):
            truncated_svd(m, 0)
        with pytest.raises(ValueError):
            truncated_svd(m, 5)

    def test_non_finite_rejected(self):
        m = np.full((3, 3), np.nan)
        with pytest.raises(ValueError):
            truncated_svd(m, 1)


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        param = derive_rng(11).normal(size=(4, 4))
        before = param.copy()
        state = AdamState()
        for _ in range(5):
            adam_step(param, np.zeros_like(param), state)
        assert np.array_equal(param, before)

    def test_first_step_moves_by_lr(self):
        param = np.array([[1.0]])
        state = AdamState(lr=0.001)
        adam_step(param, np.array([[1.0]]), state)
        # bias-corrected first step is lr / (1 + eps)
        assert param[0, 0] == pytest.approx(1.0 - 0.001, abs=1e-8)

    def test_quadratic_best_so_far_non_increasing(self):
        x = np.array([[1.0]])
        state = AdamState(lr=0.1)
        best = x[0, 0] ** 2
        losses = [best]
        for _ in range(10):
            grad = 2.0 * x
            adam_step(x, grad, state)
            best = min(best, x[0, 0] ** 2)
            losses.append(best)
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adam_step(np.zeros((2, 2)), np.zeros((2, 3)), AdamState())

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_zero_grad_property(self, seed):
        param = derive_rng(seed).normal(size=(3, 2))
        before = param.copy()
        adam_step(param, np.zeros_like(param), AdamState())
        assert np.array_equal(param, before)


class TestFrobenius:
    def test_equal_is_zero(self):
        m = derive_rng(12).normal(size=(3, 3))
        assert frobenius_rel_error(m, m) == 0.0

    def test_zero_estimate_is_one(self):
        m = derive_rng(13).normal(size=(3, 3))
        assert frobenius_rel_error(m, np.zeros_like(m)) == pytest.approx(1.0)

    def test_pythagorean(self):
        y = np.array([[3.0, 4.0]])
        assert frobenius_rel_error(y, np.array([[0.0, 0.0]])) == pytest.approx(1.0)
        assert frobenius_rel_error(y, np.array([[3.0, 0.0]])) == pytest.approx(4.0 / 5.0)

    def test_given_norm_keeps_the_bits_and_the_inputs(self):
        rng = derive_rng(14)
        for shape in ((3, 3), (32, 500), (96, 77)):
            y, y_hat = rng.normal(size=shape), rng.normal(size=shape)
            y_in, y_hat_in = y.copy(), y_hat.copy()
            want = frobenius_norm(y - y_hat) / frobenius_norm(y)
            assert frobenius_rel_error(y, y_hat) == want
            assert frobenius_rel_error(y, y_hat, frobenius_norm(y)) == want
            assert np.array_equal(y, y_in) and np.array_equal(y_hat, y_hat_in)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            frobenius_rel_error(np.zeros((2, 2)), np.ones((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_rel_error(np.zeros((2, 2)), np.zeros((3, 2)))


def test_derive_rng_reproducible_and_keyed():
    a = derive_rng(42, 1, 2).normal(size=4)
    b = derive_rng(42, 1, 2).normal(size=4)
    c = derive_rng(42, 1, 3).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
