from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskprune import factorize
from taskprune.calibrate import build_cache
from taskprune.factorize import (
    UNPRUNED,
    DegenerateSiteError,
    FactorizationDiverged,
    FactorizeOptions,
    Method,
    OutputAlignedSite,
    RankDeficiencyError,
    achieved_factor,
    factorize_output_aligned,
    factorize_svd_w,
    pair_error,
    rank_for_factor,
    reconstruction_gradients,
)
from taskprune.linalg import AdamState, adam_step, derive_rng, frobenius_rel_error
from taskprune.model import SiteId, SiteKind

LEVELS = (1.0, 0.9, 0.75, 0.6, 0.5, 0.35, 0.25, 0.2, 0.1, 0.05)


def misaligned_instance(seed, d_out=16, d_in=16, n_tokens=160, decay=0.6):
    """Random weights with calibration inputs whose energy concentrates in a
    rotated, decaying subspace (the subspaces of W and X deliberately differ)."""
    rng = derive_rng(seed)
    w = rng.normal(size=(d_out, d_in))
    q, _ = np.linalg.qr(rng.normal(size=(d_in, d_in)))
    x = q @ (decay ** np.arange(d_in)[:, None] * rng.normal(size=(d_in, n_tokens)))
    return w, x, w @ x


class TestRankForFactor:
    def test_square_half(self):
        rank, af = rank_for_factor(0.5, 8, 8)
        assert rank == 2
        assert af == 0.5

    def test_unpruned(self):
        rank, af = rank_for_factor(1.0, 8, 8)
        assert rank is UNPRUNED
        assert af == 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            rank_for_factor(0.0, 8, 8)
        with pytest.raises(ValueError):
            rank_for_factor(-0.1, 8, 8)
        with pytest.raises(ValueError):
            rank_for_factor(1.5, 8, 8)

    def test_clamping(self):
        rank, _ = rank_for_factor(0.01, 8, 8)
        assert rank == 1
        # the formula can never emit a full-rank (useless) factorization
        for d_in, d_out in [(8, 8), (4, 1000), (2, 3)]:
            rank, _ = rank_for_factor(0.9999, d_in, d_out)
            assert rank <= min(d_in, d_out) - 1

    def test_achieved_within_one_rank_step(self):
        d_in, d_out = 2048, 8192
        step = (d_in + d_out) / (d_in * d_out)
        for level in LEVELS[1:]:
            rank, af = rank_for_factor(level, d_in, d_out)
            assert 1 <= rank <= min(d_in, d_out) - 1
            # recompute the factor independently
            assert af == rank * (d_in + d_out) / (d_in * d_out)
            assert abs(af - level) <= step + 1e-12

    @given(st.sampled_from(LEVELS[1:]),
           st.integers(4, 96), st.integers(4, 96))
    @settings(max_examples=120, deadline=None)
    def test_round_trip_exact(self, level, d_in, d_out):
        rank, af = rank_for_factor(level, d_in, d_out)
        again, af2 = rank_for_factor(af, d_in, d_out)
        assert again == rank
        assert af2 == af


class TestSvdW:
    def test_weight_space_error_is_eckart_young(self):
        # x = I makes the outputs W and the calibration error the weight-space error
        rng = derive_rng(40)
        w = rng.normal(size=(10, 6))
        fm = OutputAlignedSite(w, np.eye(6)).svd_w(3)
        s = np.linalg.svd(w, compute_uv=False)
        expected = math.sqrt(np.sum(s[3:] ** 2) / np.sum(s ** 2))
        assert fm.calib_error == pytest.approx(expected, rel=1e-9)
        assert fm.method is Method.SVD_W
        assert fm.b.shape == (10, 3)
        assert fm.c.shape == (3, 6)

    def test_calibration_error_when_pair_supplied(self):
        w, x, y = misaligned_instance(41)
        fm = OutputAlignedSite(w, x).svd_w(4)
        assert fm.calib_error == pytest.approx(pair_error(fm.b, fm.c, x, w))

    def test_is_the_fit_init(self):
        # a learning rate below every ulp leaves fit at its initial iterate
        w, x, y = misaligned_instance(41)
        site = OutputAlignedSite(w, x)
        init = site.fit(4, FactorizeOptions(epochs=1, learning_rate=1e-300))
        fm = site.svd_w(4)
        assert np.array_equal(fm.b, init.b) and np.array_equal(fm.c, init.c)
        assert factorize_svd_w(w, 4, x).calib_error == fm.calib_error

    def test_achieved_factor_exact(self):
        rng = derive_rng(42)
        fm = OutputAlignedSite(rng.normal(size=(12, 8)), rng.normal(size=(8, 20))).svd_w(2)
        assert fm.achieved_factor == 2 * (12 + 8) / (12 * 8)


class TestPcaX:
    def test_orthonormal_projection_rows(self):
        w, x, y = misaligned_instance(43)
        fm = OutputAlignedSite(w, x).pca_x(4)
        np.testing.assert_allclose(fm.c @ fm.c.T, np.eye(4), atol=1e-9)
        assert fm.method is Method.PCA_X

    def test_rank_deficiency_detected(self):
        rng = derive_rng(44)
        w = rng.normal(size=(8, 8))
        x = np.tile(rng.normal(size=(8, 1)), (1, 20))  # rank 1 inputs
        with pytest.raises(RankDeficiencyError):
            OutputAlignedSite(w, x).pca_x(3)

    def test_too_few_columns(self):
        rng = derive_rng(45)
        with pytest.raises(ValueError):
            OutputAlignedSite(rng.normal(size=(8, 8)), rng.normal(size=(8, 2))).pca_x(3)

    def test_recovers_exact_low_rank_inputs(self):
        rng = derive_rng(46)
        w = rng.normal(size=(8, 8))
        basis = np.linalg.qr(rng.normal(size=(8, 3)))[0]
        x = basis @ rng.normal(size=(3, 50))
        fm = OutputAlignedSite(w, x).pca_x(3)
        assert fm.calib_error < 1e-9


class TestRrrOracle:
    def test_orthogonal_inputs_reduce_to_svd_w(self):
        rng = derive_rng(47)
        w = rng.normal(size=(8, 8))
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        site = OutputAlignedSite(w, q)
        assert site.closed_form(3).calib_error == pytest.approx(site.svd_w(3).calib_error,
                                                                abs=1e-9)

    def test_exact_when_inputs_have_rank_r(self):
        rng = derive_rng(48)
        w = rng.normal(size=(10, 8))
        basis = np.linalg.qr(rng.normal(size=(8, 4)))[0]
        x = basis @ rng.normal(size=(4, 64))
        fm = OutputAlignedSite(w, x).closed_form(4)
        assert fm.calib_error < 1e-9
        assert fm.method is Method.RRR_ORACLE

    def test_dominates_svd_and_pca(self):
        for seed in range(8):
            site = OutputAlignedSite(*misaligned_instance(seed + 100)[:2])
            rrr = site.closed_form(4)
            assert rrr.calib_error < site.svd_w(4).calib_error
            assert rrr.calib_error < site.pca_x(4).calib_error

    def test_all_zero_inputs_rejected(self):
        # all-zero inputs make the outputs W X zero, so no method is reached
        with pytest.raises(DegenerateSiteError, match="zero norm"):
            OutputAlignedSite(np.eye(4), np.zeros((4, 10)))

    def test_rank_deficient_inputs_use_pseudo_inverse(self):
        rng = derive_rng(49)
        w = rng.normal(size=(6, 6))
        basis = np.linalg.qr(rng.normal(size=(6, 2)))[0]
        x = basis @ rng.normal(size=(2, 30))
        fm = OutputAlignedSite(w, x).closed_form(4)  # asks for more rank than x carries
        assert fm.rank == 2
        assert fm.calib_error < 1e-9
        assert np.all(np.isfinite(fm.b)) and np.all(np.isfinite(fm.c))

    def test_rank_out_of_range_rejected(self):
        site = OutputAlignedSite(*misaligned_instance(432)[:2])
        for method in (site.svd_w, site.pca_x, site.closed_form):
            for rank in (0, 17):
                with pytest.raises(ValueError, match="out of range"):
                    method(rank)


class TestOutputAlignedGd:
    OPTS = FactorizeOptions(epochs=2500, batch_tokens=64, learning_rate=0.003, seed=0)

    def test_full_rank_is_representable(self):
        rng = derive_rng(50)
        w = rng.normal(size=(8, 8))
        x = rng.normal(size=(8, 80))
        fm = factorize_output_aligned(w, x, 8, self.OPTS)
        assert fm.calib_error <= 1e-6

    def test_never_worse_than_svd_init(self):
        for seed in range(5):
            w, x, y = misaligned_instance(seed + 200)
            init = factorize_svd_w(w, 4, x)
            fm = factorize_output_aligned(w, x, 4, self.OPTS)
            assert fm.calib_error <= init.calib_error + 1e-15

    def test_close_to_oracle(self):
        w, x, y = misaligned_instance(51)
        rrr = OutputAlignedSite(w, x).closed_form(4)
        fm = factorize_output_aligned(w, x, 4, self.OPTS)
        assert fm.calib_error <= rrr.calib_error * 1.05

    def test_default_options(self):
        opts = FactorizeOptions()
        assert opts.epochs == 2
        assert opts.batch_tokens == 5000
        assert opts.learning_rate == 0.001
        with pytest.raises(ValueError):
            FactorizeOptions(epochs=0)
        with pytest.raises(ValueError):
            FactorizeOptions(batch_tokens=0)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            FactorizeOptions(seed=-1)

    def test_result_is_the_least_error_seen(self, monkeypatch):
        w, x, y = misaligned_instance(52)
        seen = record_errors(monkeypatch)
        fm = factorize_output_aligned(w, x, 4,
                                      FactorizeOptions(epochs=40, batch_tokens=32, seed=1))
        assert len(seen) > 10
        assert min(seen) < seen[0]      # the descent moved off the init
        assert fm.calib_error == min(seen)

    def test_refit_is_bit_identical_for_any_seed(self):
        w, x, y = misaligned_instance(53)
        first, *others = (factorize_output_aligned(
            w, x, 4, FactorizeOptions(epochs=30, batch_tokens=32, seed=seed)) for seed in (9, 9, 0))
        for other in others:
            assert np.array_equal(first.b, other.b)
            assert np.array_equal(first.c, other.c)
            assert first.calib_error == other.calib_error

    def test_divergence_signalled_with_best_iterate(self):
        w, x, y = misaligned_instance(54)
        init = factorize_svd_w(w, 4, x)
        bad = FactorizeOptions(epochs=3, batch_tokens=64, learning_rate=1e160, seed=0)
        with pytest.raises(FactorizationDiverged) as exc:
            factorize_output_aligned(w, x, 4, bad)
        best = exc.value.best
        assert best.calib_error == pytest.approx(init.calib_error)
        assert np.all(np.isfinite(best.b))

    def test_shape_validation(self):
        rng = derive_rng(55)
        w = rng.normal(size=(6, 4))
        for x in (rng.normal(size=(5, 10)), rng.normal(size=(10, 4)), rng.normal(size=4)):
            with pytest.raises(ValueError, match="do not match the weight shape"):
                factorize_output_aligned(w, x, 2)


def record_errors(monkeypatch) -> list[float]:
    """Every value that OutputAlignedSite.error returns from now on, in order."""
    seen: list[float] = []
    real = OutputAlignedSite.error

    def recorded(self, b, c):
        err = real(self, b, c)
        seen.append(err)
        return err

    monkeypatch.setattr(OutputAlignedSite, "error", recorded)
    return seen


def unpacked_fit(site, rank, opts):
    """The gradient-descent loop with one Adam state per factor, a step
    count taken from the (d_in, T) calibration inputs and explicit isfinite
    scans; `OutputAlignedSite.fit` must reproduce it bit for bit."""
    top = site.svd.top(rank)
    root = np.sqrt(top.sigma)
    b, c = top.u * root, root[:, None] * top.vt
    best_err = site.error(b, c)
    best = (b.copy(), c.copy())
    state_b, state_c = AdamState(lr=opts.learning_rate), AdamState(lr=opts.learning_rate)
    n_steps = opts.epochs * math.ceil(site.x_cal.shape[1] / opts.batch_tokens)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            grad_b, grad_c = factorize.reconstruction_gradients(b, c, site.w, site.gram)
            adam_step(b, grad_b, state_b)
            adam_step(c, grad_c, state_c)
            err = (site.error(b, c)
                   if np.all(np.isfinite(b)) and np.all(np.isfinite(c)) else math.nan)
            if not math.isfinite(err):
                raise FactorizationDiverged(site._result(*best, rank))
            if err < best_err:
                best_err = err
                best = (b.copy(), c.copy())
    return site._result(*best, rank)


def decaying_site(d_out, d_in, n_tokens, seed):
    """A site whose input directions decay geometrically, so that a
    truncated SVD of W is a poor start and the descent moves."""
    rng = derive_rng(seed)
    w = rng.normal(size=(d_out, d_in))
    x = (0.8 ** np.arange(d_in))[:, None] * rng.normal(size=(d_in, n_tokens))
    return OutputAlignedSite(w, x)


class TestPackedStep:
    N_TOKENS = 240

    @pytest.mark.parametrize("d_out, d_in", [(96, 32), (32, 64), (64, 32)])
    def test_bit_identical_to_one_adam_state_per_factor(self, d_out, d_in, monkeypatch):
        site = decaying_site(d_out, d_in, self.N_TOKENS, seed=d_out + d_in)
        seen = record_errors(monkeypatch)
        for rank in (1, 7, min(d_out, d_in) - 1):
            # batches dividing T, not dividing it, and larger than T
            for batch in (60, 70, 500):
                for epochs in (1, 3):
                    opts = FactorizeOptions(epochs=epochs, batch_tokens=batch,
                                            learning_rate=0.01, seed=rank + batch)
                    seen.clear()
                    want = unpacked_fit(site, rank, opts)
                    want_errors = seen[:]
                    seen.clear()
                    got = site.fit(rank, opts)
                    assert np.array_equal(got.b, want.b)
                    assert np.array_equal(got.c, want.c)
                    assert got.calib_error == want.calib_error
                    assert seen == want_errors

    @pytest.mark.parametrize("batch, steps_per_epoch", [(60, 4), (70, 4), (500, 1)])
    def test_one_step_on_the_sites_gram_per_batch(self, monkeypatch, batch, steps_per_epoch):
        # batches dividing T = 240, not dividing it, and larger than T
        site = decaying_site(32, 16, self.N_TOKENS, seed=6)
        grams = []
        real = factorize.reconstruction_gradients

        def recorded(b, c, w, gram):
            grams.append(gram)
            return real(b, c, w, gram)

        monkeypatch.setattr(factorize, "reconstruction_gradients", recorded)
        for epochs in (1, 3):
            grams.clear()
            site.fit(4, FactorizeOptions(epochs=epochs, batch_tokens=batch))
            assert len(grams) == epochs * steps_per_epoch
            assert all(gram is site.gram for gram in grams)

    @pytest.mark.parametrize("block", ["b", "c"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_factor_diverges_with_the_earlier_best(self, monkeypatch, block, bad):
        site = decaying_site(32, 16, self.N_TOKENS, seed=5)
        opts = FactorizeOptions(epochs=3, batch_tokens=60, learning_rate=0.01, seed=2)
        poisoned_step = 6
        calls = []
        real = factorize.reconstruction_gradients

        def poisoned(b, c, w, gram):
            grad_b, grad_c = real(b, c, w, gram)
            calls.append(None)
            if len(calls) == poisoned_step:
                (grad_b if block == "b" else grad_c)[0, 0] = bad
            return grad_b, grad_c

        monkeypatch.setattr(factorize, "reconstruction_gradients", poisoned)
        bests = []
        for fit in (lambda: unpacked_fit(site, 4, opts), lambda: site.fit(4, opts)):
            calls.clear()
            with pytest.raises(FactorizationDiverged) as exc:
                fit()
            assert len(calls) == poisoned_step
            bests.append(exc.value.best)
        want, got = bests
        init = factorize_svd_w(site.w, 4, site.x_cal)
        assert want.calib_error < init.calib_error  # the best moved before the poisoned step
        assert np.array_equal(got.b, want.b)
        assert np.array_equal(got.c, want.c)
        assert got.calib_error == want.calib_error


class TestOutputAlignedSite:
    @staticmethod
    def assert_statistic_matches(w, x, rank, seed):
        site = OutputAlignedSite(w, x)
        rng = derive_rng(seed)
        init = factorize_svd_w(w, rank, x)
        pairs = [(init.b, init.c)]
        for scale in (1e-3, 1e-1, 1.0):
            pairs.append((init.b + scale * rng.normal(size=init.b.shape),
                          init.c + scale * rng.normal(size=init.c.shape)))
        for b, c in pairs:
            direct = pair_error(b, c, x, w)
            assert site.error(b, c) == pytest.approx(direct, rel=1e-10)

    def test_statistic_matches_pair_error_on_exact_outputs(self):
        for seed in range(5):
            w, x, _ = misaligned_instance(seed + 400)
            self.assert_statistic_matches(w, x, 4, seed)

    def test_statistic_matches_pair_error_on_singular_gram(self, tiny_model, tiny_capture):
        site = SiteId(0, SiteKind.QKV)     # fed by a layer norm: X X^T is singular
        w = tiny_model.site_weight(site)
        x = tiny_capture.inputs[site]
        eig = np.linalg.eigvalsh(x @ x.T)
        assert eig[0] <= 1e-10 * eig[-1]
        self.assert_statistic_matches(w, x, 5, 0)

    def test_fit_matches_factorize_output_aligned_at_every_rank(self):
        w, x, y = misaligned_instance(430)
        site = OutputAlignedSite(w, x)
        opts = FactorizeOptions(epochs=10, batch_tokens=32, seed=4)
        for rank in (1, 4, 9):
            a = site.fit(rank, opts)
            b = factorize_output_aligned(w, x, rank, opts)
            assert np.array_equal(a.b, b.b) and np.array_equal(a.c, b.c)
            assert a.calib_error == b.calib_error
            # the site's Gram form against the full-data oracle
            assert a.calib_error == pytest.approx(pair_error(a.b, a.c, x, w), rel=1e-12)

    @staticmethod
    def count_full_data_norms(monkeypatch) -> list[int]:
        calls = [0]
        real = factorize._output_norm

        def counted(m, x_cal):
            calls[0] += 1
            return real(m, x_cal)

        monkeypatch.setattr(factorize, "_output_norm", counted)
        return calls

    def test_cache_build_takes_every_norm_from_the_gram(self, tiny_model, tiny_capture,
                                                         monkeypatch):
        calls = self.count_full_data_norms(monkeypatch)
        opts = FactorizeOptions(epochs=6, batch_tokens=500, learning_rate=0.003, seed=3)
        cache = build_cache(tiny_model, tiny_capture, opts=opts, workers=4)
        built = [(site, fm) for (site, _), fm in cache.entries.items() if fm is not None]
        assert len(built) == 72 and calls[0] == 0
        monkeypatch.undo()
        for site, fm in built:
            want = pair_error(fm.b, fm.c, tiny_capture.inputs[site], tiny_model.site_weight(site))
            assert fm.calib_error == pytest.approx(want, rel=1e-12)

    def test_every_entry_records_the_error_fit_ranked_it_by(self, tiny_model, tiny_capture,
                                                             tiny_cache):
        built = [(site, fm) for (site, _), fm in tiny_cache.entries.items() if fm is not None]
        assert len(built) == 72
        by_site = {site: OutputAlignedSite(tiny_model.site_weight(site), tiny_capture.inputs[site])
                   for site in {site for site, _ in built}}
        for site, fm in built:
            assert by_site[site].error(fm.b, fm.c) == fm.calib_error
        for site in by_site.values():
            for rank in range(1, site.svd.sigma.size + 1):
                fm = site.svd_w(rank)
                assert site.error(fm.b, fm.c) == fm.calib_error

    def test_a_sum_rounded_below_zero_reads_as_zero(self):
        # residuals in the null space of a rank-3 Gram: sum((E G) * E) is
        # rounding noise of either sign
        rng = derive_rng(60)
        w = rng.normal(size=(8, 8))
        basis = np.linalg.qr(rng.normal(size=(8, 8)))[0]
        site = OutputAlignedSite(w, basis[:, :3] @ rng.normal(size=(3, 50)))
        null = basis[:, 3:] @ basis[:, 3:].T
        negative = 0
        for _ in range(20):
            b = w - rng.normal(size=(8, 8)) @ null
            sq = site._gram_sq(w - b @ np.eye(8))
            err = site.error(b, np.eye(8))
            assert err >= 0.0
            if sq < 0.0:
                negative += 1
                assert err == 0.0
        assert negative > 0

    def test_exact_low_rank_fits_measure_their_error_on_the_data(self, monkeypatch):
        # a residual that cancels below the rounding of W X fails the Gram
        # form's rounding bound, so the norm is remeasured on X
        rng = derive_rng(59)
        w = rng.normal(size=(8, 8))
        x = np.linalg.qr(rng.normal(size=(8, 3)))[0] @ rng.normal(size=(3, 50))
        site = OutputAlignedSite(w, x)
        real = factorize._output_norm
        calls = self.count_full_data_norms(monkeypatch)
        for fm in (site.pca_x(3), site.closed_form(3)):
            assert fm.calib_error == real(w - fm.b @ fm.c, x) / site.y_norm
            assert fm.calib_error < 1e-9
        assert calls[0] == 2
        site.svd_w(3)
        assert calls[0] == 2    # an inexact fit keeps the Gram form

    def test_fit_never_holds_an_output_sized_array(self):
        # d_out = 6 d_in: the outputs W X would be 6 times the inputs; the site
        # and one fit work from X's Gram and hold no copy of X, let alone an
        # array the size of W X
        d_in, n_tokens = 16, 20000
        rng = derive_rng(58)
        w = rng.normal(size=(6 * d_in, d_in))
        x = rng.normal(size=(d_in, n_tokens))
        tracemalloc.start()
        try:
            site = OutputAlignedSite(w, x)
            site.fit(4, FactorizeOptions(epochs=1, batch_tokens=5000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 8

    def test_fit_reads_no_calibration_input_after_construction(self):
        # an inexact fit keeps `_norm`'s Gram form, so only the step count
        # needs T, which the site records when it is built
        w, x, _ = misaligned_instance(433)
        site = OutputAlignedSite(w, x)
        want = site.fit(4, FactorizeOptions(epochs=3, batch_tokens=50))

        class Unreadable:
            def __getattr__(self, name):
                raise AssertionError(f"fit read x_cal.{name}")

            def __getitem__(self, key):
                raise AssertionError("fit read x_cal")

        site.x_cal = Unreadable()
        assert not [name for name, v in vars(site).items()
                    if isinstance(v, np.ndarray) and v.size >= x.size]
        got = site.fit(4, FactorizeOptions(epochs=3, batch_tokens=50))
        assert np.array_equal(got.b, want.b) and np.array_equal(got.c, want.c)
        assert got.calib_error == want.calib_error

    def test_zero_norm_outputs_rejected(self):
        w, x, _ = misaligned_instance(431)
        with pytest.raises(DegenerateSiteError, match="zero norm"):
            OutputAlignedSite(np.zeros_like(w), x)

    def test_rank_out_of_range_rejected(self):
        w, x, y = misaligned_instance(432)
        site = OutputAlignedSite(w, x)
        for rank in (0, 17):
            with pytest.raises(ValueError):
                site.fit(rank)


def data_form_gradients(b, c, w, x):
    """The gradients of 0.5 * ||W x - b c x||^2 from the outputs y = W x
    and the residual b c x - y, without the Gram matrix."""
    cx = c @ x
    r = b @ cx - w @ x
    return r @ cx.T, (b.T @ r) @ x.T


class TestGradients:
    def test_matches_central_finite_differences(self):
        rng = derive_rng(56)
        for _ in range(5):
            b = rng.normal(size=(6, 2))
            c = rng.normal(size=(2, 6))
            w = rng.normal(size=(6, 6))
            x = rng.normal(size=(6, 12))
            gb, gc = reconstruction_gradients(b, c, w, x @ x.T)

            def loss(bb, cc):
                r = w @ x - bb @ cc @ x
                return 0.5 * float(np.sum(r * r))

            h = 1e-6
            for mat, grad in ((b, gb), (c, gc)):
                num = np.zeros_like(mat)
                for i in range(mat.shape[0]):
                    for j in range(mat.shape[1]):
                        orig = mat[i, j]
                        mat[i, j] = orig + h
                        up = loss(b, c)
                        mat[i, j] = orig - h
                        down = loss(b, c)
                        mat[i, j] = orig
                        num[i, j] = (up - down) / (2 * h)
                denom = max(np.max(np.abs(num)), 1e-12)
                assert np.max(np.abs(grad - num)) / denom < 1e-6

    @pytest.mark.parametrize("d_out, d_in, rank, n_tokens", [
        (16, 16, 4, 160), (96, 32, 7, 1000), (32, 64, 31, 50), (64, 32, 1, 5000)])
    def test_match_the_data_form(self, d_out, d_in, rank, n_tokens):
        rng = derive_rng(d_out, d_in, rank)
        w = rng.normal(size=(d_out, d_in))
        x = rng.normal(size=(d_in, n_tokens))
        # near the svd_w init, where the residual is small against W x
        top = np.linalg.svd(w, full_matrices=False)
        b = top[0][:, :rank] * top[1][:rank] + 1e-3 * rng.normal(size=(d_out, rank))
        c = top[2][:rank] + 1e-3 * rng.normal(size=(rank, d_in))
        for got, want in zip(reconstruction_gradients(b, c, w, x @ x.T),
                             data_form_gradients(b, c, w, x)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestAnisotropySeparation:
    def test_output_aligned_beats_one_sided_projections(self):
        # inputs concentrated in a subspace misaligned with the weights' top
        # directions: both one-sided baselines must lose to the joint methods
        for seed in (300, 301, 302):
            w, x, y = misaligned_instance(seed, decay=0.5)
            rank = 4
            site = OutputAlignedSite(w, x)
            svd, pca, rrr = site.svd_w(rank), site.pca_x(rank), site.closed_form(rank)
            gd = site.fit(rank, TestOutputAlignedGd.OPTS)
            assert rrr.calib_error < svd.calib_error
            assert rrr.calib_error < pca.calib_error
            assert gd.calib_error < svd.calib_error
            assert gd.calib_error < pca.calib_error
            # the closed form is the optimum; learned factors cannot beat it
            assert rrr.calib_error <= gd.calib_error + 1e-12


def test_achieved_factor_formula_exact_for_every_method():
    site = OutputAlignedSite(*misaligned_instance(57, d_out=12, d_in=10)[:2])
    for fm in (
        site.svd_w(3),
        site.pca_x(3),
        site.closed_form(3),
        site.fit(3, FactorizeOptions(epochs=5, batch_tokens=64)),
    ):
        assert fm.achieved_factor == achieved_factor(fm.rank, 10, 12)
