from __future__ import annotations

import copy
import dataclasses
import io
import logging

import numpy as np
import pytest

import taskprune as tp
from taskprune.calibrate import (
    CacheMismatchError,
    CorpusTooSmallError,
    DEFAULT_FACTOR_SET,
    FactorSet,
    PruningVector,
    assemble,
    build_cache,
    cache_to_bytes,
    _entry_seed,
    capture_calibration,
    compression_ratio,
    load_cache,
    load_capture,
    retained_site_params,
    save_cache,
    save_capture,
)
from taskprune import factorize
from taskprune.factorize import FactorizeOptions, factorize_output_aligned, rank_for_factor
from taskprune.linalg import derive_rng
from taskprune.model import CACHE_VERSION, SiteId, SiteKind, forward, read_container, site_dims, sites


def manifest_rows(cache) -> list[dict]:
    _, meta, _ = read_container(io.BytesIO(cache_to_bytes(cache)), expected_version=CACHE_VERSION)
    return meta["entries"]


class TestFactorSet:
    def test_default_levels(self):
        assert DEFAULT_FACTOR_SET.levels == (1.0, 0.9, 0.75, 0.6, 0.5, 0.35, 0.25, 0.2, 0.1, 0.05)
        assert len(DEFAULT_FACTOR_SET) == 10
        assert DEFAULT_FACTOR_SET.index(0.35) == 5

    def test_must_start_at_one(self):
        with pytest.raises(ValueError):
            FactorSet((0.9, 0.5))

    def test_must_descend_strictly(self):
        with pytest.raises(ValueError):
            FactorSet((1.0, 0.5, 0.5))
        with pytest.raises(ValueError):
            FactorSet((1.0, 0.5, 0.9))

    def test_levels_in_unit_interval(self):
        with pytest.raises(ValueError):
            FactorSet((1.0, 0.5, -0.1))


class TestPruningVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            PruningVector((0, 99), DEFAULT_FACTOR_SET)

    def test_levels_and_uniform(self):
        vec = PruningVector.uniform(DEFAULT_FACTOR_SET, 4, 3)
        assert vec.levels() == (0.6, 0.6, 0.6, 0.6)
        assert not vec.is_all_ones()
        assert PruningVector.all_ones(DEFAULT_FACTOR_SET, 4).is_all_ones()

    def test_json_round_trip(self):
        vec = PruningVector((0, 2, 9, 5), DEFAULT_FACTOR_SET)
        again = PruningVector.from_dict(vec.to_dict())
        assert again == vec


class TestCapture:
    def test_exact_token_count_and_shapes(self, tiny_model, tiny_capture):
        assert tiny_capture.tokens == 2500
        assert set(tiny_capture.entries) == set(sites(tiny_model.config))
        for site, (x, y) in tiny_capture.entries.items():
            d_in, d_out = site_dims(tiny_model.config, site)
            assert x.shape == (d_in, 2500)
            assert y.shape == (d_out, 2500)

    def test_fidelity(self, tiny_model, tiny_capture):
        for site, (x, y) in tiny_capture.entries.items():
            w = tiny_model.site_weight(site)
            assert tp.frobenius_rel_error(y, w @ x) <= 1e-12

    def test_batched_capture_equals_per_chunk_forward(self, tiny_model, tiny_corpus, tiny_capture):
        # 2500 tokens: 78 full chunks of 32 run as one batch, a 4-token tail as another
        step = tiny_model.config.max_seq_len
        tokens = list(tiny_corpus[:2500])
        taps = frozenset(sites(tiny_model.config))
        caps = [forward(tiny_model, tokens[i:i + step], taps=taps)[1]
                for i in range(0, len(tokens), step)]
        assert len(caps) == 79 and caps[-1].tokens == 4
        for site, (x, y) in tiny_capture.entries.items():
            x_ref = np.concatenate([c.entries[site][0] for c in caps], axis=1)
            y_ref = np.concatenate([c.entries[site][1] for c in caps], axis=1)
            assert x.tobytes() == x_ref.tobytes()
            assert y.tobytes() == y_ref.tobytes()

    def test_token_ids_outside_vocabulary_rejected(self):
        cfg = tp.TransformerConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16,
                                   vocab_size=64, max_seq_len=8)
        model = tp.random_model(cfg, seed=5)
        with pytest.raises(ValueError, match="out of range"):
            capture_calibration(model, [1, 2, 3, 4, 5, 6, 7, 8, 9, 64], min_tokens=10)

    def test_corpus_too_small(self, tiny_model):
        with pytest.raises(CorpusTooSmallError):
            capture_calibration(tiny_model, b"abc", min_tokens=100)

    def test_fingerprints_recorded(self, tiny_model, tiny_capture):
        assert tiny_capture.model_fingerprint == tp.model_fingerprint(tiny_model)
        assert len(tiny_capture.corpus_fingerprint) == 64

    def test_capture_save_load(self, tiny_model, tiny_capture, tmp_path):
        path = tmp_path / "cap.siev"
        save_capture(tiny_capture, tiny_model.config, path)
        loaded, config = load_capture(path)
        assert config == tiny_model.config
        assert loaded.tokens == tiny_capture.tokens
        assert loaded.model_fingerprint == tiny_capture.model_fingerprint
        for site in sites(tiny_model.config):
            np.testing.assert_array_equal(loaded.entries[site][0], tiny_capture.entries[site][0])
            np.testing.assert_array_equal(loaded.entries[site][1], tiny_capture.entries[site][1])


class TestBuildCache:
    def test_entry_counting(self, tiny_cache, tiny_model):
        # 2 layers x 4 sites x 9 pruned levels
        assert tiny_cache.built_entries() == 72
        expected_keys = {(s, fi) for s in sites(tiny_model.config) for fi in range(10)}
        assert set(tiny_cache.entries) == expected_keys
        for site in sites(tiny_model.config):
            assert tiny_cache.entries[(site, 0)] is None

    def test_ranks_match_formula(self, tiny_cache, tiny_model):
        for (site, fi), fm in tiny_cache.entries.items():
            if fi == 0:
                continue
            d_in, d_out = site_dims(tiny_model.config, site)
            rank, af = rank_for_factor(tiny_cache.factor_set[fi], d_in, d_out)
            assert fm.rank == rank
            assert fm.achieved_factor == af

    def test_rebuild_is_bit_identical(self, tiny_model, tiny_capture):
        opts = FactorizeOptions(epochs=2, batch_tokens=500, seed=7)
        fset = FactorSet((1.0, 0.5, 0.1))
        a = build_cache(tiny_model, tiny_capture, fset, opts, workers=1)
        b = build_cache(tiny_model, tiny_capture, fset, opts, workers=4)
        assert a.fingerprint() == b.fingerprint()

    def test_seed_changes_fingerprint(self, tiny_model, tiny_capture):
        fset = FactorSet((1.0, 0.5))
        a = build_cache(tiny_model, tiny_capture, fset,
                        FactorizeOptions(epochs=2, batch_tokens=500, seed=1))
        b = build_cache(tiny_model, tiny_capture, fset,
                        FactorizeOptions(epochs=2, batch_tokens=500, seed=2))
        assert a.fingerprint() != b.fingerprint()

    def test_wrong_model_rejected(self, tiny_capture, tiny_model):
        other = tp.random_model(tiny_model.config, seed=999)
        with pytest.raises(CacheMismatchError):
            build_cache(other, tiny_capture, FactorSet((1.0, 0.5)))

    def test_divergent_entries_flagged_and_degrade_to_dense(self, tiny_model, tiny_capture):
        bad = FactorizeOptions(epochs=1, batch_tokens=2500, learning_rate=1e160, seed=0)
        cache = build_cache(tiny_model, tiny_capture, FactorSet((1.0, 0.5)), bad, workers=2)
        n_sites = len(sites(tiny_model.config))
        assert len(cache.flagged) == n_sites
        vec = PruningVector.uniform(cache.factor_set, n_sites, 1)
        pruned = assemble(tiny_model, vec, cache)
        assert pruned.adapters == {}  # every site fell back to dense weights
        logits, _ = forward(pruned, [1, 2, 3])
        base, _ = forward(tiny_model, [1, 2, 3])
        assert np.array_equal(logits, base)


    def test_equals_per_entry_factorizations(self, tiny_model, tiny_capture):
        opts = FactorizeOptions(epochs=2, batch_tokens=500, learning_rate=0.003, seed=5)
        fset = FactorSet((1.0, 0.75, 0.25, 0.05))
        cache = build_cache(tiny_model, tiny_capture, fset, opts, workers=1)
        for site in sites(tiny_model.config):
            w = tiny_model.site_weight(site)
            x, y = tiny_capture.entries[site]
            d_in, d_out = site_dims(tiny_model.config, site)
            for fi in range(1, len(fset)):
                rank, _ = rank_for_factor(fset[fi], d_in, d_out)
                entry_opts = dataclasses.replace(opts, seed=_entry_seed(opts.seed, site, fi))
                alone = factorize_output_aligned(w, x, y, rank, entry_opts)
                built = cache.entry(site, fi)
                assert np.array_equal(built.b, alone.b)
                assert np.array_equal(built.c, alone.c)
                assert built.calib_error == alone.calib_error

    def test_one_svd_per_site(self, tiny_model, tiny_capture, monkeypatch):
        calls = []
        real = factorize.truncated_svd

        def counting(m, r):
            calls.append(m.shape)
            return real(m, r)

        monkeypatch.setattr(factorize, "truncated_svd", counting)
        opts = FactorizeOptions(epochs=1, batch_tokens=2500, seed=0)
        cache = build_cache(tiny_model, tiny_capture, DEFAULT_FACTOR_SET, opts, workers=1)
        assert cache.built_entries() == 72
        assert len(calls) == len(sites(tiny_model.config))

    def test_zero_norm_site_flagged_and_kept_dense(self, tiny_model, tiny_corpus, caplog):
        model = copy.deepcopy(tiny_model)
        model.layers[0].w_out = np.zeros_like(model.layers[0].w_out)
        capture = capture_calibration(model, tiny_corpus, min_tokens=640)
        dead = SiteId(0, SiteKind.OUT)
        fset = FactorSet((1.0, 0.5, 0.1))
        with caplog.at_level(logging.WARNING, logger="taskprune.calibrate"):
            cache = build_cache(model, capture, fset,
                                FactorizeOptions(epochs=1, batch_tokens=320), workers=1)
        assert cache.flagged == {(dead, 1): "calibration outputs have zero norm",
                                 (dead, 2): "calibration outputs have zero norm"}
        assert any("zero norm" in rec.message for rec in caplog.records)
        assert cache.entry(dead, 1) is None and cache.entry(dead, 2) is None
        n_sites = len(sites(model.config))
        assert cache.built_entries() - len(cache.flagged) == 2 * (n_sites - 1)
        pruned = assemble(model, PruningVector.uniform(fset, n_sites, 2), cache)
        assert dead not in pruned.adapters and len(pruned.adapters) == n_sites - 1
        for row in manifest_rows(cache):
            assert ("reason" in row) == row["flagged"]


class TestAssemble:
    def test_identity_vector_is_bit_exact(self, tiny_model, tiny_cache):
        rng = derive_rng(60)
        vec = PruningVector.all_ones(tiny_cache.factor_set, 8)
        pruned = assemble(tiny_model, vec, tiny_cache)
        for _ in range(10):
            tokens = rng.integers(0, 256, size=int(rng.integers(2, 12))).tolist()
            a, _ = forward(tiny_model, tokens)
            b, _ = forward(pruned, tokens)
            assert np.array_equal(a, b)

    def test_full_rank_equivalent_site_is_representable(self, tiny_model, tiny_cache, tiny_capture):
        from taskprune.calibrate import PrunedModel
        from taskprune.factorize import factorize_rrr_oracle

        site = SiteId(0, SiteKind.OUT)
        w = tiny_model.site_weight(site)
        x, _ = tiny_capture.entries[site]
        fm = factorize_rrr_oracle(w, x, min(w.shape))
        pruned = PrunedModel(base=tiny_model, adapters={site: fm},
                             vector=PruningVector.all_ones(tiny_cache.factor_set, 8))
        tokens = [5, 9, 200, 31]
        a, _ = forward(tiny_model, tokens)
        b, _ = forward(pruned, tokens)
        assert np.max(np.abs(a - b)) < 1e-6

    def test_mixed_vector_changes_outputs(self, tiny_model, tiny_cache):
        vec = PruningVector((0, 3, 5, 2, 0, 4, 9, 1), tiny_cache.factor_set)
        pruned = assemble(tiny_model, vec, tiny_cache)
        a, _ = forward(tiny_model, [1, 2, 3])
        b, _ = forward(pruned, [1, 2, 3])
        assert not np.array_equal(a, b)

    def test_fingerprint_mismatch_rejected(self, tiny_model, tiny_cache):
        other = tp.random_model(tiny_model.config, seed=555)
        vec = PruningVector.all_ones(tiny_cache.factor_set, 8)
        with pytest.raises(CacheMismatchError):
            assemble(other, vec, tiny_cache)

    def test_wrong_factor_set_rejected(self, tiny_model, tiny_cache):
        vec = PruningVector.all_ones(FactorSet((1.0, 0.5)), 8)
        with pytest.raises(CacheMismatchError):
            assemble(tiny_model, vec, tiny_cache)

    def test_missing_entry_rejected(self, tiny_model, tiny_cache):
        import dataclasses
        broken = dataclasses.replace(tiny_cache, entries=dict(tiny_cache.entries))
        del broken.entries[(SiteId(0, SiteKind.QKV), 3)]
        vec = PruningVector((3, 0, 0, 0, 0, 0, 0, 0), tiny_cache.factor_set)
        with pytest.raises(KeyError):
            assemble(tiny_model, vec, broken)

    def test_vector_length_checked(self, tiny_model, tiny_cache):
        with pytest.raises(ValueError):
            assemble(tiny_model, PruningVector((0, 0), tiny_cache.factor_set), tiny_cache)


class TestCompression:
    def test_all_ones_is_zero(self, tiny_model):
        vec = PruningVector.all_ones(DEFAULT_FACTOR_SET, 8)
        assert compression_ratio(vec, tiny_model) == 0.0

    def test_uniform_half_within_rank_step(self, tiny_model):
        vec = PruningVector.uniform(DEFAULT_FACTOR_SET, 8, DEFAULT_FACTOR_SET.index(0.5))
        cfg = tiny_model.config
        step = max((d_in + d_out) / (d_in * d_out)
                   for d_in, d_out in (site_dims(cfg, s) for s in sites(cfg)))
        assert abs(compression_ratio(vec, tiny_model) - 0.5) <= step

    def test_matches_brute_force_count(self, tiny_model):
        rng = derive_rng(61)
        cfg = tiny_model.config
        vec = PruningVector(tuple(int(i) for i in rng.integers(0, 10, size=8)),
                            DEFAULT_FACTOR_SET)
        dense = retained = 0
        for site, level in zip(sites(cfg), vec.levels()):
            d_in, d_out = site_dims(cfg, site)
            dense += d_in * d_out
            rank, _ = rank_for_factor(level, d_in, d_out)
            retained += d_in * d_out if rank is None else rank * (d_in + d_out)
        assert retained == retained_site_params(vec, tiny_model)
        assert compression_ratio(vec, tiny_model) == pytest.approx(1 - retained / dense)

    def test_monotone_cost(self, tiny_model):
        rng = derive_rng(62)
        for _ in range(20):
            indices = [int(i) for i in rng.integers(0, 9, size=8)]
            base_vec = PruningVector(tuple(indices), DEFAULT_FACTOR_SET)
            site = int(rng.integers(0, 8))
            lowered = list(indices)
            lowered[site] += 1  # one step more aggressive
            low_vec = PruningVector(tuple(lowered), DEFAULT_FACTOR_SET)
            assert (retained_site_params(low_vec, tiny_model)
                    <= retained_site_params(base_vec, tiny_model))


class TestCachePersistence:
    def test_round_trip(self, tiny_cache, tmp_path):
        path = tmp_path / "cache.siev"
        save_cache(tiny_cache, path)
        loaded = load_cache(path)
        assert loaded.fingerprint() == tiny_cache.fingerprint()
        assert loaded.factor_set == tiny_cache.factor_set
        assert loaded.model_fingerprint == tiny_cache.model_fingerprint
        assert loaded.calib_fingerprint == tiny_cache.calib_fingerprint
        assert loaded.options == tiny_cache.options
        for key, fm in tiny_cache.entries.items():
            other = loaded.entries[key]
            if fm is None:
                assert other is None
            else:
                assert np.array_equal(fm.b, other.b)
                assert np.array_equal(fm.c, other.c)
                assert fm.calib_error == other.calib_error
                assert fm.method == other.method

    def test_serialization_deterministic(self, tiny_cache):
        assert cache_to_bytes(tiny_cache) == cache_to_bytes(tiny_cache)

    def test_flagged_entries_survive_round_trip(self, tiny_model, tiny_capture, tmp_path):
        bad = FactorizeOptions(epochs=1, batch_tokens=2500, learning_rate=1e160, seed=0)
        cache = build_cache(tiny_model, tiny_capture, FactorSet((1.0, 0.5)), bad, workers=1)
        path = tmp_path / "flagged.siev"
        save_cache(cache, path)
        loaded = load_cache(path)
        assert loaded.flagged == cache.flagged
        assert set(loaded.flagged.values()) == {"factorization diverged to a non-finite loss"}
        assert loaded.fingerprint() == cache.fingerprint()

    def test_unflagged_rows_carry_no_reason(self, tiny_cache):
        assert not tiny_cache.flagged
        assert all("reason" not in row for row in manifest_rows(tiny_cache))

    def test_wrong_kind_rejected(self, tiny_model, tmp_path):
        path = tmp_path / "model.siev"
        tp.save_model(tiny_model, path)
        with pytest.raises(tp.model.FormatError):
            load_cache(path)
