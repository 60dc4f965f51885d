from __future__ import annotations

import copy
import dataclasses
import io
import logging
import os
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest

import taskprune as tp
from taskprune import calibrate
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
    estimate_flops_per_token,
    load_cache,
    load_capture,
    save_cache,
    save_capture,
)
from taskprune import factorize
from taskprune.factorize import (FactorizeOptions, OutputAlignedSite, factorize_output_aligned,
                                 rank_for_factor)
from taskprune.linalg import derive_rng
from taskprune.model import (CACHE_VERSION, CAPTURE_VERSION, SiteId, SiteKind, _rows_product,
                             forward, read_container, site_dims, sites, write_container)


def manifest_rows(cache) -> list[dict]:
    _, meta, _ = read_container(io.BytesIO(cache_to_bytes(cache)), expected_version=CACHE_VERSION)
    return meta["entries"]


def edit_metadata(path, edit) -> None:
    """Write the container at `path` again with edit(meta) applied to its metadata."""
    with open(path, "rb") as fh:
        version, meta, tensors = read_container(fh)
    edit(meta)
    with open(path, "wb") as fh:
        write_container(fh, version, meta, list(tensors.items()))


class TestFactorSet:
    def test_default_levels(self):
        assert DEFAULT_FACTOR_SET.levels == (1.0, 0.9, 0.75, 0.6, 0.5, 0.35, 0.25, 0.2, 0.1, 0.05)
        assert len(DEFAULT_FACTOR_SET) == 10
        assert DEFAULT_FACTOR_SET.levels.index(0.35) == 5

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
        assert PruningVector.all_ones(DEFAULT_FACTOR_SET, 4).indices == (0,) * 4

    def test_json_round_trip(self):
        vec = PruningVector((0, 2, 9, 5), DEFAULT_FACTOR_SET)
        again = PruningVector.from_dict(vec.to_dict())
        assert again == vec


class TestCapture:
    def test_exact_token_count_and_shapes(self, tiny_model, tiny_capture):
        assert tiny_capture.tokens == 2500
        assert set(tiny_capture.inputs) == set(sites(tiny_model.config))
        for site, x in tiny_capture.inputs.items():
            d_in, _ = site_dims(tiny_model.config, site)
            assert x.shape == (d_in, 2500)
            assert tiny_capture.weights[site] is tiny_model.site_weight(site)

    def test_fidelity(self, tiny_model, tiny_capture):
        # the outputs are not stored: the pair view forms W x on access
        pairs = tiny_capture.entries
        assert tuple(pairs) == sites(tiny_model.config)
        for site, (x, y) in pairs.items():
            assert x is tiny_capture.inputs[site]
            assert y.tobytes() == (tiny_model.site_weight(site) @ x).tobytes()
        with pytest.raises(TypeError):
            pairs[site] = (x, y)

    def test_batched_capture_equals_per_chunk_forward(self, tiny_model, tiny_corpus, tiny_capture,
                                                      monkeypatch):
        # 2500 tokens: 78 whole chunks of 32 and a 4-token tail, padded to
        # a whole chunk, run in blocks of whole chunks. Blocks of 1024
        # tokens (the default) hold 32 chunks, of 100 tokens 3 and of 1
        # token 1, as a block holds at least one chunk. The tail's columns
        # are the first 4 of the whole 32-token chunk of the corpus.
        step = tiny_model.config.max_seq_len
        tokens = list(tiny_corpus)
        taps = frozenset(sites(tiny_model.config))
        caps = [forward(tiny_model, tokens[i:i + step], taps=taps)[1] for i in range(0, 2500, step)]
        assert len(caps) == 79 and caps[-1].tokens == step
        refs = {site: np.concatenate([c.inputs[site] for c in caps], axis=1)[:, :2500]
                for site in taps}
        captures = [tiny_capture]
        for block_tokens in (1, 100):
            monkeypatch.setattr(calibrate, "CAPTURE_BLOCK_TOKENS", block_tokens)
            captures.append(capture_calibration(tiny_model, tiny_corpus, min_tokens=2500))
        for capture in captures:
            for site, x in capture.inputs.items():
                assert x.tobytes() == refs[site].tobytes()

    def test_token_ids_outside_vocabulary_rejected(self, monkeypatch):
        # named on the first call, with or without a reuse dict, before any
        # pass; 300 and -1 are not bytes, so the reuse key is not bytes()
        cfg = tp.TransformerConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16,
                                   vocab_size=64, max_seq_len=8)
        model = tp.random_model(cfg, seed=5)
        monkeypatch.setattr(calibrate, "_transformer", None)
        for bad, why in [(64, ">= vocab_size 64"), (300, ">= vocab_size 64"), (-1, "< 0")]:
            for reuse in (None, {}):
                with pytest.raises(ValueError, match=f"prompt 1 holds byte {bad} {why}: token id"):
                    capture_calibration(model, [1] * 9 + [bad], 10, reuse=reuse)

    def test_corpus_too_small(self, tiny_model):
        with pytest.raises(CorpusTooSmallError):
            capture_calibration(tiny_model, b"abc", min_tokens=100)

    def test_fingerprints_recorded(self, tiny_model, tiny_capture):
        assert tiny_capture.model_fingerprint == tp.model_fingerprint(tiny_model)
        assert len(tiny_capture.corpus_fingerprint) == 64

    def test_capture_save_load(self, tiny_model, tiny_capture, tmp_path):
        path = tmp_path / "cap.siev"
        save_capture(tiny_capture, tiny_model.config, path)
        loaded = load_capture(path, tiny_model)
        assert loaded.tokens == tiny_capture.tokens
        assert loaded.model_fingerprint == tiny_capture.model_fingerprint
        assert loaded.corpus_fingerprint == tiny_capture.corpus_fingerprint
        for site in sites(tiny_model.config):
            assert loaded.inputs[site].tobytes() == tiny_capture.inputs[site].tobytes()
            assert loaded.weights[site] is tiny_model.site_weight(site)
        # x only: one tensor per site, and the file is refused for another model
        with open(path, "rb") as fh:
            _, _, tensors = read_container(fh)
        assert tensors.keys() == {f"s{i}.x" for i in range(len(sites(tiny_model.config)))}
        with pytest.raises(CacheMismatchError, match="different model"):
            load_capture(path, tp.random_model(tiny_model.config, seed=12))

    def test_capture_of_an_older_version_is_refused(self, tiny_model, tiny_capture, tmp_path):
        path = tmp_path / "cap.siev"
        save_capture(tiny_capture, tiny_model.config, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (CAPTURE_VERSION - 1).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        want = f"version mismatch: expected {CAPTURE_VERSION}, got {CAPTURE_VERSION - 1}"
        with pytest.raises(tp.model.FormatError, match=want):
            load_capture(path, tiny_model)

    def test_capture_tokens_read_as_an_int(self, tiny_model, tiny_corpus, tmp_path):
        # "12" is the true count, which int() would accept
        capture = capture_calibration(tiny_model, tiny_corpus, min_tokens=12)
        path = tmp_path / "cap.siev"
        save_capture(capture, tiny_model.config, path)
        edit_metadata(path, lambda meta: meta.update(tokens="12"))
        with pytest.raises(tp.model.FormatError, match="CaptureMeta.tokens: expected int, found str"):
            load_capture(path, tiny_model)

    def test_save_rejects_a_capture_missing_a_site(self, tiny_model, tiny_capture, tmp_path):
        last = sites(tiny_model.config)[-1]
        partial = dataclasses.replace(tiny_capture, inputs={
            site: x for site, x in tiny_capture.inputs.items() if site != last})
        with pytest.raises(KeyError):
            save_capture(partial, tiny_model.config, tmp_path / "cap.siev")
        assert os.listdir(tmp_path) == []


def assert_same_capture(capture, fresh) -> None:
    assert capture.tokens == fresh.tokens
    assert capture.model_fingerprint == fresh.model_fingerprint
    assert capture.corpus_fingerprint == fresh.corpus_fingerprint
    assert capture.inputs.keys() == fresh.inputs.keys()
    for site, want in fresh.inputs.items():
        got = capture.inputs[site]
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == want.tobytes(), site


def acceptance_inputs(fixture: str):
    """The model and corpus of the criterion-8 (GA) or criterion-9 (sweep)
    acceptance fixture, drawn as test_acceptance.py draws them."""
    if fixture == "ga":
        cfg = tp.TransformerConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32, max_seq_len=32)
        model, rng, size = tp.random_model(cfg, seed=3, spectral_decay=0.6), derive_rng(700), 4000
    else:
        cfg = tp.TransformerConfig(n_layers=4, d_model=32, n_heads=4, d_ff=64, max_seq_len=48)
        model, rng, size = tp.random_model(cfg, seed=1, spectral_decay=0.6), derive_rng(501), 6000
    letters = sorted(rng.choice(np.arange(1, 256), size=16, replace=False).tolist())
    return model, bytes(rng.choice(letters, size=size).tolist())


@pytest.mark.parametrize("fixture", ["ga", "sweep"])
def test_dense_outputs_are_the_layer_loops_products(fixture):
    # a capture stores x alone, and a site forms its outputs as W X over all
    # the columns at once: those are the bits of the products the layer loop
    # ran block by block over every whole sequence. The partial last
    # sequence ran padded to a whole one, and its products are those of the
    # same columns of the corpus's whole sequence; W X forms its last
    # columns in BLAS's remainder kernel, so those agree to rounding
    model, corpus = acceptance_inputs(fixture)
    step = model.config.max_seq_len
    size = len(corpus) - step // 2 - 3      # a partial last sequence of 13 or 21 tokens
    full = size - size % step
    width = max(1, calibrate.CAPTURE_BLOCK_TOKENS // step) * step
    capture = capture_calibration(model, corpus, min_tokens=size)
    whole = capture_calibration(model, corpus, min_tokens=full + step)
    for site, x in capture.inputs.items():
        w = model.site_weight(site)
        y = w @ x
        for lo in range(0, full, width):
            hi = min(lo + width, full)
            rows = np.ascontiguousarray(x[:, lo:hi].T).reshape(-1, step, x.shape[0])
            loop = _rows_product(rows, w).reshape(hi - lo, -1).T
            assert y[:, lo:hi].tobytes() == np.ascontiguousarray(loop).tobytes(), (site, lo)
        tail = _rows_product(np.ascontiguousarray(x[:, full:].T)[None], w)[0]
        seq = _rows_product(np.ascontiguousarray(whole.inputs[site][:, full:].T)[None], w)[0]
        assert tail.tobytes() == seq[:size - full].tobytes(), site
        assert tp.frobenius_rel_error(tail.T, y[:, full:]) <= 1e-15


class TestCaptureReuse:
    # the tiny corpus has 3000 tokens, 93 whole sequences of 32 and 24 more
    @pytest.mark.parametrize("sizes", [
        [640, 1280, 2560],              # ascending, whole sequences
        [2560, 1280, 640],              # descending
        [1280, 1280, 2560, 2560],       # repeated
        [1000, 2999, 17, 2999, 3000],   # tails, one shorter than a sequence
        [3000, 1000, 3000, 40],         # tails inside sequences already run
    ])
    def test_each_capture_equals_a_fresh_one(self, tiny_model, tiny_corpus, sizes):
        reuse: dict = {}
        for size in sizes:
            capture = capture_calibration(tiny_model, tiny_corpus, size, reuse=reuse)
            assert_same_capture(capture, capture_calibration(tiny_model, tiny_corpus, size))

    @pytest.mark.parametrize("sizes, rows", [
        ([640, 1280, 2560], 80),
        ([2560, 1280, 640], 80),
        # the 94 sequences of the 3000 tokens, the last padded, once each
        ([1000, 2999, 640, 3000], 94),
        ([3000, 1000, 3000, 40, 2976], 94),
    ])
    def test_only_sequences_not_yet_held_are_run(self, tiny_model, tiny_corpus, monkeypatch,
                                                  sizes, rows):
        seen = []
        real = calibrate._transformer

        def counting(model, ids, *args, **kwargs):
            seen.append(ids.shape[0])
            return real(model, ids, *args, **kwargs)

        monkeypatch.setattr(calibrate, "_transformer", counting)
        reuse: dict = {}
        for size in sizes:
            capture_calibration(tiny_model, tiny_corpus, size, reuse=reuse)
        assert sum(seen) == rows

    def test_a_capture_is_a_column_prefix_of_a_longer_one(self, tiny_model, tiny_corpus):
        # a short last sequence runs padded with STOP_BYTE, which causal
        # attention hides, so its columns have the bits of the corpus's whole
        # sequence; a reused buffer's columns are written once, so every
        # view it returned still holds them after the later calls
        longest = capture_calibration(tiny_model, tiny_corpus, 3000)
        reuse: dict = {}
        captures = []
        for size in (17, 1000, 2500, 2999):
            captures += [capture_calibration(tiny_model, tiny_corpus, size),
                         capture_calibration(tiny_model, tiny_corpus, size, reuse=reuse)]
        assert sorted(reuse) == ["held", "inputs", "key"]
        for capture in captures:
            for site, x in longest.inputs.items():
                want = x[:, :capture.tokens].tobytes()
                assert np.ascontiguousarray(capture.inputs[site]).tobytes() == want, site

    def test_another_model_or_corpus_starts_again(self, tiny_model, tiny_corpus):
        other = tp.random_model(tiny_model.config, seed=12)
        reuse: dict = {}
        capture_calibration(tiny_model, tiny_corpus, 2000, reuse=reuse)
        for model, corpus in [(other, tiny_corpus), (other, tiny_corpus[::-1])]:
            capture = capture_calibration(model, corpus, 1000, reuse=reuse)
            assert_same_capture(capture, capture_calibration(model, corpus, 1000))


BLAS_THREADS_BUILD = """
import pickle, sys
import numpy as np
import taskprune as tp
from taskprune.calibrate import FactorSet, build_cache, capture_calibration
from taskprune.linalg import derive_rng
cfg = tp.TransformerConfig(n_layers=4, d_model=32, n_heads=4, d_ff=64, max_seq_len=48)
model = tp.random_model(cfg, seed=1, spectral_decay=0.6)
rng = derive_rng(501)
letters = sorted(rng.choice(np.arange(1, 256), size=16, replace=False).tolist())
corpus = bytes(rng.choice(letters, size=12000).tolist())
capture = capture_calibration(model, corpus, min_tokens=12000)
cache = build_cache(model, capture, FactorSet((1.0, 0.5)), workers=1)
entries = {str(key): (fm.b.tobytes(), fm.c.tobytes(), fm.calib_error.hex())
           for key, fm in cache.entries.items() if fm is not None}
with open(sys.argv[1], "wb") as fh:
    pickle.dump(entries, fh)
"""


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

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="needs 2 usable CPUs for a 2-thread BLAS build")
    def test_entries_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the criterion-9 sweep model at 12,000 tokens, level 0.5 and the
        # default options, built at 1 and at 2 OpenBLAS threads; the thread
        # count is read when numpy loads, so each build is its own process
        entries = []
        for threads in (1, 2):
            out = tmp_path / f"entries_{threads}.pkl"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                       PYTHONPATH=os.path.dirname(os.path.dirname(tp.__file__)))
            subprocess.run([sys.executable, "-c", BLAS_THREADS_BUILD, str(out)],
                           env=env, check=True, timeout=300)
            entries.append(pickle.loads(out.read_bytes()))
        one, two = entries
        assert len(one) == 16 and one.keys() == two.keys()
        assert [key for key in one if one[key] != two[key]] == []

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

    def test_forward_capture_names_its_model(self, tiny_model):
        tokens = derive_rng(74).integers(1, 64, size=tiny_model.config.max_seq_len).tolist()
        _, cap = forward(tiny_model, tokens, taps=frozenset(sites(tiny_model.config)))
        ref = capture_calibration(tiny_model, tokens, min_tokens=len(tokens))
        assert (cap.model_fingerprint, cap.corpus_fingerprint) == (ref.model_fingerprint,
                                                                   ref.corpus_fingerprint)
        other = tp.random_model(tiny_model.config, seed=999)
        with pytest.raises(CacheMismatchError):
            build_cache(other, cap, FactorSet((1.0, 0.5)))

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


    def test_one_non_finite_step_flags_that_entry_alone(self, tiny_model, tiny_capture,
                                                        monkeypatch):
        fset = FactorSet((1.0, 0.5, 0.25))
        opts = FactorizeOptions(epochs=2, batch_tokens=500, learning_rate=0.003, seed=4)
        clean = build_cache(tiny_model, tiny_capture, fset, opts, workers=1)
        target = SiteId(0, SiteKind.FFN1)
        rank, _ = rank_for_factor(0.5, *site_dims(tiny_model.config, target))
        poisoned_fit, steps = [], []
        real = factorize.reconstruction_gradients

        def poisoned(b, c, w, x):
            grad_b, grad_c = real(b, c, w, x)
            # the first fit of this shape in build order is layer 0's, level 0.5
            if not poisoned_fit and b.shape == (tiny_model.config.d_ff, rank):
                poisoned_fit.append(b)
            if poisoned_fit and b is poisoned_fit[0]:
                steps.append(None)
                if len(steps) == 3:
                    grad_c[0, 0] = np.nan
            return grad_b, grad_c

        monkeypatch.setattr(factorize, "reconstruction_gradients", poisoned)
        cache = build_cache(tiny_model, tiny_capture, fset, opts, workers=1)
        assert cache.flagged == {(target, 1): "factorization diverged to a non-finite loss"}
        assert cache.entry(target, 1) is None
        for key, fm in clean.entries.items():
            if key != (target, 1):
                assert (fm is None) == (cache.entries[key] is None)
                if fm is not None:
                    assert np.array_equal(fm.b, cache.entries[key].b)
                    assert np.array_equal(fm.c, cache.entries[key].c)
        vec = PruningVector.uniform(fset, len(sites(tiny_model.config)), 1)
        pruned = assemble(tiny_model, vec, cache)
        assert set(pruned.adapters) == set(sites(tiny_model.config)) - {target}

    def test_equals_per_entry_factorizations(self, tiny_model, tiny_capture):
        opts = FactorizeOptions(epochs=2, batch_tokens=500, learning_rate=0.003, seed=5)
        fset = FactorSet((1.0, 0.75, 0.25, 0.05))
        cache = build_cache(tiny_model, tiny_capture, fset, opts, workers=1)
        for site in sites(tiny_model.config):
            w = tiny_model.site_weight(site)
            x = tiny_capture.inputs[site]
            d_in, d_out = site_dims(tiny_model.config, site)
            for fi in range(1, len(fset)):
                rank, _ = rank_for_factor(fset[fi], d_in, d_out)
                entry_opts = dataclasses.replace(opts, seed=_entry_seed(opts.seed, site, fi))
                alone = factorize_output_aligned(w, x, rank, entry_opts)
                built = cache.entry(site, fi)
                assert np.array_equal(built.b, alone.b)
                assert np.array_equal(built.c, alone.c)
                assert built.calib_error == alone.calib_error

    def test_closed_form_certifies_every_entry(self, tiny_model, tiny_capture, tiny_cache):
        # the closed form is the optimum at each rank, so no GD entry beats it;
        # a layer norm leaves X one empty direction at the qkv and ffn1 sites
        for site in sites(tiny_model.config):
            fit = OutputAlignedSite(tiny_model.site_weight(site), tiny_capture.inputs[site])
            d_in, _ = site_dims(tiny_model.config, site)
            fed_by_norm = site.kind in (SiteKind.QKV, SiteKind.FFN1)
            assert fit.x_root.size == (d_in - 1 if fed_by_norm else d_in)
            for fi in range(1, len(tiny_cache.factor_set)):
                entry = tiny_cache.entry(site, fi)
                assert fit.closed_form(entry.rank).calib_error <= entry.calib_error

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

    def test_full_rank_equivalent_site_is_representable(self, tiny_model, tiny_capture):
        from taskprune.calibrate import PrunedModel

        site = SiteId(0, SiteKind.OUT)
        w = tiny_model.site_weight(site)
        fm = OutputAlignedSite(w, tiny_capture.inputs[site]).closed_form(min(w.shape))
        pruned = PrunedModel(base=tiny_model, adapters={site: fm})
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
        assert compression_ratio(vec, tiny_model.config) == 0.0

    def test_uniform_half_within_rank_step(self, tiny_model):
        vec = PruningVector.uniform(DEFAULT_FACTOR_SET, 8, DEFAULT_FACTOR_SET.levels.index(0.5))
        cfg = tiny_model.config
        step = max((d_in + d_out) / (d_in * d_out)
                   for d_in, d_out in (site_dims(cfg, s) for s in sites(cfg)))
        assert abs(compression_ratio(vec, tiny_model.config) - 0.5) <= step

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
        assert retained == estimate_flops_per_token(cfg, vec.levels()) // 2
        assert compression_ratio(vec, tiny_model.config) == pytest.approx(1 - retained / dense)

    def test_monotone_cost(self, tiny_model):
        rng = derive_rng(62)
        cfg = tiny_model.config
        for _ in range(20):
            indices = [int(i) for i in rng.integers(0, 9, size=8)]
            base_vec = PruningVector(tuple(indices), DEFAULT_FACTOR_SET)
            site = int(rng.integers(0, 8))
            lowered = list(indices)
            lowered[site] += 1  # one step more aggressive
            low_vec = PruningVector(tuple(lowered), DEFAULT_FACTOR_SET)
            assert (estimate_flops_per_token(cfg, low_vec.levels())
                    <= estimate_flops_per_token(cfg, base_vec.levels()))


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

    def test_failed_serialisation_keeps_earlier_file(self, tiny_cache, tmp_path):
        path = tmp_path / "cache.siev"
        save_cache(tiny_cache, path)
        before = path.read_bytes()
        # the last payload cannot be stored as float64, so the save fails
        # after every earlier byte went into the file
        last = (sites(tiny_cache.config)[-1], len(tiny_cache.factor_set) - 1)
        fm = tiny_cache.entries[last]
        fm = dataclasses.replace(fm, c=np.full(fm.c.shape, "x"))
        broken = dataclasses.replace(tiny_cache, entries={**tiny_cache.entries, last: fm})
        with pytest.raises(ValueError, match="could not convert"):
            save_cache(broken, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["cache.siev"]

    @pytest.mark.parametrize("defect", ["b_cols", "c_rows", "rank"])
    def test_tensor_shapes_checked_against_site_dims(self, tiny_cache, tmp_path, defect):
        site = sites(tiny_cache.config)[0]
        d_in, d_out = site_dims(tiny_cache.config, site)
        fm = tiny_cache.entries[(site, 1)]
        if defect == "b_cols":
            fm = dataclasses.replace(fm, b=fm.b[:, :1])
        elif defect == "c_rows":
            fm = dataclasses.replace(fm, c=fm.c[:1])
        else:   # shapes agree with a rank no factorization can have
            r = min(d_in, d_out)
            fm = dataclasses.replace(fm, b=np.ones((d_out, r)), c=np.ones((r, d_in)), rank=r)
        broken = dataclasses.replace(tiny_cache, entries={**tiny_cache.entries, (site, 1): fm})
        save_cache(broken, tmp_path / "bad.siev")
        with pytest.raises(tp.model.FormatError):
            load_cache(tmp_path / "bad.siev")

    def test_wrong_kind_rejected(self, tiny_model, tmp_path):
        path = tmp_path / "model.siev"
        tp.save_model(tiny_model, path)
        with pytest.raises(tp.model.FormatError):
            load_cache(path)

    # each value is one that int() or truth would accept: "no" is true, and
    # the row chosen has rank 1, which int(True) equals
    @pytest.mark.parametrize("field, value, message", [
        ("flagged", "no", "CacheMeta.entries[7].flagged: expected bool, found str"),
        ("rank", True, "CacheMeta.entries[7].rank: expected int, found bool"),
    ])
    def test_manifest_values_read_by_their_declared_types(self, tiny_cache, tmp_path,
                                                          field, value, message):
        assert manifest_rows(tiny_cache)[7]["rank"] == 1
        path = tmp_path / "cache.siev"
        save_cache(tiny_cache, path)
        edit_metadata(path, lambda meta: meta["entries"][7].update({field: value}))
        with pytest.raises(tp.model.FormatError, match=re.escape(message)):
            load_cache(path)
