from __future__ import annotations

import io
import math

import numpy as np
import pytest

import taskprune as tp
from taskprune.calibrate import PruningVector, assemble
from taskprune.linalg import derive_rng, frobenius_rel_error
from taskprune.model import (
    LN_EPS,
    STOP_BYTE,
    FormatError,
    SiteId,
    SiteKind,
    _attention,
    detokenize,
    forward,
    greedy_decode_batch,
    layer_norm,
    model_to_bytes,
    site_dims,
    sites,
    tokenize,
)


# --- independent straight-line reimplementation (the forward-pass oracle) ---

def oracle_forward(model, tokens):
    cfg = model.config
    n = len(tokens)
    d = cfg.d_model
    x = np.zeros((n, d))
    for i, t in enumerate(tokens):
        for j in range(d):
            x[i, j] = model.embed[t, j] + model.pos_embed[i, j]

    def ln(row, gain, bias):
        mean = sum(row) / len(row)
        var = sum((v - mean) ** 2 for v in row) / len(row)
        return [(v - mean) / math.sqrt(var + LN_EPS) * g + b
                for v, g, b in zip(row, gain, bias)]

    def matvec(w, vec):
        return [sum(w[r, c] * vec[c] for c in range(len(vec))) for r in range(w.shape[0])]

    head_dim = cfg.head_dim
    for layer in model.layers:
        normed = [ln(x[i], layer.ln1_gain, layer.ln1_bias) for i in range(n)]
        qkv = [matvec(layer.w_qkv, normed[i]) for i in range(n)]
        heads_out = np.zeros((n, d))
        for h in range(cfg.n_heads):
            lo = h * head_dim
            for i in range(n):
                scores = []
                for j in range(i + 1):
                    s = sum(qkv[i][lo + a] * qkv[j][d + lo + a] for a in range(head_dim))
                    scores.append(s / math.sqrt(head_dim))
                mx = max(scores)
                exps = [math.exp(s - mx) for s in scores]
                tot = sum(exps)
                for a in range(head_dim):
                    heads_out[i, lo + a] = sum(
                        exps[j] / tot * qkv[j][2 * d + lo + a] for j in range(i + 1)
                    )
        for i in range(n):
            x[i] = x[i] + np.array(matvec(layer.w_out, heads_out[i]))
        normed2 = [ln(x[i], layer.ln2_gain, layer.ln2_bias) for i in range(n)]
        for i in range(n):
            z1 = matvec(layer.w_ffn1, normed2[i])
            act = [0.5 * (z + b) * (1.0 + math.erf((z + b) / math.sqrt(2.0)))
                   for z, b in zip(z1, layer.b_ffn1)]
            z2 = matvec(layer.w_ffn2, act)
            x[i] = x[i] + np.array(z2) + layer.b_ffn2
    logits = np.zeros((n, cfg.vocab_size))
    for i in range(n):
        final = ln(x[i], model.final_gain, model.final_bias)
        logits[i] = matvec(model.unembed, np.array(final))
    return logits


class TestForward:
    def test_no_taps_no_capture(self, tiny_model):
        logits, cap = forward(tiny_model, [1, 2, 3])
        assert cap is None
        assert logits.shape == (3, 256)

    def test_zero_update_layers_leave_residual_untouched(self):
        cfg = tp.TransformerConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16, max_seq_len=8)
        m = tp.random_model(cfg, seed=21)
        m.layers[0].w_out[:] = 0.0
        m.layers[0].w_ffn2[:] = 0.0
        m.layers[0].b_ffn2[:] = 0.0
        tokens = [7, 30, 99]
        logits, _ = forward(m, tokens)
        x = m.embed[tokens] + m.pos_embed[:3]
        expected = layer_norm(x, m.final_gain, m.final_bias) @ m.unembed.T
        np.testing.assert_allclose(logits, expected, rtol=0, atol=1e-12)

    def test_matches_straight_line_oracle(self):
        cfg = tp.TransformerConfig(n_layers=2, d_model=8, n_heads=2, d_ff=12, max_seq_len=8)
        m = tp.random_model(cfg, seed=22, scale=0.3)
        tokens = [3, 200, 45, 118, 9]
        logits, _ = forward(m, tokens)
        oracle = oracle_forward(m, tokens)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(logits - oracle)) / scale < 1e-9

    def test_invalid_tokens(self, tiny_model):
        with pytest.raises(ValueError):
            forward(tiny_model, [])
        with pytest.raises(ValueError):
            forward(tiny_model, [300])
        with pytest.raises(ValueError):
            forward(tiny_model, [1] * 100)

    def test_causality(self, tiny_model):
        rng = derive_rng(23)
        tokens = rng.integers(0, 256, size=10).tolist()
        base, _ = forward(tiny_model, tokens)
        for _ in range(5):
            j = int(rng.integers(1, 10))
            perturbed = list(tokens)
            perturbed[j] = int((perturbed[j] + 1 + rng.integers(0, 254)) % 256)
            out, _ = forward(tiny_model, perturbed)
            assert np.array_equal(out[:j], base[:j])

    def test_capture_fidelity(self, tiny_model):
        rng = derive_rng(24)
        tokens = rng.integers(0, 256, size=12).tolist()
        tap_set = frozenset(sites(tiny_model.config))
        _, cap = forward(tiny_model, tokens, taps=tap_set)
        assert set(cap.entries) == set(tap_set)
        for site, (x, y) in cap.entries.items():
            w = tiny_model.site_weight(site)
            assert x.shape[1] == len(tokens)
            assert frobenius_rel_error(y, w @ x) <= 1e-12


def attention(q, k, v):
    """The attention helper on one sequence and one head: q, k and v are
    packed as a (1, seq, 3*head_dim) block."""
    return _attention(np.concatenate([q, k, v], axis=1)[None], 1)[0]


class TestAttention:
    def test_single_position_returns_value(self):
        rng = derive_rng(25)
        q = rng.normal(size=(1, 4))
        k = rng.normal(size=(1, 4))
        v = rng.normal(size=(1, 4))
        np.testing.assert_allclose(attention(q, k, v), v, atol=1e-14)

    def test_identical_keys_give_prefix_mean(self):
        rng = derive_rng(26)
        q = rng.normal(size=(5, 4))
        k = np.tile(rng.normal(size=(1, 4)), (5, 1))
        v = rng.normal(size=(5, 4))
        out = attention(q, k, v)
        for i in range(5):
            np.testing.assert_allclose(out[i], v[: i + 1].mean(axis=0), atol=1e-12)

    def test_matches_naive_loop_oracle(self):
        rng = derive_rng(27)
        q = rng.normal(size=(4, 3))
        k = rng.normal(size=(4, 3))
        v = rng.normal(size=(4, 3))
        out = attention(q, k, v)
        for i in range(4):
            scores = [float(q[i] @ k[j]) / math.sqrt(3) for j in range(i + 1)]
            mx = max(scores)
            exps = [math.exp(s - mx) for s in scores]
            weights = [e / sum(exps) for e in exps]
            expected = sum(w * v[j] for j, w in enumerate(weights))
            np.testing.assert_allclose(out[i], expected, atol=1e-12)

    def test_softmax_rows_sum_to_one_over_prefix(self):
        rng = derive_rng(28)
        q = rng.normal(size=(6, 6))
        k = rng.normal(size=(6, 6))
        weights = attention(q, k, np.eye(6))
        sums = weights.sum(axis=1)
        np.testing.assert_allclose(sums, np.ones(6), atol=1e-12)
        # strictly causal: no weight above the diagonal
        assert np.all(np.triu(weights, k=1) == 0.0)

    def test_multi_head_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            tp.TransformerConfig(n_layers=1, d_model=6, n_heads=4, d_ff=8)

    def test_multi_head_matches_forward_block(self, tiny_model):
        # the heads of the tapped qkv output, projected by w_out, are what
        # forward feeds the residual stream in layer 0
        rng = derive_rng(29)
        tokens = rng.integers(0, 256, size=6).tolist()
        tap_set = frozenset({SiteId(0, SiteKind.QKV), SiteId(0, SiteKind.OUT)})
        _, cap = forward(tiny_model, tokens, taps=tap_set)
        qkv = cap.entries[SiteId(0, SiteKind.QKV)][1].T
        out = _attention(qkv[None], tiny_model.config.n_heads)[0] @ tiny_model.layers[0].w_out.T
        np.testing.assert_allclose(out, cap.entries[SiteId(0, SiteKind.OUT)][1].T, atol=1e-12)


class TestFfn:
    """The FFN block of a one-layer model whose attention adds nothing."""

    @staticmethod
    def model(seed):
        cfg = tp.TransformerConfig(n_layers=1, d_model=4, n_heads=1, d_ff=6, max_seq_len=8)
        m = tp.random_model(cfg, seed=seed, scale=0.5)
        m.layers[0].w_out[:] = 0.0
        m.layers[0].b_ffn1[:] = derive_rng(seed, 1).normal(size=6)
        m.layers[0].b_ffn2[:] = derive_rng(seed, 2).normal(size=4)
        return m

    @staticmethod
    def logits_after_residual_update(m, tokens, update):
        x = m.embed[tokens] + m.pos_embed[:len(tokens)] + update
        return layer_norm(x, m.final_gain, m.final_bias) @ m.unembed.T

    def test_zero_input_zero_bias_gives_b2(self):
        m = self.model(30)
        m.layers[0].ln2_gain[:] = 0.0
        m.layers[0].ln2_bias[:] = 0.0
        m.layers[0].b_ffn1[:] = 0.0
        tokens = [3, 40, 7]
        logits, cap = forward(m, tokens, taps={SiteId(0, SiteKind.FFN2)})
        assert np.all(cap.entries[SiteId(0, SiteKind.FFN2)][0] == 0.0)
        expected = self.logits_after_residual_update(m, tokens, m.layers[0].b_ffn2)
        np.testing.assert_allclose(logits, expected, atol=1e-12)

    def test_zero_w2_gives_b2(self):
        m = self.model(33)
        m.layers[0].w_ffn2[:] = 0.0
        tokens = [9, 1, 200, 5]
        logits, _ = forward(m, tokens)
        expected = self.logits_after_residual_update(m, tokens, m.layers[0].b_ffn2)
        np.testing.assert_allclose(logits, expected, atol=1e-12)

    def test_matches_scalar_loop_oracle(self):
        m = self.model(34)
        layer = m.layers[0]
        taps = {SiteId(0, SiteKind.FFN1), SiteId(0, SiteKind.FFN2)}
        _, cap = forward(m, [11, 22, 33], taps=taps)
        x = cap.entries[SiteId(0, SiteKind.FFN1)][0].T
        y = cap.entries[SiteId(0, SiteKind.FFN2)][1].T
        w1, b1, w2 = layer.w_ffn1, layer.b_ffn1, layer.w_ffn2
        for i in range(3):
            z = [sum(w1[r, c] * x[i, c] for c in range(4)) + b1[r] for r in range(6)]
            act = [0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in z]
            expected = [sum(w2[r, c] * act[c] for c in range(6)) for r in range(4)]
            np.testing.assert_allclose(y[i], expected, atol=1e-12)


def forward_decode(model, prompt, max_new):
    """Oracle for greedy decoding: one full forward pass per new token."""
    seq = list(prompt)
    out = []
    for _ in range(max_new):
        logits, _ = forward(model, seq)
        nxt = int(np.argmax(logits[-1]))
        if nxt == STOP_BYTE:
            break
        seq.append(nxt)
        out.append(nxt)
    return out


class TestGreedyDecode:
    def test_tie_breaks_toward_lower_id(self, tiny_config):
        m = tp.random_model(tiny_config, seed=35)
        m.unembed[9] = m.unembed[5]  # ids 5 and 9 now always tie
        m.unembed[np.arange(256) > 9] = 0.0
        m.unembed[np.arange(256) < 5] = 0.0
        assert greedy_decode_batch(m, [[1, 2]], 1) == [[5]]

    def test_stop_byte_halts(self, tiny_config):
        m = tp.random_model(tiny_config, seed=36)
        # freeze the final hidden state to all-ones, then make the stop byte
        # the only token with a positive logit
        m.final_gain[:] = 0.0
        m.final_bias[:] = 1.0
        m.unembed[:] = 0.0
        m.unembed[STOP_BYTE] = 1.0
        assert greedy_decode_batch(m, [[1, 2, 3]], 5) == [[]]

    def test_generates_up_to_max_new(self, tiny_model):
        [out] = greedy_decode_batch(tiny_model, [[10, 20]], 4)
        assert len(out) <= 4
        assert all(0 <= t < 256 for t in out)

    def test_context_overflow(self, tiny_model):
        max_len = tiny_model.config.max_seq_len
        with pytest.raises(ValueError, match="overflow"):
            greedy_decode_batch(tiny_model, [[1] * max_len], 1)

    def test_empty_prompt(self, tiny_model):
        with pytest.raises(ValueError):
            greedy_decode_batch(tiny_model, [[]], 3)

    def test_batch_matches_single(self, tiny_model):
        rng = derive_rng(37)
        prompts = [rng.integers(1, 256, size=int(rng.integers(3, 9))).tolist()
                   for _ in range(20)]
        batch = greedy_decode_batch(tiny_model, prompts, 4)
        single = [forward_decode(tiny_model, p, 4) for p in prompts]
        assert batch == single

    def test_pruned_batch_matches_forward_oracle(self, tiny_model, tiny_cache):
        # mixed levels; the dense level stays at three sites
        vec = PruningVector((0, 3, 5, 0, 2, 9, 0, 1), tiny_cache.factor_set)
        pruned = assemble(tiny_model, vec, tiny_cache)
        assert len(pruned.adapters) == 5
        rng = derive_rng(41)
        prompts = [rng.integers(1, 256, size=int(rng.integers(1, 20))).tolist()
                   for _ in range(20)]
        batch = greedy_decode_batch(pruned, prompts, 4)
        assert batch == [forward_decode(pruned, p, 4) for p in prompts]

    def test_batch_validates(self, tiny_model):
        with pytest.raises(ValueError):
            greedy_decode_batch(tiny_model, [[1, 2], []], 2)
        with pytest.raises(ValueError, match="overflow"):
            greedy_decode_batch(tiny_model, [[1, 2], [1] * tiny_model.config.max_seq_len], 1)
        with pytest.raises(ValueError, match="out of range"):
            greedy_decode_batch(tiny_model, [[1, 2], [3, 256]], 1)


class TestPersistence:
    def test_round_trip_bit_exact(self, tiny_model, tmp_path):
        path = tmp_path / "model.siev"
        tp.save_model(tiny_model, path)
        loaded = tp.load_model(path)
        assert model_to_bytes(loaded) == model_to_bytes(tiny_model)
        assert np.array_equal(loaded.embed, tiny_model.embed)
        assert np.array_equal(loaded.layers[1].w_ffn1, tiny_model.layers[1].w_ffn1)
        assert np.array_equal(loaded.layers[0].b_ffn2, tiny_model.layers[0].b_ffn2)
        assert loaded.config == tiny_model.config

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.siev"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError, match="magic"):
            tp.load_model(path)

    def test_version_mismatch(self, tiny_model, tmp_path):
        raw = bytearray(model_to_bytes(tiny_model))
        raw[4] = 9
        path = tmp_path / "v9.siev"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            tp.load_model(path)

    def test_truncated_payload(self, tiny_model, tmp_path):
        raw = model_to_bytes(tiny_model)
        path = tmp_path / "cut.siev"
        path.write_bytes(raw[:-16])
        with pytest.raises(FormatError, match="truncated"):
            tp.load_model(path)

    def test_trailing_garbage(self, tiny_model, tmp_path):
        path = tmp_path / "extra.siev"
        path.write_bytes(model_to_bytes(tiny_model) + b"x")
        with pytest.raises(FormatError, match="trailing"):
            tp.load_model(path)

    def test_fingerprint_stable(self, tiny_model):
        assert tp.model_fingerprint(tiny_model) == tp.model_fingerprint(tiny_model)
        other = tp.random_model(tiny_model.config, seed=12345)
        assert tp.model_fingerprint(other) != tp.model_fingerprint(tiny_model)


class TestAccounting:
    def test_sites_enumeration(self):
        cfg = tp.TransformerConfig(n_layers=3, d_model=8, n_heads=2, d_ff=16, max_seq_len=8)
        site_list = sites(cfg)
        assert len(site_list) == 12
        assert len(set(site_list)) == 12
        cfg80 = tp.TransformerConfig(n_layers=80, d_model=8, n_heads=2, d_ff=16, max_seq_len=8)
        assert len(sites(cfg80)) == 320

    def test_count_params_oracle(self, tiny_model):
        cfg = tiny_model.config
        d, f = cfg.d_model, cfg.d_ff
        per_layer_sites = 3 * d * d + d * d + f * d + d * f
        expected_sites = cfg.n_layers * per_layer_sites
        assert tp.count_params(tiny_model, sites_only=True) == expected_sites
        expected_total = (
            expected_sites
            + 256 * d + cfg.max_seq_len * d + 256 * d   # embed, pos, unembed
            + cfg.n_layers * (f + d)                    # ffn biases
            + cfg.n_layers * 4 * d + 2 * d              # norms
        )
        assert tp.count_params(tiny_model) == expected_total

    def test_flops_dense(self, tiny_model):
        cfg = tiny_model.config
        expected = sum(2 * din * dout
                       for din, dout in (site_dims(cfg, s) for s in sites(cfg)))
        assert tp.estimate_flops_per_token(tiny_model) == expected

    def test_flops_formula_example(self):
        # a square 8x8 site at retention 0.5 costs 2*2*16 = 64 vs dense 128
        cfg = tp.TransformerConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16, max_seq_len=8)
        m = tp.random_model(cfg, seed=38)
        dense = tp.estimate_flops_per_token(m)
        levels = [1.0, 0.5, 1.0, 1.0]  # only the out-projection (8x8) pruned
        pruned = tp.estimate_flops_per_token(m, levels)
        assert dense - pruned == 128 - 64

    def test_flops_summation_oracle(self, tiny_model):
        from taskprune.factorize import rank_for_factor
        rng = derive_rng(39)
        cfg = tiny_model.config
        levels = [float(rng.choice([1.0, 0.75, 0.5, 0.2, 0.05]))
                  for _ in sites(cfg)]
        expected = 0
        for site, level in zip(sites(cfg), levels):
            din, dout = site_dims(cfg, site)
            rank, _ = rank_for_factor(level, din, dout)
            expected += 2 * din * dout if rank is None else 2 * rank * (din + dout)
        assert tp.estimate_flops_per_token(tiny_model, levels) == expected

    def test_flops_accepts_pruning_vector(self, tiny_model):
        from taskprune.calibrate import DEFAULT_FACTOR_SET, PruningVector
        vec = PruningVector((0, 4, 7, 2, 0, 4, 9, 1), DEFAULT_FACTOR_SET)
        assert (tp.estimate_flops_per_token(tiny_model, vec)
                == tp.estimate_flops_per_token(tiny_model, vec.levels()))


def test_tokenize_round_trip():
    data = b"hello \x00 world"
    assert detokenize(tokenize(data)) == data
    assert tokenize("ab") == [97, 98]
