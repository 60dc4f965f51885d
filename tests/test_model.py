from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import taskprune as tp
import taskprune.model as model_module
from taskprune import calibrate, cli
from taskprune.calibrate import PruningVector, assemble, cache_to_bytes
from taskprune.cli import RunRecord
from taskprune.linalg import derive_rng
from taskprune.model import (
    LN_EPS,
    STOP_BYTE,
    FormatError,
    SiteId,
    SiteKind,
    _attention,
    _head,
    _site_product,
    _transformer,
    forward,
    gelu,
    greedy_decode_batch,
    layer_norm,
    model_to_bytes,
    read_container,
    read_fields,
    site_dims,
    sites,
    tokenize,
)
from taskprune.search import EvalRecord, TaskMode, TaskSpec


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

    def test_layer_norm_matches_two_pass_formula(self):
        rng = derive_rng(24)
        for shape in [(7, 3, 5), (64, 13, 16), (5, 48)]:
            x = rng.normal(rng.uniform(-3, 3), rng.uniform(0.01, 10), size=shape)
            gain, bias = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
            mean = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            reference = (x - mean) / np.sqrt(var + LN_EPS) * gain + bias
            assert np.array_equal(layer_norm(x, gain, bias), reference)

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
        assert cap.model is tiny_model
        assert set(cap.inputs) == set(tap_set)
        for site, x in cap.inputs.items():
            assert x.shape == (site_dims(tiny_model.config, site)[0], len(tokens))

    def test_products_depend_only_on_the_rows(self, tiny_model, tiny_cache):
        # numpy runs a stacked matmul as one product per batch row, whose bits
        # may differ from one product over all the rows
        fs = tiny_cache.factor_set
        pruned = assemble(tiny_model, PruningVector((3,) * 8, fs), tiny_cache)
        assert set(pruned.adapters) == set(sites(tiny_model.config))
        rng = derive_rng(25)
        for site in sites(tiny_model.config):
            rows = rng.normal(size=(832, site_dims(tiny_model.config, site)[0]))
            for adapters in ({}, pruned.adapters):
                split = _site_product(tiny_model, adapters, site, rows.reshape(64, 13, -1))
                whole = _site_product(tiny_model, adapters, site, rows.reshape(1, 832, -1))
                assert np.array_equal(split.reshape(832, -1), whole[0]), (site, bool(adapters))
        rows = rng.normal(size=(832, tiny_model.config.d_model))
        split = _head(tiny_model, rows.reshape(64, 13, -1))
        assert np.array_equal(split.reshape(832, -1), _head(tiny_model, rows.reshape(1, 832, -1))[0])


def attention(q, k, v):
    """The attention helper on one sequence and one head: q, k and v are
    packed as a (1, seq, 3*head_dim) block."""
    qkv = np.concatenate([q, k, v], axis=1)[None]
    return _attention(qkv, 1, qkv[..., q.shape[1]:])[0]


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

    def test_vocabulary_is_at_most_one_byte(self):
        assert tp.TransformerConfig(n_layers=1, d_model=4, n_heads=1, d_ff=8,
                                    vocab_size=256).vocab_size == 256
        for vocab in (257, 300):
            with pytest.raises(ValueError, match=f"vocab_size {vocab} exceeds 256"):
                tp.TransformerConfig(n_layers=1, d_model=4, n_heads=1, d_ff=8, vocab_size=vocab)

    def test_multi_head_matches_forward_block(self, tiny_model):
        # the heads of the tapped qkv output, projected by w_out, are what
        # forward feeds the residual stream in layer 0
        rng = derive_rng(29)
        tokens = rng.integers(0, 256, size=6).tolist()
        tap_set = frozenset({SiteId(0, SiteKind.QKV), SiteId(0, SiteKind.OUT)})
        _, cap = forward(tiny_model, tokens, taps=tap_set)
        qkv = (tiny_model.layers[0].w_qkv @ cap.inputs[SiteId(0, SiteKind.QKV)]).T
        d = tiny_model.config.d_model
        out = _attention(qkv[None], tiny_model.config.n_heads, qkv[None, :, d:])[0]
        out = out @ tiny_model.layers[0].w_out.T
        want = (tiny_model.layers[0].w_out @ cap.inputs[SiteId(0, SiteKind.OUT)]).T
        np.testing.assert_allclose(out, want, atol=1e-12)


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
        assert np.all(cap.inputs[SiteId(0, SiteKind.FFN2)] == 0.0)
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
        x = cap.inputs[SiteId(0, SiteKind.FFN1)].T
        y = (layer.w_ffn2 @ cap.inputs[SiteId(0, SiteKind.FFN2)]).T
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

    @pytest.mark.parametrize("pruned", [False, True])
    def test_full_context_matches_forward_oracle(self, tiny_model, tiny_cache, pruned):
        # mixed prompt lengths in one call, the longest filling the context
        # with its max_new tokens, so the decode reaches the last offset
        model = tiny_model
        if pruned:
            model = assemble(tiny_model, PruningVector((2, 0, 4, 1, 0, 3, 9, 5),
                                                       tiny_cache.factor_set), tiny_cache)
        max_new = 4
        longest = tiny_model.config.max_seq_len - max_new
        rng = derive_rng(42)
        prompts = [rng.integers(1, 256, size=n).tolist() for n in (longest, 1, longest, 17, 5)]
        batch = greedy_decode_batch(model, prompts, max_new)
        assert batch == [forward_decode(model, p, max_new) for p in prompts]

    def test_incremental_pass_matches_full_pass(self, tiny_model):
        # the prompt block, then one row per step, through the K/V cache
        rng = derive_rng(43)
        max_len = tiny_model.config.max_seq_len
        ids = rng.integers(0, 256, size=(3, max_len))
        full = _head(tiny_model, _transformer(tiny_model, ids)[0])
        cache: list = []
        steps = [_transformer(tiny_model, ids[:, :9], cache=cache)[0]]
        steps += [_transformer(tiny_model, ids[:, t:t + 1], cache=cache)[0]
                  for t in range(9, max_len)]
        incremental = _head(tiny_model, np.concatenate(steps, axis=1))
        np.testing.assert_allclose(incremental, full, rtol=0, atol=1e-12)
        d = tiny_model.config.d_model
        assert [kv.shape for kv in cache] == [(3, max_len, 2 * d)] * tiny_model.config.n_layers

    def test_batch_validates(self, tiny_model):
        with pytest.raises(ValueError):
            greedy_decode_batch(tiny_model, [[1, 2], []], 2)
        with pytest.raises(ValueError, match="overflow"):
            greedy_decode_batch(tiny_model, [[1, 2], [1] * tiny_model.config.max_seq_len], 1)
        with pytest.raises(ValueError, match="out of range"):
            greedy_decode_batch(tiny_model, [[1, 2], [3, 256]], 1)


def full_decode(model, prompt, max_new):
    """max_new greedy tokens, decoding on through STOP_BYTE."""
    seq = list(prompt)
    for _ in range(max_new):
        logits, _ = forward(model, seq)
        seq.append(int(np.argmax(logits[-1])))
    return seq[len(prompt):]


def verified_row(full, expected):
    """The spec of verify mode: the full decode up to its first STOP_BYTE
    (excluded) or its first token off `expected` (included)."""
    for j, t in enumerate(full):
        if t == STOP_BYTE:
            return full[:j]
        if j >= len(expected) or t != expected[j]:
            return full[:j + 1]
    return full


def layer_loop_reference(model, ids):
    """The batched layer loop written out layer by layer, in the same numpy
    operations and order, so its bits are the full pass's."""
    base = getattr(model, "base", model)
    adapters = getattr(model, "adapters", {})

    def product(li, kind, x):
        fm = adapters.get(SiteId(li, kind))
        rows = x.reshape(-1, x.shape[-1])
        for w in [base.site_weight(SiteId(li, kind))] if fm is None else [fm.c, fm.b]:
            rows = rows @ np.ascontiguousarray(w.T)
        return rows.reshape(*x.shape[:-1], -1)

    x = base.embed[ids] + base.pos_embed[:ids.shape[1]]
    for li, layer in enumerate(base.layers):
        h = layer_norm(x, layer.ln1_gain, layer.ln1_bias)
        qkv = product(li, SiteKind.QKV, h)
        heads = _attention(qkv, base.config.n_heads, qkv[..., base.config.d_model:])
        x = x + product(li, SiteKind.OUT, heads)
        h2 = layer_norm(x, layer.ln2_gain, layer.ln2_bias)
        act = gelu(product(li, SiteKind.FFN1, h2) + layer.b_ffn1)
        x = x + product(li, SiteKind.FFN2, act) + layer.b_ffn2
    return x


class TestVerifyMode:
    # one reuse dict for every example of every test that takes it: a call
    # must give a fresh call's rows whatever the calls before it laid out
    shared_reuse: dict = {}

    @pytest.mark.parametrize("pruned", [False, True])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_full_decode(self, tiny_model, tiny_cache, pruned, data):
        model = tiny_model
        if pruned:
            model = assemble(tiny_model, PruningVector((0, 3, 5, 0, 2, 9, 0, 1),
                                                       tiny_cache.factor_set), tiny_cache)
        max_len = tiny_model.config.max_seq_len
        max_new = data.draw(st.integers(1, 5), label="max_new")
        lengths = data.draw(st.lists(st.sampled_from([1, 4, max_len - max_new]),
                                     min_size=1, max_size=5), label="lengths")
        prompts = [data.draw(st.lists(st.integers(0, 255), min_size=n, max_size=n))
                   for n in lengths]
        decoded = greedy_decode_batch(model, prompts, max_new)
        emitted = sorted({t for row in decoded for t in row})
        if emitted and data.draw(st.booleans(), label="stop_tie"):
            # STOP_BYTE ties with a token the model emits and wins the tie,
            # so that rows stop early
            base = getattr(model, "base", model)
            unembed = base.unembed.copy()
            unembed[STOP_BYTE] = unembed[data.draw(st.sampled_from(emitted), label="tied")]
            stopping = dataclasses.replace(base, unembed=unembed)
            model = dataclasses.replace(model, base=stopping) if pruned else stopping
            decoded = greedy_decode_batch(model, prompts, max_new)
        fulls = [full_decode(model, p, max_new) for p in prompts]
        expected = []
        for true, full in zip(decoded, fulls):
            kind = data.draw(st.sampled_from(
                ["true", "changed", "truncated", "empty", "full", "stop", "outside"]))
            e = list(true)
            if kind == "changed" and e:
                j = data.draw(st.integers(0, len(e) - 1))
                e[j] = data.draw(st.integers(1, 255).filter(lambda t: t != true[j]))
            elif kind == "truncated":
                e = e[:data.draw(st.integers(0, len(e)))]
            elif kind == "empty":
                e = []
            elif kind == "full":        # max_new tokens, on through any STOP_BYTE
                e = list(full)
            elif kind in ("stop", "outside"):
                t = STOP_BYTE if kind == "stop" else data.draw(st.sampled_from([-1, 256, 999]))
                e.insert(data.draw(st.integers(0, len(e))), t)
            expected.append(e)

        rows = greedy_decode_batch(model, prompts, max_new, expected=expected)
        assert greedy_decode_batch(model, prompts, max_new, expected=expected,
                                   reuse=self.shared_reuse) == rows
        for true, full, e, row in zip(decoded, fulls, expected, rows):
            assert (row == e) == (true == e)
            assert row == verified_row(full, e)

    def test_shared_reuse_gives_fresh_rows_for_other_prompts(self, tiny_model, tiny_cache):
        pruned = assemble(tiny_model, PruningVector((0, 3, 5, 0, 2, 9, 0, 1),
                                                    tiny_cache.factor_set), tiny_cache)
        rng = derive_rng(50)
        # two prompt sets of the same length (one block each), then the first again
        first, second = (rng.integers(1, 256, size=(4, 6)).tolist() for _ in range(2))
        for max_new in (1, 3):
            cases = []
            for prompts in (first, second):
                true = greedy_decode_batch(pruned, prompts, max_new)
                cases.append((prompts, [true[0], true[1][:-1] + [STOP_BYTE], [256, 7], []]))
            for prompts, expected in (cases[0], cases[1], cases[0]):
                for model in (pruned, pruned, tiny_model):
                    fresh = greedy_decode_batch(model, prompts, max_new, expected=expected)
                    assert fresh == [verified_row(full_decode(model, p, max_new), e)
                                     for p, e in zip(prompts, expected)]
                    assert greedy_decode_batch(model, prompts, max_new, expected=expected,
                                               reuse=self.shared_reuse) == fresh

    @pytest.mark.parametrize("max_new", [1, 4])
    def test_full_context_and_single_token(self, tiny_model, max_new):
        max_len = tiny_model.config.max_seq_len
        rng = derive_rng(44)
        prompts = [rng.integers(1, 256, size=n).tolist() for n in (max_len - max_new, 3)]
        decoded = greedy_decode_batch(tiny_model, prompts, max_new)
        wrong = [[t % 255 + 1 for t in d] for d in decoded]
        assert greedy_decode_batch(tiny_model, prompts, max_new, expected=decoded) == decoded
        rows = greedy_decode_batch(tiny_model, prompts, max_new, expected=wrong)
        assert rows == [verified_row(full_decode(tiny_model, p, max_new), w)
                        for p, w in zip(prompts, wrong)]
        assert all(len(row) == min(1, len(d)) for row, d in zip(rows, decoded))

    def test_expected_outside_the_vocabulary_never_matches(self, tiny_model):
        prompts = [[5, 6, 7], [8, 9, 10]]
        decoded = greedy_decode_batch(tiny_model, prompts, 4)
        expected = [[256, -1], decoded[1][:1] + [999]]
        rows = greedy_decode_batch(tiny_model, prompts, 4, expected=expected)
        assert rows == [verified_row(full_decode(tiny_model, p, 4), e)
                        for p, e in zip(prompts, expected)]

    def test_resumed_pass_equals_full_pass(self, tiny_cache, tiny_model):
        cfg = tp.TransformerConfig(n_layers=4, d_model=16, n_heads=2, d_ff=32, max_seq_len=32)
        pruned = assemble(tiny_model, PruningVector((2, 0, 4, 1, 0, 3, 9, 5),
                                                    tiny_cache.factor_set), tiny_cache)
        ids = derive_rng(45).integers(0, 256, size=(3, 20))
        for model in (tp.random_model(cfg, seed=12, spectral_decay=0.7), pruned):
            n_sites = 4 * model.config.n_layers
            outputs: list = []
            full, _ = _transformer(model, ids, outputs=outputs)
            assert len(outputs) == n_sites and outputs[-1] is full
            for k in range(1, n_sites):
                resumed = outputs[:k]
                x, _ = _transformer(model, ids, outputs=resumed)
                assert np.array_equal(x, full)
                assert len(resumed) == n_sites

    def test_read_from_keeps_the_read_rows(self, tiny_model, tiny_cache):
        pruned = assemble(tiny_model, PruningVector((0, 3, 5, 0, 2, 9, 0, 1),
                                                    tiny_cache.factor_set), tiny_cache)
        one_layer = dataclasses.replace(
            tiny_model, config=dataclasses.replace(tiny_model.config, n_layers=1),
            layers=tiny_model.layers[:1])
        pruned_one_layer = SimpleNamespace(
            base=one_layer, adapters={s: fm for s, fm in pruned.adapters.items() if s.layer == 0})
        rng = derive_rng(47)
        max_len = tiny_model.config.max_seq_len
        blocks = [(rng.integers(0, 256, size=(3, 20)), (1, 7, 19)),
                  (rng.integers(0, 256, size=(1, 5)), (4,)),
                  (rng.integers(0, 256, size=(4, max_len)), (1, max_len - 4, max_len - 1))]
        for model in (tiny_model, pruned, one_layer, pruned_one_layer):
            for ids, starts in blocks:
                full, _ = _transformer(model, ids)
                assert np.array_equal(full, layer_loop_reference(model, ids))
                assert np.array_equal(_transformer(model, ids, read_from=0)[0], full)
                for r in starts:
                    rows, _ = _transformer(model, ids, read_from=r)
                    assert rows.shape == full[:, r:].shape
                    rel = (np.linalg.norm(rows - full[:, r:], axis=-1)
                           / np.linalg.norm(full[:, r:], axis=-1))
                    assert rel.max() <= 1e-12
                    base = getattr(model, "base", model)
                    assert np.array_equal(np.argmax(_head(base, rows), axis=-1),
                                          np.argmax(_head(base, full[:, r:]), axis=-1))

    def test_reuse_resumes_after_the_shared_layers(self, tiny_model, tiny_cache, monkeypatch):
        prompts = derive_rng(46).integers(1, 256, size=(6, 8)).tolist()
        targets = greedy_decode_batch(tiny_model, prompts, 3)
        fs = tiny_cache.factor_set
        vectors = [(0, 3, 5, 0, 2, 9, 0, 1), (0, 3, 5, 0, 4, 4, 4, 4),
                   (0, 3, 5, 1, 4, 4, 4, 4), (0, 3, 5, 1, 4, 4, 4, 4)]
        calls = [0]
        real_site_product = model_module._site_product

        def counting_site_product(*args):
            calls[0] += 1
            return real_site_product(*args)

        monkeypatch.setattr(model_module, "_site_product", counting_site_product)
        reuse: dict = {}
        runs = []
        for genes in vectors:
            pruned = assemble(tiny_model, PruningVector(genes, fs), tiny_cache)
            plain = greedy_decode_batch(pruned, prompts, 3, expected=targets)
            before = calls[0]
            assert greedy_decode_batch(pruned, prompts, 3, expected=targets, reuse=reuse) == plain
            runs.append(calls[0] - before)
        # one product per site run, of the 8 sites in gene order. The first
        # vector runs all 8; the second shares genes 0-3 and runs sites 4-7;
        # the third shares genes 0-2 and runs sites 3-7. Only the states after
        # the sites before the last are kept, so the repeat still runs site 7.
        assert runs == [8, 4, 5, 1]


class TestFreeDecode:
    def test_reuse_is_neither_read_nor_written_without_expected(self, tiny_model):
        # the K/V steps of a free decode need every site's k|v rows, which a
        # resumed pass would not compute
        class Untouchable(dict):
            def __contains__(self, key):
                raise AssertionError("reuse was read")

            __getitem__ = __contains__

            def __setitem__(self, key, value):
                raise AssertionError("reuse was written")

        rng = derive_rng(48)
        prompts = [rng.integers(1, 256, size=n).tolist() for n in (6, 6, 6, 3)]
        plain = greedy_decode_batch(tiny_model, prompts, 3)
        reuse = Untouchable()
        assert greedy_decode_batch(tiny_model, prompts, 3, reuse=reuse) == plain
        assert greedy_decode_batch(tiny_model, prompts, 1, reuse=reuse) == [
            row[:1] for row in plain]
        assert reuse == {}

    def test_first_pass_sends_only_the_last_prompt_row_through_the_last_ffn1(
            self, tiny_model, monkeypatch):
        last_ffn1 = SiteId(tiny_model.config.n_layers - 1, SiteKind.FFN1)
        shapes = []
        real_site_product = model_module._site_product

        def recording_site_product(base, adapters, site, x):
            if site == last_ffn1:
                shapes.append(x.shape)
            return real_site_product(base, adapters, site, x)

        monkeypatch.setattr(model_module, "_site_product", recording_site_product)
        rng = derive_rng(49)
        prompts = [rng.integers(1, 256, size=n).tolist() for n in (7, 7, 7, 2)]
        decoded = greedy_decode_batch(tiny_model, prompts, 4)
        d = tiny_model.config.d_model
        # per block of equal-length prompts: the prompt pass, then 3 steps
        assert shapes == [(3, 1, d)] * 4 + [(1, 1, d)] * 4
        monkeypatch.undo()
        assert decoded == [forward_decode(tiny_model, p, 4) for p in prompts]


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

    def test_manifest_of_one_layer(self):
        cfg = tp.TransformerConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16,
                                   vocab_size=32, max_seq_len=12)
        _, meta, _ = read_container(io.BytesIO(model_to_bytes(tp.random_model(cfg, seed=0))))
        assert [(t["name"], t["rows"], t["cols"]) for t in meta["tensors"]] == [
            ("embed", 32, 8),
            ("pos_embed", 12, 8),
            ("layer0.w_qkv", 24, 8),
            ("layer0.w_out", 8, 8),
            ("layer0.w_ffn1", 16, 8),
            ("layer0.b_ffn1", 1, 16),
            ("layer0.w_ffn2", 8, 16),
            ("layer0.b_ffn2", 1, 8),
            ("layer0.ln1_gain", 1, 8),
            ("layer0.ln1_bias", 1, 8),
            ("layer0.ln2_gain", 1, 8),
            ("layer0.ln2_bias", 1, 8),
            ("final_gain", 1, 8),
            ("final_bias", 1, 8),
            ("unembed", 32, 8),
        ]

    def test_fingerprint_stable(self, tiny_model):
        assert tp.model_fingerprint(tiny_model) == tp.model_fingerprint(tiny_model)
        other = tp.random_model(tiny_model.config, seed=12345)
        assert tp.model_fingerprint(other) != tp.model_fingerprint(tiny_model)


def _rewrite_meta(raw: bytes, edit) -> bytes:
    """The container `raw` with its metadata passed through `edit`; the
    payload bytes are kept as they are."""
    meta_len = struct.unpack("<Q", raw[8:16])[0]
    meta = json.loads(raw[16:16 + meta_len])
    edit(meta)
    meta_bytes = json.dumps(meta).encode()
    return raw[:8] + struct.pack("<Q", len(meta_bytes)) + meta_bytes + raw[16 + meta_len:]


class Container:
    """A real container's bytes and its loader, which reads from a path."""

    def __init__(self, raw: bytes, loader, path):
        self.raw, self.loader, self.path = raw, loader, path

    def __repr__(self) -> str:
        return f"Container({self.path.name})"

    def load(self, raw: bytes):
        self.path.write_bytes(raw)
        return self.loader(self.path)


@pytest.fixture(scope="module")
def containers(tiny_model, tiny_cache, tmp_path_factory):
    root = tmp_path_factory.mktemp("siev")
    return {
        "model": Container(model_to_bytes(tiny_model), tp.load_model, root / "model.siev"),
        "cache": Container(cache_to_bytes(tiny_cache), tp.load_cache, root / "cache.siev"),
    }


KINDS = st.sampled_from(["model", "cache"])
BAD_DIM = st.one_of(
    st.integers(max_value=-1),
    st.integers(min_value=2**40),
    st.floats(),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
)
SMALL_DIM = st.integers(0, 8)


class TestContainerFuzz:
    @settings(max_examples=60, deadline=None)
    @given(kind=KINDS, data=st.data())
    def test_every_truncation_raises(self, containers, kind, data):
        raw = containers[kind].raw
        cut = data.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(FormatError):
            containers[kind].load(raw[:cut])

    @settings(max_examples=150, deadline=None)
    @given(kind=KINDS, data=st.data())
    def test_header_or_metadata_mutation_loads_or_raises_format_error(self, containers, kind, data):
        raw = bytearray(containers[kind].raw)
        meta_end = 16 + struct.unpack("<Q", raw[8:16])[0]
        for _ in range(data.draw(st.integers(1, 3))):
            raw[data.draw(st.integers(0, meta_end - 1))] = data.draw(st.integers(0, 255))
        try:
            containers[kind].load(bytes(raw))
        except FormatError:
            pass

    @settings(max_examples=80, deadline=None)
    @given(kind=KINDS, index=st.integers(0, 5),
           dims=st.one_of(st.tuples(BAD_DIM, SMALL_DIM), st.tuples(SMALL_DIM, BAD_DIM),
                          st.tuples(BAD_DIM, BAD_DIM)))
    @example(kind="model", index=0, dims=(-1, -1))
    @example(kind="model", index=0, dims=(-1, 8))
    @example(kind="model", index=0, dims=(2**40, 1))
    def test_malformed_dims_raise_format_error(self, containers, kind, index, dims):
        def edit(meta):
            meta["tensors"][index].update(rows=dims[0], cols=dims[1])

        raw = _rewrite_meta(containers[kind].raw, edit)
        with pytest.raises(FormatError):
            read_container(io.BytesIO(raw))
        with pytest.raises(FormatError):
            containers[kind].load(raw)

    @pytest.mark.parametrize("name", [7, None, ["embed"]])
    def test_non_string_name_raises_format_error(self, tiny_model, name):
        def edit(meta):
            meta["tensors"][1]["name"] = name

        with pytest.raises(FormatError, match="malformed"):
            read_container(io.BytesIO(_rewrite_meta(model_to_bytes(tiny_model), edit)))

    def test_non_finite_payload_raises_format_error(self, tiny_model):
        raw = model_to_bytes(tiny_model)[:-8] + struct.pack("<d", math.nan)
        with pytest.raises(FormatError, match="non-finite"):
            read_container(io.BytesIO(raw))


@pytest.mark.parametrize("kind", ["model", "capture", "cache"])
def test_a_million_claimed_layers_are_rejected_before_any_per_layer_work(
        tiny_model, tiny_capture, tiny_cache, tmp_path, monkeypatch, kind):
    claimed = 10**6
    path = tmp_path / f"{kind}.siev"
    {"model": lambda: tp.save_model(tiny_model, path),
     "cache": lambda: tp.save_cache(tiny_cache, path),
     "capture": lambda: tp.save_capture(tiny_capture, path)}[kind]()
    path.write_bytes(_rewrite_meta(path.read_bytes(),
                                   lambda meta: meta["config"].update(n_layers=claimed)))

    def refuse(real):
        def stand_in(config):
            if config.n_layers == claimed:
                raise AssertionError(f"{real.__name__} ran on the claimed config")
            return real(config)
        return stand_in

    real_sites, real_shapes = sites, model_module.model_shapes
    for module in (model_module, calibrate):
        monkeypatch.setattr(module, "sites", refuse(real_sites))
        monkeypatch.setattr(module, "model_shapes", refuse(real_shapes))
    loader = {"model": tp.load_model, "cache": tp.load_cache,
              "capture": lambda p: tp.load_capture(p, tiny_model)}[kind]
    with pytest.raises(FormatError):
        loader(path)


@pytest.fixture(scope="module")
def text_inputs(tiny_model, tiny_cache, tiny_task, tmp_path_factory):
    """A model, cache and task file, an up and a GA run directory made from
    them, each text artifact's JSON and each run's history lines."""
    root = tmp_path_factory.mktemp("text")
    tp.save_model(tiny_model, root / "model.siev")
    tp.save_cache(tiny_cache, root / "cache.siev")
    tp.save_task(dataclasses.replace(tiny_task, prompts=tiny_task.prompts[:6]), root / "task.json")
    inputs = ["--model", root / "model.siev", "--cache", root / "cache.siev",
              "--task", root / "task.json", "--max-generations", 1]
    for mode in ("up", "ga"):
        argv = ["search", "--mode", mode, *inputs, "--out", root / mode]
        assert cli.main([str(a) for a in argv]) in (0, 2)
    histories = {mode: (root / mode / "history.jsonl").read_text().splitlines()
                 for mode in ("up", "ga")}
    docs = {"task": json.loads((root / "task.json").read_text()),
            "best": json.loads((root / "ga" / "best.json").read_text()),
            "run_up": json.loads((root / "up" / "run.json").read_text()),
            "run_ga": json.loads((root / "ga" / "run.json").read_text()),
            "history": json.loads(histories["ga"][0])}
    return root, docs, histories


def _read_back(text_inputs, artifact: str, doc) -> tuple[int, str]:
    """Write `doc` as the artifact (for "history", as the first line of the
    GA run's history) and run the command that reads it in process: its
    exit code and what it printed to stderr."""
    root, docs, histories = text_inputs
    fuzz = root / "fuzz"
    shutil.rmtree(fuzz, ignore_errors=True)
    fuzz.mkdir()
    task = fuzz / "task.json" if artifact == "task" else root / "task.json"
    argv = ["eval", "--model", root / "model.siev", "--task", task]
    if artifact == "best":
        argv += ["--pruning", fuzz / "best.json", "--cache", root / "cache.siev"]
    if artifact in ("run_up", "run_ga", "history"):
        lines = histories["up" if artifact == "run_up" else "ga"]
        if artifact == "history":
            lines, doc = [json.dumps(doc), *lines[1:]], docs["run_ga"]
        (fuzz / "history.jsonl").write_text("".join(line + "\n" for line in lines))
        argv = ["report", "--run", fuzz, "--out", fuzz / "report"]
    name = {"task": "task.json", "best": "best.json"}.get(artifact, "run.json")
    (fuzz / name).write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


# each text artifact's top-level fields
TEXT_FIELDS = {
    "task": ["schema", *(f.name for f in dataclasses.fields(TaskSpec))],
    "best": ["schema", *(f.name for f in dataclasses.fields(PruningVector))],
    "run_up": ["schema", *(f.name for f in dataclasses.fields(RunRecord))],
    "run_ga": ["schema", *(f.name for f in dataclasses.fields(RunRecord))],
    "history": [f.name for f in dataclasses.fields(EvalRecord)],
}
# (artifact, field replaced); a None field replaces the whole document with a list
TEXT_TARGETS = [(artifact, name) for artifact, names in TEXT_FIELDS.items()
                for name in (None, *names)]
# small numbers, so that no value asks for a huge allocation
SMALL_JSON = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.floats(-2.0, 2.0), st.text(max_size=4),
    st.lists(st.integers(-3, 40), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 40), max_size=2),
)
# malformed inputs that once ended in a traceback, were read as something
# else or were rejected without naming the field, and the message that must
# name the offending field
TEXT_PROBES = [
    (("task", "prompts"), 5, "TaskSpec.prompts: expected a list, found int"),
    (("task", "prompts"), [5], "TaskSpec.prompts[0]: expected bytes, found int"),
    (("task", "max_new_tokens"), None, "TaskSpec.max_new_tokens: expected int, found null"),
    (("task", "max_new_tokens"), True, "TaskSpec.max_new_tokens: expected int, found bool"),
    (("task", "epsilon"), "x", "TaskSpec.epsilon: expected float, found str"),
    (("task", "mode"), "bogus", "TaskSpec.mode: 'bogus' is not a valid TaskMode"),
    (("task", None), None, "expected schema 'taskprune-task-v1', found None"),
    (("history", "genes"), 5, "EvalRecord.genes: expected a list, found int"),
    (("history", "genes"), [None] + [0] * 7, "EvalRecord.genes[0]: expected int, found null"),
    (("history", None), None, "EvalRecord: expected an object, found list"),
    (("run_ga", "best_indices"), None, "RunRecord.best_indices: expected a list, found null"),
    (("run_ga", "config"), 3, "RunRecord.config: expected an object, found int"),
    (("run_ga", "feasible"), "no", "RunRecord.feasible: expected bool, found str"),
    (("run_ga", "a_star"), None, "RunRecord.a_star: expected float, found null"),
    (("run_ga", "history"), 5, "RunRecord.history: expected str, found int"),
    (("best", "indices"), 5, "PruningVector.indices: expected a list, found int"),
    (("best", "factor_set"), None, "PruningVector.factor_set.levels: expected a list, found null"),
]


def _with_probes(test):
    for target, value, _ in TEXT_PROBES:
        test = example(target=target, value=value)(test)
    return test


class TestTextFuzz:
    @settings(max_examples=150, deadline=None)
    @_with_probes
    # a vector shorter than the config's site list once divided by zero in `report`
    @example(target=("run_ga", "best_indices"), value=[0])
    @given(target=st.sampled_from(TEXT_TARGETS), value=SMALL_JSON)
    def test_a_malformed_field_exits_0_or_3(self, text_inputs, target, value):
        artifact, name = target
        doc = text_inputs[1][artifact]
        code, err = _read_back(text_inputs, artifact,
                               [doc] if name is None else {**doc, name: value})
        # compared as JSON, where True is not 1
        probe = [message for t, v, message in TEXT_PROBES
                 if t == target and json.dumps(v) == json.dumps(value)]
        if probe:
            assert code == 3 and probe[0] in err, err
        else:
            assert code in (0, 3), err

    @pytest.mark.parametrize("artifact", sorted(TEXT_FIELDS))
    def test_each_artifact_reads_back_as_written(self, text_inputs, artifact):
        code, err = _read_back(text_inputs, artifact, text_inputs[1][artifact])
        assert code == 0, err


class TestReadFields:
    def test_each_artifact_round_trips(self, tiny_task, tiny_cache):
        up = RunRecord(mode="up", epsilon=0.1, a_star=1.0, a0=0.9, accuracy=0.95,
                       best_indices=(2,) * 8, factor_set=tiny_cache.factor_set, feasible=True,
                       config=tiny_cache.config, model_fingerprint="ab", calib_fingerprint="cd",
                       history="history.jsonl", evaluations=4, warning=None)
        ga = dataclasses.replace(up, mode="ga", evaluations=None, generations=3, seed=7)
        assert "seed" not in up.to_dict() and "warning" not in ga.to_dict()
        exact = dataclasses.replace(tiny_task, mode=TaskMode.EXACT_MATCH,
                                    expected=[b"\xff\x00", b"ab", *tiny_task.prompts[2:]],
                                    max_new_tokens=8)
        for obj in [tiny_task, exact, PruningVector((0, 3, 9), tiny_cache.factor_set),
                    EvalRecord(2, (0, 1, 2), 0.75, 0.5, 1.25), up, ga]:
            assert read_fields(type(obj), json.loads(json.dumps(obj.to_dict()))) == obj
        for obj in [tiny_cache.config, tiny_cache.options]:
            assert read_fields(type(obj), json.loads(json.dumps(dataclasses.asdict(obj)))) == obj

    def test_an_int_is_never_a_bool_and_a_float_may_be_an_int(self):
        doc = {"generation": 1, "genes": [0, 1], "accuracy": 1, "compression": 0.5,
               "fitness": 2}
        rec = read_fields(EvalRecord, doc)
        assert rec == EvalRecord(1, (0, 1), 1.0, 0.5, 2.0)
        assert type(rec.accuracy) is float and type(rec.fitness) is float
        for name, value, found in [("generation", True, "int, found bool"),
                                   ("genes", [0, False], "int, found bool"),
                                   ("accuracy", True, "float, found bool"),
                                   ("fitness", 10**400, "float, found int")]:
            with pytest.raises(FormatError, match=f"expected {found}"):
                read_fields(EvalRecord, {**doc, name: value})

    def test_bytes_are_latin_1_text(self, tiny_task):
        doc = {**tiny_task.to_dict(), "prompts": ["\xff\x80a"]}
        assert read_fields(TaskSpec, doc).prompts == [b"\xff\x80a"]
        with pytest.raises(FormatError, match=r"TaskSpec\.prompts\[0\]: expected bytes"):
            read_fields(TaskSpec, {**doc, "prompts": ["\u0100"]})

    def test_an_absent_field_reads_as_null(self, tiny_task):
        doc = tiny_task.to_dict()
        assert "expected" not in doc
        assert read_fields(TaskSpec, doc).expected is None
        del doc["epsilon"]
        with pytest.raises(FormatError, match=r"TaskSpec\.epsilon: expected float, found null"):
            read_fields(TaskSpec, doc)

    def test_the_dataclass_checks_name_the_class(self, tiny_task):
        with pytest.raises(FormatError, match=r"TaskSpec: epsilon must lie in"):
            read_fields(TaskSpec, {**tiny_task.to_dict(), "epsilon": 1.5})
        with pytest.raises(FormatError, match=r"PruningVector\.factor_set: factor set must start"):
            read_fields(PruningVector, {"indices": [0], "factor_set": [0.5]})

    def test_a_wrong_schema_names_the_expected_tag(self, tiny_task):
        doc = tiny_task.to_dict()
        for bad in [{**doc, "schema": "taskprune-task-v0"},
                    {k: v for k, v in doc.items() if k != "schema"}, [doc], None]:
            with pytest.raises(FormatError, match="expected schema 'taskprune-task-v1'"):
                read_fields(TaskSpec, bad, "taskprune-task-v1")


class TestAccounting:
    def test_sites_enumeration(self):
        cfg = tp.TransformerConfig(n_layers=3, d_model=8, n_heads=2, d_ff=16, max_seq_len=8)
        site_list = sites(cfg)
        assert len(site_list) == 12
        assert len(set(site_list)) == 12
        cfg80 = tp.TransformerConfig(n_layers=80, d_model=8, n_heads=2, d_ff=16, max_seq_len=8)
        assert len(sites(cfg80)) == 320

    def test_count_params_oracle(self, tiny_config):
        cfg = tiny_config
        d, f = cfg.d_model, cfg.d_ff
        per_layer_sites = 3 * d * d + d * d + f * d + d * f
        expected_sites = cfg.n_layers * per_layer_sites
        assert tp.estimate_flops_per_token(cfg) == 2 * expected_sites
        expected_total = (
            expected_sites
            + 256 * d + cfg.max_seq_len * d + 256 * d   # embed, pos, unembed
            + cfg.n_layers * (f + d)                    # ffn biases
            + cfg.n_layers * 4 * d + 2 * d              # norms
        )
        assert tp.count_params(cfg) == expected_total

    @pytest.mark.parametrize("cfg", [
        tp.TransformerConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16, max_seq_len=8),
        tp.TransformerConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32, max_seq_len=32),
        tp.TransformerConfig(n_layers=3, d_model=12, n_heads=3, d_ff=20, vocab_size=40,
                             max_seq_len=5),
    ], ids=str)
    def test_count_params_equals_stored_tensors(self, cfg):
        _, meta, _ = read_container(io.BytesIO(model_to_bytes(tp.random_model(cfg, seed=1))))
        assert tp.count_params(cfg) == sum(t["rows"] * t["cols"] for t in meta["tensors"])

    def test_flops_dense(self, tiny_config):
        cfg = tiny_config
        expected = sum(2 * din * dout
                       for din, dout in (site_dims(cfg, s) for s in sites(cfg)))
        assert tp.estimate_flops_per_token(cfg) == expected

    def test_flops_formula_example(self):
        # a square 8x8 site at retention 0.5 costs 2*2*16 = 64 vs dense 128
        cfg = tp.TransformerConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16, max_seq_len=8)
        dense = tp.estimate_flops_per_token(cfg)
        levels = [1.0, 0.5, 1.0, 1.0]  # only the out-projection (8x8) pruned
        pruned = tp.estimate_flops_per_token(cfg, levels)
        assert dense - pruned == 128 - 64

    def test_flops_summation_oracle(self, tiny_config):
        from taskprune.factorize import rank_for_factor
        rng = derive_rng(39)
        cfg = tiny_config
        levels = [float(rng.choice([1.0, 0.75, 0.5, 0.2, 0.05]))
                  for _ in sites(cfg)]
        expected = 0
        for site, level in zip(sites(cfg), levels):
            din, dout = site_dims(cfg, site)
            rank, _ = rank_for_factor(level, din, dout)
            expected += 2 * din * dout if rank is None else 2 * rank * (din + dout)
        assert tp.estimate_flops_per_token(cfg, levels) == expected


def test_tokenize_round_trip():
    data = b"hello \x00 world"
    assert bytes(tokenize(data)) == data
    assert tokenize("ab") == [97, 98]
