"""The two-encoder transformer: attention primitives, encoder/decoder
stacks, initialization, and checkpoint I/O."""

import math

import numpy as np
import pytest

from transference import tensor as T
from transference.errors import (ConfigError, ContractError, NumericError,
                                 ShapeError)
from transference.model import (Checkpoint, ModelConfig, Vocab, _tables,
                                causal_attention_mask, decode_forward,
                                encode, init_params,
                                make_source_batch, multi_head_attention,
                                padding_attention_mask, param_shapes,
                                positional_encoding, PAD_ID, BOS_ID, EOS_ID)
from transference.tensor import GradTape, Tensor, backward

import reference as R
from oracles import (attention_reference, finite_difference_gradients,
                     multi_head_reference, relative_gradient_error)


def tiny_config(**overrides):
    defaults = dict(bpe_vocab_size=12, word_vocab_size=10, n_layers_fw=1,
                    n_layers_fs=1, n_layers_es=1, n_layers_dec=1,
                    d_model=8, d_ff=16, heads=2, dropout=0.0,
                    max_positions=16)
    defaults.update(overrides)
    return ModelConfig(**defaults)


def scaled_dot_attention(q, k, v, mask=None):
    """Single-head softmax(q @ k^T / sqrt(d_k) + mask) @ v."""
    return T.attention(q, k, v, mask, 1.0 / math.sqrt(q.shape[-1]))


def tiny_batch(rng, config, batch=2, n_words=3, n_subs=5, ragged=True):
    word_rows = []
    sub_rows = []
    for i in range(batch):
        w = n_words - (i if ragged else 0)
        s = n_subs - (i if ragged else 0)
        word_rows.append(list(rng.integers(4, config.word_vocab_size, size=max(w, 1))))
        sub_rows.append(list(rng.integers(4, config.bpe_vocab_size, size=max(s, 1))))
    return make_source_batch(word_rows, sub_rows)


class TestPositionalEncoding:
    def test_position_zero(self):
        pe = positional_encoding(4, 8)
        np.testing.assert_allclose(pe[0, 0::2], 0.0, atol=1e-7)
        np.testing.assert_allclose(pe[0, 1::2], 1.0, atol=1e-7)

    def test_range(self):
        pe = positional_encoding(50, 16, max_positions=64)
        assert (pe >= -1.0).all() and (pe <= 1.0).all()

    def test_formula_at_position_one(self):
        pe = positional_encoding(2, 4, dtype=np.float64)
        expected = [np.sin(1.0), np.cos(1.0),
                    np.sin(10000.0 ** (-2.0 / 4.0)),
                    np.cos(10000.0 ** (-2.0 / 4.0))]
        np.testing.assert_allclose(pe[1], expected, rtol=1e-12)

    def test_over_limit_rejected(self):
        with pytest.raises(ContractError):
            positional_encoding(17, 8, max_positions=16)


class TestSharedTables:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d_model, max_positions", [(8, 12), (64, 40), (512, 256)])
    def test_slices_equal_fresh_tables(self, d_model, max_positions, dtype):
        positions, causal = _tables(d_model, max_positions, np.dtype(dtype))
        for n in range(max_positions + 2):
            np.testing.assert_array_equal(
                positions[:n],
                positional_encoding(n, d_model, max_positions + 1, dtype=dtype))
            np.testing.assert_array_equal(causal[:, :, :n, :n],
                                          causal_attention_mask(n, dtype))
        assert positions.dtype == causal.dtype == dtype

    def test_tables_are_read_only(self):
        for table in _tables(8, 12, np.dtype(np.float32)):
            with pytest.raises(ValueError):
                table[..., 0] = 1.0


class TestScaledDotAttention:
    def test_single_key_returns_value(self):
        rng = np.random.default_rng(0)
        q = Tensor(rng.normal(size=(3, 4)), dtype=np.float64)
        k = Tensor(rng.normal(size=(1, 4)), dtype=np.float64)
        v = Tensor(rng.normal(size=(1, 6)), dtype=np.float64)
        out = scaled_dot_attention(q, k, v)
        for row in out.data:
            np.testing.assert_allclose(row, v.data[0], rtol=1e-12)

    def test_equal_scores_average_values(self):
        v = Tensor(np.array([[2.0, 0.0], [0.0, 4.0], [1.0, 1.0]]),
                   dtype=np.float64)
        q = Tensor(np.zeros((2, 4)), dtype=np.float64)  # orthogonal to keys
        k = Tensor(np.random.default_rng(1).normal(size=(3, 4)),
                   dtype=np.float64)
        out = scaled_dot_attention(q, k, v)
        np.testing.assert_allclose(out.data, np.tile(v.data.mean(axis=0), (2, 1)),
                                   rtol=1e-12)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(2, 3))
        k = rng.normal(size=(3, 3))
        v = rng.normal(size=(3, 5))
        out = scaled_dot_attention(Tensor(q, dtype=np.float64),
                                   Tensor(k, dtype=np.float64),
                                   Tensor(v, dtype=np.float64))
        np.testing.assert_allclose(out.data, attention_reference(q, k, v),
                                   rtol=1e-10)

    def test_masked_positions_get_zero_weight(self):
        # v = identity rows, so each output coordinate IS the weight on
        # that key; the masked key must contribute exactly zero.
        rng = np.random.default_rng(3)
        q = Tensor(rng.normal(size=(2, 4)).astype(np.float32))
        k = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        v = Tensor(np.eye(3, dtype=np.float32))
        mask = np.array([[0.0, 0.0, T.MASK_VALUE]] * 2, dtype=np.float32)
        out = scaled_dot_attention(q, k, v, mask)
        assert (out.data[:, 2] == 0.0).all()
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            scaled_dot_attention(Tensor(np.zeros((2, 3))),
                                 Tensor(np.zeros((2, 4))),
                                 Tensor(np.zeros((2, 4))))
        with pytest.raises(ShapeError):
            scaled_dot_attention(Tensor(np.zeros((2, 4))),
                                 Tensor(np.zeros((3, 4))),
                                 Tensor(np.zeros((2, 4))))

    def test_nan_scores_raise(self):
        q = Tensor(np.array([[np.nan, 0.0]]))
        with pytest.raises(NumericError):
            scaled_dot_attention(q, Tensor(np.ones((3, 2))), Tensor(np.ones((3, 2))))

    def test_broadcast_mask_and_one_tape_entry(self):
        rng = np.random.default_rng(10)
        q, k, v = (Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True,
                          dtype=np.float64) for _ in range(3))
        mask = np.where(np.arange(3) == 2, T.MASK_VALUE, 0.0)[None, None, :]
        with GradTape() as tape:
            out = scaled_dot_attention(q, k, v, mask)
        assert len(tape.entries) == 1
        for b in range(2):
            np.testing.assert_allclose(
                out.data[b], attention_reference(q.data[b], k.data[b], v.data[b],
                                                 np.broadcast_to(mask[0], (3, 3))),
                rtol=1e-10)


class TestMultiHeadAttention:
    def test_single_head_identity_projection_reduces(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 3, 6))
        eye = Tensor(np.eye(6), dtype=np.float64)
        params = {f"attn/{w}": eye for w in ("wq", "wk", "wv", "wo")}
        xt = Tensor(x, dtype=np.float64)
        out = multi_head_attention(params, "attn", xt, xt, None, heads=1)
        direct = scaled_dot_attention(xt, xt, xt)
        np.testing.assert_array_equal(out.data, direct.data)

    def test_head_dimensions_at_base_scale(self):
        cfg = ModelConfig(bpe_vocab_size=10, word_vocab_size=10)
        assert cfg.d_model == 512 and cfg.heads == 8
        assert cfg.d_model // cfg.heads == 64
        rng = np.random.default_rng(5)
        params = {f"attn/{name}": Tensor(rng.normal(size=(512, 512)) * 0.02,
                                         dtype=np.float64)
                  for name in ("wq", "wk", "wv", "wo")}
        x = Tensor(rng.normal(size=(2, 3, 512)), dtype=np.float64)
        out = multi_head_attention(params, "attn", x, x, None, heads=8)
        assert out.shape == (2, 3, 512)

    def test_matches_brute_force_per_head_oracle(self):
        rng = np.random.default_rng(6)
        d_model, heads, length = 4, 2, 3
        weights = {name: rng.normal(size=(d_model, d_model))
                   for name in ("wq", "wk", "wv", "wo")}
        x_q = rng.normal(size=(length, d_model))
        x_kv = rng.normal(size=(length + 1, d_model))
        params = {f"attn/{name}": Tensor(w, dtype=np.float64)
                  for name, w in weights.items()}
        out = multi_head_attention(params, "attn",
                                   Tensor(x_q[None], dtype=np.float64),
                                   Tensor(x_kv[None], dtype=np.float64),
                                   None, heads=heads)
        expected = multi_head_reference(x_q, x_kv, x_kv, weights["wq"],
                                        weights["wk"], weights["wv"],
                                        weights["wo"], heads)
        np.testing.assert_allclose(out.data[0], expected, atol=1e-6)

    def test_folded_rows_match_per_row_oracle(self):
        # keys and values projected once per source, and 3 query rows per
        # source folded into one attention call, as in beam decoding; the
        # second source masks its last two positions
        rng = np.random.default_rng(7)
        d_model, heads, sources, per_source, n, length = 4, 2, 2, 3, 2, 5
        weights = {name: rng.normal(size=(d_model, d_model))
                   for name in ("wq", "wk", "wv", "wo")}
        params = {f"attn/{name}": Tensor(w, dtype=np.float64)
                  for name, w in weights.items()}
        memory = rng.normal(size=(sources, length, d_model))
        x = rng.normal(size=(sources * per_source, n, d_model))
        mask = np.zeros((sources, 1, 1, length))
        mask[1, ..., 3:] = T.MASK_VALUE
        kv = tuple(Tensor(memory @ weights[w], dtype=np.float64) for w in ("wk", "wv"))
        out = multi_head_attention(params, "attn", Tensor(x, dtype=np.float64), None,
                                   mask, heads, kv)
        assert out.shape == x.shape
        for row in range(sources * per_source):
            source = row // per_source
            expected = multi_head_reference(
                x[row], memory[source], memory[source], weights["wq"], weights["wk"],
                weights["wv"], weights["wo"], heads,
                np.broadcast_to(mask[source, 0], (n, length)))
            np.testing.assert_allclose(out.data[row], expected, rtol=0, atol=1e-10)

    def test_indivisible_heads_rejected(self):
        x = Tensor(np.zeros((1, 2, 6)))
        eye = Tensor(np.eye(6))
        params = {f"attn/{w}": eye for w in ("wq", "wk", "wv", "wo")}
        with pytest.raises(ShapeError, match="not divisible by 4 heads"):
            multi_head_attention(params, "attn", x, x, None, heads=4)


class TestModelConfig:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            ModelConfig(bpe_vocab_size=10, word_vocab_size=10, d_model=10,
                        heads=4)

    def test_positive_dimensions(self):
        with pytest.raises(ConfigError):
            ModelConfig(bpe_vocab_size=0, word_vocab_size=10)

    @pytest.mark.parametrize("value", [8.0, 8.5, "8", True],
                             ids=["float", "fraction", "string", "bool"])
    def test_sizes_must_be_integers(self, value):
        with pytest.raises(ConfigError, match="d_model: bad value"):
            ModelConfig(bpe_vocab_size=10, word_vocab_size=10, d_model=value,
                        heads=1)

    def test_numpy_integer_sizes_are_accepted(self):
        cfg = ModelConfig(bpe_vocab_size=np.int64(10),
                          word_vocab_size=np.int32(10))
        assert cfg.bpe_vocab_size == 10

    def test_roundtrip_dict(self):
        cfg = tiny_config()
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestEncode:
    def test_output_shapes(self):
        cfg = tiny_config(d_model=8)
        ckpt = init_params(cfg, seed=0)
        rng = np.random.default_rng(7)
        batch = tiny_batch(rng, cfg)
        enc = encode(cfg, ckpt.params, batch)
        assert enc.enc1_out.shape == (2, batch.f_w.shape[1], 8)
        assert enc.enc2_out.shape == (2, batch.f_s.shape[1], 8)
        assert enc.enc12_out.shape == (2, batch.f_s.shape[1], 8)
        for out in (enc.enc1_out, enc.enc2_out, enc.enc12_out):
            assert np.isfinite(out.data).all()

    def test_base_scale_enc12_width(self):
        cfg = tiny_config(d_model=512, d_ff=32, heads=8, bpe_vocab_size=16,
                          word_vocab_size=16)
        ckpt = init_params(cfg, seed=0)
        batch = make_source_batch([[4, 5]], [[4, 5, 6]])
        enc = encode(cfg, ckpt.params, batch)
        assert enc.enc12_out.shape == (1, 3, 512)

    def test_padding_gets_zero_attention_weight(self):
        # encode a 2-sentence batch where sentence 1 is shorter; repeat
        # with the pad row replaced by wild ids: unpadded outputs must not
        # move, proving pads contribute nothing.
        cfg = tiny_config()
        ckpt = init_params(cfg, seed=1)
        words = [[4, 5, 6], [4, 5]]
        subs = [[4, 5, 6, 7], [4, 5]]
        batch_a = make_source_batch(words, subs)
        batch_b = make_source_batch(words, subs)
        batch_b.f_w[1, 2] = 9   # garbage in the padded cells
        batch_b.f_s[1, 2:] = 11
        out_a = encode(cfg, ckpt.params, batch_a)
        out_b = encode(cfg, ckpt.params, batch_b)
        np.testing.assert_array_equal(out_a.enc12_out.data[0],
                                      out_b.enc12_out.data[0])
        np.testing.assert_array_equal(out_a.enc12_out.data[1, :2],
                                      out_b.enc12_out.data[1, :2])

    def test_one_layer_composition_oracle(self):
        # a 1-layer word encoder recomposed step by step from the
        # attention/FFN/layer-norm primitives
        cfg = tiny_config(n_layers_fw=1)
        ckpt = init_params(cfg, seed=2, dtype=np.float64)
        p = ckpt.params
        batch = make_source_batch([[4, 5, 6]], [[4]])
        enc = encode(cfg, p, batch)

        ids = batch.f_w
        x = T.scale(T.embedding(p["embed/word"], ids), np.sqrt(cfg.d_model))
        pe = positional_encoding(3, cfg.d_model, cfg.max_positions + 1,
                                 dtype=np.float64)
        x = T.add(x, T.constant(pe))
        mask = padding_attention_mask(batch.f_w_pad, np.float64)
        attn = multi_head_attention(p, "enc_word/layer_0/self_attn", x, x, mask,
                                    cfg.heads)
        x = T.layer_norm(T.add(x, attn),
                         p["enc_word/layer_0/self_attn_norm/gain"],
                         p["enc_word/layer_0/self_attn_norm/bias"])
        hidden = T.relu(T.add(R.matmul(x, p["enc_word/layer_0/ffn/w1"]),
                              p["enc_word/layer_0/ffn/b1"]))
        ffn = T.add(R.matmul(hidden, p["enc_word/layer_0/ffn/w2"]),
                    p["enc_word/layer_0/ffn/b2"])
        x = T.layer_norm(T.add(x, ffn),
                         p["enc_word/layer_0/ffn_norm/gain"],
                         p["enc_word/layer_0/ffn_norm/bias"])
        np.testing.assert_allclose(enc.enc1_out.data, x.data, rtol=1e-10)

    def test_bridge_permutation_equivariance(self):
        # with positional encodings removed, permuting the subword stream
        # permutes the bridge output identically
        cfg = tiny_config(n_layers_es=2)
        ckpt = init_params(cfg, seed=3, dtype=np.float64)
        p = {k: t for k, t in ckpt.params.items()}
        rng = np.random.default_rng(8)

        def bridge(enc2_data, enc1):
            y = Tensor(enc2_data, dtype=np.float64)
            for i in range(cfg.n_layers_es):
                prefix = f"enc_cross/layer_{i}"
                attn = multi_head_attention(p, f"{prefix}/self_attn", y, y, None,
                                            cfg.heads)
                y = T.layer_norm(T.add(y, attn),
                                 p[f"{prefix}/self_attn_norm/gain"],
                                 p[f"{prefix}/self_attn_norm/bias"])
                cross = multi_head_attention(p, f"{prefix}/cross_attn", y, enc1, None,
                                             cfg.heads)
                y = T.layer_norm(T.add(y, cross),
                                 p[f"{prefix}/cross_attn_norm/gain"],
                                 p[f"{prefix}/cross_attn_norm/bias"])
                hidden = T.relu(T.add(R.matmul(y, p[f"{prefix}/ffn/w1"]),
                                      p[f"{prefix}/ffn/b1"]))
                ffn = T.add(R.matmul(hidden, p[f"{prefix}/ffn/w2"]),
                            p[f"{prefix}/ffn/b2"])
                y = T.layer_norm(T.add(y, ffn),
                                 p[f"{prefix}/ffn_norm/gain"],
                                 p[f"{prefix}/ffn_norm/bias"])
            return y.data

        enc1 = Tensor(rng.normal(size=(1, 4, cfg.d_model)), dtype=np.float64)
        enc2 = rng.normal(size=(1, 5, cfg.d_model))
        perm = np.array([3, 0, 4, 2, 1])
        out = bridge(enc2, enc1)
        out_perm = bridge(enc2[:, perm], enc1)
        np.testing.assert_allclose(out_perm, out[:, perm], rtol=1e-9)


class TestDecodeForward:
    def test_causality_exact(self):
        cfg = tiny_config()
        ckpt = init_params(cfg, seed=4)
        batch = make_source_batch([[4, 5]], [[4, 5, 6]])
        enc = encode(cfg, ckpt.params, batch)
        tgt_a = np.array([[BOS_ID, 4, 5, 6, 7]])
        tgt_b = np.array([[BOS_ID, 4, 5, 9, 10]])  # suffix differs after t=2
        logits_a = decode_forward(cfg, ckpt.params, enc, tgt_a).data
        logits_b = decode_forward(cfg, ckpt.params, enc, tgt_b).data
        np.testing.assert_array_equal(logits_a[:, :3], logits_b[:, :3])

    def test_future_gradient_exactly_zero(self):
        cfg = tiny_config()
        ckpt = init_params(cfg, seed=5, dtype=np.float64)
        batch = make_source_batch([[4, 5]], [[4, 5, 6]])
        # target ids 7/8/9 never occur in the source, so the only path to
        # their embedding rows is through the decoder itself
        tgt = np.array([[BOS_ID, 7, 8, 9]])
        with GradTape() as tape:
            enc = encode(cfg, ckpt.params, batch)
            logits = decode_forward(cfg, ckpt.params, enc, tgt)
            select = np.zeros(logits.shape)
            select[0, 1, :] = 1.0  # loss reads only position 1's logits
            loss = R.reduce_sum(R.mul(logits, T.constant(select)))
        grads = backward(tape, loss)
        emb_grad = grads[ckpt.params["embed/bpe"]]
        np.testing.assert_array_equal(emb_grad[8], 0.0)
        np.testing.assert_array_equal(emb_grad[9], 0.0)
        assert np.abs(emb_grad[7]).sum() > 0

    def test_logits_width_is_bpe_vocab(self):
        cfg = tiny_config(bpe_vocab_size=13)
        ckpt = init_params(cfg, seed=6)
        batch = make_source_batch([[4]], [[4, 5]])
        enc = encode(cfg, ckpt.params, batch)
        logits = decode_forward(cfg, ckpt.params, enc, np.array([[BOS_ID, 4]]))
        assert logits.shape[-1] == 13

    def test_over_long_prefix_rejected(self):
        cfg = tiny_config(max_positions=4)
        ckpt = init_params(cfg, seed=7)
        batch = make_source_batch([[4]], [[4]])
        enc = encode(cfg, ckpt.params, batch)
        with pytest.raises(ContractError):
            decode_forward(cfg, ckpt.params, enc,
                           np.array([[BOS_ID, 4, 5, 6, 7, 8]]))

    def test_attention_weight_rows_sum_to_one(self):
        # probe: with value = one-hot rows the attention output row equals
        # the weight vector; checked on the bridge cross-attention shape.
        rng = np.random.default_rng(9)
        q = Tensor(rng.normal(size=(1, 2, 3, 4)), dtype=np.float64)
        k = Tensor(rng.normal(size=(1, 2, 5, 4)), dtype=np.float64)
        v = Tensor(np.broadcast_to(np.eye(5), (1, 2, 5, 5)).copy(),
                   dtype=np.float64)
        weights = scaled_dot_attention(q, k, v).data
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-6)


class TestInitParams:
    def test_deterministic_under_seed(self):
        cfg = tiny_config()
        a = init_params(cfg, seed=11)
        b = init_params(cfg, seed=11)
        assert list(a.params) == list(b.params)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data,
                                          b.params[name].data)

    def test_layer_norm_gains_are_one(self):
        ckpt = init_params(tiny_config(), seed=12)
        for name, t in ckpt.params.items():
            if name.endswith("norm/gain"):
                np.testing.assert_array_equal(t.data, 1.0)
            if name.endswith("norm/bias") or name.endswith("/b1") \
                    or name.endswith("/b2") or name == "output/bias":
                np.testing.assert_array_equal(t.data, 0.0)

    def test_parameter_count_matches_shape_inventory(self):
        cfg = tiny_config(d_model=8, d_ff=16, bpe_vocab_size=12,
                          word_vocab_size=10)
        ckpt = init_params(cfg, seed=13)
        d, ff, v_bpe, v_word = 8, 16, 12, 10
        per_attn = 4 * d * d + 2 * d            # wq wk wv wo + norm
        per_ffn = d * ff + ff + ff * d + d + 2 * d
        enc_layer = per_attn + per_ffn
        dec_layer = 2 * per_attn + per_ffn
        expected = (v_word * d + v_bpe * d      # embeddings
                    + 2 * enc_layer             # enc_word + enc_subword
                    + 2 * dec_layer             # enc_cross + decoder
                    + d * v_bpe + v_bpe)        # output projection
        total = sum(t.size for t in ckpt.params.values())
        assert total == expected

    def test_shared_bpe_embedding_is_one_tensor(self):
        cfg = tiny_config()
        ckpt = init_params(cfg, seed=14)
        batch = make_source_batch([[4]], [[4, 5]])
        tgt = np.array([[BOS_ID, 4]])
        before_enc = encode(cfg, ckpt.params, batch)
        before = decode_forward(cfg, ckpt.params, before_enc, tgt).data.copy()
        enc2_before = before_enc.enc2_out.data.copy()
        ckpt.params["embed/bpe"].data = ckpt.params["embed/bpe"].data + 0.5
        after_enc = encode(cfg, ckpt.params, batch)
        after = decode_forward(cfg, ckpt.params, after_enc, tgt).data
        assert not np.array_equal(enc2_before, after_enc.enc2_out.data)
        assert not np.array_equal(before, after)


class TestCheckpointIO:
    def test_save_load_roundtrip(self, tmp_path):
        cfg = tiny_config()
        ckpt = init_params(cfg, seed=15)
        ckpt.step = 42
        path = str(tmp_path / "model.tfrx")
        ckpt.save(path)
        assert (tmp_path / "model.json").exists()
        loaded = Checkpoint.load(path)
        assert loaded.step == 42
        assert loaded.config == cfg
        assert list(loaded.params) == list(ckpt.params)
        for name in ckpt.params:
            np.testing.assert_array_equal(loaded.params[name].data,
                                          ckpt.params[name].data)

    def test_loaded_model_same_forward(self, tmp_path):
        cfg = tiny_config()
        ckpt = init_params(cfg, seed=16)
        path = str(tmp_path / "m.tfrx")
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        batch = make_source_batch([[4, 5]], [[4, 5, 6]])
        tgt = np.array([[BOS_ID, 4, 5]])
        a = decode_forward(cfg, ckpt.params, encode(cfg, ckpt.params, batch), tgt)
        b = decode_forward(cfg, loaded.params, encode(cfg, loaded.params, batch), tgt)
        np.testing.assert_array_equal(a.data, b.data)


class TestVocab:
    def test_specials_fixed(self):
        vocab = Vocab.from_corpus([["b", "a", "b"]])
        assert vocab.itos[:4] == ["<pad>", "<s>", "</s>", "<unk>"]
        assert vocab.stoi["<pad>"] == PAD_ID
        assert vocab.stoi["<s>"] == BOS_ID
        assert vocab.stoi["</s>"] == EOS_ID

    def test_frequency_then_lexicographic(self):
        vocab = Vocab.from_corpus([["b", "a", "b", "c", "a", "b"]])
        assert vocab.itos[4:] == ["b", "a", "c"]

    def test_unknown_maps_to_unk(self):
        vocab = Vocab.from_corpus([["a"]])
        assert vocab.encode(["neznámé"]) == [3]

    def test_file_roundtrip(self, tmp_path):
        vocab = Vocab.from_corpus([["b", "a", "b"]])
        path = str(tmp_path / "v.txt")
        vocab.save(path)
        assert Vocab.load(path).itos == vocab.itos


class TestMiniatureGradientCheck:
    def test_full_model_gradients_match_finite_differences(self):
        # end-to-end check on a miniature model (d_model=8, h=2, one layer
        # per stack) at 64-bit: every parameter, relative error < 1e-4
        from transference.training import label_smoothed_loss

        cfg = tiny_config()
        ckpt = init_params(cfg, seed=20, dtype=np.float64)
        batch = make_source_batch([[4, 5, 6], [7, 8]], [[4, 5, 6, 7], [8, 9]])
        tgt_in = np.array([[BOS_ID, 4, 5], [BOS_ID, 6, PAD_ID]])
        tgt_out = np.array([[4, 5, EOS_ID], [6, EOS_ID, PAD_ID]])

        def forward() -> float:
            enc = encode(cfg, ckpt.params, batch)
            logits = decode_forward(cfg, ckpt.params, enc, tgt_in)
            return label_smoothed_loss(logits, tgt_out, 0.1).item()

        with GradTape() as tape:
            enc = encode(cfg, ckpt.params, batch)
            logits = decode_forward(cfg, ckpt.params, enc, tgt_in)
            loss = label_smoothed_loss(logits, tgt_out, 0.1)
        grads = backward(tape, loss)

        checked = ["embed/bpe", "embed/word",
                   "enc_word/layer_0/self_attn/wq",
                   "enc_subword/layer_0/ffn/w1",
                   "enc_cross/layer_0/cross_attn/wk",
                   "enc_cross/layer_0/self_attn_norm/gain",
                   "decoder/layer_0/cross_attn/wv",
                   "decoder/layer_0/ffn_norm/bias",
                   "output/weight", "output/bias"]
        for name in checked:
            arr = ckpt.params[name].data
            numeric = finite_difference_gradients(forward, {name: arr},
                                                  h=1e-6)[name]
            err = relative_gradient_error(grads[ckpt.params[name]], numeric)
            assert err < 1e-4, f"{name}: relative error {err}"

    def test_every_stack_has_its_own_layer_count_and_gradients(self):
        # distinct layer counts per stack, so a stack that reads another
        # stack's count changes the parameter names or leaves one unused
        from transference.training import PreparedPair, forward_loss, make_batches

        cfg = tiny_config(n_layers_fw=1, n_layers_fs=2, n_layers_es=3,
                          n_layers_dec=2, dropout=0.1)
        names = param_shapes(cfg)
        for stack, n in (("enc_word", 1), ("enc_subword", 2),
                         ("enc_cross", 3), ("decoder", 2)):
            layers = {name.split("/")[1] for name in names
                      if name.startswith(f"{stack}/")}
            assert layers == {f"layer_{i}" for i in range(n)}, stack
        ckpt = init_params(cfg, seed=21, dtype=np.float64)
        pairs = [PreparedPair((4, 5, 6), (4, 5, 6, 7), (8, 9, 10)),
                 PreparedPair((7, 8), (8, 9), (11, 4))]
        batch = make_batches(pairs, batch_tokens=100, max_len=10)[0]
        with GradTape() as tape:
            loss = forward_loss(cfg, ckpt.params, batch, 0.1, training=True,
                                rng=np.random.default_rng(3))
        grads = backward(tape, loss)
        for name in names:
            assert np.any(grads[ckpt.params[name]] != 0), name
