"""Schedule, loss, Adam, batching, averaging, and the training loop."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from transference import training as TR
from transference.errors import (CheckpointError, ConfigError, ContractError,
                                 TrainingError)
from transference.model import (BOS_ID, EOS_ID, PAD_ID, Checkpoint,
                                ModelConfig, decode_forward, encode,
                                init_params)
from transference.tensor import GradTape, Tensor, backward
from transference.training import (OptimizerState, PreparedPair,
                                   TrainConfig, adam_step,
                                   average_checkpoints, label_smoothed_loss,
                                   lr_schedule, make_batches, train)


class TestLrSchedule:
    def test_branch_equality_at_warmup_exact(self):
        for warmup in (10, 500, 8000):
            rsqrt = warmup ** -0.5
            linear = (warmup / warmup) * warmup ** -0.5
            assert rsqrt == linear
            assert lr_schedule(warmup, 512, warmup) == 512 ** -0.5 * rsqrt

    def test_step_one_value(self):
        expected = 512 ** -0.5 * 8000 ** -1.5
        got = lr_schedule(1)
        assert abs(got - expected) / expected < 1e-12
        assert got == pytest.approx(6.17e-8, rel=1e-2)

    def test_warmup_peak_value(self):
        expected = 512 ** -0.5 * 8000 ** -0.5
        got = lr_schedule(8000)
        assert abs(got - expected) / expected < 1e-12
        assert got == pytest.approx(4.94e-4, rel=1e-2)

    def test_monotone_up_then_down(self):
        warmup = 200
        rates = [lr_schedule(s, 64, warmup) for s in range(1, 3 * warmup)]
        for i in range(warmup - 1):
            assert rates[i] < rates[i + 1]
        for i in range(warmup - 1, len(rates) - 1):
            assert rates[i] > rates[i + 1]
        assert all(r > 0 for r in rates)

    def test_step_zero_rejected(self):
        with pytest.raises(ContractError):
            lr_schedule(0)


def uniform_logits(batch, length, vocab, value=0.0):
    return Tensor(np.full((batch, length, vocab), value), dtype=np.float64)


class TestLabelSmoothedLoss:
    def test_zero_smoothing_is_plain_cross_entropy(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(2, 3, 7))
        targets = rng.integers(1, 7, size=(2, 3))
        loss = label_smoothed_loss(Tensor(logits, dtype=np.float64),
                                   targets, eps_ls=0.0)
        logp = logits - np.log(np.exp(logits).sum(-1, keepdims=True))
        expected = -np.take_along_axis(logp, targets[..., None], -1).mean()
        assert loss.item() == pytest.approx(expected, rel=1e-9)

    def test_uniform_logits_give_ln_v(self):
        for vocab in (3, 10, 50):
            for eps in (0.0, 0.1, 0.4):
                targets = np.array([[1, 2], [4 % vocab, 1]])
                loss = label_smoothed_loss(uniform_logits(2, 2, vocab),
                                           targets, eps_ls=eps)
                assert loss.item() == pytest.approx(math.log(vocab), rel=1e-9)

    def test_hand_computed_three_way_case(self):
        logits = Tensor(np.array([[[2.0, 0.0, 0.0]]]), dtype=np.float64)
        targets = np.array([[0]])
        z = math.log(math.exp(2.0) + 2.0)
        logp = [2.0 - z, -z, -z]
        expected = -(0.9 * logp[0] + 0.05 * logp[1] + 0.05 * logp[2])
        loss = label_smoothed_loss(logits, targets, eps_ls=0.1, pad_id=2)
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_padding_positions_excluded_exactly(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(2, 4, 9))
        targets = rng.integers(1, 9, size=(2, 4))
        base = label_smoothed_loss(Tensor(logits, dtype=np.float64),
                                   targets).item()
        # append two pad positions per sentence
        wider = np.concatenate([logits, rng.normal(size=(2, 2, 9))], axis=1)
        padded = np.concatenate(
            [targets, np.full((2, 2), PAD_ID, dtype=targets.dtype)], axis=1)
        extended = label_smoothed_loss(Tensor(wider, dtype=np.float64),
                                       padded).item()
        assert extended == base

    def test_all_pad_rejected(self):
        with pytest.raises(ContractError):
            label_smoothed_loss(uniform_logits(1, 2, 5),
                                np.full((1, 2), PAD_ID))


class TestAdamStep:
    def _params(self, value):
        return {"w": Tensor(np.array(value, dtype=np.float64),
                            requires_grad=True, dtype=np.float64)}

    def test_zero_gradient_fixed_point(self):
        params = self._params([1.0, -2.0])
        state = OptimizerState.for_params(params)
        before = params["w"].data.copy()
        adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        np.testing.assert_array_equal(params["w"].data, before)

    def test_first_step_is_signed_unit_step(self):
        params = self._params([1.0, 1.0, 1.0])
        state = OptimizerState.for_params(params)
        g = np.array([0.5, -3.0, 1e-4])
        adam_step(params, {"w": g.copy()}, state, lr=0.01,
                  beta1=0.9, beta2=0.98, epsilon=1e-9)
        update = params["w"].data - 1.0
        np.testing.assert_allclose(update, -0.01 * np.sign(g), rtol=1e-4)

    def test_three_step_scalar_recurrence(self):
        params = self._params([0.0])
        state = OptimizerState.for_params(params)
        beta1, beta2, eps, lr = 0.9, 0.98, 1e-9, 0.1
        theta, m, v = 0.0, 0.0, 0.0
        for t in range(1, 4):
            adam_step(params, {"w": np.array([1.0])}, state, lr,
                      beta1, beta2, eps)
            m = beta1 * m + (1 - beta1) * 1.0
            v = beta2 * v + (1 - beta2) * 1.0
            m_hat = m / (1 - beta1 ** t)
            v_hat = v / (1 - beta2 ** t)
            theta -= lr * m_hat / (math.sqrt(v_hat) + eps)
            assert params["w"].data[0] == pytest.approx(theta, rel=1e-12)
        assert state.step == 3

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_the_textbook_formula(self, dtype):
        rng = np.random.default_rng(12)
        shapes = {"w": (5, 3), "b": (3,)}
        params = {n: Tensor(rng.normal(size=s), requires_grad=True, dtype=dtype)
                  for n, s in shapes.items()}
        ref = {n: p.data.copy() for n, p in params.items()}
        m = {n: np.zeros_like(a) for n, a in ref.items()}
        v = {n: np.zeros_like(a) for n, a in ref.items()}
        state = OptimizerState.for_params(params)
        beta1, beta2, eps = 0.9, 0.98, 1e-9
        for t in range(1, 5):
            lr = 0.01 / t
            grads = {n: rng.normal(size=s).astype(dtype) for n, s in shapes.items()}
            before = {n: p.data for n, p in params.items()}
            adam_step(params, grads, state, lr, beta1, beta2, eps)
            for n, g in grads.items():
                m[n] *= beta1
                m[n] += (1.0 - beta1) * g
                v[n] *= beta2
                v[n] += (1.0 - beta2) * (g * g)
                m_hat = m[n] / (1.0 - beta1 ** t)
                v_hat = v[n] / (1.0 - beta2 ** t)
                ref[n] = ref[n] - (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(dtype)
                assert params[n].data is not before[n]
                assert params[n].data.dtype == dtype
                np.testing.assert_array_equal(params[n].data, ref[n])
                np.testing.assert_array_equal(state.m[n], m[n])
                np.testing.assert_array_equal(state.v[n], v[n])

    def test_nan_gradient_names_parameter(self):
        params = self._params([1.0])
        state = OptimizerState.for_params(params)
        with pytest.raises(TrainingError, match="'w'"):
            adam_step(params, {"w": np.array([np.nan])}, state, 0.1)


class TestClipGradients:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_norm_and_clipping_equal_the_two_temporary_formula(self, dtype):
        rng = np.random.default_rng(13)
        grads = {"w": rng.normal(size=(40, 30)).astype(dtype),
                 "b": rng.normal(size=30).astype(dtype)}
        inputs = {name: g.copy() for name, g in grads.items()}
        expected = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum())
                                 for g in inputs.values()))
        assert TR.clip_gradients(grads, 1e9) == expected
        for name, g in inputs.items():
            assert grads[name].tobytes() == g.tobytes()
        assert TR.clip_gradients(grads, 1.0) == expected
        for name, g in inputs.items():
            assert grads[name].tobytes() == (g * (1.0 / expected)).tobytes()


def prepared(seed, n, src_len=(3, 7), tgt_len=(3, 7), vocab=20):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        ls = int(rng.integers(*src_len))
        lt = int(rng.integers(*tgt_len))
        out.append(PreparedPair(
            tuple(int(x) for x in rng.integers(4, vocab, size=ls)),
            tuple(int(x) for x in rng.integers(4, vocab, size=ls)),
            tuple(int(x) for x in rng.integers(4, vocab, size=lt))))
    return out


class TestMakeBatches:
    def test_overlong_target_dropped(self):
        ok = PreparedPair((4, 5), (4, 5), (6,) * 256)
        too_long = PreparedPair((4, 5), (4, 5), (6,) * 257)
        batches = make_batches([ok, too_long], batch_tokens=4096, max_len=256)
        kept = [p for b in batches for p in b.pairs]
        assert kept == [ok]

    def test_deterministic_per_seed_epoch(self):
        pairs = prepared(2, 40)
        a = make_batches(pairs, 64, 16, seed=7, epoch=3)
        b = make_batches(pairs, 64, 16, seed=7, epoch=3)
        assert [x.pairs for x in a] == [x.pairs for x in b]
        c = make_batches(pairs, 64, 16, seed=7, epoch=4)
        assert [x.pairs for x in a] != [x.pairs for x in c]

    def test_partition_is_exact(self):
        pairs = prepared(3, 100)
        batches = make_batches(pairs, 96, 16, seed=1, epoch=0)
        flat = [p for b in batches for p in b.pairs]
        key = lambda p: (p.word_ids, p.sub_ids, p.tgt_ids)
        assert sorted(flat, key=key) == sorted(pairs, key=key)
        assert len(flat) == len(pairs)

    def test_token_budget_respected(self):
        pairs = prepared(4, 60)
        budget = 64
        for batch in make_batches(pairs, budget, 16, seed=0, epoch=0):
            n, src_w = batch.source.f_s.shape
            tgt_w = batch.tgt_in.shape[1]
            assert max(n * src_w, n * tgt_w) <= budget

    def test_single_oversized_pair_rejected(self):
        pair = PreparedPair((4,) * 30, (4,) * 30, (5,) * 30)
        with pytest.raises(ConfigError):
            make_batches([pair], batch_tokens=16, max_len=64)

    def test_batch_layout(self):
        pair = PreparedPair((4, 5), (6, 7, 8), (9, 10))
        (batch,) = make_batches([pair], 64, 16, seed=0, epoch=0)
        np.testing.assert_array_equal(batch.tgt_in, [[BOS_ID, 9, 10]])
        np.testing.assert_array_equal(batch.tgt_out, [[9, 10, EOS_ID]])
        np.testing.assert_array_equal(batch.source.f_s, [[6, 7, 8]])


def mini_config(**overrides):
    defaults = dict(bpe_vocab_size=24, word_vocab_size=24, n_layers_fw=1,
                    n_layers_fs=1, n_layers_es=1, n_layers_dec=1,
                    d_model=16, d_ff=32, heads=2, dropout=0.0,
                    max_positions=32)
    defaults.update(overrides)
    return ModelConfig(**defaults)


class TestForwardLoss:
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_equals_decode_forward_then_loss_on_logits(self, training):
        # the states handed to the loss op give, bit for bit, the value and
        # every parameter gradient of the logits path ``test_c1`` checks
        cfg = mini_config(dropout=0.1)
        params = init_params(cfg, seed=6).params
        batch = make_batches(prepared(8, 6, vocab=24), 256, 32, seed=1, epoch=0)[0]
        assert (batch.tgt_out == PAD_ID).any()

        def run(build):
            with GradTape() as tape:
                loss = build(np.random.default_rng(9))
            grads = backward(tape, loss)
            return loss.data.tobytes(), {name: grads[p].tobytes()
                                         for name, p in params.items() if p in grads}

        def on_logits(rng):
            encoded = encode(cfg, params, batch.source, training, rng)
            logits = decode_forward(cfg, params, encoded, batch.tgt_in, training, rng)
            return label_smoothed_loss(logits, batch.tgt_out, 0.1)

        fused = run(lambda rng: TR.forward_loss(cfg, params, batch, 0.1, training, rng))
        assert set(fused[1]) == set(params)
        assert fused == run(on_logits)


class TestAverageCheckpoints:
    def _random_checkpoint(self, seed):
        return init_params(mini_config(), seed=seed)

    def test_eight_identical_is_identity(self):
        base = self._random_checkpoint(0)
        avg = average_checkpoints([base] * 8)
        for name in base.params:
            np.testing.assert_array_equal(avg.params[name].data,
                                          base.params[name].data)

    def test_theta_minus_theta_is_zero(self):
        a = self._random_checkpoint(1)
        b = Checkpoint({k: Tensor(-t.data, requires_grad=True)
                        for k, t in a.params.items()}, a.config, a.step)
        avg = average_checkpoints([a, b])
        for name in avg.params:
            np.testing.assert_array_equal(avg.params[name].data,
                                          np.zeros_like(avg.params[name].data))

    def test_random_triple_matches_scalar_loop(self):
        ckpts = [self._random_checkpoint(s) for s in (2, 3, 4)]
        avg = average_checkpoints(ckpts)
        for name in ("output/weight", "embed/bpe"):
            stacked = [c.params[name].data for c in ckpts]
            flat = avg.params[name].data.reshape(-1)
            flats = [s.reshape(-1) for s in stacked]
            for i in range(flat.size):
                acc = 0.0
                for s in flats:
                    acc += float(s[i])
                assert flat[i] == np.float32(acc / 3)

    def test_config_and_step_from_newest(self):
        a = self._random_checkpoint(5)
        b = self._random_checkpoint(6)
        a.step, b.step = 10, 30
        assert average_checkpoints([a, b]).step == 30

    def test_name_mismatch_names_offender(self):
        a = self._random_checkpoint(7)
        b = self._random_checkpoint(8)
        del b.params["output/bias"]
        with pytest.raises(CheckpointError, match="output/bias"):
            average_checkpoints([a, b])

    def test_shape_mismatch_names_tensor(self):
        a = self._random_checkpoint(9)
        b = self._random_checkpoint(10)
        b.params["output/bias"] = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(CheckpointError, match="output/bias"):
            average_checkpoints([a, b])

    def test_generator_equals_list_and_newest_is_first_largest_step(self):
        ckpts = [self._random_checkpoint(s) for s in (14, 15, 16)]
        ckpts[0].step, ckpts[1].step, ckpts[2].step = 7, 3, 7
        ckpts[2].config = replace(ckpts[2].config, dropout=0.3)
        lazy = average_checkpoints(c for c in ckpts)
        eager = average_checkpoints(ckpts)
        assert lazy.step == 7 and lazy.config == ckpts[0].config
        for name in eager.params:
            assert lazy.params[name].data.tobytes() == eager.params[name].data.tobytes()

    def test_order_invariance(self):
        ckpts = [self._random_checkpoint(s) for s in (11, 12, 13)]
        forward = average_checkpoints(ckpts)
        reverse = average_checkpoints(ckpts[::-1])
        for name in forward.params:
            np.testing.assert_array_equal(forward.params[name].data,
                                          reverse.params[name].data)


def quick_train_config(epochs, **overrides):
    defaults = dict(epochs=epochs, batch_tokens=256, max_len=32,
                    warmup_steps=30, checkpoint_keep=8, seed=3,
                    label_smoothing=0.1)
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestTrainLoop:
    def test_loss_decreases_and_checkpoints_kept(self, tmp_path):
        cfg = mini_config()
        ckpt = init_params(cfg, seed=0)
        pairs = prepared(10, 16, vocab=24)
        result = train(pairs, [], pairs[:4], ckpt,
                       quick_train_config(3), quick_train_config(0),
                       str(tmp_path / "ckpt"),
                       log_path=str(tmp_path / "log.csv"))
        assert len(result.epoch_records) == 3
        first_epoch = [r.train_loss for r in result.log if r.phase == "generic"][0]
        last_epoch = [r for r in result.log if r.val_loss is not None][-1]
        assert last_epoch.train_loss < first_epoch
        header = (tmp_path / "log.csv").read_text().splitlines()[0].strip()
        assert header == "step,phase,lr,train_loss,val_loss"

    def test_zero_step_finetune_equals_phase1_average(self, tmp_path):
        cfg = mini_config()
        ckpt = init_params(cfg, seed=1)
        pairs = prepared(11, 12, vocab=24)
        result = train(pairs, pairs, pairs[:4], ckpt,
                       quick_train_config(2), quick_train_config(0),
                       str(tmp_path / "ckpt"))
        manual = average_checkpoints(
            [Checkpoint.load(path) for path, _ in sorted(
                result.epoch_records, key=lambda r: (r[1], r[0]))[:8]])
        for name in manual.params:
            np.testing.assert_array_equal(result.averaged.params[name].data,
                                          manual.params[name].data)

    def test_keeps_min_epochs_checkpoint_count(self, tmp_path):
        cfg = mini_config()
        ckpt = init_params(cfg, seed=2)
        pairs = prepared(12, 10, vocab=24)
        keep = 2
        result = train(pairs, [], pairs[:3], ckpt,
                       quick_train_config(3, checkpoint_keep=keep),
                       quick_train_config(0, checkpoint_keep=keep),
                       str(tmp_path / "ckpt"))
        assert len(result.epoch_records) == 3
        best = sorted(result.epoch_records, key=lambda r: (r[1], r[0]))[:keep]
        manual = average_checkpoints([Checkpoint.load(p) for p, _ in best])
        for name in manual.params:
            np.testing.assert_array_equal(result.averaged.params[name].data,
                                          manual.params[name].data)

    def test_step_counter_continues_into_finetune(self, tmp_path):
        cfg = mini_config()
        ckpt = init_params(cfg, seed=3)
        pairs = prepared(13, 8, vocab=24)
        result = train(pairs, pairs[:4], pairs[:2], ckpt,
                       quick_train_config(1), quick_train_config(1),
                       str(tmp_path / "ckpt"))
        steps = [r.step for r in result.log]
        assert steps == sorted(steps)
        phases = [r.phase for r in result.log]
        assert "generic" in phases and "finetune" in phases
        switch = phases.index("finetune")
        assert steps[switch] > steps[0]

    def test_epoch_index_runs_across_both_phases(self, tmp_path, monkeypatch):
        real = TR.make_batches
        epochs = []

        def recording(*args, **kwargs):
            epochs.append(kwargs["epoch"])
            return real(*args, **kwargs)

        monkeypatch.setattr(TR, "make_batches", recording)
        pairs = prepared(15, 8, vocab=24)
        result = train(pairs, pairs[:4], pairs[:2],
                       init_params(mini_config(), seed=5),
                       quick_train_config(2), quick_train_config(1),
                       str(tmp_path / "ckpt"))
        # the validation batches first, then one call per epoch
        assert epochs == [0, 0, 1, 2]
        assert [os.path.basename(p) for p, _ in result.epoch_records] == [
            "epoch_1.tfrx", "epoch_2.tfrx", "epoch_3.tfrx"]

    def test_divergence_aborts_with_checkpoints_retained(self, tmp_path,
                                                         monkeypatch):
        cfg = mini_config()
        ckpt = init_params(cfg, seed=4)
        pairs = prepared(14, 8, vocab=24)
        real = TR.forward_loss
        calls = {"n": 0}

        def exploding(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 2:
                return Tensor(np.array(np.inf), dtype=np.float64)
            return real(*args, **kwargs)

        monkeypatch.setattr(TR, "forward_loss", exploding)
        batches_per_epoch = len(make_batches(pairs, 256, 32, seed=3, epoch=0))
        assert batches_per_epoch <= 2  # epoch 1 survives, epoch 2 explodes
        result = train(pairs, [], pairs[:2], ckpt,
                       quick_train_config(3), quick_train_config(0),
                       str(tmp_path / "ckpt"))
        assert result.aborted
        assert len(result.epoch_records) >= 1
