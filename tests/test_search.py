"""Beam search against stub distributions, exhaustive enumeration, the
incremental decoder against full re-forwarding, and the batched lockstep
search against per-sentence search."""

import numpy as np
import pytest

from transference.errors import ContractError, NumericError
from transference.model import (BOS_ID, EOS_ID, PAD_ID, DecoderCache,
                                EncodedSource, ModelConfig, SourceBatch,
                                decode_forward, encode, init_params,
                                make_source_batch)
from transference.search import (IncrementalDecoder, _expand, _top_tokens,
                                 beam_search, beam_search_nbest, greedy_decode,
                                 translate_batch, translate_batch_nbest)
from transference.tensor import Tensor

from oracles import enumerate_best_sequences


class StubStepper:
    """Stepper driven by a table of per-prefix log-probabilities."""

    def __init__(self, table, vocab):
        self.table = table  # prefix tuple -> ndarray [vocab]
        self.vocab = vocab

    def initial(self):
        return ()

    def advance(self, state, token):
        return state + (token,)

    def logprobs(self, state):
        return self.table(state)


def normalized(logits):
    logits = np.asarray(logits, dtype=np.float64)
    return logits - np.log(np.exp(logits).sum())


class TestBeamSearchStub:
    def test_one_hot_stub_reproduces_fixed_string(self):
        target = [5, 3, 4, EOS_ID]

        def table(prefix):
            want = target[len(prefix)] if len(prefix) < len(target) else EOS_ID
            row = np.full(8, -50.0)
            row[want] = -1e-6
            return normalized(row)

        best = beam_search(StubStepper(table, 8), beam=4, max_len=10)
        assert best.tokens == tuple(target)
        assert best.finished

    def test_beam_one_equals_greedy_argmax(self):
        rng = np.random.default_rng(0)
        rows = {}

        def table(prefix):
            key = prefix
            if key not in rows:
                rows[key] = normalized(rng.normal(size=6))
            return rows[key]

        best = beam_search(StubStepper(table, 6), beam=1, max_len=5,
                           length_alpha=0.0)
        prefix = ()
        greedy = []
        for _ in range(5):
            tok = int(np.argmax(table(prefix)))
            greedy.append(tok)
            if tok == EOS_ID:
                break
            prefix = prefix + (tok,)
        assert list(best.tokens) == greedy

    def test_three_step_search_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(1)
        vocab, max_len = 4, 3
        rows = {}

        def table(prefix):
            if prefix not in rows:
                rows[prefix] = normalized(rng.normal(size=vocab))
            return rows[prefix]

        stepper = StubStepper(table, vocab)
        huge_beam = vocab ** max_len  # exhaustive equivalence regime
        best = beam_search(stepper, beam=huge_beam, max_len=max_len,
                           length_alpha=0.0)
        oracle = enumerate_best_sequences(table, vocab, EOS_ID, max_len,
                                          length_alpha=0.0)
        assert best.tokens == oracle[0][1]
        assert best.logprob == pytest.approx(oracle[0][0], rel=1e-12)

    def test_nbest_matches_enumeration_order(self):
        rng = np.random.default_rng(2)
        vocab, max_len = 3, 3
        rows = {}

        def table(prefix):
            if prefix not in rows:
                rows[prefix] = normalized(rng.normal(size=vocab))
            return rows[prefix]

        ranked = beam_search_nbest(StubStepper(table, vocab),
                                   beam=vocab ** max_len, max_len=max_len,
                                   length_alpha=0.0)
        oracle = enumerate_best_sequences(table, vocab, EOS_ID, max_len,
                                          length_alpha=0.0)
        assert [h.tokens for h in ranked] == [seq for _, seq in oracle]

    def test_output_never_exceeds_max_len(self):
        def table(prefix):
            return normalized(np.zeros(5))  # uniform, EOS never preferred

        for max_len in (1, 2, 7):
            best = beam_search(StubStepper(table, 5), beam=3, max_len=max_len,
                               length_alpha=0.0)
            assert len(best.tokens) <= max_len

    def test_logprob_non_increasing(self):
        rng = np.random.default_rng(3)

        def table(prefix):
            return normalized(rng.normal(size=5))

        ranked = beam_search_nbest(StubStepper(table, 5), beam=3, max_len=6)
        for hyp in ranked:
            assert hyp.logprob <= 1e-12
            if hyp.finished:
                assert hyp.tokens[-1] == EOS_ID

    def test_determinism(self):
        rng_rows = {}

        def table(prefix):
            if prefix not in rng_rows:
                rng_rows[prefix] = normalized(
                    np.random.default_rng(hash(prefix) % 2 ** 31).normal(size=6))
            return rng_rows[prefix]

        a = beam_search(StubStepper(table, 6), beam=4, max_len=8)
        b = beam_search(StubStepper(table, 6), beam=4, max_len=8)
        assert a == b


def search_config(**overrides):
    defaults = dict(bpe_vocab_size=14, word_vocab_size=12, n_layers_fw=1,
                    n_layers_fs=1, n_layers_es=1, n_layers_dec=2,
                    d_model=8, d_ff=16, heads=2, dropout=0.0,
                    max_positions=12)
    defaults.update(overrides)
    return ModelConfig(**defaults)


class TestIncrementalDecoder:
    def test_matches_full_reforward(self):
        cfg = search_config()
        ckpt = init_params(cfg, seed=0)
        batch = make_source_batch([[4, 5, 6]], [[4, 5, 6, 7]])
        encoded = encode(cfg, ckpt.params, batch)
        stepper = IncrementalDecoder(ckpt, batch)

        prefix = [BOS_ID]
        state = stepper.initial()
        for next_token in (5, 7, 4, 9):
            logits = decode_forward(cfg, ckpt.params, encoded,
                                    np.array([prefix])).data[0, -1]
            shifted = logits - logits.max()
            full_logprobs = shifted - np.log(np.exp(shifted).sum())
            np.testing.assert_allclose(stepper.logprobs(state), full_logprobs,
                                       atol=1e-5)
            state = stepper.advance(state, next_token)
            prefix.append(next_token)

    def test_advance_does_not_mutate_parent_state(self):
        cfg = search_config()
        ckpt = init_params(cfg, seed=1)
        batch = make_source_batch([[4, 5]], [[4, 5, 6]])
        stepper = IncrementalDecoder(ckpt, batch)
        root = stepper.initial()
        before = stepper.logprobs(root).copy()
        a = stepper.advance(root, 4)
        b = stepper.advance(root, 5)
        np.testing.assert_array_equal(stepper.logprobs(root), before)
        assert a.length == b.length == root.length + 1

    def test_rejects_batches(self):
        cfg = search_config()
        ckpt = init_params(cfg, seed=2)
        batch = make_source_batch([[4], [5]], [[4], [5]])
        with pytest.raises(ContractError):
            IncrementalDecoder(ckpt, batch)


class TestTranslateBatch:
    def test_deterministic_and_bounded(self):
        cfg = search_config()
        ckpt = init_params(cfg, seed=3)
        batch = make_source_batch([[4, 5, 6], [7, 8]], [[4, 5, 6], [7, 8]])
        a = translate_batch(ckpt, batch, beam=4, max_len=6)
        b = translate_batch(ckpt, batch, beam=4, max_len=6)
        assert a == b
        assert all(len(ids) <= 6 for ids in a)
        assert all(EOS_ID not in ids for ids in a)

    def test_beam_one_equals_greedy(self):
        cfg = search_config()
        ckpt = init_params(cfg, seed=4)
        batch = make_source_batch([[4, 5]], [[4, 5, 6]])
        beam1 = translate_batch(ckpt, batch, beam=1, max_len=6,
                                length_alpha=0.0)
        greedy = greedy_decode(ckpt, batch, max_len=6)
        assert beam1 == greedy

    def test_empty_source_rejected(self):
        cfg = search_config()
        ckpt = init_params(cfg, seed=5)
        batch = make_source_batch([[]], [[]])
        with pytest.raises(ContractError):
            translate_batch(ckpt, batch)

    def test_max_len_clamped_to_position_limit(self):
        cfg = search_config(max_positions=6)
        ckpt = init_params(cfg, seed=6)
        batch = make_source_batch([[4, 5]], [[4, 5, 6]])
        ids = translate_batch(ckpt, batch, beam=2, max_len=500)
        assert all(len(row) <= 6 for row in ids)


def sentence(batch, row):
    """Row ``row`` of a padded batch as a batch of one, pads cut off."""
    n_w = int((~batch.f_w_pad[row]).sum())
    n_s = int((~batch.f_s_pad[row]).sum())
    return SourceBatch(batch.f_w[row:row + 1, :n_w], batch.f_w_pad[row:row + 1, :n_w],
                       batch.f_s[row:row + 1, :n_s], batch.f_s_pad[row:row + 1, :n_s])


def sharp_checkpoint():
    """Sharpened output layer, and <pad>/<s> never predicted, as after
    training.  With an EOS bias of 2, the sentences of ``MIXED`` end both
    by EOS at different lengths and at max_len 7."""
    ckpt = init_params(search_config(), seed=8)
    ckpt.params["output/weight"].data[:] *= 3.0
    bias = ckpt.params["output/bias"].data
    bias[[PAD_ID, BOS_ID]] = -1e4
    bias[EOS_ID] = 2.0
    return ckpt


MIXED = make_source_batch([[4, 5, 6], [7], [8, 9, 10, 11, 4], [5, 6], [9, 9]],
                          [[4, 5, 6, 7], [7], [8, 9, 10, 11, 12, 13], [5, 6, 4],
                           [10, 11]])


class TestLockstepSearch:
    @pytest.mark.parametrize("beam", [1, 2, 4])
    def test_matches_per_sentence_search(self, beam):
        ckpt = sharp_checkpoint()
        max_len = 7
        pools = translate_batch_nbest(ckpt, MIXED, beam=beam, max_len=max_len)
        lengths = set()
        for row, pool in enumerate(pools):
            want = beam_search_nbest(IncrementalDecoder(ckpt, sentence(MIXED, row)),
                                     beam=beam, max_len=max_len)
            assert [h.tokens for h in pool] == [h.tokens for h in want]
            np.testing.assert_allclose([h.logprob for h in pool],
                                       [h.logprob for h in want], atol=1e-5)
            lengths.add(len(pool[0].output_ids()))
        # both endings occur: EOS before max_len, and max_len itself
        assert max_len in lengths and len(lengths) > 1

    def test_output_does_not_depend_on_batch_mates(self):
        ckpt = sharp_checkpoint()
        together = translate_batch(ckpt, MIXED, beam=3, max_len=7)
        for row in range(MIXED.f_s.shape[0]):
            alone = translate_batch(ckpt, sentence(MIXED, row), beam=3, max_len=7)
            assert alone == [together[row]]
        rows = [4, 2, 0]
        regrouped = make_source_batch(
            [MIXED.f_w[r][~MIXED.f_w_pad[r]].tolist() for r in rows],
            [MIXED.f_s[r][~MIXED.f_s_pad[r]].tolist() for r in rows])
        assert translate_batch(ckpt, regrouped, beam=3, max_len=7) == [
            together[r] for r in rows]

    def test_reordered_cache_matches_full_reforward(self):
        cfg = search_config()
        ckpt = init_params(cfg, seed=9)
        batch = make_source_batch([[4, 5, 6], [7, 8]], [[4, 5, 6, 7], [8, 9]])
        encoded = encode(cfg, ckpt.params, batch)
        # (source of each cache row, [(next tokens, parents)]): two cache
        # rows per sentence, then one
        cases = ((np.array([0, 0, 1, 1]), (([5, 6, 7, 8], [1, 0, 3, 3]),
                                           ([9, 4, 5, 6], [0, 0, 2, 3]),
                                           ([10, 11, 12, 13], [1, 1, 3, 2]))),
                 (np.array([0, 1]), (([5, 6], [0, 1]), ([9, 4], [0, 1]),
                                     ([10, 11], [0, 1]))))
        for owner, steps in cases:
            take = lambda t: Tensor(t.data[owner])
            per_row = EncodedSource(take(encoded.enc1_out), take(encoded.enc2_out),
                                    take(encoded.enc12_out), encoded.f_w_pad[owner],
                                    encoded.f_s_pad[owner])
            cache = DecoderCache(cfg, ckpt.params, encoded, rows=len(owner), capacity=6)
            prefix = np.full((len(owner), 1), BOS_ID)
            logits = decode_forward(cfg, ckpt.params, encoded, prefix, cache=cache)
            for tokens, parents in steps:
                full = decode_forward(cfg, ckpt.params, per_row, prefix).data[:, -1]
                np.testing.assert_allclose(logits.data[:, -1], full, atol=1e-5)
                cache.reorder(np.array(parents))
                prefix = np.concatenate([prefix[parents], np.array(tokens)[:, None]], axis=1)
                logits = decode_forward(cfg, ckpt.params, encoded,
                                        np.array(tokens)[:, None], cache=cache)
            full = decode_forward(cfg, ckpt.params, per_row, prefix).data[:, -1]
            np.testing.assert_allclose(logits.data[:, -1], full, atol=1e-5)

    def test_cache_rows_must_split_over_sources(self):
        cfg = search_config()
        ckpt = init_params(cfg, seed=9)
        encoded = encode(cfg, ckpt.params, make_source_batch([[4], [5]], [[4], [5]]))
        with pytest.raises(ContractError, match="3 rows"):
            DecoderCache(cfg, ckpt.params, encoded, rows=3, capacity=4)

    def test_pad_and_bos_never_output(self):
        ckpt = init_params(search_config(), seed=10)
        ckpt.params["output/bias"].data[[PAD_ID, BOS_ID]] = 5.0
        batch = make_source_batch([[4, 5, 6], [7, 8]], [[4, 5, 6], [7, 8]])
        for ids in translate_batch(ckpt, batch, beam=3, max_len=6):
            assert ids and PAD_ID not in ids and BOS_ID not in ids
        for pool in translate_batch_nbest(ckpt, batch, beam=3, max_len=6):
            assert all(PAD_ID not in h.tokens and BOS_ID not in h.tokens
                       for h in pool)

    @pytest.mark.parametrize("words, subs, cause", [
        ([[4], []], [[4], []], "source sentence 1 is empty"),
        ([[4], [5, 6], [4, 5, 6, 7, 8, 9]], [[4], [5, 6], [4, 5, 6, 7, 8, 9]],
         "source sentence 2 has 6 subwords"),
    ])
    def test_bad_sentence_named_before_decoding(self, words, subs, cause):
        ckpt = init_params(search_config(max_positions=4), seed=11)
        with pytest.raises(ContractError, match=cause):
            translate_batch(ckpt, make_source_batch(words, subs))


def tied_logprobs(rng, rows, vocab, dtype):
    """Rows on a coarse grid, so that many tie at their k-th value, with
    <pad> and <s> at -inf, one row with 3 entries above -inf, one with
    none, and one that is all one value."""
    x = (np.round(rng.normal(size=(rows, vocab)) * 2) / 2 - 3).astype(dtype)
    x[:, [PAD_ID, BOS_ID]] = -np.inf
    x[1, 5:] = -np.inf
    x[2] = -np.inf
    x[3] = -1.5
    return x


class TestTopTokens:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_a_stable_sort(self, dtype):
        vocab = 13
        for seed in range(5):
            x = tied_logprobs(np.random.default_rng(seed), 17, vocab, dtype)
            before = x.copy()
            for k in (1, 2, 4, 5, vocab - 1, vocab):
                np.testing.assert_array_equal(
                    _top_tokens(x, k), np.argsort(-x, axis=1, kind="stable")[:, :k])
            np.testing.assert_array_equal(x, before)
        x = np.random.default_rng(5).normal(size=(9, 300)).astype(dtype)
        np.testing.assert_array_equal(
            _top_tokens(x, 5), np.argsort(-x, axis=1, kind="stable")[:, :5])

    def test_nan_row_raises(self):
        x = np.zeros((3, 6))
        x[1, 4] = np.nan
        with pytest.raises(NumericError, match="NaN in 1 of 3 rows"):
            _top_tokens(x, 2)


def expand_reference(scores, logprobs, groups, beam, eos_id):
    """``_expand``'s rules by plain sorting: per sentence, every row's top
    beam + 1 tokens by (-logprob, token), the candidates by (-score, row,
    token); EOS finishes, the first ``beam`` others stay live, -inf is
    dropped."""
    rows, vocab = logprobs.shape
    per, k = rows // groups, min(beam + 1, vocab)
    out = []
    for g in range(groups):
        cands = []
        for r in range(g * per, (g + 1) * per):
            top = sorted(range(vocab), key=lambda t: (-logprobs[r, t], t))[:k]
            cands += [(float(scores[r] + logprobs[r, t]), r, t) for t in top]
        live = 0
        for s, r, t in sorted(cands, key=lambda c: (-c[0], c[1], c[2])):
            if s == -np.inf:
                continue
            if t == eos_id:
                out.append((r, t, s, -1))
            elif live < beam:
                out.append((r, t, s, live))
                live += 1
    return out


class TestExpand:
    @pytest.mark.parametrize("beam", [1, 2, 4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_a_per_sentence_sort(self, beam, dtype):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            groups, vocab = 4, 11
            rows = groups * beam
            logprobs = tied_logprobs(rng, rows, vocab, dtype)
            # a repeated row, equal scores across rows, and rows without a
            # live hypothesis (-inf)
            logprobs[beam - 1] = logprobs[0]
            scores = rng.choice([0.0, -1.0, -2.5, -np.inf], size=rows)
            scores[0] = 0.0
            got = list(zip(*(a.tolist() for a in _expand(
                scores, logprobs, groups, beam, EOS_ID))))
            assert got == expand_reference(scores, logprobs, groups, beam, EOS_ID)

    def test_rounded_ties_in_a_row_go_to_the_lower_token(self):
        # 1e17 - 0.25 and 1e17 - 0.5 round to the same score, so row 0's
        # second-best token (id 4) comes before its best (id 7)
        logprobs = np.full((2, 9), -9.0)
        logprobs[0, 7], logprobs[0, 4] = -0.25, -0.5
        logprobs[1, 3] = -0.75
        scores = np.array([1e17, 1e17])
        row, token, score, rank = _expand(scores, logprobs, 1, 3, EOS_ID)
        assert (row[:3].tolist(), token[:3].tolist()) == ([0, 0, 1], [4, 7, 3])
        got = list(zip(*(a.tolist() for a in (row, token, score, rank))))
        assert got == expand_reference(scores, logprobs, 1, 3, EOS_ID)


class TestNonFiniteOutput:
    def test_nan_output_layer_raises(self):
        ckpt = init_params(search_config(), seed=12)
        ckpt.params["output/weight"].data[:] = np.nan
        batch = make_source_batch([[4, 5, 6], [7, 8]], [[4, 5, 6], [7, 8]])
        with pytest.raises(NumericError, match="log-probabilities contain NaN"):
            translate_batch(ckpt, batch, beam=3, max_len=6)

    def test_nan_stub_distribution_raises(self):
        stepper = StubStepper(lambda prefix: np.full(5, np.nan), 5)
        with pytest.raises(NumericError, match="log-probabilities contain NaN"):
            beam_search_nbest(stepper, beam=2, max_len=3)
