"""Witten-Bell n-gram models and cross-entropy-difference scoring."""

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from transference import ngram
from transference.corpus import SentencePair
from transference.errors import ConfigError, ContractError, DataError
from transference.ngram import (BOS, EOS, MAX_ORDER, UNK, NGramLM,
                                cross_entropies, cross_entropy, rank_and_split,
                                read_scores_tsv, score_pair, score_pairs,
                                train_lm, write_scores_tsv, ScoredPair)


def stored_counts(lm):
    """Per level, context -> {token: count} in strings (the start marker
    as BOS), read straight from the model's arrays."""
    names = lm.vocab + [BOS]
    levels = []
    for ngrams, counts in lm.levels:
        level = {}
        for row, count in zip(ngrams.tolist(), counts.tolist()):
            *context, token = (names[i] for i in row)
            level.setdefault(tuple(context), {})[token] = count
        levels.append(level)
    return levels


def recursive_prob(counts, vocab_size, token, context):
    """Witten-Bell interpolation written as the textbook recursion over
    ``stored_counts``: the reference for NGramLM's loop and table."""
    if not context:
        lower = 1.0 / vocab_size
    else:
        lower = recursive_prob(counts, vocab_size, token, context[1:])
    bucket = counts[len(context)].get(context)
    if not bucket:
        return lower
    total, types = sum(bucket.values()), len(bucket)
    return (bucket.get(token, 0) + types * lower) / (total + types)


def reference_entropy(lm, sentence, counts=None):
    """cross_entropy by ``recursive_prob`` over every event, summed in
    sentence order."""
    counts = stored_counts(lm) if counts is None else counts
    mapped = [lm.map_token(t) for t in sentence]
    padded = [BOS] * (lm.order - 1) + mapped + [EOS]
    total = 0.0
    for i in range(len(mapped) + 1):
        total -= math.log2(recursive_prob(counts, len(lm.vocab),
                                          padded[i + lm.order - 1],
                                          tuple(padded[i:i + lm.order - 1])))
    return total / (len(mapped) + 1)


def uniform_lm(tokens):
    """Direct-construction LM with no counts: every probability is 1/|V|."""
    vocab = sorted(set(tokens) | {UNK, EOS})
    return NGramLM(1, vocab, [(np.zeros((0, 1), np.int64),
                               np.zeros(0, np.int64))])


class TestTrainLM:
    def test_unigram_normalization_aaa(self):
        lm = train_lm([["a", "a", "a"]], order=1)
        p_a = lm.prob("a", ())
        p_unk = lm.prob(UNK, ())
        p_eos = lm.prob(EOS, ())
        assert p_a > p_unk and p_a > p_eos
        # hand values: counts a=3, EOS=1; N=4, T=2, |V|=3
        assert p_a == pytest.approx((3 + 2 / 3) / 6, abs=1e-12)
        assert p_a + p_unk + p_eos == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_witten_bell(self):
        # corpus: "a b", "a a"; order 2
        lm = train_lm([["a", "b"], ["a", "a"]], order=2)
        v = 4  # {a, b, UNK, EOS}
        p1_a = (3 + 3 / v) / (6 + 3)
        p1_b = (1 + 3 / v) / (6 + 3)
        p1_eos = (2 + 3 / v) / (6 + 3)
        assert lm.prob("a", ()) == pytest.approx(p1_a, abs=1e-12)
        assert lm.prob("a", (BOS,)) == pytest.approx((2 + 1 * p1_a) / 3, abs=1e-12)
        assert lm.prob("b", ("a",)) == pytest.approx((1 + 3 * p1_b) / 6, abs=1e-12)
        assert lm.prob(EOS, ("b",)) == pytest.approx((1 + 1 * p1_eos) / 2, abs=1e-12)

    def test_unseen_tokens_finite_entropy(self):
        lm = train_lm([["a", "b", "a", "b"]], order=3)
        h = cross_entropy(lm, ["zcela", "nové", "věci"])
        assert math.isfinite(h) and h > 0

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            train_lm([], order=3)
        with pytest.raises(DataError):
            train_lm([[]], order=3)

    def test_singletons_kept_unseen_map_to_unk(self):
        lm = train_lm([["a", "a", "jednou"]], order=1)
        assert lm.vocab == sorted(["a", "jednou", UNK, EOS])
        assert lm.map_token("jednou") == "jednou"
        assert lm.map_token("nikdy") == UNK
        assert lm.prob("jednou", ()) > lm.prob("nikdy", ()) > 0

    def test_counts_match_brute_force_events(self):
        rng = np.random.default_rng(4)
        words = ["a", "b", "c", "d", "e", "f"]
        corpus = [[words[i] for i in rng.integers(0, 6, size=rng.integers(1, 8))]
                  for _ in range(25)]
        # a literal <s> is counted as UNK, so UNK events are counted too
        corpus[3][:0] = [BOS]
        corpus[7].append(BOS)
        for order in (1, 2, 3, 4):
            lm = train_lm(corpus, order=order)
            expected = [Counter() for _ in range(order)]
            for sent in corpus:
                tokens = [BOS] * (order - 1) + [lm.map_token(t) for t in sent] + [EOS]
                for i in range(order - 1, len(tokens)):
                    for k in range(order):
                        expected[k][(tuple(tokens[i - k:i]), tokens[i])] += 1
            assert expected[0][((), UNK)] == 2
            got = [Counter({(ctx, tok): n for ctx, bucket in level.items()
                            for tok, n in bucket.items()})
                   for level in stored_counts(lm)]
            assert got == expected, f"order {order}"

    def test_context_distributions_normalize(self):
        rng = np.random.default_rng(0)
        words = ["alfa", "beta", "gama", "delta"]
        corpus = [[words[i] for i in rng.integers(0, 4, size=rng.integers(2, 7))]
                  for _ in range(30)]
        lm = train_lm(corpus, order=3)
        for level in stored_counts(lm):
            for context in list(level)[:40]:
                total = sum(lm.prob(w, context) for w in lm.vocab)
                assert total == pytest.approx(1.0, abs=1e-9)


class TestCrossEntropy:
    def test_uniform_lm_gives_log2_v(self):
        lm = uniform_lm(["a", "b"])  # |V| = 4 with UNK and EOS
        for sentence in (["a"], ["a", "b"], ["b", "b", "a"]):
            assert cross_entropy(lm, sentence) == pytest.approx(2.0, abs=1e-12)

    def test_matches_hand_computed_log_sum(self):
        lm = train_lm([["a", "b"], ["a", "a"]], order=2)
        expected = -(math.log2(lm.prob("a", (BOS,)))
                     + math.log2(lm.prob("b", ("a",)))
                     + math.log2(lm.prob(EOS, ("b",)))) / 3
        assert cross_entropy(lm, ["a", "b"]) == pytest.approx(expected, abs=1e-12)

    def test_equals_recursive_reference_exactly(self, tmp_path):
        # the trained model and its save -> load copy, whose table is
        # built from the file
        rng = np.random.default_rng(5)
        words = ["alfa", "beta", "gama", "delta", "eta"]
        corpus = [[words[i] for i in rng.integers(0, 5, size=rng.integers(1, 9))]
                  for _ in range(40)]
        sentences = [["alfa", "nové", "beta", "beta"], ["zcela", "cizí"],
                     ["gama"], ["eta", "delta", "alfa", "nic", "gama", "eta"]]
        for order in (1, 2, 3, 4):
            lm = train_lm(corpus, order=order)
            path = str(tmp_path / f"lm{order}.json")
            lm.save(path)
            loaded = NGramLM.load(path)
            counts = stored_counts(lm)
            for sentence in sentences:
                expected = reference_entropy(lm, sentence, counts)
                assert cross_entropy(lm, sentence) == expected
                assert cross_entropy(loaded, sentence) == expected

    def test_start_marker_token_is_unknown(self):
        # a literal <s> is never in the vocabulary: UNK when training and
        # when scoring, never the start marker of the padded contexts
        lm = train_lm([["a", "b"]] * 3 + [["a", "<s>", "b"]], order=2)
        assert BOS not in lm.vocab and lm.map_token(BOS) == UNK
        assert (cross_entropy(lm, ["a", "<s>", "b"])
                == cross_entropy(lm, ["a", "zzz", "b"]))
        assert BOS not in train_lm([[BOS, BOS, "a"]] * 2, order=2).vocab

    def test_counted_ngram_without_counted_suffix(self, tmp_path):
        # order 3 over </s>=0 <unk>=1 a=2 b=3, start marker 4: level 2
        # counts "<s> <s> b", whose level-1 context <s> never saw b, and
        # "a b b", whose level-1 context b was never counted at all
        path = tmp_path / "forged.json"
        path.write_text(json.dumps({
            "order": 3, "vocab": [EOS, UNK, "a", "b"],
            "levels": [{"contexts": [], "tokens": [0, 2, 3], "counts": [2, 3, 1]},
                       {"contexts": [2, 4], "tokens": [3, 2], "counts": [1, 2]},
                       {"contexts": [2, 3, 4, 4], "tokens": [3, 3],
                        "counts": [1, 2]}]}), encoding="utf-8")
        lm = NGramLM.load(str(path))
        counts = stored_counts(lm)
        assert counts[2] == {("a", "b"): {"b": 1}, (BOS, BOS): {"b": 2}}
        for sentence in (["b"], ["a", "b", "b"], ["b", "a"], ["zz", "a"]):
            assert cross_entropy(lm, sentence) == reference_entropy(lm, sentence)
        for context in ((BOS, BOS), ("a", "b"), ("b", "a"), (BOS, "a")):
            for token in lm.vocab:
                assert lm.prob(token, context) == recursive_prob(
                    counts, len(lm.vocab), token, context)

    def test_order_above_bound_rejected(self):
        with pytest.raises(ConfigError, match="got 11"):
            train_lm([["a", "b"]], order=MAX_ORDER + 1)
        assert train_lm([["a", "b"]] * 2, order=MAX_ORDER).order == MAX_ORDER

    def test_memorizing_lm_near_zero(self):
        lm = train_lm([["b", "c", "d", "e"]] * 50, order=3)
        assert cross_entropy(lm, ["b", "c", "d", "e"]) < 0.3

    def test_empty_sentence_rejected(self):
        lm = train_lm([["a", "a"]], order=2)
        with pytest.raises(ContractError):
            cross_entropy(lm, [])


def make_pair(i, src="a b", trg="x y"):
    return SentencePair(tuple(src.split()), tuple(trg.split()), i)


class TestScorePair:
    def setup_method(self):
        self.lm_in = train_lm([["a", "b"], ["a", "a"]], order=2)
        self.lm_out = train_lm([["b", "b"], ["c", "a", "b"]], order=2)

    def test_identical_models_score_zero(self):
        scored = score_pair(make_pair(0), self.lm_in, self.lm_in,
                            self.lm_out, self.lm_out)
        assert scored.score == pytest.approx(0.0, abs=1e-12)

    def test_matches_cross_entropy_oracle(self):
        pair = make_pair(0, "a b a", "b c")
        scored = score_pair(pair, self.lm_in, self.lm_out,
                            self.lm_in, self.lm_out)
        expected = (abs(cross_entropy(self.lm_in, pair.source)
                        - cross_entropy(self.lm_out, pair.source))
                    + abs(cross_entropy(self.lm_in, pair.target)
                          - cross_entropy(self.lm_out, pair.target)))
        assert scored.score == pytest.approx(expected, abs=1e-12)
        assert scored.score == pytest.approx(
            abs(scored.h_src_in - scored.h_src_out)
            + abs(scored.h_trg_in - scored.h_trg_out), abs=1e-9)

    def test_swap_symmetry(self):
        pair = make_pair(0, "a b", "b a")
        forward = score_pair(pair, self.lm_in, self.lm_out,
                             self.lm_in, self.lm_out)
        swapped = score_pair(pair, self.lm_out, self.lm_in,
                             self.lm_out, self.lm_in)
        assert forward.score == pytest.approx(swapped.score, abs=1e-12)

    def test_score_nonnegative_and_shift_invariant(self):
        pair = make_pair(0, "a b", "b a")
        s = score_pair(pair, self.lm_in, self.lm_out, self.lm_in, self.lm_out)
        assert s.score >= 0
        # adding a constant to both source entropies leaves the score as is
        shifted = abs((s.h_src_in + 2.5) - (s.h_src_out + 2.5)) + abs(
            s.h_trg_in - s.h_trg_out)
        assert shifted == pytest.approx(s.score, abs=1e-12)


# in-domain and general corpora for both sides; the scored pairs below hold
# tokens neither model saw, a literal <s>, one-token sentences, a sentence
# repeated within a side and one shared by both sides
SIDES = {
    "in": ([["a", "b"], ["a", "a", "c"], ["b", "c", "a"]],
           [["x", "y"], ["x", "x", "z"], ["y", "a"]]),
    "out": ([["b", "b"], ["c", "a", "b"], ["d", "a"], ["a"]],
            [["y", "y"], ["z", "x", "y"], ["w"], ["x", "w", "z"]]),
}
SCORED = [make_pair(0, "a b c", "x y"), make_pair(1, "zz a", "x q q"),
          make_pair(2, "a <s> b", "<s>"), make_pair(3, "a", "w"),
          make_pair(4, "a b c", "y a"), make_pair(5, "a b c", "x y"),
          make_pair(6, "d", "a b c"), make_pair(7, "c c c c c a", "z")]


def fresh_models(order=3):
    """The in-domain and general source models, then the target ones."""
    (in_src, in_trg), (out_src, out_trg) = SIDES["in"], SIDES["out"]
    return [train_lm(corpus, order) for corpus in (in_src, out_src, in_trg, out_trg)]


def bits(scored):
    """Each scored pair's pair and its five floats as exact hex strings."""
    return [(s.pair,) + tuple(float.hex(v) for v in (
        s.h_src_in, s.h_src_out, s.h_trg_in, s.h_trg_out, s.score))
            for s in scored]


class TestScorePairs:
    def test_equals_score_pair_bit_for_bit(self):
        for order in (1, 2, 3, 4):
            batched = score_pairs(SCORED, *fresh_models(order))
            lms = fresh_models(order)
            assert bits(batched) == bits([score_pair(p, *lms) for p in SCORED])

    def test_one_model_on_both_sides(self):
        # the memo is per model: a model scoring both sides keeps both
        lm_in = train_lm(SIDES["in"][0] + SIDES["in"][1])
        lm_out = train_lm(SIDES["out"][0] + SIDES["out"][1])
        batched = score_pairs(SCORED, lm_in, lm_out, lm_in, lm_out)
        assert bits(batched) == bits([score_pair(p, lm_in, lm_out, lm_in, lm_out)
                                      for p in SCORED])

    def test_memo_is_empty_after_the_call(self):
        lms = fresh_models()
        assert score_pairs([], *lms) == [] and ngram._memo == {}
        score_pairs(SCORED, *lms)
        assert ngram._memo == {}
        # the source models fill the memo before an empty target raises
        with pytest.raises(ContractError):
            score_pairs(SCORED + [make_pair(8, "a b", "")], *lms)
        assert ngram._memo == {}

    def test_cross_entropies_equal_reference(self):
        sentences = [p.source for p in SCORED] + [p.target for p in SCORED]
        for order in (1, 2, 3, 4):
            lm = train_lm(SIDES["out"][0] + SIDES["out"][1], order)
            assert cross_entropies(lm, sentences) == [
                reference_entropy(lm, sentence) for sentence in sentences]

    def test_prob_with_a_short_context_equals_reference(self):
        lm = train_lm(SIDES["out"][0] + SIDES["in"][0], order=4)
        counts = stored_counts(lm)
        for context in ((), ("a",), (BOS,), ("zz",), (BOS, "a"), ("c", "a"),
                        (BOS, BOS), ("b", "zz")):
            mapped = tuple(t if t == BOS else lm.map_token(t) for t in context)
            for token in lm.vocab + ["zz"]:
                assert lm.prob(token, context) == recursive_prob(
                    counts, len(lm.vocab), lm.map_token(token), mapped)


class TestRankAndSplit:
    def _scored(self, scores):
        return [ScoredPair(make_pair(i), 0.0, 0.0, 0.0, 0.0, s)
                for i, s in enumerate(scores)]

    def test_validation_plus_training_counts(self):
        # same arithmetic as the full-scale corpus: total - 1000 training
        assert 1394319 - 1000 == 1393319
        scored = self._scored(list(np.random.default_rng(1).random(12000)))
        validation, selected, sorted_all = rank_and_split(scored, 1000, 500000)
        assert len(validation) == 1000
        assert len(sorted_all) == 12000 - 1000
        assert len(selected) == len(sorted_all)  # n_select caps at remainder

    def test_stable_tie_break(self):
        scored = self._scored([0.5] * 9)
        validation, selected, sorted_all = rank_and_split(scored, 3, 4)
        assert [s.pair.original_index for s in validation] == [0, 1, 2]
        assert [s.pair.original_index for s in sorted_all] == list(range(3, 9))

    def test_matches_brute_force_sort(self):
        rng = np.random.default_rng(2)
        scores = list(rng.random(10))
        scored = self._scored(scores)
        validation, selected, sorted_all = rank_and_split(scored, 2, 3)
        brute = sorted(range(10), key=lambda i: scores[i])
        assert [s.pair.original_index for s in validation] == brute[:2]
        assert [s.pair.original_index for s in selected] == brute[2:5]
        assert [s.pair.original_index for s in sorted_all] == brute[2:]

    def test_validation_disjoint_from_selection(self):
        rng = np.random.default_rng(3)
        scored = self._scored(list(rng.random(50)))
        validation, selected, sorted_all = rank_and_split(scored, 10, 100)
        val_ids = {s.pair.original_index for s in validation}
        sel_ids = {s.pair.original_index for s in selected}
        assert val_ids & sel_ids == set()
        assert val_ids & {s.pair.original_index for s in sorted_all} == set()

    def test_too_small_corpus_rejected(self):
        with pytest.raises(ConfigError):
            rank_and_split(self._scored([0.1, 0.2]), 2, 1)

    @pytest.mark.parametrize("n_val, n_select, name", [
        (2, -3, "n_select"), (-3, 4, "n_validation")])
    def test_negative_sizes_rejected(self, n_val, n_select, name):
        with pytest.raises(ConfigError, match=f"{name} must be >= 0, got -3"):
            rank_and_split(self._scored(list(range(10))), n_val, n_select)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    words = ["alfa", "beta", "gama", "delta"]
    corpus = [[words[i] for i in rng.integers(0, 4, size=rng.integers(1, 7))]
              for _ in range(30)]
    sentences = [["alfa", "beta"], ["nové", "gama", "gama"], ["delta"]]
    for order in (1, 2, 3):
        lm = train_lm(corpus, order=order)
        path = str(tmp_path / f"lm{order}.json")
        lm.save(path)
        loaded = NGramLM.load(path)
        assert (loaded.order, loaded.vocab, stored_counts(loaded)) == (
            lm.order, lm.vocab, stored_counts(lm))
        for sentence in sentences:
            assert cross_entropy(loaded, sentence) == cross_entropy(lm, sentence)


def test_scores_tsv_format(tmp_path):
    pairs = [make_pair(i) for i in range(4)]
    scored = [ScoredPair(pairs[3], 1.25, 2.5, 0.125, 0.0625, 3.6875)] + [
        ScoredPair(pairs[i], i / 3, 1.0, 2 / 7, 0.0, i + 1 / 9) for i in range(3)]
    path = str(tmp_path / "scores.tsv")
    write_scores_tsv(path, scored)
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    assert lines[0] == "3\t3.687500\t1.250000\t2.500000\t0.125000\t0.062500"
    assert len(lines) == 5 and lines[-1] == ""
    fields = ("score", "h_src_in", "h_src_out", "h_trg_in", "h_trg_out")
    back = read_scores_tsv(path, pairs)
    assert [s.pair for s in back] == [s.pair for s in scored]
    assert [[getattr(s, f) for f in fields] for s in back] == [
        [round(getattr(s, f), 6) for f in fields] for s in scored]


def test_selection_enriches_a_singleton_heavy_domain():
    # Two domains rank one 500-word vocabulary differently under the same
    # Zipf weights.  The 30 in-domain pairs see most of their word types
    # once, so an in-domain model that mapped singletons to UNK would give
    # general words its frequent UNK probability and select general pairs
    # (4 in-domain pairs of the 60 on this seed, against 56 when every
    # token is kept).
    rng = np.random.default_rng(0)
    weights = 1.0 / np.arange(1, 501) ** 1.1
    weights /= weights.sum()
    ranks = (rng.permutation(500), rng.permutation(500))

    def pair(i, domain):
        words = tuple(f"w{ranks[domain][p]}"
                      for p in rng.choice(500, size=6, p=weights))
        return SentencePair(words, tuple(w.upper() for w in words), i)

    indomain = [pair(i, 1) for i in range(30)]
    labels = (rng.random(300) < 0.25).astype(int)
    general = [pair(i, domain) for i, domain in enumerate(labels)]
    seen = Counter(t for p in indomain for t in p.source)
    assert sum(n == 1 for n in seen.values()) > 0.7 * len(seen)

    lms = [train_lm([getattr(p, side) for p in data])
           for data in (indomain, general) for side in ("source", "target")]
    scored = [score_pair(p, lms[0], lms[2], lms[1], lms[3]) for p in general]
    _, selected, _ = rank_and_split(scored, 0, 60)
    share = np.mean([labels[s.pair.original_index] for s in selected])
    assert share > 2 * labels.mean()
