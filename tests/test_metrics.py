"""BLEU and TER against hand computations and exhaustive oracles."""

import math

import numpy as np
import pytest

from transference.errors import ContractError
from transference.metrics import (EvalReport, bleu, evaluate_corpus,
                                  metric_tokenize, ter, _bleu_details,
                                  _levenshtein, _sentence_edits)

from oracles import exhaustive_shift_edits, levenshtein_reference


def plain_greedy_shift_edits(hyp, ref, max_span):
    """The greedy shift search of ``_sentence_edits`` with nothing pruned:
    every shift of a span of at most ``max_span`` tokens that occurs in
    the reference is scored by ``levenshtein_reference``, and the best
    key (-reduction, start, span length, destination) wins a round."""
    current, shifts = list(hyp), 0
    base = levenshtein_reference(current, ref)
    while shifts < 50 and base > 0 and len(current) > 1:
        best = None
        for start in range(len(current)):
            for n in range(1, min(max_span, len(current) - start) + 1):
                span = current[start:start + n]
                if not any(ref[i:i + n] == span for i in range(len(ref))):
                    continue
                rest = current[:start] + current[start + n:]
                for dest in range(len(rest) + 1):
                    shifted = rest[:dest] + span + rest[dest:]
                    if shifted == current:
                        continue
                    dist = levenshtein_reference(shifted, ref)
                    key = (dist - base, start, n, dest)
                    if best is None or key < best[0]:
                        best = (key, shifted, dist)
        if best is None or best[2] >= base:
            break
        current, base, shifts = best[1], best[2], shifts + 1
    return shifts + base


class TestBleu:
    def test_identity_is_100(self):
        corpus = ["Ahoj světe , jak se máš ?", "Dnes je hezky .",
                  "Jedna dva tři čtyři pět ."]
        assert bleu(corpus, list(corpus)) == pytest.approx(100.0, abs=1e-9)

    def test_no_fourgram_match_is_zero(self):
        hyp = ["a b c x", "d e f y"]
        ref = ["a b c d", "q e f g"]
        assert bleu(hyp, ref) == 0.0

    def test_two_sentence_hand_computation(self):
        # hypothesis/reference pairs small enough to count by hand
        hyp = ["the cat sat on the mat", "a quick brown fox"]
        ref = ["the cat is on the mat", "the quick brown fox jumps"]
        # counts per n, hand-tallied:
        # 1-grams: h1: the,cat,sat,on,the,mat -> matches the(2),cat,on,mat = 5
        #          h2: a,quick,brown,fox -> quick,brown,fox = 3; total 8/10
        # 2-grams: h1: the-cat, on-the, the-mat = 3; h2: quick-brown,
        #          brown-fox = 2; total 5/8
        # 3-grams: h1: on-the-mat = 1; h2: quick-brown-fox = 1; total 2/6
        # 4-grams: h1: none; h2: none -> 0/4... use 3-gram BLEU instead
        p1, p2, p3 = 8 / 10, 5 / 8, 2 / 6
        c, r = 10, 11
        bp = math.exp(1 - r / c)
        expected = bp * math.exp((math.log(p1) + math.log(p2) + math.log(p3)) / 3) * 100
        assert bleu(hyp, ref, max_n=3) == pytest.approx(expected, abs=1e-9)

    def test_clipping(self):
        # "the the the" against a single "the": clipped 1-gram match is 1
        _, precisions, _ = _bleu_details(["the the the"], ["the"], 1)
        assert precisions[0] == pytest.approx(1 / 3)

    def test_brevity_penalty_only_when_short(self):
        report_long = evaluate_corpus(["a b c d e f"], ["a b c d"])
        assert report_long.brevity_penalty == 1.0
        report_short = evaluate_corpus(["a b c d"], ["a b c d e f"])
        assert report_short.brevity_penalty == pytest.approx(math.exp(1 - 6 / 4))

    def test_corpus_permutation_invariance(self):
        rng = np.random.default_rng(0)
        words = list("abcdefgh")
        hyp = [" ".join(rng.choice(words, size=6)) for _ in range(12)]
        ref = [" ".join(rng.choice(words, size=6)) for _ in range(12)]
        base = bleu(hyp, ref)
        perm = rng.permutation(12)
        assert bleu([hyp[i] for i in perm],
                    [ref[i] for i in perm]) == pytest.approx(base, abs=1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError):
            bleu([], [])

    def test_unequal_counts_rejected(self):
        with pytest.raises(ContractError):
            bleu(["a"], ["a", "b"])


class TestTer:
    def test_identity_is_zero(self):
        corpus = ["Ahoj světe .", "Dnes je hezky ."]
        assert ter(corpus, list(corpus)) == 0.0

    def test_single_substitution_is_100(self):
        assert ter(["kočka"], ["pes"]) == pytest.approx(100.0)

    def test_shift_case_a_b_c_d(self):
        got = ter(["a b c d"], ["c d a b"])
        assert got == pytest.approx(25.0)
        hyp, ref = "a b c d".split(), "c d a b".split()
        assert _sentence_edits(hyp, ref) == exhaustive_shift_edits(hyp, ref, 3)

    def test_greedy_matches_exhaustive_on_micro_cases(self):
        cases = [
            ("a b c d", "c d a b"),
            ("a b c", "c a b"),
            ("x a b y", "a b x y"),
            ("a b c d e", "a c b d e"),
            ("p q r", "p q r"),
            ("m n o p", "o p m n q"),
        ]
        for hyp_text, ref_text in cases:
            hyp, ref = hyp_text.split(), ref_text.split()
            greedy = _sentence_edits(hyp, ref)
            oracle = exhaustive_shift_edits(hyp, ref, 3)
            assert greedy == oracle, (hyp_text, ref_text)

    def test_ter_at_most_word_error_rate(self):
        rng = np.random.default_rng(1)
        words = list("abcdef")
        for _ in range(30):
            hyp = [str(w) for w in rng.choice(words, size=rng.integers(1, 8))]
            ref = [str(w) for w in rng.choice(words, size=rng.integers(1, 8))]
            assert _sentence_edits(hyp, ref) <= levenshtein_reference(hyp, ref)

    def test_levenshtein_matches_reference(self):
        # lengths past 64 tokens run the bit vectors over more than one
        # machine word
        rng = np.random.default_rng(2)
        for vocab in ("ab", "abcd", "abcdefghijklmnop"):
            for _ in range(60):
                a = [str(w) for w in rng.choice(list(vocab), size=rng.integers(0, 80))]
                b = [str(w) for w in rng.choice(list(vocab), size=rng.integers(0, 80))]
                assert _levenshtein(a, b) == levenshtein_reference(a, b), (a, b)

    def test_shift_search_matches_a_plain_greedy_search(self):
        # the pruned search against every candidate scored in full, with
        # the same tie-break order; spans moved within a sentence make
        # shifts pay off, and max_span 2 bounds the spans
        rng = np.random.default_rng(3)
        for vocab in ("abc", "abcdef"):
            for _ in range(40):
                ref = [str(w) for w in rng.choice(list(vocab), size=rng.integers(1, 11))]
                hyp = list(ref)
                for _ in range(rng.integers(1, 3)):
                    i, n = int(rng.integers(len(hyp))), int(rng.integers(1, 4))
                    span, hyp = hyp[i:i + n], hyp[:i] + hyp[i + n:]
                    j = int(rng.integers(len(hyp) + 1))
                    hyp = hyp[:j] + span + hyp[j:]
                hyp[int(rng.integers(len(hyp)))] = str(rng.choice(list(vocab)))
                for max_span in (10, 2):
                    assert _sentence_edits(hyp, ref, max_span=max_span) == \
                        plain_greedy_shift_edits(hyp, ref, max_span), (hyp, ref)

    def test_empty_reference_rejected(self):
        with pytest.raises(ContractError):
            ter(["a"], [""])

    def test_empty_hypothesis_counts_insertions(self):
        assert ter([""], ["a b c d"]) == pytest.approx(100.0)

    def test_corpus_level_pooling(self):
        got = ter(["a x", "b c"], ["a y z w", "b c"])
        edits = _sentence_edits(["a", "x"], "a y z w".split())
        assert got == pytest.approx((edits + 0) / 6 * 100)


class TestReportAndTokenizer:
    def test_metric_tokenizer(self):
        assert metric_tokenize("Ahoj, světe!") == ["Ahoj", ",", "světe", "!"]
        assert metric_tokenize("") == []

    def test_report_fields(self):
        report = evaluate_corpus(["a b c d"], ["a b c d"])
        assert report.bleu == pytest.approx(100.0)
        assert report.ter == 0.0
        assert report.sentences == 1
        assert all(0.0 <= p <= 1.0 for p in report.precisions)
        payload = report.to_json()
        assert '"bleu": 100.0' in payload and '"ter": 0.0' in payload

    def test_report_json_round_trip(self):
        payload = evaluate_corpus(["a b c d e", "q w e r t"],
                                  ["a b c d e f", "q e w r t y"]).to_json()
        report = EvalReport.from_json(payload)
        assert report.to_json() == payload
        assert 0.0 < report.bleu < 100.0 and report.brevity_penalty < 1.0
        assert report.sentences == 2

    def test_deterministic(self):
        hyp = ["a b x d", "q w e"]
        ref = ["a b c d", "q e w"]
        assert bleu(hyp, ref) == bleu(list(hyp), list(ref))
        assert ter(hyp, ref) == ter(list(hyp), list(ref))
