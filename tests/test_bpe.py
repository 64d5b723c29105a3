"""Joint BPE learning, application, and exact decoding."""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from transference.bpe import (END_OF_WORD, BpeModel, apply_bpe, decode_bpe,
                              learn_bpe)
from transference.errors import DataError


def brute_force_pair_counts(word_freq: dict[str, int],
                            merges: list[tuple[str, str]]) -> Counter:
    """Recount symbol pairs after replaying `merges` on every word."""
    counts = Counter()
    for word, freq in word_freq.items():
        symbols = list(word) + [END_OF_WORD]
        for merge in merges:
            out = []
            i = 0
            while i < len(symbols):
                if (i + 1 < len(symbols) and symbols[i] == merge[0]
                        and symbols[i + 1] == merge[1]):
                    out.append(merge[0] + merge[1])
                    i += 2
                else:
                    out.append(symbols[i])
                    i += 1
            symbols = out
        for pair in zip(symbols, symbols[1:]):
            counts[pair] += freq
    return counts


def corpus_from_freq(word_freq: dict[str, int]) -> list[list[str]]:
    return [[word] * freq for word, freq in word_freq.items()]


CLASSIC = {"low": 5, "lower": 2, "newest": 6, "widest": 3}


class TestLearnBpe:
    def test_first_merge_on_aaab(self):
        model = learn_bpe(corpus_from_freq({"aaab": 5}), target_vocab=100)
        assert model.merges[0] == ("a", "a")

    def test_zero_merges_requested(self):
        sentences = corpus_from_freq({"ab": 3, "cd": 2})
        chars = {"a", "b", "c", "d", END_OF_WORD}
        model = learn_bpe(sentences, target_vocab=len(chars))
        assert model.merges == []
        assert set(model.vocab) == chars

    def test_classic_corpus_first_merges(self):
        model = learn_bpe(corpus_from_freq(CLASSIC), target_vocab=100)
        assert model.merges[0] == ("e", "s")
        assert model.merges[1] == ("es", "t")

    def test_every_merge_matches_brute_force(self):
        model = learn_bpe(corpus_from_freq(CLASSIC), target_vocab=100)
        for depth, merge in enumerate(model.merges):
            counts = brute_force_pair_counts(CLASSIC, model.merges[:depth])
            best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            assert best[0] == merge, f"merge {depth}"
            assert best[1] >= 2

    def test_overlapping_pairs_match_brute_force(self):
        # runs of one symbol (aaaa) and alternations (abab) make pair
        # occurrences overlap, which the incremental counts must get right
        rng = np.random.default_rng(7)
        stems = ["aaaa", "abab", "aaab", "baaa", "abba", "aabb", "bbbb", "ab"]
        word_freq = {}
        for _ in range(30):
            word = "".join(stems[i] for i in rng.integers(0, len(stems), 2))
            word_freq[word] = word_freq.get(word, 0) + int(rng.integers(1, 6))
        model = learn_bpe(corpus_from_freq(word_freq), target_vocab=60)
        assert len(model.merges) > 10
        for depth, merge in enumerate(model.merges):
            counts = brute_force_pair_counts(word_freq, model.merges[:depth])
            best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            assert best[0] == merge, f"merge {depth}"
            assert best[1] >= 2

    def test_stops_at_target(self):
        floor = len(set("".join(CLASSIC)) | {END_OF_WORD})
        model = learn_bpe(corpus_from_freq(CLASSIC), target_vocab=floor + 3)
        assert len(model.merges) == 3
        assert len(model.vocab) == floor + 3

    def test_stops_when_best_pair_is_rare(self):
        # after "ab" and "ab</w>" every pair left occurs once
        model = learn_bpe(corpus_from_freq({"ab": 2, "cd": 1}), target_vocab=100)
        counts = brute_force_pair_counts({"ab": 2, "cd": 1}, model.merges)
        assert model.merges == [("a", "b"), ("ab", END_OF_WORD)]
        assert max(counts.values()) == 1

    def test_stops_when_no_pair_remains(self):
        # single-character words: one merge each with the end-of-word
        # marker, then no word has two symbols
        model = learn_bpe(corpus_from_freq({"a": 3, "b": 2}), target_vocab=100)
        assert model.merges == [("a", END_OF_WORD), ("b", END_OF_WORD)]
        assert brute_force_pair_counts({"a": 3, "b": 2}, model.merges) == {}

    def test_vocab_bounded_by_target(self):
        # the character inventory (11 symbols here) is the unavoidable
        # floor; above it the target caps the learned vocabulary exactly
        floor = len(set("".join(CLASSIC)) | {END_OF_WORD})
        for target in (floor, floor + 1, floor + 4, 30):
            model = learn_bpe(corpus_from_freq(CLASSIC), target_vocab=target)
            assert len(model.vocab) <= target

    def test_target_below_floor_learns_no_merges(self):
        model = learn_bpe(corpus_from_freq(CLASSIC), target_vocab=2)
        assert model.merges == []

    def test_merges_unique(self):
        model = learn_bpe(corpus_from_freq(CLASSIC), target_vocab=100)
        assert len(set(model.merges)) == len(model.merges)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            learn_bpe([], target_vocab=10)

    def test_joint_training_order_independent(self):
        cs = [["strom", "voda", "strom"], ["les", "voda"]]
        pl = [["drzewo", "woda"], ["las", "woda", "drzewo"]]
        a = learn_bpe(cs + pl, target_vocab=40)
        b = learn_bpe(pl + cs, target_vocab=40)
        assert a.merges == b.merges
        assert a.vocab == b.vocab

    def test_shared_vocabulary_on_similar_languages(self):
        cs = [["mosty", "nove", "mosty"]] * 3
        pl = [["mosty", "nowe", "mosty"]] * 3
        model = learn_bpe(cs + pl, target_vocab=25)
        cs_units = set(apply_bpe(model, ["mosty", "nove"]))
        pl_units = set(apply_bpe(model, ["mosty", "nowe"]))
        assert cs_units & pl_units


class TestApplyDecode:
    def test_whole_word_symbol_unsplit(self):
        model = learn_bpe(corpus_from_freq({"ano": 50}), target_vocab=100)
        assert apply_bpe(model, ["ano"]) == ["ano" + END_OF_WORD]

    def test_segmentation_matches_manual_merge_replay(self):
        model = learn_bpe(corpus_from_freq(CLASSIC), target_vocab=100)
        symbols = list("lowest") + [END_OF_WORD]
        for merge in model.merges:
            out = []
            i = 0
            while i < len(symbols):
                if (i + 1 < len(symbols) and symbols[i] == merge[0]
                        and symbols[i + 1] == merge[1]):
                    out.append(merge[0] + merge[1])
                    i += 2
                else:
                    out.append(symbols[i])
                    i += 1
            symbols = out
        assert apply_bpe(model, ["lowest"]) == symbols

    def test_roundtrip_random_sentences(self):
        rng = np.random.default_rng(0)
        words = ["ahoj", "svete", "dobry", "den", "noc", "les", "hrad",
                 "město", "řeka", "sníh"]
        corpus = [[words[i] for i in rng.integers(0, len(words), size=6)]
                  for _ in range(40)]
        model = learn_bpe(corpus, target_vocab=40)
        for sentence in corpus:
            assert decode_bpe(apply_bpe(model, sentence)) == sentence

    def test_unseen_characters_pass_through(self):
        model = learn_bpe(corpus_from_freq({"abc": 5}), target_vocab=10)
        segmented = apply_bpe(model, ["xyž"])
        assert decode_bpe(segmented) == ["xyž"]

    def test_decode_empty(self):
        assert decode_bpe([]) == []


class TestMergeFile:
    def test_roundtrip(self, tmp_path):
        model = learn_bpe(corpus_from_freq(CLASSIC), target_vocab=100)
        path = str(tmp_path / "merges.txt")
        model.save(path)
        first_line = Path(path).read_text(encoding="utf-8").splitlines()[0]
        assert first_line.startswith("#")
        loaded = BpeModel.load(path)
        assert loaded.merges == model.merges
        assert apply_bpe(loaded, ["lowest"]) == apply_bpe(model, ["lowest"])
