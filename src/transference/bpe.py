"""Joint byte-pair encoding: learn merges over both languages at once,
apply them to token sequences, and reverse the segmentation exactly."""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .corpus import read_lines, write_lines
from .errors import DataError

END_OF_WORD = "</w>"
MERGE_FILE_HEADER = "# bpe merge table v1"


@dataclass
class BpeModel:
    """Ordered merge list plus the learned symbol vocabulary.

    ``vocab`` is empty for models loaded from a merge file; only the
    merges are needed to segment text.
    """

    merges: list[tuple[str, str]]
    vocab: frozenset[str] = frozenset()
    _ranks: dict[tuple[str, str], int] = field(init=False, repr=False)
    _cache: dict[str, tuple[str, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        self._ranks = {pair: i for i, pair in enumerate(self.merges)}
        self._cache = {}

    def segment_word(self, word: str) -> tuple[str, ...]:
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        symbols = list(word) + [END_OF_WORD]
        while len(symbols) > 1:
            best_rank = None
            best_pair = None
            for pair in zip(symbols, symbols[1:]):
                rank = self._ranks.get(pair)
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank = rank
                    best_pair = pair
            if best_pair is None:
                break
            symbols = _merge_symbols(symbols, best_pair)
        result = tuple(symbols)
        self._cache[word] = result
        return result

    def save(self, path: str) -> None:
        write_lines(path, [MERGE_FILE_HEADER] + [f"{a} {b}" for a, b in self.merges])

    @classmethod
    def load(cls, path: str) -> "BpeModel":
        """Read a merge file; a line that is not two symbols separated by
        one space raises DataError naming the file and the line."""
        merges: list[tuple[str, str]] = []
        for number, line in enumerate(read_lines(path), 1):
            if not line or (number == 1 and line.startswith("#")):
                continue
            pair = line.split(" ")
            if len(pair) != 2 or not all(pair):
                raise DataError(f"{path} line {number}: expected two symbols "
                                f"separated by one space, got {line!r}")
            merges.append((pair[0], pair[1]))
        return cls(merges)


def _merge_symbols(symbols: list[str], pair: tuple[str, str]) -> list[str]:
    """Replace every non-overlapping occurrence of `pair`, left to right."""
    merged = []
    i = 0
    while i < len(symbols):
        if (i + 1 < len(symbols)
                and symbols[i] == pair[0] and symbols[i + 1] == pair[1]):
            merged.append(pair[0] + pair[1])
            i += 2
        else:
            merged.append(symbols[i])
            i += 1
    return merged


def learn_bpe(sentences: Iterable[Sequence[str]],
              target_vocab: int = 28000) -> BpeModel:
    """Greedy most-frequent-pair merging over word types weighted by
    frequency, until the symbol vocabulary reaches ``target_vocab`` or no
    pair occurs at least twice.  Frequency ties break lexicographically,
    so learning is deterministic and independent of corpus order.

    Pairs are counted once.  A merge then revisits only the word types
    that hold the merged pair (``where``), and the best pair comes from a
    heap of ``(-count, pair)`` whose entries are dropped once their count
    is out of date, so each merge picks what a full recount would.
    """
    word_freq: Counter[str] = Counter()
    for sent in sentences:
        word_freq.update(sent)
    if not word_freq:
        raise DataError("cannot learn BPE merges from an empty corpus")

    words = {w: list(w) + [END_OF_WORD] for w in word_freq}
    vocab: set[str] = set()
    for symbols in words.values():
        vocab.update(symbols)

    pair_counts: dict[tuple[str, str], int] = {}
    # every word type holding a pair; a superset, since a merge leaves
    # the words that lose a pair in its set
    where: dict[tuple[str, str], set[str]] = {}
    for word, symbols in words.items():
        freq = word_freq[word]
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] = pair_counts.get(pair, 0) + freq
            where.setdefault(pair, set()).add(word)
    heap = [(-count, pair) for pair, count in pair_counts.items()]
    heapq.heapify(heap)

    merges: list[tuple[str, str]] = []
    while len(vocab) < target_vocab:
        while heap and pair_counts.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)          # stale: the count has changed
        if not heap:
            break
        best_count, best_pair = -heap[0][0], heap[0][1]
        if best_count < 2:
            break
        merges.append(best_pair)
        vocab.add(best_pair[0] + best_pair[1])
        changed = set()
        for word in where.pop(best_pair):
            old = words[word]
            new = _merge_symbols(old, best_pair)
            if len(new) == len(old):
                continue
            words[word] = new
            freq = word_freq[word]
            for pair in zip(old, old[1:]):
                count = pair_counts[pair] - freq
                if count:
                    pair_counts[pair] = count
                else:
                    del pair_counts[pair]
                changed.add(pair)
            for pair in zip(new, new[1:]):
                pair_counts[pair] = pair_counts.get(pair, 0) + freq
                where.setdefault(pair, set()).add(word)
                changed.add(pair)
        for pair in changed:
            count = pair_counts.get(pair)
            if count is not None:
                heapq.heappush(heap, (-count, pair))
    return BpeModel(merges, frozenset(vocab))


def apply_bpe(model: BpeModel, tokens: Sequence[str]) -> list[str]:
    """Segment each token into subword units; the unit that closes a word
    carries the end-of-word marker.  Unseen characters pass through as
    singleton symbols."""
    out: list[str] = []
    for token in tokens:
        out.extend(model.segment_word(token))
    return out


def decode_bpe(subwords: Sequence[str]) -> list[str]:
    """Exact inverse of apply_bpe: concatenate and split at the markers."""
    text = "".join(subwords)
    if not text:
        return []
    words = text.split(END_OF_WORD)
    if words and words[-1] == "":
        words = words[:-1]
    return words
