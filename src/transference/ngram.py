"""N-gram language models and bilingual cross-entropy-difference scoring.

Two models per language (one trained on the small in-domain corpus, one
on the large general corpus) score every sentence pair; the sum of the
two absolute per-side cross-entropy differences ranks pairs from most to
least in-domain-like.

A model works on token ids: a token's id is its index in the sorted
vocabulary, and the start marker's id is the vocabulary size.  Each
level k holds its distinct (k context ids, token id) n-grams as one
sorted integer array with their counts, the layout KenLM uses (Heafield
2011).  ``train_lm`` counts them by sorting the id windows of its
corpus; scoring looks each event up in a table of the log-probabilities
of the top-order n-grams, built once per model, and runs the Witten-Bell
loop only for n-grams the model never counted.

This module also owns the files of the selection step: ``NGramLM.save``
and ``NGramLM.load`` write and check a model file, and
``write_scores_tsv`` and ``read_scores_tsv`` the per-pair scores.
``_padded`` is the one walk over a sentence's events, shared by
``train_lm`` and scoring.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .corpus import SentencePair, read_lines, write_lines, write_text
from .errors import ConfigError, ContractError, DataError

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"
MAX_ORDER = 10
# the counts of one level sum to less than this, so that int64 sums and
# float64 arithmetic on them stay exact
MAX_EVENTS = 2 ** 53


class NGramLM:
    """Interpolated Witten-Bell n-gram model over a closed vocabulary.

    ``train_lm`` makes the vocabulary every token of its corpus plus UNK
    and EOS, so UNK stands only for a token the model never saw and for
    a literal BOS.  For each context the smoothed conditional
    distribution sums to 1 over the vocabulary; its uniform floor gives
    every token, UNK included, a nonzero probability, so every sentence
    gets a finite cross-entropy.  ``levels[k]`` is the (n, k + 1) array
    of level-k n-grams, context ids then token id, sorted and distinct,
    and their counts.
    """

    def __init__(self, order: int, vocab: list[str],
                 levels: list[tuple[np.ndarray, np.ndarray]]):
        self.order = order
        self.vocab = vocab
        self.levels = levels
        self.ids = {token: i for i, token in enumerate(vocab)}
        self.bos = len(vocab)
        self.unk = self.ids[UNK]

    def map_token(self, token: str) -> str:
        return token if token in self.ids else UNK

    def prob(self, token: str, context: tuple[str, ...]) -> float:
        """Smoothed p(token | context); context longer than order-1 is
        truncated to its most recent tokens, and BOS in it is the start
        marker."""
        if len(context) > self.order - 1:
            context = context[len(context) - (self.order - 1):]
        return self._prob(self.ids.get(token, self.unk),
                          tuple(self.bos if t == BOS else self.ids.get(t, self.unk)
                                for t in context))

    def _prob(self, token: int, context: tuple[int, ...]) -> float:
        """Witten-Bell interpolation from the uniform distribution up
        through each suffix of ``context``, shortest first; a context
        never seen keeps the lower-order value."""
        p = 1.0 / len(self.vocab)
        n = len(context)
        for k in range(n + 1):
            suffix = context[n - k:]
            contexts, counts = self._lookup[k]
            entry = contexts.get(suffix)
            if entry is not None:
                denominator, types = entry
                p = (counts.get(suffix + (token,), 0) + types * p) / denominator
        return p

    @cached_property
    def _contexts(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per level: the distinct contexts, each one's denominator
        (tokens seen + types) and its number of types."""
        stats = []
        for ngrams, counts in self.levels:
            starts, types = _runs(ngrams[:, :-1])
            stats.append((ngrams[starts, :-1],
                          np.add.reduceat(counts, starts) + types, types))
        return stats

    @cached_property
    def _lookup(self) -> list[tuple[dict, dict]]:
        """Per level: context -> (denominator, types) and n-gram -> count,
        the dicts ``_prob`` looks up."""
        return [(dict(zip(map(tuple, contexts.tolist()),
                          zip(denominators.tolist(), types.tolist()))),
                 dict(zip(map(tuple, ngrams.tolist()), counts.tolist())))
                for (ngrams, counts), (contexts, denominators, types)
                in zip(self.levels, self._contexts)]

    @cached_property
    def _log2p(self) -> dict[tuple[int, ...], float]:
        """log2 p of every top-order n-gram the model counted, by
        ``_prob``'s loop run elementwise over all of them at once: the
        same float64 operations in the same order.  ``cross_entropy``
        adds each n-gram it has to run the loop for."""
        top = self.levels[-1][0]
        n = self.order - 1
        p = np.full(len(top), 1.0 / len(self.vocab))
        for k, ((ngrams, counts), (contexts, denominators, types)) in enumerate(
                zip(self.levels, self._contexts)):
            if not len(counts):
                continue
            row = _find(contexts, top[:, n - k:n])
            hit = _find(ngrams, top[:, n - k:])
            count = np.where(hit >= 0, counts[hit], 0)
            p = np.where(row >= 0, (count + types[row] * p) / denominators[row], p)
        return dict(zip(map(tuple, top.tolist()), map(math.log2, p.tolist())))

    def save(self, path: str) -> None:
        payload = {
            "order": self.order,
            "vocab": self.vocab,
            "levels": [{"contexts": ngrams[:, :-1].ravel().tolist(),
                        "tokens": ngrams[:, -1].tolist(),
                        "counts": counts.tolist()}
                       for ngrams, counts in self.levels],
        }
        write_text(path, [json.dumps(payload, separators=(",", ":"))])

    @classmethod
    def load(cls, path: str) -> "NGramLM":
        """Read a model written by ``save``; a file that is not one, one
        whose probabilities would not be finite or sum to 1, or one that
        counts or conditions on a token outside its vocabulary raises
        DataError naming the file and the cause."""
        try:
            payload = json.loads("\n".join(read_lines(path)))
            order, vocab, levels = (payload["order"], payload["vocab"],
                                    payload["levels"])
            if type(order) is not int or not 1 <= order <= MAX_ORDER:
                raise DataError(f"{path}: order must be an integer from 1 to "
                                f"{MAX_ORDER}, got {order!r}")
            if len(levels) != order:
                raise DataError(f"{path}: 'levels' has {len(levels)} levels "
                                f"for a model of order {order}")
            if type(vocab) is not list or vocab != sorted(set(vocab)):
                raise DataError(f"{path}: the vocabulary is not a sorted list "
                                f"of distinct tokens")
            for token in (UNK, EOS):
                if token not in vocab:
                    raise DataError(f"{path}: vocabulary has no '{token}'")
            if BOS in vocab:
                raise DataError(f"{path}: vocabulary holds the start marker "
                                f"'{BOS}'")
            lm = cls(order, vocab, [_read_level(path, k, level, len(vocab))
                                    for k, level in enumerate(levels)])
        except KeyError as exc:
            raise DataError(f"{path}: language model has no {exc} key") from None
        # not JSON, or not this shape
        except (ValueError, TypeError, OverflowError) as exc:
            raise DataError(f"{path}: not a language model: {exc}") from None
        return lm


def _read_level(path: str, k: int, level: dict, bos: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Level k of a model file as (n-grams, counts); raises DataError for
    anything ``NGramLM`` cannot score with."""
    contexts, tokens, counts = level["contexts"], level["tokens"], level["counts"]
    n = len(tokens)
    if len(counts) != n:
        raise DataError(f"{path}: level {k} has {len(counts)} counts for "
                        f"{n} tokens")
    if len(contexts) != k * n:
        raise DataError(f"{path}: level {k} has {len(contexts)} context ids "
                        f"for {n} n-grams, expected {k} each")
    if not set(map(type, chain(contexts, tokens))) <= {int}:
        raise DataError(f"{path}: level {k} holds an id that is not an integer")
    if not (set(map(type, counts)) <= {int} and min(counts, default=1) >= 1):
        raise DataError(f"{path}: level {k} holds a count that is not an "
                        f"integer >= 1")
    events = sum(counts)
    if events >= MAX_EVENTS:
        raise DataError(f"{path}: level {k} counts {events} events, "
                        f"more than the {MAX_EVENTS} a float holds exactly")
    ngrams = np.empty((n, k + 1), np.int64)
    ngrams[:, :k] = np.array(contexts, np.int64).reshape(n, k)
    ngrams[:, k] = tokens
    if not (ngrams[:, :k].min(initial=0) >= 0
            and ngrams[:, :k].max(initial=0) <= bos):
        raise DataError(f"{path}: a level-{k} context holds a token outside "
                        f"the vocabulary")
    if not (ngrams[:, k].min(initial=0) >= 0
            and ngrams[:, k].max(initial=0) < bos):
        raise DataError(f"{path}: level {k} counts a token outside the "
                        f"vocabulary")
    step = ngrams[1:] - ngrams[:-1]
    first = np.argmax(step != 0, axis=1)
    if not np.all(step[np.arange(len(step)), first] > 0):
        raise DataError(f"{path}: level {k}'s n-grams are not sorted and "
                        f"distinct")
    return ngrams, np.array(counts, np.int64)


def _runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each run of equal rows of sorted ``rows`` starts, and its
    length."""
    first = np.ones(len(rows), bool)
    first[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    starts = np.flatnonzero(first)
    return starts, np.diff(np.append(starts, len(rows)))


def _keys(rows: np.ndarray) -> np.ndarray:
    """One bytes value per row of ids >= 0 that sorts and compares as the
    row does: big-endian ids after a zero column, so an empty row has one."""
    keyed = np.zeros((len(rows), rows.shape[1] + 1), ">i8")
    keyed[:, 1:] = rows
    return keyed.view(np.dtype((np.void, keyed.strides[0]))).ravel()


def _find(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The row of ``table`` (sorted, distinct) equal to each row of
    ``queries``, or -1."""
    table, queries = _keys(table), _keys(queries)
    at = np.searchsorted(table, queries)
    hit = at < len(table)
    hit[hit] = table[at[hit]] == queries[hit]
    return np.where(hit, at, -1)


def _padded(ids: dict[str, int], order: int, sentence) -> list[int]:
    """A sentence's ids after ``order - 1`` start markers and before EOS,
    an unknown token as UNK: window i of ``order`` ids is the i-th
    event, its context then its target."""
    unknown = repeat(ids[UNK])
    return [len(ids)] * (order - 1) + list(map(ids.get, sentence, unknown)) + [ids[EOS]]


def train_lm(corpus: list[list[str]] | list[tuple[str, ...]],
             order: int = 3) -> NGramLM:
    """Train an order-n Witten-Bell model on every token of ``corpus``;
    a literal BOS is counted as UNK."""
    if not 1 <= order <= MAX_ORDER:
        raise ConfigError(f"n-gram order must be from 1 to {MAX_ORDER}, "
                          f"got {order}")
    vocab = set(chain.from_iterable(corpus))
    if not vocab:
        raise DataError("cannot train a language model on an empty corpus")
    vocab.discard(BOS)
    vocab = sorted(vocab | {UNK, EOS})
    ids = {tok: i for i, tok in enumerate(vocab)}
    walk = np.fromiter(chain.from_iterable(_padded(ids, order, sent)
                                           for sent in corpus), np.int64)
    # a window ends at each target: every id but the start markers
    events = np.lib.stride_tricks.sliding_window_view(walk, order)[
        walk[order - 1:] != len(vocab)]
    levels = []
    for k in range(order):
        ngrams = events[:, order - 1 - k:]
        ngrams = ngrams[np.lexsort(ngrams.T[::-1])]
        starts, counts = _runs(ngrams)
        levels.append((ngrams[starts], counts))
    return NGramLM(order, vocab, levels)


def cross_entropy(lm: NGramLM, sentence: list[str] | tuple[str, ...]) -> float:
    """Per-token cross-entropy in bits, the token count including EOS."""
    if not sentence:
        raise ContractError("cross_entropy needs a non-empty sentence")
    ids = _padded(lm.ids, lm.order, sentence)
    table = lm._log2p
    total = 0.0
    for ngram in zip(*[ids[i:] for i in range(lm.order)]):
        value = table.get(ngram)
        if value is None:
            # an n-gram the model never counted: the loop, kept for its
            # next occurrence
            value = table[ngram] = math.log2(lm._prob(ngram[-1], ngram[:-1]))
        total -= value
    return total / (len(sentence) + 1)


@dataclass(frozen=True)
class ScoredPair:
    """A sentence pair with its four cross-entropies (bits/token) and the
    bilingual cross-entropy-difference score; lower is more in-domain."""

    pair: SentencePair
    h_src_in: float
    h_src_out: float
    h_trg_in: float
    h_trg_out: float
    score: float


def score_pair(pair: SentencePair, lm_i_src: NGramLM, lm_o_src: NGramLM,
               lm_i_trg: NGramLM, lm_o_trg: NGramLM) -> ScoredPair:
    h_src_in = cross_entropy(lm_i_src, pair.source)
    h_src_out = cross_entropy(lm_o_src, pair.source)
    h_trg_in = cross_entropy(lm_i_trg, pair.target)
    h_trg_out = cross_entropy(lm_o_trg, pair.target)
    score = abs(h_src_in - h_src_out) + abs(h_trg_in - h_trg_out)
    return ScoredPair(pair, h_src_in, h_src_out, h_trg_in, h_trg_out, score)


def rank_and_split(scored: list[ScoredPair], n_val: int = 1000,
                   n_select: int = 500000
                   ) -> tuple[list[ScoredPair], list[ScoredPair], list[ScoredPair]]:
    """Sort ascending by score (ties by original position) and split.

    Returns (validation, selected, sorted_all): the first ``n_val`` pairs
    for validation, then the best ``n_select`` of the remainder, and the
    whole remainder after the validation block.  Validation pairs never
    appear in either training set.
    """
    for name, value in (("n_validation", n_val), ("n_select", n_select)):
        if value < 0:
            raise ConfigError(f"{name} must be >= 0, got {value}")
    if len(scored) < n_val + 1:
        raise ConfigError(
            f"corpus of {len(scored)} pairs cannot spare {n_val} validation pairs")
    ordered = sorted(scored, key=lambda s: (s.score, s.pair.original_index))
    validation = ordered[:n_val]
    sorted_all = ordered[n_val:]
    selected = sorted_all[:n_select]
    return validation, selected, sorted_all


def write_scores_tsv(path: str, scored: list[ScoredPair]) -> None:
    """TSV of (original_index, score, h_src_in, h_src_out, h_trg_in,
    h_trg_out) at fixed 6-decimal precision."""
    write_lines(path, [f"{s.pair.original_index}\t{s.score:.6f}\t{s.h_src_in:.6f}"
                       f"\t{s.h_src_out:.6f}\t{s.h_trg_in:.6f}\t{s.h_trg_out:.6f}"
                       for s in scored])


def read_scores_tsv(path: str, pairs: list[SentencePair]) -> list[ScoredPair]:
    """The rows of a file written by ``write_scores_tsv``, each joined to
    the pair of ``pairs`` its index names.  Every pair needs exactly one
    row of finite values; a file that breaks this raises DataError naming
    it, and the line when one row is at fault."""
    scored = []
    seen: dict[int, int] = {}      # pair index -> line that listed it
    for number, line in enumerate(read_lines(path), 1):
        row = line.split("\t")
        try:
            if len(row) != 6:
                raise ValueError(f"{len(row)} columns, expected 6")
            index = int(row[0])
            if not 0 <= index < len(pairs):
                raise ValueError(f"pair index {index} outside a corpus of "
                                 f"{len(pairs)} pairs")
            if index in seen:
                raise ValueError(f"pair index {index} also on line {seen[index]}")
            values = tuple(map(float, row[1:]))
            if not all(map(math.isfinite, values)):
                raise ValueError("non-finite value among " + ", ".join(row[1:]))
        except ValueError as exc:
            raise DataError(f"{path} line {number}: {exc}") from None
        seen[index] = number
        score, h_src_in, h_src_out, h_trg_in, h_trg_out = values
        scored.append(ScoredPair(pairs[index], h_src_in, h_src_out,
                                 h_trg_in, h_trg_out, score))
    if len(scored) != len(pairs):
        raise DataError(f"{path}: {len(scored)} rows for a corpus of "
                        f"{len(pairs)} pairs; every pair needs one")
    return scored
