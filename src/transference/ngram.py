"""N-gram language models and bilingual cross-entropy-difference scoring.

Two models per language (one trained on the small in-domain corpus, one
on the large general corpus) score every sentence pair; the sum of the
two absolute per-side cross-entropy differences ranks pairs from most to
least in-domain-like.

This module also owns the files of the selection step: ``NGramLM.save``
and ``NGramLM.load`` write and check a model file, and
``write_scores_tsv`` and ``read_scores_tsv`` the per-pair scores.
``_events`` is the one walk over a sentence's (target, context) events,
shared by ``train_lm`` and scoring.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .corpus import SentencePair, read_lines, write_lines, write_text
from .errors import ConfigError, ContractError, DataError

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"


class NGramLM:
    """Interpolated Witten-Bell n-gram model over a closed vocabulary.

    Rare tokens (count below ``min_count``) are mapped to UNK, so every
    sentence gets a finite cross-entropy.  For each context the smoothed
    conditional distribution sums to 1 over the prediction vocabulary
    (observed types plus UNK and EOS).
    """

    def __init__(self, order: int, vocab: set[str],
                 counts: list[dict[tuple[str, ...], dict[str, int]]]):
        self.order = order
        self.vocab = vocab
        # counts[k] maps a length-k context tuple to the counts of its
        # continuation tokens.
        self.counts = counts
        # per level, context -> (continuation counts, tokens seen + types,
        # types): one lookup gives _prob all it needs
        self._levels = [
            {ctx: (c, sum(c.values()) + len(c), len(c)) for ctx, c in level.items()}
            for level in counts
        ]

    def map_token(self, token: str) -> str:
        return token if token in self.vocab or token == BOS else UNK

    def prob(self, token: str, context: tuple[str, ...]) -> float:
        """Smoothed p(token | context); context longer than order-1 is
        truncated to its most recent tokens."""
        token = self.map_token(token)
        context = tuple(self.map_token(t) for t in context)
        if len(context) > self.order - 1:
            context = context[len(context) - (self.order - 1):]
        return self._prob(token, context)

    def _prob(self, token: str, context: tuple[str, ...]) -> float:
        """Witten-Bell interpolation from the uniform distribution up
        through each suffix of ``context``, shortest first; a context
        never seen keeps the lower-order value."""
        p = 1.0 / len(self.vocab)
        n = len(context)
        for k in range(n + 1):
            entry = self._levels[k].get(context[n - k:])
            if entry is not None and entry[2]:
                bucket, denominator, types = entry
                p = (bucket.get(token, 0) + types * p) / denominator
        return p

    def sentence_events(self, tokens: list[str] | tuple[str, ...]
                        ) -> list[tuple[str, tuple[str, ...]]]:
        """(target, context) pairs for every position including EOS."""
        return list(_events([self.map_token(t) for t in tokens], self.order))

    def save(self, path: str) -> None:
        payload = {
            "order": self.order,
            "vocab": sorted(self.vocab),
            "counts": [
                [[list(ctx), sorted(bucket.items())] for ctx, bucket in sorted(level.items())]
                for level in self.counts
            ],
        }
        write_text(path, [json.dumps(payload)])

    @classmethod
    def load(cls, path: str) -> "NGramLM":
        """Read a model written by ``save``; a file that is not one, or
        one whose probabilities would not be finite or sum to 1, raises
        DataError naming the file and the cause."""
        try:
            payload = json.loads("\n".join(read_lines(path)))
            counts = [{tuple(ctx): dict(items) for ctx, items in level}
                      for level in payload["counts"]]
            lm = cls(payload["order"], set(payload["vocab"]), counts)
            if type(lm.order) is not int or lm.order < 1:
                raise DataError(f"{path}: order must be an integer >= 1, "
                                f"got {lm.order!r}")
            if len(lm.counts) != lm.order:
                raise DataError(f"{path}: 'counts' has {len(lm.counts)} levels "
                                f"for a model of order {lm.order}")
            for token in (UNK, EOS):
                if token not in lm.vocab:
                    raise DataError(f"{path}: vocabulary has no '{token}'")
            for k, level in enumerate(lm.counts):
                lengths = set(map(len, level)) - {k}
                if lengths:
                    raise DataError(f"{path}: a level-{k} context has "
                                    f"{min(lengths)} tokens, expected {k}")
                if not lm.vocab.issuperset(chain.from_iterable(level.values())):
                    raise DataError(f"{path}: level {k} counts a token outside "
                                    f"the vocabulary")
                values = list(chain.from_iterable(map(dict.values,
                                                      level.values())))
                # sum() also catches nan and inf, which min() can step over
                if values and not (min(values) >= 1
                                   and math.isfinite(sum(values))):
                    raise DataError(f"{path}: level {k} holds a count that is "
                                    f"not a finite number >= 1")
        except KeyError as exc:
            raise DataError(f"{path}: language model has no {exc} key") from None
        # not JSON, not this shape, or a count too large for a float
        except (ValueError, TypeError, OverflowError) as exc:
            raise DataError(f"{path}: not a language model: {exc}") from None
        return lm


def _events(mapped: list[str], order: int):
    """Yield (target, context) for every position of a mapped sentence,
    EOS included; each context is the ``order - 1`` tokens before the
    target, padded with BOS."""
    padded = [BOS] * (order - 1) + mapped
    for i, target in enumerate(mapped + [EOS]):
        yield target, tuple(padded[i:i + order - 1])


def train_lm(corpus: list[list[str]] | list[tuple[str, ...]],
             order: int = 3, min_count: int = 2) -> NGramLM:
    """Train an order-n Witten-Bell model; singleton tokens become UNK."""
    if order < 1:
        raise ConfigError(f"n-gram order must be >= 1, got {order}")
    raw = Counter(tok for sent in corpus for tok in sent)
    if not raw:
        raise DataError("cannot train a language model on an empty corpus")
    vocab = {tok for tok, count in raw.items() if count >= min_count}
    vocab.update((UNK, EOS))

    counts: list[dict[tuple[str, ...], dict[str, int]]] = [{} for _ in range(order)]
    for sent in corpus:
        for target, context in _events([tok if tok in vocab else UNK
                                        for tok in sent], order):
            for k in range(order):
                suffix = context[order - 1 - k:]
                bucket = counts[k].get(suffix)
                if bucket is None:
                    bucket = counts[k][suffix] = {}
                bucket[target] = bucket.get(target, 0) + 1
    return NGramLM(order, vocab, counts)


def cross_entropy(lm: NGramLM, sentence: list[str] | tuple[str, ...]) -> float:
    """Per-token cross-entropy in bits, the token count including EOS."""
    if not sentence:
        raise ContractError("cross_entropy needs a non-empty sentence")
    total = 0.0
    events = lm.sentence_events(sentence)
    for target, context in events:
        total -= math.log2(lm._prob(target, context))
    return total / len(events)


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
