"""N-gram language models and bilingual cross-entropy-difference scoring.

Two models per language (one trained on the small in-domain corpus, one
on the large general corpus) score every sentence pair; the sum of the
two absolute per-side cross-entropy differences ranks pairs from most to
least in-domain-like.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass

from .corpus import SentencePair, write_lines
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
        mapped = [self.map_token(t) for t in tokens]
        padded = [BOS] * (self.order - 1) + mapped
        events = []
        for i, target in enumerate(mapped + [EOS]):
            context = tuple(padded[i:i + self.order - 1])
            events.append((target, context))
        return events

    def to_json(self) -> str:
        payload = {
            "order": self.order,
            "vocab": sorted(self.vocab),
            "counts": [
                [[list(ctx), sorted(bucket.items())] for ctx, bucket in sorted(level.items())]
                for level in self.counts
            ],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "NGramLM":
        payload = json.loads(text)
        counts = [{tuple(ctx): dict(items) for ctx, items in level}
                  for level in payload["counts"]]
        return cls(payload["order"], set(payload["vocab"]), counts)


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
        mapped = [tok if tok in vocab else UNK for tok in sent]
        padded = [BOS] * (order - 1) + mapped
        for i, target in enumerate(mapped + [EOS]):
            for k in range(order):
                context = tuple(padded[i + (order - 1) - k:i + (order - 1)])
                bucket = counts[k].get(context)
                if bucket is None:
                    bucket = counts[k][context] = {}
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
