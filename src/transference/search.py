"""Beam-search decoding.

``translate_batch_nbest`` decodes many sentences in lockstep: one padded
encoder batch, then per step one ``model.decode_forward`` call over every
live hypothesis of every sentence against a ``model.DecoderCache``, whose
rows are gathered by parent index after each selection.

With ``beam=1`` and ``length_alpha=0`` the live hypothesis follows the
argmax of the tokens other than EOS; EOS takes no beam slot, so each step
whose top two tokens include it also finishes a hypothesis, and the one
with the best log-probability wins.

``beam_search_nbest`` is the same search over a generic "stepper" (anything
with ``initial()``, ``advance(state, token)`` and ``logprobs(state)``), so
tests can drive it with stub distributions; ``IncrementalDecoder`` is such
a stepper over a checkpoint.  It re-runs the decoder over each whole
prefix and shares no cache with the lockstep search, so it is a reference
for it.  No command runs the stepper search; it stays here because the
benchmark's traced run wraps ``beam_search`` and ``IncrementalDecoder`` by
name.  Both searches share the tie-break rules of ``_expand``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError, NumericError
from .model import (BOS_ID, Checkpoint, DecoderCache, EOS_ID, PAD_ID,
                    SourceBatch, check_source, decode_forward, encode)
from .tensor import stable_log_softmax

# Sentences decoded together: at most _CHUNK_SENTENCES, and fewer when their
# self-attention caches would pass _CACHE_BYTES.
_CHUNK_SENTENCES = 64
_CACHE_BYTES = 256 << 20


@dataclass(frozen=True)
class Hypothesis:
    """A (partial) decoder output: BPE token ids, accumulated
    log-probability, and whether it ended in EOS."""

    tokens: tuple[int, ...]
    logprob: float
    finished: bool

    def normalized_score(self, length_alpha: float) -> float:
        if not self.tokens:
            return self.logprob
        return self.logprob / (len(self.tokens) ** length_alpha)

    def output_ids(self) -> list[int]:
        """The tokens without the final EOS."""
        return list(self.tokens[:-1] if self.finished else self.tokens)


def _top_tokens(logprobs: np.ndarray, k: int) -> np.ndarray:
    """[rows, k]: each row's k largest entries, best first and ties to the
    lower id, exactly ``argsort(-logprobs, kind="stable")[:, :k]``.

    It takes k ``argmax`` passes over a working copy; each takes the
    first largest entry of every row and masks it with -inf.  A row whose
    last pass finds -inf has fewer than k entries above -inf, and is
    sorted in full instead.  ``argmax`` ranks NaN first, so a row holding
    NaN shows in the first pass and raises ``NumericError``."""
    rows = np.arange(len(logprobs))
    work = logprobs.copy()
    top = np.empty((len(work), k), dtype=np.intp)
    for j in range(k):
        top[:, j] = work.argmax(axis=1)
        found = work[rows, top[:, j]]
        if j == 0 and np.isnan(found).any():
            raise NumericError(
                f"next-token log-probabilities contain NaN in "
                f"{int(np.isnan(found).sum())} of {len(rows)} rows")
        work[rows, top[:, j]] = -np.inf
    short = np.flatnonzero(found == -np.inf)
    if short.size:
        top[short] = np.argsort(-logprobs[short], axis=1, kind="stable")[:, :k]
    return top


def _expand(scores: np.ndarray, logprobs: np.ndarray, groups: int,
            beam: int, eos_id: int):
    """One beam step.  Row r extends a hypothesis of score ``scores[r]``
    by next-token log-probabilities ``logprobs[r]``.  The rows form
    ``groups`` sentences of equally many consecutive rows, each in
    hypothesis order.  The rules:

    - each row proposes its top ``beam + 1`` tokens (``_top_tokens``);
    - a sentence's candidates are ordered by (-score, row, token), as a
      stable sort by -score of its candidates laid out by row, then token;
    - EOS candidates finish and take no beam slot, the first ``beam``
      others stay live, and candidates scoring -inf are dropped.

    Returns arrays (row, token, score, rank) of the finished and live
    candidates in that order; rank is the live slot within the sentence,
    -1 for a finished one."""
    k = min(beam + 1, logprobs.shape[1])
    token = np.sort(_top_tokens(logprobs, k), axis=1)
    score = scores[:, None] + np.take_along_axis(logprobs, token, axis=1)
    width = score.size // groups            # candidates per sentence
    order = np.argsort(-score.reshape(groups, width), axis=1, kind="stable")
    order = (order + np.arange(groups)[:, None] * width).ravel()
    row, token, score = order // k, token.ravel()[order], score.ravel()[order]
    finite = score > -np.inf
    stay = finite & (token != eos_id)
    rank = np.where(stay, np.cumsum(stay.reshape(groups, width), axis=1).ravel() - 1, -1)
    keep = finite & (rank < beam)
    return row[keep], token[keep], score[keep], rank[keep]


def _ranked(pool: list[Hypothesis], length_alpha: float) -> list[Hypothesis]:
    return sorted(pool, key=lambda h: (-h.normalized_score(length_alpha), h.tokens))


def beam_search_nbest(stepper, beam: int = 4, max_len: int = 256,
                      length_alpha: float = 1.0) -> list[Hypothesis]:
    """All finished hypotheses plus the unfinished beam at ``max_len``,
    ranked by logprob / length^alpha.  Deterministic: every tie is broken
    by token ids (see ``_expand``)."""
    if beam < 1:
        raise ContractError(f"beam must be >= 1, got {beam}")
    live = [((), 0.0, stepper.initial())]       # (tokens, logprob, state)
    finished: list[Hypothesis] = []
    for _ in range(max_len):
        logprobs = np.stack([stepper.logprobs(state) for _, _, state in live])
        scores = np.array([logprob for _, logprob, _ in live])
        parents, live = live, []
        for r, t, s, rank in zip(*(a.tolist() for a in _expand(
                scores, logprobs, 1, beam, EOS_ID))):
            tokens, _, state = parents[r]
            if rank < 0:
                finished.append(Hypothesis(tokens + (t,), s, True))
            else:
                live.append((tokens + (t,), s, stepper.advance(state, t)))
        if not live:
            break
    pool = finished + [Hypothesis(tokens, s, False) for tokens, s, _ in live]
    return _ranked(pool, length_alpha)


def beam_search(stepper, beam: int = 4, max_len: int = 256,
                length_alpha: float = 1.0) -> Hypothesis:
    """Best hypothesis under length-normalized log-probability."""
    ranked = beam_search_nbest(stepper, beam, max_len, length_alpha)
    if not ranked:
        raise ContractError("beam search produced no hypotheses")
    return ranked[0]


class _DecoderState(NamedTuple):
    prefix: tuple[int, ...]       # BOS and the tokens decoded after it
    next_logprobs: np.ndarray

    @property
    def length(self) -> int:
        return len(self.prefix)


class IncrementalDecoder:
    """Single-sentence stepper over a loaded checkpoint: each state holds
    its prefix, and ``advance`` runs ``decode_forward`` over the longer
    prefix from scratch, so states never change and hypotheses can fork
    freely."""

    def __init__(self, checkpoint: Checkpoint, source: SourceBatch):
        if source.f_s.shape[0] != 1:
            raise ContractError("IncrementalDecoder decodes one sentence at a time")
        self.cfg, self.params = checkpoint.config, checkpoint.params
        check_source(source, self.cfg.max_positions)
        self.encoded = encode(self.cfg, self.params, source, training=False)

    def initial(self) -> _DecoderState:
        return self._step((BOS_ID,))

    def advance(self, state: _DecoderState, token: int) -> _DecoderState:
        return self._step(state.prefix + (token,))

    def logprobs(self, state: _DecoderState) -> np.ndarray:
        return state.next_logprobs

    def _step(self, prefix: tuple[int, ...]) -> _DecoderState:
        logits = decode_forward(self.cfg, self.params, self.encoded, np.array([prefix]))
        return _DecoderState(prefix, stable_log_softmax(logits.data[0, -1]))


def _lockstep(checkpoint: Checkpoint, source: SourceBatch, beam: int,
              max_len: int) -> list[list[Hypothesis]]:
    """Beam search over every sentence of ``source`` at once; returns each
    sentence's unranked pool.  Sentence s owns the ``beam`` cache rows
    from s * beam; a row without a live hypothesis scores -inf."""
    cfg, params = checkpoint.config, checkpoint.params
    encoded = encode(cfg, params, source, training=False)
    n = source.f_s.shape[0]
    rows = n * beam
    cache = DecoderCache(cfg, params, encoded, rows, max_len + 1)
    scores = np.where(np.arange(rows) % beam == 0, 0.0, -np.inf)
    tokens = np.full(rows, BOS_ID)
    pools: list[list[Hypothesis]] = [[] for _ in range(n)]
    for step in range(max_len):
        logits = decode_forward(cfg, params, encoded, tokens[:, None], cache=cache)
        logprobs = stable_log_softmax(logits.data[:, -1])
        # <pad> and <s> are never outputs; the rest are not renormalized.
        logprobs[:, [PAD_ID, BOS_ID]] = -np.inf
        row, token, score, rank = _expand(scores, logprobs, n, beam, EOS_ID)
        live = rank >= 0
        last = step == max_len - 1 or not live.any()
        out = ~live | last
        for r, prefix, t, s, done in zip(row[out].tolist(),
                                         cache.ids[row[out], 1:step + 1].tolist(),
                                         token[out].tolist(), score[out].tolist(),
                                         (~live[out]).tolist()):
            pools[r // beam].append(Hypothesis(tuple(prefix) + (t,), s, done))
        if last:
            break
        slots = row[live] // beam * beam + rank[live]
        parents = np.arange(rows)
        parents[slots] = row[live]
        cache.reorder(parents)
        scores = np.full(rows, -np.inf)
        scores[slots] = score[live]
        tokens = np.full(rows, EOS_ID)
        tokens[slots] = token[live]
    return pools


def translate_batch_nbest(checkpoint: Checkpoint, source: SourceBatch,
                          beam: int = 4, max_len: int = 256,
                          length_alpha: float = 1.0) -> list[list[Hypothesis]]:
    """Beam-decode each sentence of a batch against a shared read-only
    checkpoint; per sentence, all finished hypotheses plus the unfinished
    beam at ``max_len``, ranked as by ``beam_search_nbest``.  ``max_len``
    is clamped to the checkpoint's position limit."""
    if beam < 1:
        raise ContractError(f"beam must be >= 1, got {beam}")
    cfg = checkpoint.config
    check_source(source, cfg.max_positions)
    max_len = min(max_len, cfg.max_positions)
    n = source.f_s.shape[0]
    if max_len < 1:
        return [[Hypothesis((), 0.0, False)] for _ in range(n)]
    itemsize = checkpoint.params["embed/bpe"].dtype.itemsize
    per_sentence = 2 * beam * (max_len + 1) * cfg.d_model * cfg.n_layers_dec * itemsize
    chunk = max(1, min(_CHUNK_SENTENCES, _CACHE_BYTES // per_sentence))
    pools = []
    for lo in range(0, n, chunk):
        rows = slice(lo, lo + chunk)
        # the chunk without the pad columns all its rows share
        n_w = int(np.flatnonzero(~source.f_w_pad[rows].all(axis=0))[-1]) + 1
        n_s = int(np.flatnonzero(~source.f_s_pad[rows].all(axis=0))[-1]) + 1
        part = SourceBatch(source.f_w[rows, :n_w], source.f_w_pad[rows, :n_w],
                           source.f_s[rows, :n_s], source.f_s_pad[rows, :n_s])
        pools += _lockstep(checkpoint, part, beam, max_len)
    return [_ranked(pool, length_alpha) for pool in pools]


def translate_batch(checkpoint: Checkpoint, source: SourceBatch,
                    beam: int = 4, max_len: int = 256,
                    length_alpha: float = 1.0) -> list[list[int]]:
    """The best hypothesis of each sentence (``translate_batch_nbest``)
    as BPE ids without BOS/EOS."""
    return [pool[0].output_ids() for pool in
            translate_batch_nbest(checkpoint, source, beam, max_len, length_alpha)]

