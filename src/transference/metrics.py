"""Corpus-level BLEU and TER.

Both metrics apply the same internal tokenization to hypothesis and
reference sides, are deterministic, and report on the 0-100 scale.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass

from .errors import ContractError

_METRIC_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def metric_tokenize(text: str) -> list[str]:
    """Case-sensitive: words (runs of word characters) and individual
    symbol characters."""
    return _METRIC_TOKEN_RE.findall(text)


@dataclass
class EvalReport:
    bleu: float                  # 0-100
    precisions: list[float]      # per-n clipped precision, each in [0, 1]
    brevity_penalty: float
    ter: float                   # edits per reference token, x100
    sentences: int

    def to_json(self) -> str:
        return json.dumps({
            "bleu": round(self.bleu, 1),
            "precisions": [round(p, 6) for p in self.precisions],
            "brevity_penalty": round(self.brevity_penalty, 6),
            "ter": round(self.ter, 1),
            "sentences": self.sentences,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        data = json.loads(text)
        return cls(data["bleu"], data["precisions"], data["brevity_penalty"],
                   data["ter"], data["sentences"])


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _check_corpus(metric: str, hypotheses: list[str], references: list[str]) -> None:
    """A ContractError for an empty corpus or for line counts that differ."""
    if not hypotheses:
        raise ContractError(f"{metric} over an empty corpus")
    if len(hypotheses) != len(references):
        raise ContractError(f"line counts differ: {len(hypotheses)} hypotheses, "
                            f"{len(references)} references")


def bleu(hypotheses: list[str], references: list[str],
         max_n: int = 4) -> float:
    """Corpus BLEU: uniform-weight geometric mean of clipped modified
    n-gram precisions (n = 1..max_n) times the brevity penalty
    exp(1 - r/c) when c < r, reported on the 0-100 scale."""
    score, _, _ = _bleu_details(hypotheses, references, max_n)
    return score


def _bleu_details(hypotheses: list[str], references: list[str],
                  max_n: int = 4) -> tuple[float, list[float], float]:
    _check_corpus("BLEU", hypotheses, references)
    matched = [0] * max_n
    total = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for hyp_line, ref_line in zip(hypotheses, references):
        hyp = metric_tokenize(hyp_line)
        ref = metric_tokenize(ref_line)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hyp_counts = _ngrams(hyp, n)
            ref_counts = _ngrams(ref, n)
            total[n - 1] += max(len(hyp) - n + 1, 0)
            for gram, count in hyp_counts.items():
                matched[n - 1] += min(count, ref_counts.get(gram, 0))
    precisions = [0.0 if total[i] == 0 else matched[i] / total[i]
                  for i in range(max_n)]
    if hyp_len == 0:
        return 0.0, precisions, 1.0
    bp = 1.0 if hyp_len >= ref_len else math.exp(1 - ref_len / hyp_len)
    if min(precisions) == 0.0:
        return 0.0, precisions, bp
    log_mean = sum(math.log(p) for p in precisions) / max_n
    return bp * math.exp(log_mean) * 100.0, precisions, bp


class _Pattern:
    """A fixed token sequence to measure word-level edit distances
    against, bit-parallel (Myers 1999, in Hyyro's 2003 form for the global
    distance).  A column state (pv, mv, dist) after j text tokens holds
    the vertical deltas of column j, whose bit i says whether
    D[i+1][j] - D[i][j] is +1 (``pv``) or -1 (``mv``), and ``dist``, the
    last row's value; one more text token costs a few integer operations
    whatever the pattern's length."""

    def __init__(self, tokens: list[str]):
        self.match: dict[str, int] = {}    # token -> bit set of its positions
        for i, tok in enumerate(tokens):
            self.match[tok] = self.match.get(tok, 0) | (1 << i)
        self.n = len(tokens)
        self.mask = (1 << self.n) - 1
        self.start = (self.mask, 0, self.n)

    def floor(self, state: tuple[int, int, int], column: int, left: int) -> int:
        """A lower bound on the distance of a text whose first ``column``
        tokens gave ``state`` and ``left`` tokens follow: the cell of
        column ``column`` on the diagonal that ends in the last cell.
        Adjacent cells of a column differ by at most one, and the
        ``left`` tokens cost at least the difference in remaining
        lengths, so no path through the column does better."""
        row = self.n - left
        if row <= 0:
            return 0
        low = (1 << row) - 1
        pv, mv, _ = state
        return column + (pv & low).bit_count() - (mv & low).bit_count()

    def run(self, state: tuple[int, int, int], column: int, text: list[str],
            limit: float = math.inf) -> tuple[int, int, int] | None:
        """The column state once ``text``, the end of a text, follows the
        ``column`` tokens that gave ``state``; None as soon as ``floor``
        reaches ``limit``, for then the distance cannot be below it."""
        match, mask, last = self.match, self.mask, self.n - 1
        pv, mv, dist = state
        row = self.n - len(text)            # the diagonal's row in this column
        low = (1 << row) - 1 if row > 0 else 0
        for tok in text:
            eq = match.get(tok, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | (~(xh | pv) & mask)
            mh = pv & xh
            dist += (ph >> last & 1) - (mh >> last & 1)
            ph = ((ph << 1) | 1) & mask   # row 0 rises by one per column
            mh = (mh << 1) & mask
            pv = mh | (~(xv | ph) & mask)
            mv = ph & xv
            column += 1
            row += 1
            if row > 0:                   # floor() of the new column
                low = (low << 1) | 1
                if column + (pv & low).bit_count() - (mv & low).bit_count() >= limit:
                    return None
        return pv, mv, dist


def _levenshtein(a: list[str], b: list[str]) -> int:
    """Word-level edit distance with unit insert/delete/substitute costs."""
    if not a:
        return len(b)
    pattern = _Pattern(a)
    return pattern.run(pattern.start, 0, b)[2]


def _sentence_edits(hyp: list[str], ref: list[str], max_shifts: int = 50,
                    max_span: int = 10) -> int:
    """Shifts + remaining edit distance under a greedy shift search.

    Candidate shifts move a contiguous hypothesis span (bounded length,
    and only spans occurring verbatim in the reference) to another
    position.  Each round applies the shift that most reduces the edit
    distance, ties resolved leftmost-start, then shortest span, then
    smallest destination; rounds stop when no shift strictly reduces the
    distance.

    Candidates are visited in that tie-break order, so a candidate
    matters only if its distance is below the best so far (at first, the
    current distance).  The distance is symmetric, so the reference is
    the pattern of every distance; a candidate resumes from the column
    state of the prefix it shares with the current hypothesis or with the
    previous destination, and stops once ``_Pattern.floor`` reaches that
    limit."""
    current = list(hyp)
    if not ref:
        return len(current)
    pattern = _Pattern(ref)
    ref_spans = {tuple(ref[i:i + n]) for n in range(1, max_span + 1)
                 for i in range(len(ref) - n + 1)}
    base = pattern.run(pattern.start, 0, current)[2]
    shifts = 0
    while shifts < max_shifts and base > 0 and len(current) > 1:
        length = len(current)
        prefix = [pattern.start]        # column state after current[:j]
        for j, tok in enumerate(current):
            prefix.append(pattern.run(prefix[-1], j, [tok]))
        best, limit = None, base
        for start in range(length):
            for span_len in range(1, min(max_span, length - start) + 1):
                span = current[start:start + span_len]
                if tuple(span) not in ref_spans:
                    continue
                rest = current[:start] + current[start + span_len:]
                # the shifted text is rest[:dest] + span + rest[dest:]; the
                # floors of rest[:dest] rise with dest, so the first one at
                # the limit ends the destinations
                for dest in range(len(rest) + 1):
                    if dest <= start:
                        state = prefix[dest]
                    else:
                        state = pattern.run(state, dest - 1, rest[dest - 1:dest])
                    if pattern.floor(state, dest, length - dest) >= limit:
                        break
                    if dest == start:
                        continue
                    tail = span + rest[dest:]
                    found = pattern.run(state, dest, tail, limit)
                    if found is not None:
                        best, limit = rest[:dest] + tail, found[2]
        if best is None:
            break
        current, base = best, limit
        shifts += 1
    return shifts + base


def ter(hypotheses: list[str], references: list[str]) -> float:
    """Corpus TER: total edits (insertions, deletions, substitutions, and
    unit-cost phrase shifts) over total reference tokens, x100."""
    _check_corpus("TER", hypotheses, references)
    total_edits = 0
    total_ref = 0
    for hyp_line, ref_line in zip(hypotheses, references):
        ref = metric_tokenize(ref_line)
        if not ref:
            raise ContractError("TER reference line is empty")
        hyp = metric_tokenize(hyp_line)
        total_edits += _sentence_edits(hyp, ref)
        total_ref += len(ref)
    return total_edits / total_ref * 100.0


def evaluate_corpus(hypotheses: list[str], references: list[str]) -> EvalReport:
    bleu_score, precisions, bp = _bleu_details(hypotheses, references)
    ter_score = ter(hypotheses, references)
    return EvalReport(bleu_score, precisions, bp, ter_score, len(hypotheses))
