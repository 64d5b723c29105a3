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


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(hypotheses: list[str], references: list[str],
         max_n: int = 4) -> float:
    """Corpus BLEU: uniform-weight geometric mean of clipped modified
    n-gram precisions (n = 1..max_n) times the brevity penalty
    exp(1 - r/c) when c < r, reported on the 0-100 scale."""
    score, _, _ = _bleu_details(hypotheses, references, max_n)
    return score


def _bleu_details(hypotheses: list[str], references: list[str],
                  max_n: int = 4) -> tuple[float, list[float], float]:
    if not hypotheses:
        raise ContractError("BLEU over an empty corpus")
    if len(hypotheses) != len(references):
        raise ContractError(
            f"line counts differ: {len(hypotheses)} hypotheses, "
            f"{len(references)} references")
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


def _levenshtein(a: list[str], b: list[str]) -> int:
    """Word-level edit distance with unit insert/delete/substitute costs.

    Bit-parallel (Myers 1999, in Hyyro's 2003 form for the global
    distance): bit i of the vertical deltas ``pv``/``mv`` says whether
    D[i+1][j] - D[i][j] is +1/-1 in the current column j, so one column
    of the dynamic-programming table costs a few integer operations
    whatever the length of ``a``; ``dist`` follows the last row."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    match: dict[str, int] = {}       # token -> bit set of its positions in a
    for i, tok in enumerate(a):
        match[tok] = match.get(tok, 0) | (1 << i)
    mask = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    pv, mv, dist = mask, 0, len(a)
    for tok in b:
        eq = match.get(tok, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        ph = ((ph << 1) | 1) & mask   # row 0 rises by one per column
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    return dist


def _is_sublist(span: list[str], seq: list[str]) -> bool:
    n = len(span)
    return any(seq[i:i + n] == span for i in range(len(seq) - n + 1))


def _sentence_edits(hyp: list[str], ref: list[str], max_shifts: int = 50,
                    max_span: int = 10) -> int:
    """Shifts + remaining edit distance under a greedy shift search.

    Candidate shifts move a contiguous hypothesis span (bounded length,
    and only spans occurring verbatim in the reference) to another
    position.  Each round applies the shift that most reduces the edit
    distance, ties resolved leftmost-start, then shortest span, then
    smallest destination; rounds stop when no shift strictly reduces the
    distance."""
    current = list(hyp)
    base = _levenshtein(current, ref)
    shifts = 0
    while shifts < max_shifts and base > 0 and len(current) > 1:
        best = None  # (-reduction, start, span_len, dest, shifted, new_dist)
        for start in range(len(current)):
            for span_len in range(1, min(max_span, len(current) - start) + 1):
                span = current[start:start + span_len]
                if not _is_sublist(span, ref):
                    continue
                rest = current[:start] + current[start + span_len:]
                for dest in range(len(rest) + 1):
                    if dest == start:
                        continue
                    shifted = rest[:dest] + span + rest[dest:]
                    if shifted == current:
                        continue
                    dist = _levenshtein(shifted, ref)
                    key = (-(base - dist), start, span_len, dest)
                    if best is None or key < best[0]:
                        best = (key, shifted, dist)
        if best is None or -best[0][0] < 1:
            break
        current = best[1]
        base = best[2]
        shifts += 1
    return shifts + base


def ter(hypotheses: list[str], references: list[str]) -> float:
    """Corpus TER: total edits (insertions, deletions, substitutions, and
    unit-cost phrase shifts) over total reference tokens, x100."""
    if not hypotheses:
        raise ContractError("TER over an empty corpus")
    if len(hypotheses) != len(references):
        raise ContractError(
            f"line counts differ: {len(hypotheses)} hypotheses, "
            f"{len(references)} references")
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
