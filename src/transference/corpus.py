"""Corpus cleaning, punctuation normalization, tokenization, truecasing,
and the inverse postprocessing applied before submission.

All functions are pure over lines; corpora are plain text, one sentence
per line, UTF-8, LF endings.
"""

from __future__ import annotations

import contextlib
import os
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .errors import AlignmentError, DataError, TransferenceError


@dataclass(frozen=True)
class SentencePair:
    """An aligned source/target sentence, each a token tuple."""

    source: tuple[str, ...]
    target: tuple[str, ...]
    original_index: int


# Fixed substitution table; every right-hand side is a fixed point of the
# table, which makes normalization idempotent.
PUNCT_TABLE: tuple[tuple[str, str], ...] = (
    ("„", '"'),   # low-9 double quote
    ("“", '"'),   # left double quote
    ("”", '"'),   # right double quote
    ("‟", '"'),
    ("«", '"'),   # guillemets
    ("»", '"'),
    ("‚", "'"),   # low-9 single quote
    ("‘", "'"),
    ("’", "'"),
    ("‛", "'"),
    ("‹", "'"),
    ("›", "'"),
    ("‐", "-"),   # hyphen variants, en/em dash, minus sign
    ("‑", "-"),
    ("‒", "-"),
    ("–", "-"),
    ("—", "-"),
    ("−", "-"),
    ("…", "..."),
    (" ", " "),   # no-break and thin spaces
    (" ", " "),
    (" ", " "),
    ("　", " "),
)

_SPACE_RE = re.compile(r"\s+")


def normalize_punctuation(text: str) -> str:
    """Apply the fixed punctuation table and collapse repeated spaces."""
    for src, dst in PUNCT_TABLE:
        text = text.replace(src, dst)
    return _SPACE_RE.sub(" ", text).strip()


# Tokens kept intact when followed by a period (seed abbreviation list for
# Czech/Polish text; not a full nonbreaking-prefix inventory).
ABBREVIATIONS = frozenset({
    "atd", "apod", "např", "tj", "tzv", "tzn", "resp", "str", "č",
    "prof", "dr", "mgr", "ing", "inż", "np", "itd", "itp", "ok",
})

# Order matters: numbers with internal separators, then words (internal
# hyphens kept), then runs of one repeated symbol character.
_TOKEN_RE = re.compile(
    r"\d+(?:[.,:]\d+)+"
    r"|\w+(?:-\w+)*"
    r"|([^\w\s])\1*",
    re.UNICODE,
)

_ESCAPES: tuple[tuple[str, str], ...] = (
    ("&", "&amp;"),
    ("|", "&#124;"),
    ("<", "&lt;"),
    (">", "&gt;"),
    ("'", "&apos;"),
    ('"', "&quot;"),
    ("[", "&#91;"),
    ("]", "&#93;"),
)


def tokenize(text: str, no_escape: bool = True) -> list[str]:
    """Split on whitespace and detach punctuation from word characters.

    Word-internal hyphens and digit separators (1.5 / 1,5) stay attached,
    runs of one repeated symbol form a single token ("..."), and a seed
    list of abbreviations keeps its trailing period.  With ``no_escape``
    (the default) special characters are left as-is rather than replaced
    by entity escapes.
    """
    tokens: list[str] = []
    for chunk in text.split():
        parts = [m.group(0) for m in _TOKEN_RE.finditer(chunk)]
        merged: list[str] = []
        for part in parts:
            if (part == "." and merged
                    and merged[-1].lower() in ABBREVIATIONS):
                merged[-1] = merged[-1] + "."
            else:
                merged.append(part)
        tokens.extend(merged)
    if not no_escape:
        escaped = []
        for tok in tokens:
            for raw, ent in _ESCAPES:
                tok = tok.replace(raw, ent)
            escaped.append(tok)
        tokens = escaped
    return tokens


_ATTACH_LEFT = re.compile(r"^[.,!?;:%)\]}]+$")
_ATTACH_RIGHT = re.compile(r"^[(\[{]+$")


def detokenize(tokens: list[str]) -> str:
    """Reattach punctuation; inverse of :func:`tokenize` up to whitespace
    placement.  Straight double quotes alternate open/close."""
    pieces: list[str] = []
    quote_open = False
    glue_next = True  # no space before the very first piece
    for tok in tokens:
        if tok == '"':
            if quote_open:
                pieces.append(tok)  # closing: attach left
                quote_open = False
                glue_next = False
            else:
                pieces.append(tok if glue_next else " " + tok)
                quote_open = True
                glue_next = True
            continue
        if tok == "'":
            pieces.append(tok)  # apostrophe: tight on both sides
            glue_next = True
            continue
        if _ATTACH_LEFT.match(tok):
            pieces.append(tok)
            glue_next = False
            continue
        if _ATTACH_RIGHT.match(tok):
            pieces.append(tok if glue_next else " " + tok)
            glue_next = True
            continue
        pieces.append(tok if glue_next else " " + tok)
        glue_next = False
    return "".join(pieces)


def postprocess(tokens: list[str]) -> str:
    """Detokenize and normalize for submission: NFC plus the punctuation
    table.  Applying the text-level normalization again is a no-op."""
    return postprocess_text(detokenize(tokens))


def postprocess_text(text: str) -> str:
    return normalize_punctuation(unicodedata.normalize("NFC", text))


def read_lines(path: str) -> list[str]:
    """The lines of a UTF-8 text file, split at LF only: a CR just before
    a line's end is dropped, so CRLF files read as LF files, and any other
    CR stays inside its line.  A file that cannot be opened or is not
    UTF-8 raises DataError naming it."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    if lines[-1] == "":
        lines.pop()
    return [line[:-1] if line.endswith("\r") else line for line in lines]


@contextlib.contextmanager
def replacing(path: str, mode: str = "w", error: type[TransferenceError] = DataError,
              **open_args) -> Iterator[IO]:
    """Open ``<path>.tmp`` for writing and rename it over ``path`` once the
    block ends, so ``path`` holds either its old bytes or all of the new
    ones.  If the block or the rename fails, the temp file is removed; an
    OSError raises ``error`` naming ``path``."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **open_args) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise error(f"{path}: cannot write: {exc.strerror}") from None
        raise


def write_text(path: str, chunks: Iterable[str]) -> None:
    """Write the concatenation of ``chunks`` as a UTF-8 file (``replacing``);
    a file that cannot be created (a missing directory, no permission)
    raises DataError naming it."""
    with replacing(path, encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)


def write_lines(path: str, lines: Iterable[str]) -> None:
    write_text(path, (line + "\n" for line in lines))


def load_parallel(src_path: str, trg_path: str) -> list[tuple[str, str]]:
    src = read_lines(src_path)
    trg = read_lines(trg_path)
    if len(src) != len(trg):
        raise AlignmentError(
            f"line counts differ: {src_path} has {len(src)}, {trg_path} has {len(trg)}")
    return list(zip(src, trg))


def preprocess_parallel(lines: list[tuple[str, str]]) -> list[SentencePair]:
    """Normalize punctuation and tokenize both sides of raw parallel lines."""
    pairs = []
    for i, (src, trg) in enumerate(lines):
        src_tok = tuple(tokenize(normalize_punctuation(src)))
        trg_tok = tuple(tokenize(normalize_punctuation(trg)))
        pairs.append(SentencePair(src_tok, trg_tok, i))
    return pairs


def clean_corpus(pairs: list[SentencePair], min_tokens: int = 1,
                 max_tokens: int = 100, max_ratio: float = 3.0
                 ) -> tuple[list[SentencePair], dict[str, int]]:
    """Drop bad pairs, preserving the relative order of survivors.

    A pair is dropped when either side is empty, either side is outside
    [min_tokens, max_tokens], the length ratio exceeds max_ratio, source
    equals target, or the pair is an exact duplicate of an earlier one.
    Returns the survivors and drop counts keyed by reason.
    """
    kept: list[SentencePair] = []
    dropped: Counter[str] = Counter()
    seen: set[tuple[tuple[str, ...], tuple[str, ...]]] = set()
    for pair in pairs:
        n_src, n_trg = len(pair.source), len(pair.target)
        if n_src == 0 or n_trg == 0:
            dropped["empty"] += 1
            continue
        if n_src < min_tokens or n_trg < min_tokens:
            dropped["too_short"] += 1
            continue
        if n_src > max_tokens or n_trg > max_tokens:
            dropped["too_long"] += 1
            continue
        if max(n_src, n_trg) / min(n_src, n_trg) > max_ratio:
            dropped["ratio"] += 1
            continue
        if pair.source == pair.target:
            dropped["identical"] += 1
            continue
        key = (pair.source, pair.target)
        if key in seen:
            dropped["duplicate"] += 1
            continue
        seen.add(key)
        kept.append(pair)
    return kept, dict(dropped)


class TruecaseModel:
    """Per-lowercased-token counts of surface casings seen mid-sentence."""

    def __init__(self, counts: dict[str, Counter]):
        self.counts = counts

    def best_casing(self, token: str) -> str | None:
        forms = self.counts.get(token.lower())
        if not forms:
            return None
        lower = token.lower()
        # Highest count wins; ties prefer the all-lowercase form, then
        # the lexicographically smallest, so lookups are deterministic.
        return min(forms.items(),
                   key=lambda kv: (-kv[1], kv[0] != lower, kv[0]))[0]

    def save(self, path: str) -> None:
        rows = []
        for lower in sorted(self.counts):
            for form in sorted(self.counts[lower]):
                rows.append(f"{lower}\t{form}\t{self.counts[lower][form]}")
        write_lines(path, rows)

    @classmethod
    def load(cls, path: str) -> "TruecaseModel":
        """Read a model written by ``save``; a line that is not
        ``lower<TAB>form<TAB>count`` raises DataError naming the file and
        the line."""
        counts: dict[str, Counter] = {}
        for number, line in enumerate(read_lines(path), 1):
            try:
                lower, form, count = line.split("\t")
                counts.setdefault(lower, Counter())[form] = int(count)
            except ValueError:
                raise DataError(f"{path} line {number}: expected lower form, "
                                f"surface form and count separated by tabs, "
                                f"got {line!r}") from None
        return cls(counts)


def truecase_train(corpus: list[tuple[str, ...]] | list[list[str]]) -> TruecaseModel:
    """Count surface casings at non-initial positions only, so that the
    obligatory sentence-initial capital does not skew the majority."""
    if not any(corpus):
        raise DataError("truecase training needs a non-empty corpus")
    counts: dict[str, Counter] = {}
    for sentence in corpus:
        for token in sentence[1:]:
            counts.setdefault(token.lower(), Counter())[token] += 1
    return TruecaseModel(counts)


def truecase_apply(model: TruecaseModel, tokens: list[str]) -> list[str]:
    """Recase the sentence-initial token to its corpus-majority casing;
    all other tokens (and unseen initial tokens) are left unchanged."""
    if not tokens:
        return []
    best = model.best_casing(tokens[0])
    if best is None:
        return list(tokens)
    return [best] + list(tokens[1:])
