"""Seeded synthetic Czech->Polish-like data for the benchmark.

Words are built from syllables and drawn from Zipfian distributions; the
target side is the source under fixed character rewrites (ř->rz, ů->ó,
ě->ie, v->w, ...), so the two languages share most subwords, as in the
Czech-Polish track.  Two domains use different Zipf rankings of the same
vocabulary, and every pair carries the domain label the generator used.

Everything here is a pure function of the seed and the sizes passed in;
the program under test only ever sees the files and id lists made here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ONSETS = ("", "b", "d", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t",
          "v", "z", "ch", "č", "ř", "š", "ž", "pr", "st", "tr", "kr", "sv",
          "vl", "dv")
NUCLEI = ("a", "e", "i", "o", "u", "y", "á", "é", "í", "ú", "ů", "ě", "ý")
CODAS = ("", "", "", "n", "k", "s", "l", "v", "t", "ch", "m")

# Each right-hand side contains no left-hand side, so the order of
# application does not matter and rewriting syllable by syllable equals
# rewriting the whole word.
REWRITES = (("ř", "rz"), ("ů", "ó"), ("ě", "ie"), ("v", "w"), ("č", "cz"),
            ("š", "sz"), ("ž", "ż"), ("á", "a"), ("é", "e"), ("í", "i"),
            ("ý", "y"), ("ú", "u"))

ZIPF_EXPONENT = 1.1
NAME_SHARE = 0.03          # words always written with a capital
INDOMAIN_SHARE = 0.25      # general-corpus pairs drawn from the in-domain ranking
NOISE_SHARE = 0.015        # planted pairs per drop reason, of the general corpus


def rewrite(text: str) -> str:
    """Source text to target text: the fixed character rewrites, keeping a
    leading capital."""
    if not text:
        return text
    lowered = text[0].lower() + text[1:]
    for src, dst in REWRITES:
        lowered = lowered.replace(src, dst)
    return lowered[0].upper() + lowered[1:] if text[0].isupper() else lowered


class Language:
    """A vocabulary of syllable-built words with two Zipf rankings.

    ``rank[d]`` orders the vocabulary for domain ``d`` (0 general, 1
    in-domain); a sampled sentence draws each word from its domain's
    Zipf weights."""

    def __init__(self, rng: np.random.Generator, n_words: int):
        self.syllables: list[tuple[str, ...]] = []
        seen = set()
        while len(self.syllables) < n_words:
            n_syl = int(rng.choice((1, 2, 2, 3)))
            syls = tuple(ONSETS[rng.integers(len(ONSETS))]
                         + NUCLEI[rng.integers(len(NUCLEI))]
                         + CODAS[rng.integers(len(CODAS))]
                         for _ in range(n_syl))
            word = "".join(syls)
            if word not in seen:
                seen.add(word)
                self.syllables.append(syls)
        self.names = set(int(i) for i in rng.choice(
            n_words, size=max(1, int(n_words * NAME_SHARE)), replace=False))
        weights = 1.0 / np.arange(1, n_words + 1) ** ZIPF_EXPONENT
        weights /= weights.sum()
        self.weights = weights
        self.rank = (rng.permutation(n_words), rng.permutation(n_words))

    def surface(self, word: int) -> str:
        text = "".join(self.syllables[word])
        return text.capitalize() if word in self.names else text

    def sample(self, rng: np.random.Generator, domain: int,
               length: int) -> tuple[int, ...]:
        picks = rng.choice(len(self.weights), size=length, p=self.weights)
        return tuple(int(self.rank[domain][p]) for p in picks)


class _Sampler:
    """Draws sentences that are new (as lowercased word tuples) and that
    the rewrite changes, so no natural pair is a duplicate or identical."""

    def __init__(self, lang: Language, rng: np.random.Generator):
        self.lang = lang
        self.rng = rng
        self.seen: set[tuple[int, ...]] = set()

    def draw(self, domain: int, length: int) -> tuple[int, ...]:
        while True:
            words = self.lang.sample(self.rng, domain, length)
            if words in self.seen:
                continue
            if all(rewrite(self.lang.surface(w)) == self.lang.surface(w)
                   for w in words):
                continue
            self.seen.add(words)
            return words


def _render(lang: Language, words: tuple[int, ...], index: int
            ) -> tuple[str, str]:
    """Raw source and target lines: sentence-initial capital, a comma or a
    dash now and then, a span in curly quotes now and then, and an end
    mark.  The decoration depends on the index only, so both sides get
    the same tokens."""
    toks = [lang.surface(w) for w in words]
    toks[0] = toks[0][0].upper() + toks[0][1:]
    src, trg = list(toks), [rewrite(t) for t in toks]
    n = len(toks)
    if index % 6 == 1 and n >= 4:
        src[1], src[2] = "„" + src[1], src[2] + "“"
        trg[1], trg[2] = "„" + trg[1], trg[2] + "”"
    if index % 7 == 3 and n >= 5:
        src.insert(n // 2, "–")
        trg.insert(n // 2, "–")
    elif index % 5 == 2 and n >= 5:
        src[n // 2] += ","
        trg[n // 2] += ","
    end = "?" if index % 8 == 5 else "."
    return " ".join(src) + end, " ".join(trg) + end


@dataclass
class World:
    """Raw parallel text for the ``pipeline`` workload."""

    general_src: list[str]
    general_trg: list[str]
    labels: list[int]          # per raw general pair: 1 in-domain, 0 general
    planted: dict[str, int]    # clean_corpus drop reason -> planted count
    survivors: list[int]       # raw indices that cleaning must keep, in order
    dev_src: list[str]
    dev_trg: list[str]


def _general_length(i: int) -> int:
    return 4 + (i * 7) % 9        # 4..12 words, independent of the seed


def _dev_length(i: int) -> int:
    return 4 + (i * 3) % 4        # 4..7 words


def make_world(seed: int, n_general: int, n_dev: int,
               n_words: int = 1500) -> World:
    """``n_general`` raw general pairs (natural ones plus planted noise)
    and ``n_dev`` in-domain pairs.

    Planted noise, ``NOISE_SHARE`` of the general corpus per reason:
    ``ratio`` (a long source with a one-word target), ``identical`` (the
    source copied to the target side) and ``duplicate`` (a verbatim copy
    of an earlier natural pair)."""
    rng = np.random.default_rng([seed, 1])
    lang = Language(rng, n_words)
    sampler = _Sampler(lang, rng)
    per_reason = max(1, int(n_general * NOISE_SHARE))
    n_natural = n_general - 3 * per_reason
    kinds = ["natural"] * n_natural + (["ratio", "identical", "duplicate"]
                                       * per_reason)
    # The first pair stays natural so every duplicate has an original.
    order = [0] + [1 + int(i) for i in rng.permutation(len(kinds) - 1)]
    kinds = [kinds[i] for i in order]

    src, trg, labels, survivors, natural = [], [], [], [], []
    for i, kind in enumerate(kinds):
        if kind == "natural":
            domain = int(rng.random() < INDOMAIN_SHARE)
            s, t = _render(lang, sampler.draw(domain, _general_length(i)), i)
            natural.append(i)
            survivors.append(i)
        elif kind == "ratio":
            domain = 0
            s, _ = _render(lang, sampler.draw(0, 11), i)
            t = rewrite(lang.surface(sampler.draw(0, 1)[0])).capitalize() + "."
        elif kind == "identical":
            domain = 0
            s, _ = _render(lang, sampler.draw(0, _general_length(i)), i)
            t = s
        else:
            j = natural[int(rng.integers(len(natural)))]
            domain = labels[j]
            s, t = src[j], trg[j]
        src.append(s)
        trg.append(t)
        labels.append(domain)

    dev_src, dev_trg = [], []
    for i in range(n_dev):
        s, t = _render(lang, sampler.draw(1, _dev_length(i)), i)
        dev_src.append(s)
        dev_trg.append(t)
    planted = {"ratio": per_reason, "identical": per_reason,
               "duplicate": per_reason}
    return World(src, trg, labels, planted, survivors, dev_src, dev_trg)


def write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in lines))


@dataclass
class IdCorpus:
    """Pre-encoded pairs for the ``train`` and ``translate`` workloads.

    Words are their own word-vocabulary entries; subwords are the
    generator's syllables (source syllables and their rewrites share one
    joint table), so no BPE is needed to encode them."""

    word_vocab_size: int
    sub_vocab_size: int
    word_ids: list[list[int]]
    sub_ids: list[list[int]]
    tgt_ids: list[list[int]]
    labels: list[int]


N_SPECIALS = 4      # pad, bos, eos, unk: the program's fixed special ids


def make_id_corpus(seed: int, n_pairs: int, n_words: int,
                   min_len: int, max_len: int) -> IdCorpus:
    """``n_pairs`` sentence pairs of ``min_len``..``max_len`` words (the
    length cycles with the index, independent of the seed), a quarter of
    them in-domain."""
    rng = np.random.default_rng([seed, 2])
    lang = Language(rng, n_words)
    sampler = _Sampler(lang, rng)
    sub_table: dict[str, int] = {}

    def sub_id(unit: str) -> int:
        return sub_table.setdefault(unit, N_SPECIALS + len(sub_table))

    word_ids, sub_ids, tgt_ids, labels = [], [], [], []
    span = max_len - min_len + 1
    for i in range(n_pairs):
        domain = int(rng.random() < INDOMAIN_SHARE)
        words = sampler.draw(domain, min_len + (i * 5) % span)
        word_ids.append([N_SPECIALS + w for w in words])
        sub_ids.append([sub_id(s) for w in words for s in lang.syllables[w]])
        tgt_ids.append([sub_id(rewrite(s)) for w in words
                        for s in lang.syllables[w]])
        labels.append(domain)
    return IdCorpus(N_SPECIALS + n_words, N_SPECIALS + len(sub_table),
                    word_ids, sub_ids, tgt_ids, labels)
