"""Output checks computed apart from the program.

Each function returns a list of failure messages (empty when the check
passes).  Nothing here compares against a stored copy of an earlier
output: BLEU is recounted, edit distances recomputed, checkpoints re-read
with a separate TFRX reader, and beam search re-run on full re-forward
decoding.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
from collections import Counter

import numpy as np

from transference import corpus, ngram, model
from transference.bpe import BpeModel, apply_bpe, decode_bpe
from transference.tensor import Tensor

_TOKEN = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def _lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().split("\n")[:-1]


# -- BLEU and TER --------------------------------------------------------

def corpus_bleu(hyps: list[str], refs: list[str], max_n: int = 4
                ) -> tuple[float, list[float], float]:
    """BLEU (0-100), clipped n-gram precisions and brevity penalty, by
    direct n-gram counting over word/symbol tokens."""
    match = [0] * max_n
    total = [0] * max_n
    c = r = 0
    for hyp_line, ref_line in zip(hyps, refs):
        hyp, ref = _TOKEN.findall(hyp_line), _TOKEN.findall(ref_line)
        c += len(hyp)
        r += len(ref)
        for n in range(1, max_n + 1):
            h = Counter(tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1))
            g = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
            match[n - 1] += sum((h & g).values())
            total[n - 1] += sum(h.values())
    prec = [m / t if t else 0.0 for m, t in zip(match, total)]
    bp = 1.0 if c >= r or c == 0 else math.exp(1 - r / c)
    if c == 0 or min(prec) == 0.0:
        return 0.0, prec, bp
    return 100.0 * bp * math.exp(sum(map(math.log, prec)) / max_n), prec, bp


def word_levenshtein(a: list[str], b: list[str]) -> int:
    """Unit-cost insert/delete/substitute distance (Wagner-Fischer)."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def bag_distance(a: list[str], b: list[str]) -> int:
    """A lower bound on edits that shifts cannot lower: shifts keep the
    multiset of words, and every word left unmatched costs an edit."""
    common = sum((Counter(a) & Counter(b)).values())
    return max(len(a), len(b)) - common


def check_pipeline(work: str, refs_path: str, world, n_validation: int,
                   n_select: int, ter_of) -> list[str]:
    """``ter_of(hyp, ref)`` is the program's TER for one sentence pair."""
    fails: list[str] = []
    out = os.path.join(work, "out")
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    hyps = _lines(os.path.join(out, "hypotheses.txt"))
    refs = _lines(refs_path)
    if len(hyps) != len(refs):
        return [f"{len(hyps)} hypotheses for {len(refs)} references"]

    bleu, prec, bp = corpus_bleu(hyps, refs)
    if round(bleu, 1) != report["bleu"] or \
            [round(p, 6) for p in prec] != report["precisions"] or \
            round(bp, 6) != report["brevity_penalty"]:
        fails.append(f"BLEU recount {bleu:.4f} {prec} {bp} != report {report}")

    total_edits = total_ref = 0
    for i, (h, r) in enumerate(zip(hyps, refs)):
        ht, rt = _TOKEN.findall(h), _TOKEN.findall(r)
        edits = round(ter_of(h, r) * len(rt) / 100.0)
        lo, hi = bag_distance(ht, rt), word_levenshtein(ht, rt)
        if not lo <= edits <= hi:
            fails.append(f"sentence {i}: TER edits {edits} outside [{lo}, {hi}]")
        total_edits += edits
        total_ref += len(rt)
    if round(100.0 * total_edits / total_ref, 1) != report["ter"]:
        fails.append(f"per-sentence TER sums to {100 * total_edits / total_ref}, "
                     f"report says {report['ter']}")

    with open(os.path.join(work, "corpus", "clean_report.json"),
              encoding="utf-8") as fh:
        cleaned = json.load(fh)
    if cleaned["dropped"] != world.planted or cleaned["kept"] != len(world.survivors):
        fails.append(f"clean report {cleaned} != planted {world.planted}, "
                     f"{len(world.survivors)} kept")

    # Selection: split files hold whole cleaned lines; map them back to
    # their cleaned index and to the generator's domain label.
    sel = os.path.join(work, "select")
    general = _lines(os.path.join(work, "corpus", "general.src.tc"))
    index_of = {line: i for i, line in enumerate(general)}
    score = {}
    for row in _lines(os.path.join(sel, "scores.tsv")):
        cols = row.split("\t")
        score[int(cols[0])] = float(cols[1])
    val = [index_of[x] for x in _lines(os.path.join(sel, "validation.src"))]
    chosen = [index_of[x] for x in _lines(os.path.join(sel, "selected.src"))]
    every = [index_of[x] for x in _lines(os.path.join(sel, "sorted_all.src"))]
    if len(val) != n_validation or len(chosen) != min(n_select, len(every)) \
            or every[:len(chosen)] != chosen:
        fails.append("split sizes or the selected prefix are wrong")
    if set(val) & set(every) or len(set(val) | set(every)) != len(general):
        fails.append("validation and the rest overlap or miss pairs")
    order = [score[i] for i in val + every]
    if any(b < a for a, b in zip(order, order[1:])):
        fails.append("validation + selected + rest is not ascending by score")

    # decode_bpe(apply_bpe(x)) == x for every token the corpus holds, and
    # the BPE files decode, by joining and splitting at the marker, to the
    # token files they were made from.
    bpe_dir = os.path.join(work, "bpe")
    merges = BpeModel.load(os.path.join(bpe_dir, "merges.txt"))
    tokens = {t for name in ("general.src.tc", "general.trg.tc",
                             "indomain.src.tc", "indomain.trg.tc")
              for line in _lines(os.path.join(work, "corpus", name))
              for t in line.split()}
    broken = sorted(t for t in tokens if decode_bpe(apply_bpe(merges, [t])) != [t])
    if broken:
        fails.append(f"BPE does not round-trip {broken[:3]}")
    for split, tok_path in (("sorted_all", os.path.join(sel, "sorted_all")),
                            ("validation", os.path.join(sel, "validation"))):
        for side in ("src", "trg"):
            seg = _lines(os.path.join(bpe_dir, f"{split}.{side}.bpe"))
            tok = _lines(f"{tok_path}.{side}")
            for s, t in zip(seg, tok):
                words = "".join(s.split()).split("</w>")[:-1]
                if words != t.split():
                    fails.append(f"{split}.{side}.bpe does not decode to its tokens")
                    break

    rows = _lines(os.path.join(work, "ckpt", "loss_log.csv"))[1:]
    steps = [float(r.split(",")[3]) for r in rows if r.split(",")[4] == ""]
    if not steps or not steps[-1] < steps[0]:
        fails.append(f"train loss did not fall: first {steps[:1]} last {steps[-1:]}")
    return fails


def selection_enriches(world, n_validation: int, n_select: int) -> bool:
    """Whether the program's cross-entropy-difference selection gives the
    selected set a larger share of generator-labelled in-domain pairs than
    the cleaned general corpus has."""
    general, _ = corpus.clean_corpus(corpus.preprocess_parallel(
        list(zip(world.general_src, world.general_trg))))
    dev = corpus.preprocess_parallel(list(zip(world.dev_src, world.dev_trg)))
    lms = [ngram.train_lm([getattr(p, side) for p in data])
           for data in (dev, general) for side in ("source", "target")]
    scored = [ngram.score_pair(p, lms[0], lms[2], lms[1], lms[3]) for p in general]
    _, selected, _ = ngram.rank_and_split(scored, n_validation, n_select)
    share_all = sum(world.labels[p.original_index] for p in general) / len(general)
    share_sel = sum(world.labels[s.pair.original_index] for s in selected) / len(selected)
    return share_sel > share_all


# -- checkpoints ---------------------------------------------------------

def read_tfrx(path: str) -> dict[str, np.ndarray]:
    """A reader written from the documented TFRX1 layout."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:5] != b"TFRX1":
        raise ValueError(f"{path}: not a TFRX1 file")
    pos, out = 5, {}
    while pos < len(blob):
        (n,) = struct.unpack_from("<Q", blob, pos)
        name = blob[pos + 8:pos + 8 + n].decode("utf-8")
        pos += 8 + n
        (rank,) = struct.unpack_from("<Q", blob, pos)
        shape = struct.unpack_from(f"<{rank}Q", blob, pos + 8)
        pos += 8 + 8 * rank
        size = int(np.prod(shape, dtype=np.int64))
        out[name] = np.frombuffer(blob, "<f4", size, pos).reshape(shape)
        pos += 4 * size
    return out


def check_train(result, ckpt_dir: str, keep: int, expected_tokens: int,
                trained_tokens: int, expected_steps: int) -> list[str]:
    fails: list[str] = []
    averaged = read_tfrx(os.path.join(ckpt_dir, "averaged.tfrx"))
    for name, arr in averaged.items():
        if not np.isfinite(arr).all():
            fails.append(f"averaged parameter {name} is not finite")
    for name, p in result.averaged.params.items():
        if not np.isfinite(p.data).all():
            fails.append(f"returned parameter {name} is not finite")
    losses = [row.train_loss for row in result.log if row.val_loss is None]
    if len(losses) != expected_steps:
        fails.append(f"{len(losses)} steps logged, batches give {expected_steps}")
    if not losses or not losses[-1] < losses[0]:
        fails.append("train loss did not fall")
    kept = sorted(result.epoch_records, key=lambda r: (r[1], r[0]))[:keep]
    epochs = [read_tfrx(path) for path, _ in kept]
    for name, arr in averaged.items():
        mean = np.mean([e[name].astype(np.float64) for e in epochs], axis=0)
        if not np.allclose(arr, mean.astype(np.float32), rtol=1e-6, atol=1e-7):
            fails.append(f"averaged {name} is not the mean of the kept epochs")
            break
    if trained_tokens != expected_tokens:
        fails.append(f"batches hold {trained_tokens} target tokens, "
                     f"inputs give {expected_tokens}")
    return fails


# -- beam search ---------------------------------------------------------

def log_softmax(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.float64)
    x = x - x.max(axis=-1, keepdims=True)
    return x - np.log(np.exp(x).sum(axis=-1, keepdims=True))


def take_rows(encoded, rows: np.ndarray):
    """The encoded sources of ``rows``, one per hypothesis."""
    take = lambda t: Tensor(t.data[rows])
    return model.EncodedSource(take(encoded.enc1_out), take(encoded.enc2_out),
                         take(encoded.enc12_out), encoded.f_w_pad[rows],
                         encoded.f_s_pad[rows])


def sequence_logprob(ckpt, encoded, tokens: list[int]) -> float:
    """log p(tokens | source) by one full decoder forward."""
    prefix = np.array([[model.BOS_ID] + tokens[:-1]], dtype=np.int64)
    lp = log_softmax(model.decode_forward(ckpt.config, ckpt.params, encoded,
                                           prefix).data[0])
    return float(lp[np.arange(len(tokens)), tokens].sum())


def reference_beam(ckpt, source, beam: int, max_len: int,
                   alpha: float) -> float:
    """Best length-normalized score of a beam search that re-runs the full
    decoder over every prefix.  Tie-breaks as documented for the program:
    the top beam+1 tokens per hypothesis by stable sort, candidates by
    (-score, hypothesis index, token), EOS candidates finish, the rest
    fill the beam in order; the pool ranks by logprob / length^alpha."""
    encoded = model.encode(ckpt.config, ckpt.params, source)
    live: list[tuple[tuple[int, ...], float]] = [((), 0.0)]
    finished: list[tuple[tuple[int, ...], float]] = []
    for _ in range(max_len):
        prefix = np.array([(model.BOS_ID,) + t for t, _ in live], dtype=np.int64)
        logits = model.decode_forward(ckpt.config, ckpt.params,
                                      take_rows(encoded, np.zeros(len(live), dtype=int)),
                                      prefix).data
        lp = log_softmax(logits[:, -1])
        cands = []
        for h, (toks, score) in enumerate(live):
            for tok in np.argsort(-lp[h], kind="stable")[:beam + 1]:
                cands.append((score + lp[h, tok], h, int(tok)))
        cands.sort(key=lambda c: (-c[0], c[1], c[2]))
        nxt = []
        for score, h, tok in cands:
            if tok == model.EOS_ID:
                finished.append((live[h][0] + (tok,), score))
            elif len(nxt) < beam:
                nxt.append((live[h][0] + (tok,), score))
        live = nxt
    pool = finished + live
    return max(s / len(t) ** alpha if t else s for t, s in pool)


def check_translate(ckpt, batch, outputs: list[list[int]],
                    sample: list[int], beam: int, max_len: int,
                    alpha: float) -> list[str]:
    fails: list[str] = []
    vocab = ckpt.config.bpe_vocab_size
    for i, ids in enumerate(outputs):
        if len(ids) > max_len or any(not 0 <= t < vocab for t in ids):
            fails.append(f"sentence {i}: ids out of vocab or longer than {max_len}")
    for i in sample:
        n_w = int((~batch.f_w_pad[i]).sum())
        n_s = int((~batch.f_s_pad[i]).sum())
        single = model.SourceBatch(batch.f_w[i:i + 1, :n_w], batch.f_w_pad[i:i + 1, :n_w],
                                   batch.f_s[i:i + 1, :n_s], batch.f_s_pad[i:i + 1, :n_s])
        want = reference_beam(ckpt, single, beam, max_len, alpha)
        # An output shorter than max_len ended with EOS, which the program
        # strips; the score counts it.
        toks = list(outputs[i]) + ([model.EOS_ID] if len(outputs[i]) < max_len else [])
        encoded = model.encode(ckpt.config, ckpt.params, single)
        got = sequence_logprob(ckpt, encoded, toks) / len(toks) ** alpha
        if abs(got - want) > 1e-4:
            fails.append(f"sentence {i}: output scores {got:.6f}, "
                         f"reference beam search reaches {want:.6f}")
    return fails
