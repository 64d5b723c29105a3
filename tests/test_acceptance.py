"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` reports the same pass/fail status per test.
"""

import filecmp
import itertools
import math
import os
import time
from collections import Counter

import numpy as np
import pytest

from transference.bpe import END_OF_WORD, apply_bpe, decode_bpe, learn_bpe
from transference.corpus import (SentencePair, clean_corpus,
                                 normalize_punctuation, tokenize)
from transference.metrics import bleu, ter, _sentence_edits
from transference.model import (BOS_ID, Checkpoint, ModelConfig, Vocab,
                                decode_forward, encode, init_params,
                                make_source_batch, multi_head_attention)
from transference.ngram import BOS, EOS, rank_and_split, score_pair, train_lm
from transference.search import translate_batch
from transference.tensor import GradTape, Tensor, attention, backward
from transference.training import (OptimizerState, PreparedPair, TrainConfig,
                                   average_checkpoints, lr_schedule,
                                   make_batches, train, train_step)
from transference.pipeline import load_pipeline_config, run_pipeline

from conftest import make_toy_world, write_pipeline_ini, write_world
from oracles import (exhaustive_shift_edits, finite_difference_gradients,
                     multi_head_reference, relative_gradient_error)


def report(criterion: str, detail: str = "") -> None:
    line = f"[acceptance] {criterion}: PASS"
    if detail:
        line += f"  ({detail})"
    print(line)


def miniature_config(**overrides):
    defaults = dict(bpe_vocab_size=20, word_vocab_size=20, n_layers_fw=1,
                    n_layers_fs=1, n_layers_es=1, n_layers_dec=1,
                    d_model=8, d_ff=16, heads=2, dropout=0.0,
                    max_positions=16)
    defaults.update(overrides)
    return ModelConfig(**defaults)


def test_c1_gradient_correctness():
    """Every parameter of the miniature model vs central finite
    differences: relative error < 1e-4 at 64-bit, within 60 s."""
    start = time.monotonic()
    cfg = miniature_config()
    ckpt = init_params(cfg, seed=42, dtype=np.float64)
    batch = make_source_batch([[4, 9, 6], [7, 8]], [[4, 5, 6, 7], [8, 9]])
    tgt_in = np.array([[BOS_ID, 10, 5], [BOS_ID, 6, 0]])
    tgt_out = np.array([[10, 5, 2], [6, 2, 0]])

    from transference.training import label_smoothed_loss

    def forward() -> float:
        enc = encode(cfg, ckpt.params, batch)
        logits = decode_forward(cfg, ckpt.params, enc, tgt_in)
        return label_smoothed_loss(logits, tgt_out, 0.1).item()

    with GradTape() as tape:
        enc = encode(cfg, ckpt.params, batch)
        logits = decode_forward(cfg, ckpt.params, enc, tgt_in)
        loss = label_smoothed_loss(logits, tgt_out, 0.1)
    grads = backward(tape, loss)

    worst = 0.0
    n_params = 0
    for name, tensor in ckpt.params.items():
        n_params += tensor.size
        numeric = finite_difference_gradients(forward, {name: tensor.data},
                                              h=1e-6)[name]
        err = relative_gradient_error(grads[tensor], numeric)
        assert err < 1e-4, f"{name}: relative error {err:.3e}"
        worst = max(worst, err)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    report("criterion 1 gradient correctness",
           f"{n_params} params, worst rel err {worst:.1e}, {elapsed:.1f}s")


def overfit_pairs(n=64, vocab=20, seed=5):
    rng = np.random.default_rng(seed)
    pairs, seen = [], set()
    while len(pairs) < n:
        length = int(rng.integers(4, 9))
        src = tuple(int(x) for x in rng.integers(4, vocab, size=length))
        if src in seen:
            continue
        seen.add(src)
        tgt = tuple(((s - 4 + 3) % (vocab - 4)) + 4 for s in src)
        pairs.append(PreparedPair(src, src, tgt))
    return pairs


def test_c2_overfit_sanity():
    """64-pair corpus, miniature model: loss < 0.1 within 2000 steps and
    beam-1 decoding reproduces >= 95% of targets, within 10 minutes."""
    start = time.monotonic()
    pairs = overfit_pairs()
    cfg = miniature_config(d_model=32, d_ff=64)
    ckpt = init_params(cfg, seed=1)
    tc = TrainConfig(epochs=1, batch_tokens=768, max_len=16,
                     warmup_steps=100, label_smoothing=0.0, seed=9)
    state = OptimizerState.for_params(ckpt.params)

    step = 0
    first_below = None
    epoch = 0
    while step < 2000:
        for batch in make_batches(pairs, tc.batch_tokens, tc.max_len,
                                  seed=tc.seed, epoch=epoch):
            step += 1
            _, value = train_step(cfg, ckpt.params, batch, state, tc, None)
            if value < 0.1 and first_below is None:
                first_below = step
            if value < 0.01:
                break
        else:
            epoch += 1
            continue
        break

    assert first_below is not None and first_below <= 2000, \
        f"loss never fell below 0.1 in {step} steps"
    source = make_source_batch([list(p.word_ids) for p in pairs],
                               [list(p.sub_ids) for p in pairs])
    decoded = translate_batch(Checkpoint(ckpt.params, cfg, step), source,
                              beam=1, max_len=12, length_alpha=0.0)
    exact = sum(1 for ids, p in zip(decoded, pairs)
                if tuple(ids) == p.tgt_ids)
    elapsed = time.monotonic() - start
    assert exact >= math.ceil(0.95 * len(pairs)), f"only {exact}/64 exact"
    assert elapsed < 600.0, f"overfit run took {elapsed:.1f}s"
    report("criterion 2 overfit sanity",
           f"loss<0.1 at step {first_below}, {exact}/64 greedy exact, "
           f"{elapsed:.1f}s")


def build_selection_world(seed=21):
    """Tokenized toy world plus LMs, scores, and the three splits."""
    world = make_toy_world(n_general=200, n_a=60, n_dev=48, seed=seed)

    def tok(lines):
        return [tokenize(normalize_punctuation(line)) for line in lines]

    gen_src, gen_trg = tok(world.general_src), tok(world.general_trg)
    dev_src, dev_trg = tok(world.dev_src), tok(world.dev_trg)
    pairs = [SentencePair(tuple(s), tuple(t), i)
             for i, (s, t) in enumerate(zip(gen_src, gen_trg))]
    pairs, _ = clean_corpus(pairs)
    lms = {
        "i_src": train_lm(dev_src, 3),
        "i_trg": train_lm(dev_trg, 3),
        "o_src": train_lm([list(p.source) for p in pairs], 3),
        "o_trg": train_lm([list(p.target) for p in pairs], 3),
    }
    scored = [score_pair(p, lms["i_src"], lms["o_src"],
                         lms["i_trg"], lms["o_trg"]) for p in pairs]
    return world, pairs, lms, scored, dev_src, dev_trg


def brute_force_entropy(lm, sentence):
    """Per-token bits via an explicit event loop over lm.prob."""
    mapped = [lm.map_token(t) for t in sentence]
    padded = [BOS] * (lm.order - 1) + mapped
    total = 0.0
    events = 0
    for i, target in enumerate(mapped + [EOS]):
        context = tuple(padded[i:i + lm.order - 1])
        total -= math.log2(lm.prob(target, context))
        events += 1
    return total / events


def prepare_translation_task(seed=21, bpe_vocab_target=90):
    world, pairs, lms, scored, dev_src, dev_trg = build_selection_world(seed)
    validation, selected, sorted_all = rank_and_split(scored, 8, 60)
    bpe = learn_bpe(itertools.chain([list(p.source) for p in pairs],
                                    [list(p.target) for p in pairs]),
                    bpe_vocab_target)

    def seg(tokens):
        return apply_bpe(bpe, list(tokens))

    train_pairs = [s.pair for s in sorted_all]
    bpe_vocab = Vocab.from_corpus([seg(p.source) for p in train_pairs]
                                  + [seg(p.target) for p in train_pairs])
    word_vocab = Vocab.from_corpus([list(p.source) for p in train_pairs],
                                   max_size=50)

    def prep(subset):
        return [PreparedPair(tuple(word_vocab.encode(list(p.source))),
                             tuple(bpe_vocab.encode(seg(p.source))),
                             tuple(bpe_vocab.encode(seg(p.target))))
                for p in subset]

    dev_batch = make_source_batch(
        [word_vocab.encode(s) for s in dev_src],
        [bpe_vocab.encode(seg(s)) for s in dev_src])
    refs = [" ".join(t) for t in dev_trg]

    def evaluate(model):
        ids = translate_batch(model, dev_batch, beam=4, max_len=24)
        hyp = [" ".join(decode_bpe(bpe_vocab.decode(i))) for i in ids]
        return bleu(hyp, refs), ter(hyp, refs)

    return {
        "generic": prep(train_pairs),
        "finetune": prep([s.pair for s in selected]),
        "validation": prep([s.pair for s in validation]),
        "bpe_vocab": bpe_vocab,
        "word_vocab": word_vocab,
        "evaluate": evaluate,
    }


def test_c3_finetuning_direction(tmp_path):
    """Fine-tuning on the selected in-domain-like subset must give
    strictly higher dev BLEU and strictly lower dev TER than the generic
    checkpoint (sign of the effect only)."""
    task = prepare_translation_task()
    cfg = ModelConfig(bpe_vocab_size=len(task["bpe_vocab"]),
                      word_vocab_size=len(task["word_vocab"]),
                      n_layers_fw=1, n_layers_fs=1, n_layers_es=1,
                      n_layers_dec=1, d_model=32, d_ff=64, heads=2,
                      dropout=0.1, max_positions=32)
    ckpt = init_params(cfg, seed=3)
    n_generic = 25
    gcfg = TrainConfig(epochs=n_generic, batch_tokens=640, max_len=30,
                       warmup_steps=100, label_smoothing=0.1,
                       checkpoint_keep=4, seed=13)
    fcfg = TrainConfig(epochs=80, batch_tokens=320, max_len=30,
                       warmup_steps=100, label_smoothing=0.1,
                       checkpoint_keep=4, seed=13)
    result = train(task["generic"], task["finetune"], task["validation"],
                   ckpt, gcfg, fcfg, str(tmp_path / "ckpt"))

    generic_best = sorted(result.epoch_records[:n_generic],
                          key=lambda r: (r[1], r[0]))[:gcfg.checkpoint_keep]
    generic_avg = average_checkpoints(
        [Checkpoint.load(path) for path, _ in generic_best])

    bleu_gen, ter_gen = task["evaluate"](generic_avg)
    bleu_ft, ter_ft = task["evaluate"](result.averaged)
    assert bleu_ft > bleu_gen, f"BLEU {bleu_ft:.1f} !> {bleu_gen:.1f}"
    assert ter_ft < ter_gen, f"TER {ter_ft:.1f} !< {ter_gen:.1f}"
    report("criterion 3 fine-tuning direction",
           f"generic BLEU {bleu_gen:.1f}/TER {ter_gen:.1f} -> "
           f"fine-tuned BLEU {bleu_ft:.1f}/TER {ter_ft:.1f}")


def test_c4_data_selection_oracle():
    """score_pair vs a brute-force evaluation of the two-term
    cross-entropy-difference score, ranking vs a brute-force sort, and
    the validation/selection disjointness guarantee."""
    world, pairs, lms, scored, _, _ = build_selection_world()
    assert len(scored) == 200
    for s in scored:
        h_si = brute_force_entropy(lms["i_src"], s.pair.source)
        h_so = brute_force_entropy(lms["o_src"], s.pair.source)
        h_ti = brute_force_entropy(lms["i_trg"], s.pair.target)
        h_to = brute_force_entropy(lms["o_trg"], s.pair.target)
        brute = abs(h_si - h_so) + abs(h_ti - h_to)
        assert abs(s.score - brute) < 1e-9
        assert abs(s.h_src_in - h_si) < 1e-9

    validation, selected, sorted_all = rank_and_split(scored, 8, 60)
    brute_order = sorted(scored,
                         key=lambda s: (s.score, s.pair.original_index))
    assert [s.pair.original_index for s in validation] == \
        [s.pair.original_index for s in brute_order[:8]]
    assert [s.pair.original_index for s in sorted_all] == \
        [s.pair.original_index for s in brute_order[8:]]
    val_ids = {s.pair.original_index for s in validation}
    sel_ids = {s.pair.original_index for s in selected}
    assert val_ids & sel_ids == set()
    # the in-domain-like pairs outrank the rest
    top = val_ids | sel_ids
    a_in_top = len(top & world.a_indices)
    assert a_in_top == 60
    report("criterion 4 data selection oracle",
           f"200 pairs, all A-pairs ranked top ({a_in_top}/60)")


def test_c5_attention_equivalence():
    """Multi-head attention vs the brute-force per-head oracle within
    1e-6; the h=1 identity-projection reduction is exact."""
    rng = np.random.default_rng(33)
    d_model, heads = 4, 2
    weights = {name: rng.normal(size=(d_model, d_model))
               for name in ("wq", "wk", "wv", "wo")}
    x_q = rng.normal(size=(3, d_model))
    x_kv = rng.normal(size=(5, d_model))
    params = {f"attn/{name}": Tensor(w, dtype=np.float64)
              for name, w in weights.items()}
    out = multi_head_attention(params, "attn", Tensor(x_q[None], dtype=np.float64),
                               Tensor(x_kv[None], dtype=np.float64),
                               None, heads=heads)
    expected = multi_head_reference(x_q, x_kv, x_kv, weights["wq"],
                                    weights["wk"], weights["wv"],
                                    weights["wo"], heads)
    assert np.abs(out.data[0] - expected).max() < 1e-6

    eye = Tensor(np.eye(6), dtype=np.float64)
    idp = {f"attn/{w}": eye for w in ("wq", "wk", "wv", "wo")}
    x = Tensor(rng.normal(size=(1, 4, 6)), dtype=np.float64)
    reduced = multi_head_attention(idp, "attn", x, x, None, heads=1)
    direct = attention(x, x, x, None, 1.0 / math.sqrt(6))
    np.testing.assert_array_equal(reduced.data, direct.data)
    report("criterion 5 attention equivalence",
           "brute-force oracle < 1e-6, h=1 reduction exact")


def test_c6_schedule_values():
    """lr_schedule(1) and lr_schedule(8000) within 1e-12 relative of the
    closed forms; branch equality at step == warmup exact."""
    expected_1 = 512 ** -0.5 * 8000 ** -1.5
    got_1 = lr_schedule(1)
    assert abs(got_1 - expected_1) / expected_1 < 1e-12
    assert got_1 == pytest.approx(6.17e-8, rel=1e-2)

    expected_peak = 512 ** -0.5 * 8000 ** -0.5
    got_peak = lr_schedule(8000)
    assert abs(got_peak - expected_peak) / expected_peak < 1e-12
    assert got_peak == pytest.approx(4.94e-4, rel=1e-2)

    for warmup in (8, 100, 8000):
        rsqrt = warmup ** -0.5
        linear = (warmup / warmup) * warmup ** -0.5
        assert rsqrt == linear  # exact branch equality at step == warmup
    report("criterion 6 schedule values",
           f"lr(1)={got_1:.3e}, lr(8000)={got_peak:.3e}")


def test_c7_bpe():
    """Merges match the brute-force pair-count oracle exactly; the
    decode/apply roundtrip is the identity on 1000 random sentences."""
    word_freq = {"low": 5, "lower": 2, "newest": 6, "widest": 3}
    corpus = [[w] * f for w, f in word_freq.items()]
    model = learn_bpe(corpus, target_vocab=100)

    def brute_counts(merges):
        counts = Counter()
        for word, freq in word_freq.items():
            symbols = list(word) + [END_OF_WORD]
            for merge in merges:
                out, i = [], 0
                while i < len(symbols):
                    if (i + 1 < len(symbols) and symbols[i] == merge[0]
                            and symbols[i + 1] == merge[1]):
                        out.append(merge[0] + merge[1])
                        i += 2
                    else:
                        out.append(symbols[i])
                        i += 1
                symbols = out
            for pair in zip(symbols, symbols[1:]):
                counts[pair] += freq
        return counts

    for depth, merge in enumerate(model.merges):
        counts = brute_counts(model.merges[:depth])
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        assert best[0] == merge and best[1] >= 2

    rng = np.random.default_rng(17)
    alphabet = list("aábcčdeéfghií")
    seen_words = ["".join(rng.choice(alphabet, size=rng.integers(2, 7)))
                  for _ in range(60)]
    train_corpus = [[seen_words[i] for i in rng.integers(0, 60, size=8)]
                    for _ in range(50)]
    rt_model = learn_bpe(train_corpus, target_vocab=80)
    unseen = ["xyžw", "qq", "ěšč"]
    pool = seen_words + unseen
    for _ in range(1000):
        sentence = [pool[i] for i in rng.integers(0, len(pool),
                                                  size=rng.integers(1, 9))]
        assert decode_bpe(apply_bpe(rt_model, sentence)) == sentence
    report("criterion 7 BPE",
           f"{len(model.merges)} merges oracle-exact, 1000 roundtrips")


def test_c8_metrics():
    """BLEU/TER identities, micro-corpus hand computation to 0.1, and the
    one-shift TER case against the exhaustive oracle."""
    corpus = ["ta tb tc td te .", "tf tg th ti ."]
    assert bleu(corpus, list(corpus)) == pytest.approx(100.0, abs=1e-9)
    assert ter(corpus, list(corpus)) == 0.0

    hyp = ["the cat sat on the mat"]
    ref = ["the cat is on the mat"]
    # hand tally: p1=5/6, p2=3/5, p3=1/4, p4=0/3 -> BLEU 0; use the
    # second corpus with a 4-gram match for a nonzero hand value
    hyp2 = ["the quick brown fox jumps high"]
    ref2 = ["the quick brown fox leaps high"]
    # p1=5/6, p2=3/5, p3=2/4, p4=1/3; c=6, r=6, bp=1
    expected = math.exp((math.log(5 / 6) + math.log(3 / 5)
                         + math.log(2 / 4) + math.log(1 / 3)) / 4) * 100
    assert bleu(hyp2, ref2) == pytest.approx(expected, abs=0.1)
    assert bleu(hyp, ref) == 0.0  # zero 4-gram matches

    got = ter(["a b c d"], ["c d a b"])
    assert got == pytest.approx(25.0)
    greedy_edits = _sentence_edits("a b c d".split(), "c d a b".split())
    oracle_edits = exhaustive_shift_edits("a b c d".split(),
                                          "c d a b".split(), 3)
    assert greedy_edits == oracle_edits == 1
    report("criterion 8 metrics",
           f"identities hold, micro BLEU {expected:.1f}, shift TER 25.0")


def test_c9_checkpoint_averaging():
    """Averaging identities: 8 identical -> identity, theta/-theta ->
    zero, random triples match a scalar loop exactly."""
    cfg = miniature_config()
    base = init_params(cfg, seed=50)
    avg8 = average_checkpoints([base] * 8)
    for name in base.params:
        np.testing.assert_array_equal(avg8.params[name].data,
                                      base.params[name].data)

    negated = Checkpoint({k: Tensor(-t.data, requires_grad=True)
                          for k, t in base.params.items()}, cfg, 0)
    zero = average_checkpoints([base, negated])
    for name in zero.params:
        assert (zero.params[name].data == 0.0).all()

    triple = [init_params(cfg, seed=s) for s in (51, 52, 53)]
    avg = average_checkpoints(triple)
    for name in ("embed/word", "output/weight", "decoder/layer_0/ffn/w1"):
        flat = avg.params[name].data.reshape(-1)
        flats = [c.params[name].data.reshape(-1) for c in triple]
        for i in range(flat.size):
            acc = 0.0
            for source in flats:
                acc += float(source[i])
            assert flat[i] == np.float32(acc / 3)
    report("criterion 9 checkpoint averaging",
           "identity, zero, and scalar-loop cases exact")


def test_c10_pipeline_determinism(tmp_path):
    """Two full pipeline runs with identical config+seed into fresh work
    directories produce bit-identical checkpoints and translations,
    within 15 minutes end to end."""
    start = time.monotonic()
    world = make_toy_world()
    data_paths = write_world(world, tmp_path)

    workdirs = []
    for run in ("one", "two"):
        ini = write_pipeline_ini(tmp_path / f"cfg_{run}.ini", data_paths,
                                 str(tmp_path / f"work_{run}"))
        cfg = load_pipeline_config(ini)
        workdir, report_obj = run_pipeline(cfg)
        assert report_obj.sentences == 48
        workdirs.append(workdir)

    first, second = workdirs
    ckpts = sorted(f for f in os.listdir(os.path.join(first, "ckpt"))
                   if f.endswith(".tfrx"))
    assert "averaged.tfrx" in ckpts and len(ckpts) >= 3
    compared = []
    for name in ckpts:
        a = os.path.join(first, "ckpt", name)
        b = os.path.join(second, "ckpt", name)
        assert filecmp.cmp(a, b, shallow=False), f"{name} differs"
        compared.append(name)
    for rel in (("out", "hypotheses.bpe"), ("out", "hypotheses.txt"),
                ("out", "report.json"), ("select", "scores.tsv"),
                ("bpe", "merges.txt")):
        a = os.path.join(first, *rel)
        b = os.path.join(second, *rel)
        assert filecmp.cmp(a, b, shallow=False), f"{rel} differs"
    elapsed = time.monotonic() - start
    assert elapsed < 900.0, f"two pipeline runs took {elapsed:.1f}s"
    report("criterion 10 pipeline determinism",
           f"{len(compared)} checkpoints + translations bit-identical, "
           f"{elapsed:.1f}s")
