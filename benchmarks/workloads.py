"""The three workloads.  Each has ``setup`` (make and write the inputs,
prepare what a round consumes), ``round`` (one fixed amount of work,
returning the seconds it took), ``items`` (work units per round) and
``check`` (output checks, run after the timed phase).

Sizes are fixed here; only the seed varies between runs.
"""

from __future__ import annotations

import configparser
import hashlib
import os
import shutil
import time
import tracemalloc

import numpy as np

import checks
import gen
import spans
from transference import metrics, model, pipeline, search, training
from transference.tensor import GradTape, Tensor


NEVER = -1e4      # an output bias that keeps a token out of every beam


def timed(fn, *args, **kwargs):
    """Seconds that ``fn(*args, **kwargs)`` took, and its result."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def _fresh_params(ckpt: model.Checkpoint) -> model.Checkpoint:
    params = {k: Tensor(v.data.copy(), requires_grad=True)
              for k, v in ckpt.params.items()}
    return model.Checkpoint(params, ckpt.config, ckpt.step)


class Pipeline:
    """``run_pipeline`` from raw text to report.json in a fresh work
    directory, then a no-op rerun of the same config.

    Each round also runs a selection probe outside its timed part: the
    program's data selection on a fixed corpus (``PROBE``, whatever
    ``--seed`` is), which should enrich the selected set in in-domain
    pairs.  It fails every time: the two language models of each side
    keep separate vocabularies, so their cross-entropies are not
    comparable, and the probe counts as one failed operation per round."""

    N_GENERAL = 2000
    N_DEV = 40
    operations = 3           # the run, the rerun and the selection probe
    PROBE = dict(seed=0, n_general=600, n_dev=40)
    PROBE_SELECT = 150
    SETTINGS = {
        "clean": {"min_tokens": "1", "max_tokens": "100", "max_ratio": "3.0"},
        "lm": {"order": "3"},
        "select": {"n_validation": "40", "n_select": "400"},
        "bpe": {"vocab_size": "200"},
        "model": {"d_model": "32", "d_ff": "64", "heads": "2", "layers": "1",
                  "dropout": "0.1", "max_positions": "64",
                  "word_vocab_size": "2000"},
        "train": {"epochs": "1", "batch_tokens": "1500", "max_len": "64",
                  "warmup_steps": "40", "label_smoothing": "0.1",
                  "checkpoint_keep": "2"},
        "finetune": {"epochs": "1"},
        "decode": {"beam": "4", "max_len": "24", "length_alpha": "1.0"},
    }

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        self.work = os.path.join(root, "work")
        self.tracer = spans.Tracer()
        self.digests: set[str] = set()
        self.rerun_wrote: list[str] = []
        self.failed = 0

    @property
    def items(self) -> int:
        return self.N_GENERAL

    def setup(self) -> None:
        self.world = gen.make_world(self.seed, self.N_GENERAL, self.N_DEV)
        inputs = os.path.join(self.root, "inputs")
        os.makedirs(inputs, exist_ok=True)
        self.paths = {}
        for key, lines in (("general_source", self.world.general_src),
                           ("general_target", self.world.general_trg),
                           ("indomain_source", self.world.dev_src),
                           ("indomain_target", self.world.dev_trg)):
            self.paths[key] = os.path.join(inputs, key)
            gen.write_lines(self.paths[key], lines)
        parser = configparser.ConfigParser()
        parser["data"] = dict(self.paths, workdir=self.work)
        parser.read_dict(self.SETTINGS)
        parser["pipeline"] = {"seed": str(self.seed)}
        ini = os.path.join(self.root, "pipeline.ini")
        with open(ini, "w", encoding="utf-8") as fh:
            parser.write(fh)
        self.cfg = pipeline.load_pipeline_config(ini)
        self.probe = gen.make_world(**self.PROBE)

    def _snapshot(self) -> dict[str, tuple[int, int]]:
        """mtime and size of every file the run wrote, except the lock file
        that every run reopens."""
        snap = {}
        for base, _, files in os.walk(self.work):
            for name in files:
                if name != ".lock":
                    st = os.stat(os.path.join(base, name))
                    snap[os.path.join(base, name)] = (st.st_mtime_ns, st.st_size)
        return snap

    def round(self) -> float:
        shutil.rmtree(self.work, ignore_errors=True)
        first = self._timed("pipeline.run")
        before = self._snapshot()
        second = self._timed("pipeline.rerun")
        after = self._snapshot()
        self.rerun_wrote += sorted(p for p in after if after[p] != before.get(p))
        with open(os.path.join(self.work, "out", "hypotheses.bpe"), "rb") as fh:
            hyp = fh.read()
        with open(os.path.join(self.work, "out", "report.json"), "rb") as fh:
            self.digests.add(hashlib.sha256(hyp + fh.read()).hexdigest())
        tracing, self.tracer.on = self.tracer.on, False    # not the probe's calls
        try:
            if not checks.selection_enriches(self.probe, self.cfg.n_validation,
                                             self.PROBE_SELECT):
                self.failed += 1
        finally:
            self.tracer.on = tracing
        return first + second

    def _timed(self, name: str) -> float:
        span = self.tracer.begin(name) if self.tracer.on else None
        elapsed, _ = timed(pipeline.run_pipeline, self.cfg)
        if span:
            self.tracer.finish(span)
        return elapsed

    def hypothesis_lengths(self) -> list[int]:
        with open(os.path.join(self.work, "out", "hypotheses.bpe"),
                  encoding="utf-8") as fh:
            return [len(line.split()) for line in fh]

    def check(self) -> list[str]:
        fails = checks.check_pipeline(
            self.work, self.paths["indomain_target"], self.world,
            self.cfg.n_validation, self.cfg.n_select,
            lambda h, r: metrics.ter([h], [r]))
        if self.rerun_wrote:
            fails.append(f"the rerun rewrote {self.rerun_wrote[:3]}")
        if len(self.digests) != 1:
            fails.append("rounds produced different translations or reports")
        return fails


class Train:
    """``training.train``: a generic phase, a fine-tune phase on the
    in-domain-labelled pairs, and checkpoint averaging, on pre-encoded
    syllable ids."""

    N_GENERIC = 600
    N_VALIDATION = 40
    operations = 1
    failed = 0
    MODEL = dict(n_layers_fw=1, n_layers_fs=1, n_layers_es=1, n_layers_dec=1,
                 d_model=64, d_ff=256, heads=4, dropout=0.1, max_positions=64)
    GENERIC = dict(epochs=2, batch_tokens=400, max_len=64, warmup_steps=50,
                   checkpoint_keep=3)
    FINETUNE = dict(GENERIC, epochs=2)

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.ckpt_dir = os.path.join(root, "ckpt")
        self.trajectories: set[tuple[float, ...]] = set()
        self.last = None

    def setup(self) -> None:
        corpus = gen.make_id_corpus(self.seed, self.N_GENERIC + self.N_VALIDATION,
                                    n_words=400, min_len=4, max_len=10)
        pairs = [training.PreparedPair(tuple(w), tuple(s), tuple(t))
                 for w, s, t in zip(corpus.word_ids, corpus.sub_ids, corpus.tgt_ids)]
        self.generic = pairs[:self.N_GENERIC]
        self.validation = pairs[self.N_GENERIC:]
        self.finetune = [p for p, label in zip(self.generic, corpus.labels) if label]
        self.config = model.ModelConfig(corpus.sub_vocab_size,
                                        corpus.word_vocab_size, **self.MODEL)
        self.init = model.init_params(self.config, self.seed)
        self.gen_cfg = training.TrainConfig(seed=self.seed, **self.GENERIC)
        self.ft_cfg = training.TrainConfig(seed=self.seed, **self.FINETUNE)
        # Target tokens trained per round, EOS included: every pair is
        # short enough to survive the max_len filter, once per epoch.
        self.expected_tokens = sum(
            cfg.epochs * sum(len(p.tgt_ids) + 1 for p in data)
            for cfg, data in ((self.gen_cfg, self.generic),
                              (self.ft_cfg, self.finetune)))

    @property
    def items(self) -> int:
        return self.expected_tokens

    def round(self) -> float:
        shutil.rmtree(self.ckpt_dir, ignore_errors=True)
        ckpt = _fresh_params(self.init)
        elapsed, result = timed(training.train, self.generic, self.finetune,
                                 self.validation, ckpt, self.gen_cfg,
                                 self.ft_cfg, self.ckpt_dir)
        self.trajectories.add(tuple(row.train_loss for row in result.log))
        self.last = result
        return elapsed

    def _epoch_batches(self) -> list:
        """The batches ``train`` builds, epoch by epoch, for its seeds."""
        batches, epoch = [], 0
        for cfg, data in ((self.gen_cfg, self.generic), (self.ft_cfg, self.finetune)):
            for _ in range(cfg.epochs):
                batches += training.make_batches(data, cfg.batch_tokens,
                                                 cfg.max_len, cfg.seed, epoch)
                epoch += 1
        return batches

    def step_peak_mb(self) -> float:
        """tracemalloc peak over one forward and backward step on the
        largest batch of the first epoch."""
        batch = max(training.make_batches(self.generic, self.gen_cfg.batch_tokens,
                                          self.gen_cfg.max_len, self.seed, 0),
                    key=lambda b: b.tgt_out.size)
        ckpt = _fresh_params(self.init)
        tracemalloc.start()
        try:
            with GradTape() as tape:
                loss = training.forward_loss(self.config, ckpt.params, batch,
                                             0.1, training=True,
                                             rng=np.random.default_rng(self.seed))
            training.backward(tape, loss)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def check(self) -> list[str]:
        batches = self._epoch_batches()
        tokens = sum(int((b.tgt_out != model.PAD_ID).sum()) for b in batches)
        fails = checks.check_train(self.last, self.ckpt_dir,
                                   self.ft_cfg.checkpoint_keep,
                                   self.expected_tokens, tokens, len(batches))
        if len(self.trajectories) != 1:
            fails.append("rounds trained different trajectories")
        return fails


class Translate:
    """``search.translate_batch`` with beam 4 over 60 sentences and a
    checkpoint made from ``model.init_params`` in set-up."""

    N_SENTENCES = 60
    operations = N_SENTENCES
    failed = 0
    BEAM = 4
    MAX_LEN = 24
    ALPHA = 1.0
    OUTPUT_SCALE = 6.0       # sharpens next-token distributions
    EARLY_PERCENT = 10       # share of the sentences that EOS should end
    SAMPLE = range(0, N_SENTENCES, 15)
    MODEL = dict(n_layers_fw=1, n_layers_fs=1, n_layers_es=1, n_layers_dec=1,
                 d_model=64, d_ff=256, heads=4, dropout=0.1, max_positions=32)

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.outputs: list[list[list[int]]] = []

    def setup(self) -> None:
        corpus = gen.make_id_corpus(self.seed, self.N_SENTENCES,
                                    n_words=400, min_len=4, max_len=10)
        config = model.ModelConfig(corpus.sub_vocab_size, corpus.word_vocab_size,
                                   **self.MODEL)
        self.ckpt = model.init_params(config, self.seed)
        out_w = self.ckpt.params["output/weight"].data
        out_b = self.ckpt.params["output/bias"].data
        out_w *= self.OUTPUT_SCALE
        # Like a trained model, the checkpoint never predicts <pad> or <s>.
        out_b[[model.PAD_ID, model.BOS_ID]] = NEVER
        self.batch = model.make_source_batch(corpus.word_ids, corpus.sub_ids)
        # Calibrating a few sentences at a time keeps its memory small.
        need = np.concatenate([self._eos_need(model.make_source_batch(
            corpus.word_ids[i:i + 15], corpus.sub_ids[i:i + 15]))
            for i in range(0, self.N_SENTENCES, 15)])
        out_b[model.EOS_ID] = float(np.percentile(need, self.EARLY_PERCENT))

    def _eos_need(self, calibration: model.SourceBatch) -> np.ndarray:
        """Per sentence, the smallest EOS bias at which it ends before
        ``MAX_LEN``.

        A beam search with EOS left out, by full re-forward over the
        sentences at once, gives each sentence its final best mean
        log-probability L and every live state (prefix score S
        after t tokens, EOS log-odds q0 against the other tokens).  The
        state's finished hypothesis outscores L once log sigmoid(q0 + b)
        > L (t + 1) - S; a sentence needs the smallest such b over its
        states.  EOS takes no beam slot, so the live beams do not depend
        on b."""
        cfg, params = self.ckpt.config, self.ckpt.params
        encoded = model.encode(cfg, params, calibration)
        n = calibration.f_s.shape[0]
        live = [[((), 0.0)] for _ in range(n)]
        states = []
        for t in range(self.MAX_LEN):
            owner = np.array([i for i in range(n) for _ in live[i]])
            prefix = np.array([(model.BOS_ID,) + toks for i in range(n)
                               for toks, _ in live[i]], dtype=np.int64)
            logits = model.decode_forward(cfg, params, checks.take_rows(encoded, owner),
                                          prefix).data[:, -1].astype(np.float64)
            eos = logits[:, model.EOS_ID].copy()
            logits[:, model.EOS_ID] = -np.inf
            logp = checks.log_softmax(logits)
            q0 = eos - (logits.max(axis=1) - logp.max(axis=1))
            top = np.argsort(-logp, axis=1, kind="stable")[:, :self.BEAM + 1]
            # EOS is a candidate only once it enters the top beam + 1.
            enter = logits[np.arange(len(top)), top[:, -1]] - eos
            row = 0
            for i in range(n):
                cands = []
                for h, (_, score) in enumerate(live[i]):
                    states.append((i, t, score, q0[row], enter[row]))
                    cands += [(score + logp[row, tok], h, int(tok)) for tok in top[row]]
                    row += 1
                cands.sort(key=lambda c: (-c[0], c[1], c[2]))
                live[i] = [(live[i][h][0] + (tok,), sc) for sc, h, tok in cands[:self.BEAM]]
        best = [max(sc for _, sc in beams) / self.MAX_LEN for beams in live]
        need = np.full(n, np.inf)
        for i, t, score, q, enter in states:
            gap = best[i] * (t + 1) - score      # log sigmoid(q + b) must exceed it
            if gap < 0:
                need[i] = min(need[i], max(gap - np.log(-np.expm1(gap)) - q, enter))
        return need

    @property
    def items(self) -> int:
        return sum(len(ids) for ids in self.outputs[0])

    def round(self) -> float:
        elapsed, out = timed(search.translate_batch, self.ckpt, self.batch,
                              beam=self.BEAM, max_len=self.MAX_LEN,
                              length_alpha=self.ALPHA)
        self.outputs.append(out)
        return elapsed

    def hypothesis_lengths(self) -> list[int]:
        return [len(ids) for ids in self.outputs[0]]

    def check(self) -> list[str]:
        fails = checks.check_translate(self.ckpt, self.batch,
                                       self.outputs[0], list(self.SAMPLE),
                                       self.BEAM, self.MAX_LEN, self.ALPHA)
        if any(out != self.outputs[0] for out in self.outputs):
            fails.append("rounds produced different translations")
        return fails


WORKLOADS = {"pipeline": Pipeline, "train": Train, "translate": Translate}
