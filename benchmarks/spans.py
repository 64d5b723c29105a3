"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces module attributes and class methods of the
``transference`` package with wrappers that record a span (name, start,
end, and the names of the spans open around it) while tracing is on.
Nothing inside ``src/`` changes; ``uninstall`` puts every original back.

``layer_metrics`` turns the spans of the traced rounds into the per-layer
metrics named in BENCHMARK.json.  Every metric is computed on every
workload; a layer that does no work on a workload reads 0.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

P90_MIN_SAMPLES = 100     # a 90th percentile needs ten samples beyond it


@dataclass
class Span:
    name: str
    parents: tuple[str, ...]
    start: float
    end: float = 0.0
    count: float = 0.0            # work done, where the wrapper counts it
    training: bool = False        # forward_loss only: a training step?
    child_time: float = 0.0       # time covered by directly nested spans

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    on: bool = False
    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)
    _installed: list[tuple[object, str, object]] = field(default_factory=list)

    def begin(self, name: str) -> Span:
        span = Span(name, tuple(s.name for s in self._stack), time.perf_counter())
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_time += span.duration
        self.spans.append(span)

    def _wrap(self, fn, name: str, count, mark):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(span)
            if count is not None:
                span.count = count(args, kwargs, result)
            if mark is not None:
                span.training = mark(args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, count=None, mark=None) -> None:
        """Replace ``owner.attr`` (a function, method or classmethod) by a
        recording wrapper."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(raw.__func__, name, count, mark))
        else:
            replacement = self._wrap(raw, name, count, mark)
        self._installed.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from transference import (corpus, metrics, model, ngram, pipeline,
                                  search, training)

        ckpt, dec = model.Checkpoint, search.IncrementalDecoder
        table = [
            (corpus, "preprocess_parallel", "corpus.preprocess", None),
            (corpus, "clean_corpus", "corpus.clean", None),
            (corpus, "truecase_train", "corpus.truecase", None),
            (corpus, "truecase_apply", "corpus.truecase", None),
            (ngram, "train_lm", "ngram.train", None),
            (ngram, "score_pair", "ngram.score_pair", None),
            (pipeline, "learn_bpe", "bpe.learn", lambda a, k, r: len(r.merges)),
            (pipeline, "apply_bpe", "bpe.apply", None),
            (pipeline, "train", "training.train", None),
            (training, "train", "training.train", None),
            (pipeline, "translate_batch", "search.translate_batch",
             lambda a, k, r: sum(len(ids) for ids in r)),
            (search, "translate_batch", "search.translate_batch",
             lambda a, k, r: sum(len(ids) for ids in r)),
            (pipeline, "evaluate_corpus", "metrics.evaluate", None),
            (metrics, "ter", "metrics.ter", lambda a, k, r: len(a[0])),
            (ckpt, "save", "tensor_io.checkpoint", None),
            (ckpt, "load", "tensor_io.checkpoint", None),
            (training, "average_checkpoints", "tensor_io.checkpoint", None),
            (training, "make_batches", "training.make_batches", None),
            (training, "validation_loss", "training.validation", None),
            (training, "encode", "model.encode", None),
            (training, "decode_forward", "model.decode_forward", None),
            (training, "label_smoothed_loss", "training.loss", None),
            (training, "backward", "tensor.backward",
             lambda a, k, r: len(a[0].entries)),
            (training, "clip_gradients", "training.optimizer", None),
            (training, "adam_step", "training.adam_step", None),
            (search, "beam_search", "search.beam_search", None),
            (search, "encode", "model.encode", None),
            (dec, "__init__", "search.decoder_init", None),
            (dec, "initial", "search.step", None),
            (dec, "advance", "search.step", None),
        ]
        for owner, attr, name, count in table:
            self.patch(owner, attr, name, count)
        self.patch(training, "forward_loss", "training.forward_loss",
                   mark=lambda a, k: bool(k.get("training", a[4] if len(a) > 4 else False)))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)


def _sum(spans, names, inside: str | None = None,
         outside: str | None = None) -> float:
    return sum(s.duration for s in spans if s.name in names
               and (inside is None or inside in s.parents)
               and (outside is None or outside not in s.parents))


def _count(spans, name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def _percentile(values: list[float], q: int, min_samples: int = 1) -> float:
    if len(values) < max(min_samples, 2):
        return 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-layer metrics over the spans of ``rounds`` traced rounds.

    ``_s`` metrics are seconds per round; ``_per_step`` and
    ``_per_sentence`` metrics divide by the training steps and decoded
    sentences of those rounds."""
    r = max(rounds, 1)
    ckpt = {"tensor_io.checkpoint"}
    out: dict[str, float] = {}

    # pipeline workload: stage-level spans and the pipeline's own time
    out["corpus.preprocess_s"] = _sum(spans, {"corpus.preprocess", "corpus.clean"}) / r
    out["corpus.truecase_s"] = _sum(spans, {"corpus.truecase"}) / r
    out["ngram.train_s"] = _sum(spans, {"ngram.train"}) / r
    out["ngram.pairs_scored_per_s"] = _ratio(
        _count(spans, "ngram.score_pair"), _sum(spans, {"ngram.score_pair"}))
    learn = _sum(spans, {"bpe.learn"})
    out["bpe.learn_s"] = learn / r
    out["bpe.merges_per_s"] = _ratio(
        sum(s.count for s in spans if s.name == "bpe.learn"), learn)
    out["bpe.apply_s"] = _sum(spans, {"bpe.apply"}) / r
    out["training.train_s"] = _sum(spans, {"training.train"}) / r
    out["search.translate_s"] = _sum(spans, {"search.translate_batch"}) / r
    ter = _sum(spans, {"metrics.ter"})
    out["metrics.bleu_s"] = (_sum(spans, {"metrics.evaluate"}) - ter) / r
    out["metrics.ter_s"] = ter / r
    out["metrics.ter_sentences_per_s"] = _ratio(
        sum(s.count for s in spans if s.name == "metrics.ter"), ter)
    out["tensor_io.checkpoint_s"] = _sum(spans, ckpt) / r
    out["pipeline.self_s"] = sum(s.duration - s.child_time for s in spans
                                 if s.name == "pipeline.run") / r
    out["pipeline.rerun_s"] = _sum(spans, {"pipeline.rerun"}) / r

    # train workload: one step runs from a training-mode forward_loss to
    # the adam_step after it; validation forwards are kept out of the
    # per-step model and loss times
    starts = [s.start for s in spans
              if s.name == "training.forward_loss" and s.training]
    ends = [s.end for s in spans if s.name == "training.adam_step"]
    step_ms = [(e - b) * 1e3 for b, e in zip(starts, ends)]
    steps = len(step_ms)
    val = "training.validation"
    out["training.steps"] = steps / r
    out["training.step_ms_p50"] = _percentile(step_ms, 50)
    out["training.step_ms_p90"] = _percentile(step_ms, 90, P90_MIN_SAMPLES)
    def per_step(names):
        return _ratio(_sum(spans, names, outside=val) * 1e3, steps)

    def per_forward_step(names):
        return _ratio(_sum(spans, names, inside="training.forward_loss",
                           outside=val) * 1e3, steps)

    out["model.encode_ms_per_step"] = per_forward_step({"model.encode"})
    out["model.decode_ms_per_step"] = per_forward_step({"model.decode_forward"})
    out["training.loss_ms_per_step"] = per_forward_step({"training.loss"})
    out["tensor.backward_ms_per_step"] = per_step({"tensor.backward"})
    out["tensor.tape_entries_per_step"] = _ratio(
        sum(s.count for s in spans if s.name == "tensor.backward"), steps)
    out["training.optimizer_ms_per_step"] = per_step(
        {"training.optimizer", "training.adam_step"})
    out["training.batching_s"] = _sum(spans, {"training.make_batches"}) / r
    out["training.validation_s"] = _sum(spans, {val}) / r

    # translate workload: one beam_search call per sentence
    beams = [s for s in spans if s.name == "search.beam_search"]
    step_spans = [s for s in spans if s.name == "search.step"]
    n_sent = len(beams)
    sent_ms = [s.duration * 1e3 for s in beams]
    out["search.sentences"] = n_sent / r
    out["search.sentence_ms_p50"] = _percentile(sent_ms, 50)
    out["search.sentence_ms_p90"] = _percentile(sent_ms, 90, P90_MIN_SAMPLES)
    out["model.encode_ms_per_sentence"] = _ratio(
        _sum(spans, {"model.encode"}, inside="search.decoder_init") * 1e3, n_sent)
    out["search.init_ms_per_sentence"] = _ratio(
        sum(s.duration - s.child_time for s in spans
            if s.name == "search.decoder_init") * 1e3, n_sent)
    out["search.steps"] = len(step_spans) / r
    out["search.step_us_p50"] = _percentile([s.duration * 1e6 for s in step_spans], 50)
    out["search.steps_per_output_token"] = _ratio(
        len(step_spans),
        sum(s.count for s in spans if s.name == "search.translate_batch"))
    out["search.beam_self_ms_per_sentence"] = _ratio(
        (sum(s.duration for s in beams)
         - sum(s.duration for s in step_spans)) * 1e3, n_sent)
    return out
