"""End-to-end pipeline: clean -> truecase -> LM train -> score ->
rank/split -> BPE -> generic training -> fine-tuning -> averaging ->
translate -> postprocess -> evaluate.

Every stage writes its artifacts plus a manifest of content hashes;
stages whose inputs, parameters, and outputs all match their manifest
are skipped on rerun.  A changed input re-runs the stage and, because
its outputs feed later manifests, everything downstream.

The stage functions here (``clean_pairs``, ``train_truecaser``,
``truecase_files``, ``lm_train``, ``score_corpus``, ``select_split``,
``learn_merges``, ``segment_files``, ``prepare_pairs``, ``source_batch``,
``train_model``, ``evaluate_files``) take paths in and write paths out;
the CLI subcommands call the same functions, and read the same config
table.  The language-model and ``scores.tsv`` formats are ``ngram``'s:
the LM and selection stages hand it paths and parse neither file.
``map_lines`` is the one read-map-write loop over a text file,
shared by the stages and the CLI's line commands; ``_run_stage`` is the
manifest check around each stage of ``run_pipeline``."""

from __future__ import annotations

import configparser
import fcntl
import functools
import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field, replace

from . import corpus as C
from . import ngram as N
from .bpe import BpeModel, apply_bpe, decode_bpe, learn_bpe
from .errors import (CheckpointError, ConfigError, ContractError, DataError, Setting,
                     StageError, at_least, checked)
from .metrics import EvalReport, evaluate_corpus
from .model import (MODEL_RULES, Checkpoint, ModelConfig, SourceBatch, Vocab,
                    check_source, init_params, make_source_batch)
from .search import translate_batch
from .training import (TRAIN_RULES, PreparedPair, TrainConfig, TrainResult,
                       train)

ENV_WORKDIR = "TRANSFERENCE_WORKDIR"
DATA_KEYS = ("general_source", "general_target",
             "indomain_source", "indomain_target")


@dataclass
class PipelineConfig:
    general_source: str = ""
    general_target: str = ""
    indomain_source: str = ""
    indomain_target: str = ""
    workdir: str = "work"
    seed: int = 1
    min_tokens: int = 1
    max_tokens: int = 100
    max_ratio: float = 3.0
    lm_order: int = 3
    n_validation: int = 1000
    n_select: int = 500000
    bpe_vocab: int = 28000
    word_vocab: int = 50000
    # vocabulary sizes are filled in after BPE learning
    model: ModelConfig = field(default_factory=lambda: ModelConfig(
        bpe_vocab_size=1, word_vocab_size=1))
    train_generic: TrainConfig = field(default_factory=TrainConfig)
    train_finetune: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=10))
    beam: int = 4
    decode_max_len: int = 256
    length_alpha: float = 1.0

    def validate(self) -> None:
        """Check the inputs, parse in place each field a key fills, and
        check the nested configs again."""
        for name in DATA_KEYS:
            path = getattr(self, name)
            if not path:
                raise ConfigError(f"config missing required [data] entry: '{name}'")
            if not os.path.exists(path):
                raise ConfigError(f"{name} file not found: {path}")
        for (section, key), name in _FLAT.items():
            setattr(self, name, _check(section, key, getattr(self, name)))
        for section, name in (("model", "model"), ("train", "train_generic"),
                              ("finetune", "train_finetune")):
            setattr(self, name, _replace(section, getattr(self, name)))
        if self.min_tokens > self.max_tokens:
            raise ConfigError("[clean] min_tokens must be <= [clean] max_tokens, "
                              f"got {self.min_tokens} > {self.max_tokens}")
        if self.n_select == 0 and self.train_finetune.epochs > 0:
            raise ConfigError("[select] n_select = 0 leaves nothing to fine-tune "
                              "on; set [finetune] epochs = 0")


# Every key a config file may set, as section -> key -> parser (``str`` or
# a Setting).  The defaults live in the dataclasses the keys fill: [model]
# fills ModelConfig, [train] and [finetune] fill TrainConfig, by those
# classes' rules; [model] word_vocab_size and every other key fill the
# PipelineConfig field ``_FLAT`` names.
CONFIG_KEYS = {
    "data": dict.fromkeys(DATA_KEYS + ("workdir",), str),
    "pipeline": {"seed": TRAIN_RULES["seed"]},
    "clean": {"min_tokens": Setting(int), "max_tokens": at_least(int, 1),
              # a pair's length ratio, longer side over shorter, is at least 1
              "max_ratio": at_least(float, 1)},
    "lm": {"order": Setting(int, f"from 1 to {N.MAX_ORDER}",
                            lambda order: 1 <= order <= N.MAX_ORDER)},
    "select": {"n_validation": at_least(int, 1), "n_select": at_least(int, 0)},
    "bpe": {"vocab_size": at_least(int, 1)},
    "model": {"layers": MODEL_RULES["n_layers_fw"], **{key: MODEL_RULES[key] for key in (
        "d_model", "d_ff", "heads", "dropout", "max_positions", "word_vocab_size")}},
    "train": {key: rule for key, rule in TRAIN_RULES.items() if key != "seed"},
    "decode": {"beam": at_least(int, 1), "max_len": at_least(int, 1),
               "length_alpha": Setting(float, "finite", lambda a: abs(a) < math.inf)},
}
CONFIG_KEYS["finetune"] = CONFIG_KEYS["train"]
_FLAT = {**{(section, key): key for section, keys in CONFIG_KEYS.items()
            for key in keys if section not in ("model", "train", "finetune")},
         ("lm", "order"): "lm_order", ("bpe", "vocab_size"): "bpe_vocab",
         ("model", "word_vocab_size"): "word_vocab",
         ("decode", "max_len"): "decode_max_len"}


def _check(section: str, key: str, value):
    """``value`` parsed as ``[section] key``, or a ConfigError naming it."""
    return checked(f"[{section}] {key}", CONFIG_KEYS[section][key], value)


def _read_config(path: str) -> dict[tuple[str, str], object]:
    """The parsed value of every key the file sets, by (section, key); an
    unknown section or key, or a value its parser rejects, is a ConfigError."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"config file not found: {path}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    values = {}
    for section in parser.sections():
        if section not in CONFIG_KEYS:
            raise ConfigError(f"[{section}]: unknown section")
        for key, text in parser.items(section):
            if key not in CONFIG_KEYS[section]:
                raise ConfigError(f"[{section}] {key}: unknown key")
            values[section, key] = _check(section, key, text)
    return values


def _replace(section: str, obj, **changes):
    """``obj`` with ``changes``, its validation errors named by section."""
    try:
        return replace(obj, **changes)
    except ConfigError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def load_pipeline_config(path: str | None,
                         workdir_override: str | None = None,
                         seed_override: int | None = None) -> PipelineConfig:
    """Parse the INI-style config (sections per stage, key = value);
    ``None`` reads no file and gives the defaults.  [finetune] inherits
    every key it leaves unset from [train] except ``epochs``; both phases
    take the [pipeline] seed.  [data] is checked when the pipeline runs,
    so the training commands can read a config without it."""
    values = _read_config(path) if path is not None else {}

    def section(name: str) -> dict:
        return {key: v for (s, key), v in values.items() if s == name}

    # [model], [train] and [finetune] fill the nested dataclasses below
    cfg = PipelineConfig(**{_FLAT[name]: v for name, v in values.items()
                            if name in _FLAT})
    if seed_override is not None:
        cfg.seed = _check("pipeline", "seed", seed_override)
    model = section("model")
    model.pop("word_vocab_size", None)
    if "layers" in model:
        model.update(dict.fromkeys(("n_layers_fw", "n_layers_fs", "n_layers_es",
                                    "n_layers_dec"), model.pop("layers")))
    cfg.model = _replace("model", cfg.model, **model)
    generic = section("train")
    cfg.train_generic = _replace("train", cfg.train_generic, seed=cfg.seed,
                                 **generic)
    generic.pop("epochs", None)
    cfg.train_finetune = _replace("finetune", cfg.train_finetune, seed=cfg.seed,
                                  **{**generic, **section("finetune")})

    cfg.workdir = workdir_override or os.environ.get(ENV_WORKDIR) or cfg.workdir
    return cfg


def read_tokens(path: str) -> list[list[str]]:
    """One whitespace-split token list per line of a tokenized file."""
    return [line.split() for line in C.read_lines(path)]


def write_pairs(pairs, src_path: str, trg_path: str) -> None:
    C.write_lines(src_path, [" ".join(p.source) for p in pairs])
    C.write_lines(trg_path, [" ".join(p.target) for p in pairs])


def read_pairs(src_path: str, trg_path: str) -> list[C.SentencePair]:
    """The token pairs of two aligned files, line by line; files that
    disagree on line counts raise AlignmentError."""
    return [C.SentencePair(tuple(s.split()), tuple(t.split()), i)
            for i, (s, t) in enumerate(C.load_parallel(src_path, trg_path))]


def map_lines(in_path: str, out_path: str, fn) -> None:
    """Write ``fn`` of each line of ``in_path`` to ``out_path``."""
    C.write_lines(out_path, [fn(line) for line in C.read_lines(in_path)])


def clean_pairs(pairs: list[C.SentencePair], out: tuple[str, str],
                min_tokens: int, max_tokens: int, max_ratio: float) -> str:
    """Write the pairs that corpus cleaning keeps to the (source, target)
    paths ``out``; returns the JSON report of the kept and dropped
    counts."""
    kept, dropped = C.clean_corpus(pairs, min_tokens, max_tokens, max_ratio)
    write_pairs(kept, *out)
    return json.dumps({"kept": len(kept), "dropped": dropped}, sort_keys=True)


def train_truecaser(corpus_path: str, model_path: str) -> None:
    C.truecase_train(read_tokens(corpus_path)).save(model_path)


def truecase_files(model_path: str, files: list[tuple[str, str]]) -> None:
    """Recase each (input, output) pair of token files with one model."""
    model = C.TruecaseModel.load(model_path)
    for in_path, out_path in files:
        map_lines(in_path, out_path,
                  lambda line: " ".join(C.truecase_apply(model, line.split())))


def lm_train(corpus_path: str, model_path: str, order: int) -> None:
    N.train_lm(read_tokens(corpus_path), order=order).save(model_path)


def score_corpus(src_path: str, trg_path: str, lm_paths: tuple[str, ...],
                 scores_path: str) -> None:
    """Bilingual cross-entropy difference of every pair; ``lm_paths`` are
    the in-domain and out-of-domain source models, then the target ones."""
    lms = [N.NGramLM.load(path) for path in lm_paths]
    pairs = read_pairs(src_path, trg_path)
    for pair in pairs:
        if not (pair.source and pair.target):
            raise DataError(f"{trg_path if pair.source else src_path} line "
                            f"{pair.original_index + 1}: a sentence with no "
                            "tokens has no cross-entropy")
    N.write_scores_tsv(scores_path, N.score_pairs(pairs, *lms))


def select_split(scores_path: str, src_path: str, trg_path: str,
                 n_validation: int, n_select: int,
                 out: dict[str, tuple[str, str]]) -> None:
    """Rank the pairs by score, best first, and write the
    ``validation``, ``selected`` and ``sorted_all`` splits to the
    (source, target) paths ``out`` gives for each."""
    scored = N.read_scores_tsv(scores_path, read_pairs(src_path, trg_path))
    splits = N.rank_and_split(scored, n_validation, n_select)
    for name, subset in zip(("validation", "selected", "sorted_all"), splits):
        write_pairs([s.pair for s in subset], *out[name])


def learn_merges(corpus_paths: list[str], merges_path: str,
                 vocab_size: int) -> None:
    """Joint BPE merges learned from the token files together."""
    corpora = [read_tokens(path) for path in corpus_paths]
    learn_bpe(itertools.chain(*corpora), vocab_size).save(merges_path)


def segment_files(merges_path: str, files: list[tuple[str, str]]) -> None:
    """Segment each (input, output) pair of token files with one merge
    table, whose word cache serves them all."""
    model = BpeModel.load(merges_path)
    for in_path, out_path in files:
        map_lines(in_path, out_path,
                  lambda line: " ".join(apply_bpe(model, line.split())))


def prepare_pairs(word_vocab: Vocab, bpe_vocab: Vocab, src_bpe_path: str,
                  trg_bpe_path: str) -> list[PreparedPair]:
    """Training pairs of id tuples; the source words are the ones its
    subwords spell, as in ``source_batch``."""
    return [PreparedPair(tuple(word_vocab.encode(decode_bpe(p.source))),
                         tuple(bpe_vocab.encode(p.source)),
                         tuple(bpe_vocab.encode(p.target)))
            for p in read_pairs(src_bpe_path, trg_bpe_path)]


def source_batch(word_vocab: Vocab, bpe_vocab: Vocab,
                 subs: list[list[str]]) -> SourceBatch:
    """The two encoders' input: each segmented sentence as the words it
    spells (the segmentation undone) and as its subwords."""
    return make_source_batch([word_vocab.encode(decode_bpe(s)) for s in subs],
                             [bpe_vocab.encode(s) for s in subs])


def check_vocab_sizes(checkpoint_path: str, config: ModelConfig,
                      word_vocab: tuple[str, Vocab], bpe_vocab: tuple[str, Vocab]) -> None:
    """A CheckpointError unless each (path, vocabulary) pair holds as many
    entries as ``config``, read from ``checkpoint_path``, gives."""
    for (path, vocab), key in ((word_vocab, "word_vocab_size"), (bpe_vocab, "bpe_vocab_size")):
        if len(vocab) != getattr(config, key):
            raise CheckpointError(f"{path} holds {len(vocab)} entries, but "
                                  f"{checkpoint_path} has {key} {getattr(config, key)}")


def train_model(cfg: PipelineConfig, word_vocab_path: str, bpe_vocab_path: str,
                generic: tuple[str, str] | None,
                finetune: tuple[str, str] | None,
                validation: tuple[str, str], ckpt_dir: str,
                log_path: str | None = None, init: str | None = None,
                verbose: bool = False) -> TrainResult:
    """The generic phase, then fine-tuning, from the ``init`` checkpoint
    or from ``cfg.model`` initialized with ``cfg.seed``.  Each phase's
    data is a (source BPE, target BPE) pair of paths; a phase given None
    runs no epochs."""
    word_vocab = Vocab.load(word_vocab_path)
    bpe_vocab = Vocab.load(bpe_vocab_path)
    if init:
        checkpoint = Checkpoint.load(init)
        check_vocab_sizes(init, checkpoint.config, (word_vocab_path, word_vocab),
                          (bpe_vocab_path, bpe_vocab))
    else:
        checkpoint = init_params(replace(
            cfg.model, bpe_vocab_size=len(bpe_vocab),
            word_vocab_size=len(word_vocab)), cfg.seed)

    def phase(files, train_cfg: TrainConfig):
        if files is None:
            return [], replace(train_cfg, epochs=0)
        return prepare_pairs(word_vocab, bpe_vocab, *files), train_cfg

    generic_pairs, generic_cfg = phase(generic, cfg.train_generic)
    finetune_pairs, finetune_cfg = phase(finetune, cfg.train_finetune)
    return train(generic_pairs, finetune_pairs,
                 prepare_pairs(word_vocab, bpe_vocab, *validation), checkpoint,
                 generic_cfg, finetune_cfg, ckpt_dir, log_path=log_path,
                 verbose=verbose)


def evaluate_files(hyp_path: str, ref_path: str,
                   report_path: str | None = None) -> EvalReport:
    """BLEU/TER of a hypothesis file against a reference file; the JSON
    report goes to ``report_path`` when one is given."""
    report = evaluate_corpus(C.read_lines(hyp_path), C.read_lines(ref_path))
    if report_path:
        C.write_text(report_path, [report.to_json()])
    return report


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from None
    return digest.hexdigest()


def _make_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise DataError(f"{path}: cannot create: {exc.strerror}") from None


def _run_stage(manifest_dir: str, verbose: bool, name: str, inputs: list[str],
               params: dict, outputs: list[str], fn) -> None:
    """Run ``fn`` unless ``manifest_dir``/``name``.json records the same
    hashes of ``inputs`` and ``outputs`` and the same ``params``; then
    record them there.  A manifest that cannot be opened or parsed is
    stale."""
    manifest_path = os.path.join(manifest_dir, f"{name}.json")
    params_blob = json.dumps(params, sort_keys=True)
    want = {"inputs": {p: _sha256(p) for p in sorted(inputs)},
            "params": params_blob}
    if os.path.exists(manifest_path) and all(os.path.exists(p) for p in outputs):
        try:
            with open(manifest_path, encoding="utf-8") as fh:
                have = json.load(fh)
        except (OSError, ValueError):  # a directory, or cut short by a crash
            have = None
        if (isinstance(have, dict)
                and have.get("inputs") == want["inputs"]
                and have.get("params") == params_blob
                and have.get("outputs") == {p: _sha256(p) for p in sorted(outputs)}):
            if verbose:
                print(f"[pipeline] {name}: up to date, skipped")
            return
    if verbose:
        print(f"[pipeline] {name}: running")
    try:
        fn()
    except Exception as exc:
        raise StageError(name, exc) from exc
    want["outputs"] = {p: _sha256(p) for p in sorted(outputs)}
    C.write_text(manifest_path, [json.dumps(want, indent=2, sort_keys=True)])


def run_pipeline(cfg: PipelineConfig, verbose: bool = False
                 ) -> tuple[str, EvalReport]:
    """Execute (or resume) every stage; returns the work directory and the
    final BLEU/TER report on the in-domain corpus."""
    cfg.validate()
    _make_dir(cfg.workdir)
    lock_path = os.path.join(cfg.workdir, ".lock")
    try:
        lock_file = open(lock_path, "w")
    except OSError as exc:
        raise DataError(f"{lock_path}: cannot open: {exc.strerror}") from None
    # closing the lock file releases the lock
    with lock_file:
        try:
            fcntl.flock(lock_file, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            raise ConfigError(f"work directory {cfg.workdir} is locked "
                              "by another pipeline") from exc
        return _run_pipeline_locked(cfg, verbose)


def _run_pipeline_locked(cfg: PipelineConfig, verbose: bool
                         ) -> tuple[str, EvalReport]:
    work = cfg.workdir
    for sub in ("corpus", "lm", "select", "bpe", "ckpt", "out", "manifests"):
        _make_dir(os.path.join(work, sub))
    stage = functools.partial(_run_stage, os.path.join(work, "manifests"), verbose)

    def sides(sub: str, pattern: str) -> tuple[str, str]:
        """The (source, target) files ``pattern`` names in ``sub``."""
        return tuple(os.path.join(work, sub, pattern.format(side))
                     for side in ("src", "trg"))

    # -- clean: normalize + tokenize + corpus cleaning -----------------
    general, indomain = sides("corpus", "general.{}"), sides("corpus", "indomain.{}")
    clean_report = os.path.join(work, "corpus", "clean_report.json")

    def stage_clean():
        report = clean_pairs(C.preprocess_parallel(C.load_parallel(
            cfg.general_source, cfg.general_target)), general, cfg.min_tokens,
            cfg.max_tokens, cfg.max_ratio)
        write_pairs(C.preprocess_parallel(C.load_parallel(
            cfg.indomain_source, cfg.indomain_target)), *indomain)
        C.write_text(clean_report, [report])

    stage("clean", [getattr(cfg, key) for key in DATA_KEYS],
          {"min_tokens": cfg.min_tokens, "max_tokens": cfg.max_tokens,
           "max_ratio": cfg.max_ratio},
          [*general, *indomain, clean_report], stage_clean)

    # -- truecase: train per-language on the cleaned general corpus ----
    truecasers = sides("corpus", "truecase.{}.tsv")
    general_tc = sides("corpus", "general.{}.tc")
    indomain_tc = sides("corpus", "indomain.{}.tc")

    def stage_truecase():
        for side, model in enumerate(truecasers):
            train_truecaser(general[side], model)
            truecase_files(model, [(general[side], general_tc[side]),
                                   (indomain[side], indomain_tc[side])])

    stage("truecase", [*general, *indomain], {},
          [*truecasers, *general_tc, *indomain_tc], stage_truecase)

    # -- lm_train: in-domain and out-domain models per language --------
    lm_in, lm_out = sides("lm", "in_domain.{}.json"), sides("lm", "out_domain.{}.json")

    def stage_lm():
        for corpus_path, model in zip(indomain_tc + general_tc, lm_in + lm_out):
            lm_train(corpus_path, model, cfg.lm_order)

    stage("lm_train", [*indomain_tc, *general_tc], {"order": cfg.lm_order},
          [*lm_in, *lm_out], stage_lm)

    # -- score: bilingual cross-entropy difference per pair ------------
    lm_paths = (lm_in[0], lm_out[0], lm_in[1], lm_out[1])
    scores = os.path.join(work, "select", "scores.tsv")
    stage("score", [*general_tc, *lm_paths], {}, [scores],
          lambda: score_corpus(*general_tc, lm_paths, scores))

    # -- select: rank ascending, split validation / selected / all -----
    validation, selected, sorted_all = (sides("select", f"{name}.{{}}") for name
                                        in ("validation", "selected", "sorted_all"))
    stage("select", [scores, *general_tc],
          {"n_validation": cfg.n_validation, "n_select": cfg.n_select},
          [*validation, *selected, *sorted_all],
          lambda: select_split(scores, *general_tc, cfg.n_validation, cfg.n_select,
                               dict(validation=validation, selected=selected,
                                    sorted_all=sorted_all)))

    # -- bpe: learn joint merges, build vocabularies, apply ------------
    merges, bpe_vocab, word_vocab = (os.path.join(work, "bpe", name) for name
                                     in ("merges.txt", "bpe.vocab", "word.vocab"))
    validation_bpe, selected_bpe, sorted_all_bpe, indomain_bpe = (
        sides("bpe", f"{name}.{{}}.bpe")
        for name in ("validation", "selected", "sorted_all", "indomain"))
    token_files = validation + selected + sorted_all + indomain_tc
    bpe_files = validation_bpe + selected_bpe + sorted_all_bpe + indomain_bpe

    def stage_bpe():
        learn_merges(general_tc, merges, cfg.bpe_vocab)
        segment_files(merges, list(zip(token_files, bpe_files)))
        Vocab.from_corpus(read_tokens(sorted_all_bpe[0])
                          + read_tokens(sorted_all_bpe[1])).save(bpe_vocab)
        Vocab.from_corpus(read_tokens(sorted_all[0]),
                          max_size=cfg.word_vocab).save(word_vocab)

    stage("bpe", [*general_tc, *token_files],
          {"vocab_size": cfg.bpe_vocab, "word_vocab": cfg.word_vocab},
          [merges, bpe_vocab, word_vocab, *bpe_files], stage_bpe)

    # -- the in-domain source as the translate stage decodes it; a line it
    # cannot decode fails the run here, before training spends its time
    def indomain_batch() -> SourceBatch:
        return source_batch(Vocab.load(word_vocab), Vocab.load(bpe_vocab),
                            read_tokens(indomain_bpe[0]))

    try:
        check_source(indomain_batch(), cfg.model.max_positions)
    except ContractError as exc:
        raise StageError("translate", exc) from exc

    # -- train: generic phase then fine-tuning, then averaging ---------
    ckpt_dir = os.path.join(work, "ckpt")
    averaged, loss_log = (os.path.join(ckpt_dir, name)
                          for name in ("averaged.tfrx", "loss_log.csv"))
    train_params = {"model": {**cfg.model.to_dict(), "bpe_vocab_size": 0,
                              "word_vocab_size": 0},
                    "generic": vars(cfg.train_generic),
                    "finetune": vars(cfg.train_finetune), "seed": cfg.seed}
    stage("train", [word_vocab, bpe_vocab, *sorted_all_bpe, *selected_bpe,
                    *validation_bpe], train_params, [averaged, loss_log],
          lambda: train_model(cfg, word_vocab, bpe_vocab, sorted_all_bpe,
                              selected_bpe, validation_bpe, ckpt_dir,
                              log_path=loss_log, verbose=verbose))

    # -- translate: beam-decode the in-domain source -------------------
    hyp_bpe, hyp_txt, report = (os.path.join(work, "out", name) for name
                                in ("hypotheses.bpe", "hypotheses.txt", "report.json"))

    def stage_translate():
        vocab = Vocab.load(bpe_vocab)
        hyp_ids = translate_batch(Checkpoint.load(averaged), indomain_batch(),
                                  beam=cfg.beam, max_len=cfg.decode_max_len,
                                  length_alpha=cfg.length_alpha)
        C.write_lines(hyp_bpe, [" ".join(vocab.decode(ids)) for ids in hyp_ids])

    stage("translate", [averaged, word_vocab, bpe_vocab, indomain_bpe[0]],
          {"beam": cfg.beam, "max_len": cfg.decode_max_len,
           "length_alpha": cfg.length_alpha}, [hyp_bpe], stage_translate)

    # -- postprocess: undo BPE, detokenize, normalize ------------------
    stage("postprocess", [hyp_bpe], {}, [hyp_txt],
          lambda: map_lines(hyp_bpe, hyp_txt,
                            lambda line: C.postprocess(decode_bpe(line.split()))))

    # -- evaluate: BLEU/TER of the postprocessed hypotheses ------------
    stage("evaluate", [hyp_txt, cfg.indomain_target], {}, [report],
          lambda: evaluate_files(hyp_txt, cfg.indomain_target, report))

    return work, EvalReport.from_json("\n".join(C.read_lines(report)))
