"""End-to-end pipeline: clean -> truecase -> LM train -> score ->
rank/split -> BPE -> generic training -> fine-tuning -> averaging ->
translate -> postprocess -> evaluate.

Every stage writes its artifacts plus a manifest of content hashes;
stages whose inputs, parameters, and outputs all match their manifest
are skipped on rerun.  A changed input re-runs the stage and, because
its outputs feed later manifests, everything downstream."""

from __future__ import annotations

import configparser
import fcntl
import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field

from . import corpus as C
from . import ngram as N
from .bpe import apply_bpe, decode_bpe, learn_bpe
from .errors import ConfigError, ContractError, StageError
from .metrics import EvalReport, evaluate_corpus
from .model import (Checkpoint, ModelConfig, SourceBatch, Vocab, check_source,
                    init_params, make_source_batch)
from .search import translate_batch
from .training import PreparedPair, TrainConfig, train

ENV_WORKDIR = "TRANSFERENCE_WORKDIR"


@dataclass
class PipelineConfig:
    general_source: str
    general_target: str
    indomain_source: str
    indomain_target: str
    workdir: str
    seed: int = 1
    min_tokens: int = 1
    max_tokens: int = 100
    max_ratio: float = 3.0
    lm_order: int = 3
    n_validation: int = 1000
    n_select: int = 500000
    bpe_vocab: int = 28000
    word_vocab: int = 50000
    model: ModelConfig | None = None
    train_generic: TrainConfig = field(default_factory=TrainConfig)
    train_finetune: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=10))
    beam: int = 4
    decode_max_len: int = 256
    length_alpha: float = 1.0

    def validate(self) -> None:
        for name in ("general_source", "general_target",
                     "indomain_source", "indomain_target"):
            path = getattr(self, name)
            if not os.path.exists(path):
                raise ConfigError(f"{name} file not found: {path}")
        if self.n_validation < 1:
            raise ConfigError("n_validation must be >= 1")


def _get(parser: configparser.ConfigParser, section: str, option: str,
         conv, default):
    if parser.has_option(section, option):
        return conv(parser.get(section, option))
    return default


def load_pipeline_config(path: str, workdir_override: str | None = None,
                         seed_override: int | None = None) -> PipelineConfig:
    """Parse the INI-style config (sections per stage, key = value)."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    try:
        data = parser["data"]
        cfg = PipelineConfig(
            general_source=data["general_source"],
            general_target=data["general_target"],
            indomain_source=data["indomain_source"],
            indomain_target=data["indomain_target"],
            workdir=data.get("workdir", "work"),
        )
    except KeyError as exc:
        raise ConfigError(f"config missing required [data] entry: {exc}") from exc

    cfg.seed = _get(parser, "pipeline", "seed", int, cfg.seed)
    cfg.min_tokens = _get(parser, "clean", "min_tokens", int, cfg.min_tokens)
    cfg.max_tokens = _get(parser, "clean", "max_tokens", int, cfg.max_tokens)
    cfg.max_ratio = _get(parser, "clean", "max_ratio", float, cfg.max_ratio)
    cfg.lm_order = _get(parser, "lm", "order", int, cfg.lm_order)
    cfg.n_validation = _get(parser, "select", "n_validation", int, cfg.n_validation)
    cfg.n_select = _get(parser, "select", "n_select", int, cfg.n_select)
    cfg.bpe_vocab = _get(parser, "bpe", "vocab_size", int, cfg.bpe_vocab)
    cfg.word_vocab = _get(parser, "model", "word_vocab_size", int, cfg.word_vocab)

    layers = _get(parser, "model", "layers", int, 6)
    model_kwargs = dict(
        bpe_vocab_size=0, word_vocab_size=0,
        n_layers_fw=layers, n_layers_fs=layers,
        n_layers_es=layers, n_layers_dec=layers,
        d_model=_get(parser, "model", "d_model", int, 512),
        d_ff=_get(parser, "model", "d_ff", int, 2048),
        heads=_get(parser, "model", "heads", int, 8),
        dropout=_get(parser, "model", "dropout", float, 0.1),
        max_positions=_get(parser, "model", "max_positions", int, 256),
    )
    # Vocabulary sizes are filled in after BPE learning; keep the rest.
    cfg.model = ModelConfig(**{**model_kwargs,
                               "bpe_vocab_size": 1, "word_vocab_size": 1})

    def train_cfg(section: str, default_epochs: int) -> TrainConfig:
        base = "train"
        def opt(name, conv, dflt):
            if parser.has_option(section, name):
                return conv(parser.get(section, name))
            return _get(parser, base, name, conv, dflt)
        clip = opt("grad_clip", str, "5.0")
        return TrainConfig(
            epochs=_get(parser, section, "epochs", int, default_epochs),
            batch_tokens=opt("batch_tokens", int, 25000),
            max_len=opt("max_len", int, 256),
            warmup_steps=opt("warmup_steps", int, 8000),
            beta1=opt("beta1", float, 0.9),
            beta2=opt("beta2", float, 0.98),
            adam_epsilon=opt("adam_epsilon", float, 1e-9),
            label_smoothing=opt("label_smoothing", float, 0.1),
            checkpoint_keep=opt("checkpoint_keep", int, 8),
            grad_clip=None if clip in ("none", "off") else float(clip),
            seed=cfg.seed,
        )

    cfg.train_generic = train_cfg("train", 30)
    cfg.train_finetune = train_cfg("finetune", 10)
    cfg.beam = _get(parser, "decode", "beam", int, 4)
    cfg.decode_max_len = _get(parser, "decode", "max_len", int, 256)
    cfg.length_alpha = _get(parser, "decode", "length_alpha", float, 1.0)

    env_workdir = os.environ.get(ENV_WORKDIR)
    if workdir_override:
        cfg.workdir = workdir_override
    elif env_workdir:
        cfg.workdir = env_workdir
    if seed_override is not None:
        cfg.seed = seed_override
        cfg.train_generic.seed = seed_override
        cfg.train_finetune.seed = seed_override
    return cfg


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _Stages:
    """Runs stages with manifest-based skipping."""

    def __init__(self, workdir: str, verbose: bool = False):
        self.workdir = workdir
        self.manifest_dir = os.path.join(workdir, "manifests")
        os.makedirs(self.manifest_dir, exist_ok=True)
        self.verbose = verbose
        self.executed: list[str] = []
        self.skipped: list[str] = []

    def run(self, name: str, inputs: list[str], params: dict,
            outputs: list[str], fn) -> None:
        manifest_path = os.path.join(self.manifest_dir, f"{name}.json")
        params_blob = json.dumps(params, sort_keys=True)
        want = {
            "inputs": {p: _sha256(p) for p in sorted(inputs)},
            "params": params_blob,
        }
        if os.path.exists(manifest_path) and all(os.path.exists(p) for p in outputs):
            with open(manifest_path, encoding="utf-8") as fh:
                have = json.load(fh)
            if (have.get("inputs") == want["inputs"]
                    and have.get("params") == params_blob
                    and have.get("outputs") == {p: _sha256(p) for p in sorted(outputs)}):
                self.skipped.append(name)
                if self.verbose:
                    print(f"[pipeline] {name}: up to date, skipped")
                return
        if self.verbose:
            print(f"[pipeline] {name}: running")
        try:
            fn()
        except Exception as exc:
            raise StageError(name, exc) from exc
        want["outputs"] = {p: _sha256(p) for p in sorted(outputs)}
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(want, fh, indent=2, sort_keys=True)
        self.executed.append(name)


def _write_pairs(pairs, src_path: str, trg_path: str) -> None:
    C.write_lines(src_path, [" ".join(p.source) for p in pairs])
    C.write_lines(trg_path, [" ".join(p.target) for p in pairs])


def _read_token_lines(path: str) -> list[list[str]]:
    return [line.split() if line else [] for line in C.read_lines(path)]


def run_pipeline(cfg: PipelineConfig, verbose: bool = False
                 ) -> tuple[str, EvalReport]:
    """Execute (or resume) every stage; returns the work directory and the
    final BLEU/TER report on the in-domain corpus."""
    cfg.validate()
    work = cfg.workdir
    os.makedirs(work, exist_ok=True)
    lock_path = os.path.join(work, ".lock")
    lock_file = open(lock_path, "w")
    try:
        fcntl.flock(lock_file, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError as exc:
        lock_file.close()
        raise ConfigError(f"work directory {work} is locked by another pipeline") from exc
    try:
        return _run_pipeline_locked(cfg, verbose)
    finally:
        fcntl.flock(lock_file, fcntl.LOCK_UN)
        lock_file.close()


def _run_pipeline_locked(cfg: PipelineConfig, verbose: bool
                         ) -> tuple[str, EvalReport]:
    work = cfg.workdir
    for sub in ("corpus", "lm", "select", "bpe", "ckpt", "out"):
        os.makedirs(os.path.join(work, sub), exist_ok=True)
    stages = _Stages(work, verbose)
    paths = {
        "gen_src": os.path.join(work, "corpus", "general.src"),
        "gen_trg": os.path.join(work, "corpus", "general.trg"),
        "dev_src": os.path.join(work, "corpus", "indomain.src"),
        "dev_trg": os.path.join(work, "corpus", "indomain.trg"),
        "tc_src": os.path.join(work, "corpus", "truecase.src.tsv"),
        "tc_trg": os.path.join(work, "corpus", "truecase.trg.tsv"),
        "clean_report": os.path.join(work, "corpus", "clean_report.json"),
        "lm_i_src": os.path.join(work, "lm", "in_domain.src.json"),
        "lm_i_trg": os.path.join(work, "lm", "in_domain.trg.json"),
        "lm_o_src": os.path.join(work, "lm", "out_domain.src.json"),
        "lm_o_trg": os.path.join(work, "lm", "out_domain.trg.json"),
        "scores": os.path.join(work, "select", "scores.tsv"),
        "val_src": os.path.join(work, "select", "validation.src"),
        "val_trg": os.path.join(work, "select", "validation.trg"),
        "sel_src": os.path.join(work, "select", "selected.src"),
        "sel_trg": os.path.join(work, "select", "selected.trg"),
        "all_src": os.path.join(work, "select", "sorted_all.src"),
        "all_trg": os.path.join(work, "select", "sorted_all.trg"),
        "merges": os.path.join(work, "bpe", "merges.txt"),
        "bpe_vocab": os.path.join(work, "bpe", "bpe.vocab"),
        "word_vocab": os.path.join(work, "bpe", "word.vocab"),
        "ckpt_dir": os.path.join(work, "ckpt"),
        "averaged": os.path.join(work, "ckpt", "averaged.tfrx"),
        "loss_log": os.path.join(work, "ckpt", "loss_log.csv"),
        "hyp_bpe": os.path.join(work, "out", "hypotheses.bpe"),
        "hyp_txt": os.path.join(work, "out", "hypotheses.txt"),
        "report": os.path.join(work, "out", "report.json"),
    }
    bpe_paths = {}
    for split in ("sorted_all", "selected", "validation", "indomain"):
        for side in ("src", "trg"):
            bpe_paths[f"{split}.{side}"] = os.path.join(work, "bpe", f"{split}.{side}.bpe")

    # -- clean: normalize + tokenize + corpus cleaning -----------------
    def stage_clean():
        general = C.preprocess_parallel(
            C.load_parallel(cfg.general_source, cfg.general_target))
        kept, dropped = C.clean_corpus(general, cfg.min_tokens,
                                       cfg.max_tokens, cfg.max_ratio)
        _write_pairs(kept, paths["gen_src"], paths["gen_trg"])
        dev = C.preprocess_parallel(
            C.load_parallel(cfg.indomain_source, cfg.indomain_target))
        _write_pairs(dev, paths["dev_src"], paths["dev_trg"])
        with open(paths["clean_report"], "w", encoding="utf-8") as fh:
            json.dump({"kept": len(kept), "dropped": dropped}, fh, sort_keys=True)

    stages.run("clean",
               [cfg.general_source, cfg.general_target,
                cfg.indomain_source, cfg.indomain_target],
               {"min_tokens": cfg.min_tokens, "max_tokens": cfg.max_tokens,
                "max_ratio": cfg.max_ratio},
               [paths["gen_src"], paths["gen_trg"], paths["dev_src"],
                paths["dev_trg"], paths["clean_report"]],
               stage_clean)

    # -- truecase: train per-language on the cleaned general corpus ----
    def stage_truecase():
        gen_src = _read_token_lines(paths["gen_src"])
        gen_trg = _read_token_lines(paths["gen_trg"])
        model_src = C.truecase_train(gen_src)
        model_trg = C.truecase_train(gen_trg)
        model_src.save(paths["tc_src"])
        model_trg.save(paths["tc_trg"])
        for path, model in ((paths["gen_src"], model_src),
                            (paths["gen_trg"], model_trg),
                            (paths["dev_src"], model_src),
                            (paths["dev_trg"], model_trg)):
            lines = [" ".join(C.truecase_apply(model, toks))
                     for toks in _read_token_lines(path)]
            C.write_lines(path + ".tc", lines)

    truecase_outputs = [paths["tc_src"], paths["tc_trg"]] + [
        p + ".tc" for p in (paths["gen_src"], paths["gen_trg"],
                            paths["dev_src"], paths["dev_trg"])]
    stages.run("truecase",
               [paths["gen_src"], paths["gen_trg"],
                paths["dev_src"], paths["dev_trg"]],
               {}, truecase_outputs, stage_truecase)

    # -- lm_train: in-domain and out-domain models per language --------
    def stage_lm():
        for out_path, corpus_path in ((paths["lm_i_src"], paths["dev_src"] + ".tc"),
                                      (paths["lm_i_trg"], paths["dev_trg"] + ".tc"),
                                      (paths["lm_o_src"], paths["gen_src"] + ".tc"),
                                      (paths["lm_o_trg"], paths["gen_trg"] + ".tc")):
            lm = N.train_lm(_read_token_lines(corpus_path), order=cfg.lm_order)
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(lm.to_json())

    stages.run("lm_train",
               [paths["dev_src"] + ".tc", paths["dev_trg"] + ".tc",
                paths["gen_src"] + ".tc", paths["gen_trg"] + ".tc"],
               {"order": cfg.lm_order},
               [paths["lm_i_src"], paths["lm_i_trg"],
                paths["lm_o_src"], paths["lm_o_trg"]],
               stage_lm)

    # -- score: bilingual cross-entropy difference per pair ------------
    def stage_score():
        lms = {}
        for key in ("lm_i_src", "lm_i_trg", "lm_o_src", "lm_o_trg"):
            with open(paths[key], encoding="utf-8") as fh:
                lms[key] = N.NGramLM.from_json(fh.read())
        src = _read_token_lines(paths["gen_src"] + ".tc")
        trg = _read_token_lines(paths["gen_trg"] + ".tc")
        scored = []
        for i, (s, t) in enumerate(zip(src, trg)):
            pair = C.SentencePair(tuple(s), tuple(t), i)
            scored.append(N.score_pair(pair, lms["lm_i_src"], lms["lm_o_src"],
                                       lms["lm_i_trg"], lms["lm_o_trg"]))
        N.write_scores_tsv(paths["scores"], scored)

    stages.run("score",
               [paths["gen_src"] + ".tc", paths["gen_trg"] + ".tc",
                paths["lm_i_src"], paths["lm_i_trg"],
                paths["lm_o_src"], paths["lm_o_trg"]],
               {}, [paths["scores"]], stage_score)

    # -- select: rank ascending, split validation / selected / all -----
    def stage_select():
        src = _read_token_lines(paths["gen_src"] + ".tc")
        trg = _read_token_lines(paths["gen_trg"] + ".tc")
        rows = [line.split("\t") for line in C.read_lines(paths["scores"])]
        scored = []
        for row in rows:
            idx = int(row[0])
            pair = C.SentencePair(tuple(src[idx]), tuple(trg[idx]), idx)
            scored.append(N.ScoredPair(pair, float(row[2]), float(row[3]),
                                       float(row[4]), float(row[5]), float(row[1])))
        validation, selected, sorted_all = N.rank_and_split(
            scored, cfg.n_validation, cfg.n_select)
        _write_pairs([s.pair for s in validation], paths["val_src"], paths["val_trg"])
        _write_pairs([s.pair for s in selected], paths["sel_src"], paths["sel_trg"])
        _write_pairs([s.pair for s in sorted_all], paths["all_src"], paths["all_trg"])

    stages.run("select",
               [paths["scores"], paths["gen_src"] + ".tc", paths["gen_trg"] + ".tc"],
               {"n_validation": cfg.n_validation, "n_select": cfg.n_select},
               [paths["val_src"], paths["val_trg"], paths["sel_src"],
                paths["sel_trg"], paths["all_src"], paths["all_trg"]],
               stage_select)

    # -- bpe: learn joint merges, build vocabularies, apply ------------
    def stage_bpe():
        src = _read_token_lines(paths["gen_src"] + ".tc")
        trg = _read_token_lines(paths["gen_trg"] + ".tc")
        model = learn_bpe(itertools.chain(src, trg), cfg.bpe_vocab)
        model.save(paths["merges"])
        split_tokens = {
            "sorted_all": (paths["all_src"], paths["all_trg"]),
            "selected": (paths["sel_src"], paths["sel_trg"]),
            "validation": (paths["val_src"], paths["val_trg"]),
            "indomain": (paths["dev_src"] + ".tc", paths["dev_trg"] + ".tc"),
        }
        bpe_corpus = []
        for split, (src_path, trg_path) in split_tokens.items():
            for side, path in (("src", src_path), ("trg", trg_path)):
                lines = []
                for toks in _read_token_lines(path):
                    segmented = apply_bpe(model, toks)
                    lines.append(" ".join(segmented))
                    if split == "sorted_all":
                        bpe_corpus.append(segmented)
                C.write_lines(bpe_paths[f"{split}.{side}"], lines)
        bpe_vocab = Vocab.from_corpus(bpe_corpus)
        bpe_vocab.save(paths["bpe_vocab"])
        word_vocab = Vocab.from_corpus(
            _read_token_lines(paths["all_src"]), max_size=cfg.word_vocab)
        word_vocab.save(paths["word_vocab"])

    stages.run("bpe",
               [paths["gen_src"] + ".tc", paths["gen_trg"] + ".tc",
                paths["all_src"], paths["all_trg"], paths["sel_src"],
                paths["sel_trg"], paths["val_src"], paths["val_trg"],
                paths["dev_src"] + ".tc", paths["dev_trg"] + ".tc"],
               {"vocab_size": cfg.bpe_vocab, "word_vocab": cfg.word_vocab},
               [paths["merges"], paths["bpe_vocab"], paths["word_vocab"]]
               + sorted(bpe_paths.values()),
               stage_bpe)

    # -- the in-domain source as the translate stage decodes it; a line it
    # cannot decode fails the run here, before training spends its time
    def indomain_batch() -> SourceBatch:
        word_vocab = Vocab.load(paths["word_vocab"])
        bpe_vocab = Vocab.load(paths["bpe_vocab"])
        words = _read_token_lines(paths["dev_src"] + ".tc")
        subs = _read_token_lines(bpe_paths["indomain.src"])
        return make_source_batch([word_vocab.encode(w) for w in words],
                                 [bpe_vocab.encode(s) for s in subs])

    try:
        check_source(indomain_batch(), cfg.model.max_positions)
    except ContractError as exc:
        raise StageError("translate", exc) from exc

    # -- train: generic phase then fine-tuning, then averaging ---------
    def prepare(split: str, word_src_path: str) -> list[PreparedPair]:
        word_vocab = Vocab.load(paths["word_vocab"])
        bpe_vocab = Vocab.load(paths["bpe_vocab"])
        words = _read_token_lines(word_src_path)
        subs = _read_token_lines(bpe_paths[f"{split}.src"])
        tgts = _read_token_lines(bpe_paths[f"{split}.trg"])
        prepared = []
        for w, s, t in zip(words, subs, tgts):
            prepared.append(PreparedPair(tuple(word_vocab.encode(w)),
                                         tuple(bpe_vocab.encode(s)),
                                         tuple(bpe_vocab.encode(t))))
        return prepared

    def stage_train():
        word_vocab = Vocab.load(paths["word_vocab"])
        bpe_vocab = Vocab.load(paths["bpe_vocab"])
        model_cfg = ModelConfig(**{**cfg.model.to_dict(),
                                   "bpe_vocab_size": len(bpe_vocab),
                                   "word_vocab_size": len(word_vocab)})
        checkpoint = init_params(model_cfg, cfg.seed)
        generic = prepare("sorted_all", paths["all_src"])
        finetune = prepare("selected", paths["sel_src"])
        validation = prepare("validation", paths["val_src"])
        train(generic, finetune, validation, checkpoint,
              cfg.train_generic, cfg.train_finetune,
              paths["ckpt_dir"], log_path=paths["loss_log"], verbose=verbose)

    train_inputs = [paths["word_vocab"], paths["bpe_vocab"],
                    paths["all_src"], paths["sel_src"], paths["val_src"]] + [
        bpe_paths[f"{s}.{side}"] for s in ("sorted_all", "selected", "validation")
        for side in ("src", "trg")]
    train_params = {
        "model": {**cfg.model.to_dict(), "bpe_vocab_size": 0, "word_vocab_size": 0},
        "generic": vars(cfg.train_generic).copy(),
        "finetune": vars(cfg.train_finetune).copy(),
        "seed": cfg.seed,
    }
    stages.run("train", train_inputs, train_params,
               [paths["averaged"], paths["loss_log"]], stage_train)

    # -- translate: beam-decode the in-domain source -------------------
    def stage_translate():
        bpe_vocab = Vocab.load(paths["bpe_vocab"])
        checkpoint = Checkpoint.load(paths["averaged"])
        hyp_ids = translate_batch(checkpoint, indomain_batch(), beam=cfg.beam,
                                  max_len=cfg.decode_max_len,
                                  length_alpha=cfg.length_alpha)
        hyp_lines = [" ".join(bpe_vocab.decode(ids)) for ids in hyp_ids]
        C.write_lines(paths["hyp_bpe"], hyp_lines)

    stages.run("translate",
               [paths["averaged"], paths["word_vocab"], paths["bpe_vocab"],
                paths["dev_src"] + ".tc", bpe_paths["indomain.src"]],
               {"beam": cfg.beam, "max_len": cfg.decode_max_len,
                "length_alpha": cfg.length_alpha},
               [paths["hyp_bpe"]], stage_translate)

    # -- postprocess: undo BPE, detokenize, normalize ------------------
    def stage_postprocess():
        lines = []
        for subwords in _read_token_lines(paths["hyp_bpe"]):
            tokens = decode_bpe(subwords)
            lines.append(C.postprocess(tokens))
        C.write_lines(paths["hyp_txt"], lines)

    stages.run("postprocess", [paths["hyp_bpe"]], {},
               [paths["hyp_txt"]], stage_postprocess)

    # -- evaluate: BLEU/TER of the postprocessed hypotheses ------------
    def stage_evaluate():
        hyps = C.read_lines(paths["hyp_txt"])
        refs = C.read_lines(cfg.indomain_target)
        report = evaluate_corpus(hyps, refs)
        with open(paths["report"], "w", encoding="utf-8") as fh:
            fh.write(report.to_json())

    stages.run("evaluate", [paths["hyp_txt"], cfg.indomain_target], {},
               [paths["report"]], stage_evaluate)

    with open(paths["report"], encoding="utf-8") as fh:
        data = json.load(fh)
    report = EvalReport(data["bleu"], data["precisions"],
                        data["brevity_penalty"], data["ter"], data["sentences"])
    return work, report
