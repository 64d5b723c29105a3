"""Command-line interface exposing every pipeline stage.

Exit codes: 0 on success, 1 on usage/configuration errors, 2 when a
stage or computation fails.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import json
import sys

from . import corpus as C
from . import ngram as N
from .bpe import BpeModel, apply_bpe, decode_bpe, learn_bpe
from .errors import ConfigError, StageError, TransferenceError
from .metrics import bleu, evaluate_corpus, ter
from .model import (Checkpoint, ModelConfig, Vocab, init_params,
                    make_source_batch)
from .pipeline import load_pipeline_config, run_pipeline
from .search import translate_batch_nbest
from .training import (PreparedPair, TrainConfig, average_checkpoints, train)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse's exit(2) onto exit code 1
        raise _UsageError(message)


def _read_tokens(path: str) -> list[list[str]]:
    return [line.split() if line else [] for line in C.read_lines(path)]


def _cmd_normalize(args) -> int:
    lines = [C.normalize_punctuation(line) for line in C.read_lines(args.input)]
    C.write_lines(args.output, lines)
    return 0


def _cmd_tokenize(args) -> int:
    lines = [" ".join(C.tokenize(line, no_escape=not args.escape))
             for line in C.read_lines(args.input)]
    C.write_lines(args.output, lines)
    return 0


def _cmd_clean(args) -> int:
    raw = C.load_parallel(args.source, args.target)
    pairs = [C.SentencePair(tuple(s.split()), tuple(t.split()), i)
             for i, (s, t) in enumerate(raw)]
    kept, dropped = C.clean_corpus(pairs, args.min_tokens, args.max_tokens,
                                   args.max_ratio)
    C.write_lines(args.out_source, [" ".join(p.source) for p in kept])
    C.write_lines(args.out_target, [" ".join(p.target) for p in kept])
    print(json.dumps({"kept": len(kept), "dropped": dropped}, sort_keys=True))
    return 0


def _cmd_truecase_train(args) -> int:
    model = C.truecase_train(_read_tokens(args.input))
    model.save(args.model)
    return 0


def _cmd_truecase(args) -> int:
    model = C.TruecaseModel.load(args.model)
    lines = [" ".join(C.truecase_apply(model, toks))
             for toks in _read_tokens(args.input)]
    C.write_lines(args.output, lines)
    return 0


def _cmd_postprocess(args) -> int:
    lines = [C.postprocess(toks) for toks in _read_tokens(args.input)]
    C.write_lines(args.output, lines)
    return 0


def _cmd_lm_train(args) -> int:
    lm = N.train_lm(_read_tokens(args.input), order=args.order)
    with open(args.model, "w", encoding="utf-8") as fh:
        fh.write(lm.to_json())
    return 0


def _load_lm(path: str) -> N.NGramLM:
    with open(path, encoding="utf-8") as fh:
        return N.NGramLM.from_json(fh.read())


def _cmd_score(args) -> int:
    lm_i_src = _load_lm(args.lm_in_source)
    lm_o_src = _load_lm(args.lm_out_source)
    lm_i_trg = _load_lm(args.lm_in_target)
    lm_o_trg = _load_lm(args.lm_out_target)
    src = _read_tokens(args.source)
    trg = _read_tokens(args.target)
    if len(src) != len(trg):
        raise ConfigError("source/target line counts differ")
    scored = []
    for i, (s, t) in enumerate(zip(src, trg)):
        pair = C.SentencePair(tuple(s), tuple(t), i)
        scored.append(N.score_pair(pair, lm_i_src, lm_o_src, lm_i_trg, lm_o_trg))
    N.write_scores_tsv(args.output, scored)
    return 0


def _cmd_select(args) -> int:
    src = _read_tokens(args.source)
    trg = _read_tokens(args.target)
    scored = []
    for line in C.read_lines(args.scores):
        row = line.split("\t")
        idx = int(row[0])
        pair = C.SentencePair(tuple(src[idx]), tuple(trg[idx]), idx)
        scored.append(N.ScoredPair(pair, float(row[2]), float(row[3]),
                                   float(row[4]), float(row[5]), float(row[1])))
    validation, selected, sorted_all = N.rank_and_split(
        scored, args.n_validation, args.n_select)
    for name, subset in (("validation", validation), ("selected", selected),
                         ("sorted_all", sorted_all)):
        C.write_lines(f"{args.out_prefix}.{name}.src",
                      [" ".join(s.pair.source) for s in subset])
        C.write_lines(f"{args.out_prefix}.{name}.trg",
                      [" ".join(s.pair.target) for s in subset])
    return 0


def _cmd_bpe_learn(args) -> int:
    corpora = [_read_tokens(path) for path in args.inputs]
    model = learn_bpe(itertools.chain(*corpora), args.vocab_size)
    model.save(args.output)
    return 0


def _cmd_bpe_apply(args) -> int:
    model = BpeModel.load(args.merges)
    lines = [" ".join(apply_bpe(model, toks)) for toks in _read_tokens(args.input)]
    C.write_lines(args.output, lines)
    return 0


def _cmd_bpe_decode(args) -> int:
    lines = [" ".join(decode_bpe(toks)) for toks in _read_tokens(args.input)]
    C.write_lines(args.output, lines)
    return 0


def _parse_train_section(path: str | None, section: str) -> TrainConfig:
    if path is None:
        return TrainConfig()
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"config file not found: {path}")

    def opt(name, conv, default):
        if parser.has_option(section, name):
            return conv(parser.get(section, name))
        if section != "train" and parser.has_option("train", name):
            return conv(parser.get("train", name))
        return default

    clip = opt("grad_clip", str, "5.0")
    return TrainConfig(
        epochs=opt("epochs", int, 30 if section == "train" else 10),
        batch_tokens=opt("batch_tokens", int, 25000),
        max_len=opt("max_len", int, 256),
        warmup_steps=opt("warmup_steps", int, 8000),
        beta1=opt("beta1", float, 0.9),
        beta2=opt("beta2", float, 0.98),
        adam_epsilon=opt("adam_epsilon", float, 1e-9),
        label_smoothing=opt("label_smoothing", float, 0.1),
        checkpoint_keep=opt("checkpoint_keep", int, 8),
        grad_clip=None if clip in ("none", "off") else float(clip),
        seed=opt("seed", int, 1),
    )


def _parse_model_section(path: str | None, bpe_vocab: int,
                         word_vocab: int) -> ModelConfig:
    values = dict(d_model=512, d_ff=2048, heads=8, layers=6,
                  dropout=0.1, max_positions=256)
    if path is not None:
        parser = configparser.ConfigParser()
        if not parser.read(path):
            raise ConfigError(f"config file not found: {path}")
        if parser.has_section("model"):
            for key in values:
                if parser.has_option("model", key):
                    conv = float if key == "dropout" else int
                    values[key] = conv(parser.get("model", key))
    layers = int(values.pop("layers"))
    return ModelConfig(bpe_vocab_size=bpe_vocab, word_vocab_size=word_vocab,
                       n_layers_fw=layers, n_layers_fs=layers,
                       n_layers_es=layers, n_layers_dec=layers, **values)


def _prepare_pairs(word_vocab: Vocab, bpe_vocab: Vocab, words_path: str,
                   bpe_src_path: str, bpe_trg_path: str) -> list[PreparedPair]:
    words = _read_tokens(words_path)
    subs = _read_tokens(bpe_src_path)
    tgts = _read_tokens(bpe_trg_path)
    if not len(words) == len(subs) == len(tgts):
        raise ConfigError("training files disagree on line counts")
    return [PreparedPair(tuple(word_vocab.encode(w)),
                         tuple(bpe_vocab.encode(s)),
                         tuple(bpe_vocab.encode(t)))
            for w, s, t in zip(words, subs, tgts)]


def _run_training(args, phase: str) -> int:
    word_vocab = Vocab.load(args.word_vocab)
    bpe_vocab = Vocab.load(args.bpe_vocab)
    pairs = _prepare_pairs(word_vocab, bpe_vocab, args.source_words,
                           args.source_bpe, args.target_bpe)
    val = _prepare_pairs(word_vocab, bpe_vocab, args.val_source_words,
                         args.val_source_bpe, args.val_target_bpe)
    section = "train" if phase == "generic" else "finetune"
    cfg = _parse_train_section(args.config, section)
    if args.epochs is not None:
        cfg.epochs = args.epochs
    if args.seed is not None:
        cfg.seed = args.seed
    if args.init:
        checkpoint = Checkpoint.load(args.init)
    else:
        if phase == "finetune":
            raise ConfigError("finetune requires --init CHECKPOINT")
        model_cfg = _parse_model_section(args.config, len(bpe_vocab),
                                         len(word_vocab))
        checkpoint = init_params(model_cfg, cfg.seed)
    idle = TrainConfig(epochs=0, seed=cfg.seed,
                       checkpoint_keep=cfg.checkpoint_keep)
    if phase == "generic":
        result = train(pairs, [], val, checkpoint, cfg, idle,
                       args.ckpt_dir, log_path=args.log, verbose=args.verbose)
    else:
        result = train([], pairs, val, checkpoint, idle, cfg,
                       args.ckpt_dir, log_path=args.log, verbose=args.verbose)
    print(f"averaged checkpoint: {args.ckpt_dir}/averaged.tfrx "
          f"({len(result.epoch_records)} epochs)")
    return 0


def _cmd_average(args) -> int:
    checkpoints = [Checkpoint.load(path) for path in args.inputs]
    averaged = average_checkpoints(checkpoints)
    averaged.save(args.output)
    return 0


def _cmd_translate(args) -> int:
    word_vocab = Vocab.load(args.word_vocab)
    bpe_vocab = Vocab.load(args.bpe_vocab)
    checkpoint = Checkpoint.load(args.checkpoint)
    if args.preprocess:
        if not (args.truecase_model and args.bpe_merges):
            raise ConfigError("--preprocess needs --truecase-model and --bpe-merges")
        truecase = C.TruecaseModel.load(args.truecase_model)
        merges = BpeModel.load(args.bpe_merges)
        word_lines = []
        sub_lines = []
        for line in C.read_lines(args.input):
            tokens = C.truecase_apply(
                truecase, C.tokenize(C.normalize_punctuation(line)))
            word_lines.append(tokens)
            sub_lines.append(apply_bpe(merges, tokens))
    else:
        sub_lines = _read_tokens(args.input)
        word_lines = [decode_bpe(toks) for toks in sub_lines]

    batch = make_source_batch([word_vocab.encode(w) for w in word_lines],
                              [bpe_vocab.encode(s) for s in sub_lines])
    pools = translate_batch_nbest(checkpoint, batch, beam=args.beam,
                                  max_len=args.max_len, length_alpha=args.alpha)
    out_lines = []
    for pool in pools:
        for rank, hyp in enumerate(pool[:args.nbest or 1], 1):
            text = C.postprocess(decode_bpe(bpe_vocab.decode(hyp.output_ids())))
            if args.nbest:
                text = f"{rank}\t{hyp.normalized_score(args.alpha):.6f}\t{text}"
            out_lines.append(text)
    if args.output:
        C.write_lines(args.output, out_lines)
    else:
        for line in out_lines:
            print(line)
    return 0


def _cmd_evaluate(args) -> int:
    hyps = C.read_lines(args.hyp)
    refs = C.read_lines(args.ref)
    if args.metric in ("bleu", "both"):
        print(f"BLEU {bleu(hyps, refs):.1f}")
    if args.metric in ("ter", "both"):
        print(f"TER {ter(hyps, refs):.1f}")
    if args.metric == "both":
        report = evaluate_corpus(hyps, refs)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
        else:
            print(report.to_json())
    return 0


def _cmd_pipeline(args) -> int:
    if not args.config:
        raise ConfigError("pipeline needs --config FILE")
    cfg = load_pipeline_config(args.config, workdir_override=args.workdir,
                               seed_override=args.seed)
    workdir, report = run_pipeline(cfg, verbose=args.verbose)
    print(f"workdir: {workdir}")
    print(f"BLEU {report.bleu:.1f}")
    print(f"TER {report.ter:.1f}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="transference",
                     description="Two-encoder transformer translation pipeline.")
    parser.add_argument("--verbose", action="store_true")
    # global forms of the common flags; a subcommand's own value wins
    parser.add_argument("--config", dest="global_config", metavar="FILE")
    parser.add_argument("--seed", dest="global_seed", type=int, metavar="N")
    parser.add_argument("--workdir", dest="global_workdir", metavar="DIR")
    # accept --verbose after the subcommand too; SUPPRESS keeps the
    # subparser from clobbering the top-level value when absent
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--verbose", action="store_true",
                        default=argparse.SUPPRESS)
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       parser_class=_Parser)

    def sub_parser(name: str, **kwargs):
        return subparsers.add_parser(name, parents=[common], **kwargs)

    p = sub_parser("normalize", help="punctuation normalization")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_normalize)

    p = sub_parser("tokenize", help="tokenize normalized text")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--escape", action="store_true",
                   help="replace special characters by entity escapes")
    p.set_defaults(fn=_cmd_tokenize)

    p = sub_parser("clean", help="drop bad pairs from a tokenized parallel corpus")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out-source", required=True)
    p.add_argument("--out-target", required=True)
    p.add_argument("--min-tokens", type=int, default=1)
    p.add_argument("--max-tokens", type=int, default=100)
    p.add_argument("--max-ratio", type=float, default=3.0)
    p.set_defaults(fn=_cmd_clean)

    p = sub_parser("truecase-train", help="learn majority casings")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.set_defaults(fn=_cmd_truecase_train)

    p = sub_parser("truecase", help="recase sentence-initial tokens")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_truecase)

    p = sub_parser("postprocess", help="detokenize and normalize tokens")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_postprocess)

    p = sub_parser("lm-train", help="train an n-gram language model")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--order", type=int, default=3)
    p.set_defaults(fn=_cmd_lm_train)

    p = sub_parser("score", help="bilingual cross-entropy-difference scores")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--lm-in-source", required=True)
    p.add_argument("--lm-out-source", required=True)
    p.add_argument("--lm-in-target", required=True)
    p.add_argument("--lm-out-target", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_score)

    p = sub_parser("select", help="rank by score and split the corpus")
    p.add_argument("--scores", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--n-validation", type=int, default=1000)
    p.add_argument("--n-select", type=int, default=500000)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(fn=_cmd_select)

    p = sub_parser("bpe-learn", help="learn joint BPE merges")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--vocab-size", type=int, default=28000)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_bpe_learn)

    p = sub_parser("bpe-apply", help="segment tokens into subword units")
    p.add_argument("--merges", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_bpe_apply)

    p = sub_parser("bpe-decode", help="undo BPE segmentation")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_bpe_decode)

    for name, phase in (("train", "generic"), ("finetune", "finetune")):
        p = sub_parser(name, help=f"{phase} training phase")
        p.add_argument("--config", help="INI file with [model]/[train]/[finetune]")
        p.add_argument("--source-words", required=True)
        p.add_argument("--source-bpe", required=True)
        p.add_argument("--target-bpe", required=True)
        p.add_argument("--val-source-words", required=True)
        p.add_argument("--val-source-bpe", required=True)
        p.add_argument("--val-target-bpe", required=True)
        p.add_argument("--word-vocab", required=True)
        p.add_argument("--bpe-vocab", required=True)
        p.add_argument("--ckpt-dir", required=True)
        p.add_argument("--init", help="checkpoint to continue from")
        p.add_argument("--epochs", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--log")
        p.set_defaults(fn=lambda a, _phase=phase: _run_training(a, _phase))

    p = sub_parser("average", help="elementwise mean of checkpoints")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_average)

    p = sub_parser("translate", help="beam-search decode")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True,
                   help="BPE-segmented source (or raw text with --preprocess)")
    p.add_argument("--word-vocab", required=True)
    p.add_argument("--bpe-vocab", required=True)
    p.add_argument("--output")
    p.add_argument("--beam", type=int, default=4)
    p.add_argument("--max-len", type=int, default=256)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--nbest", type=int)
    p.add_argument("--preprocess", action="store_true")
    p.add_argument("--truecase-model")
    p.add_argument("--bpe-merges")
    p.set_defaults(fn=_cmd_translate)

    p = sub_parser("evaluate", help="BLEU/TER scoring")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--metric", choices=("bleu", "ter", "both"), default="both")
    p.add_argument("--json", help="write the JSON report to this file")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub_parser("pipeline", help="run every stage end to end")
    p.add_argument("--config", help="INI file; may also be given globally")
    p.add_argument("--workdir")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    for name in ("config", "seed", "workdir"):
        fallback = getattr(args, f"global_{name}", None)
        if fallback is not None and getattr(args, name, None) is None:
            if hasattr(args, name):
                setattr(args, name, fallback)
    try:
        return args.fn(args)
    except (ConfigError, _UsageError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TransferenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
