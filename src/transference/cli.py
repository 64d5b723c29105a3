"""Command-line interface exposing every pipeline stage.

Exit codes: 0 on success, 1 on usage/configuration errors, 2 when a
stage or computation fails.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import corpus as C
from .bpe import BpeModel, apply_bpe, decode_bpe
from .errors import ConfigError, TransferenceError
from .metrics import bleu, ter
from .model import Checkpoint, Vocab
from .pipeline import (CONFIG_KEYS, PipelineConfig, clean_pairs, evaluate_files,
                       learn_merges, lm_train, load_pipeline_config, map_lines,
                       read_pairs, read_tokens, run_pipeline, score_corpus,
                       segment_files, select_split, source_batch, train_model,
                       train_truecaser, truecase_files)
from .search import translate_batch_nbest
from .training import average_checkpoints


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse's exit(2) onto exit code 1
        raise ConfigError(message)


def _cmd_clean(args) -> None:
    if args.min_tokens > args.max_tokens:
        raise ConfigError("--min-tokens must be <= --max-tokens, "
                          f"got {args.min_tokens} > {args.max_tokens}")
    print(clean_pairs(read_pairs(args.source, args.target),
                      (args.out_source, args.out_target),
                      args.min_tokens, args.max_tokens, args.max_ratio))


def _cmd_score(args) -> None:
    score_corpus(args.source, args.target,
                 (args.lm_in_source, args.lm_out_source,
                  args.lm_in_target, args.lm_out_target), args.output)


def _cmd_select(args) -> None:
    select_split(args.scores, args.source, args.target, args.n_validation,
                 args.n_select,
                 {name: (f"{args.out_prefix}.{name}.src",
                         f"{args.out_prefix}.{name}.trg")
                  for name in ("validation", "selected", "sorted_all")})


def _run_training(args, phase: str) -> None:
    if phase == "finetune" and not args.init:
        raise ConfigError("finetune requires --init CHECKPOINT")
    cfg = load_pipeline_config(args.config, seed_override=args.seed)
    if args.epochs is not None:
        key = "train_generic" if phase == "generic" else "train_finetune"
        setattr(cfg, key, replace(getattr(cfg, key), epochs=args.epochs))
    files = (args.source_bpe, args.target_bpe)
    result = train_model(
        cfg, args.word_vocab, args.bpe_vocab,
        files if phase == "generic" else None,
        files if phase == "finetune" else None,
        (args.val_source_bpe, args.val_target_bpe),
        args.ckpt_dir, log_path=args.log, init=args.init, verbose=args.verbose)
    print(f"averaged checkpoint: {args.ckpt_dir}/averaged.tfrx "
          f"({len(result.epoch_records)} epochs)")


def _cmd_average(args) -> None:
    averaged = average_checkpoints(Checkpoint.load(path) for path in args.inputs)
    averaged.save(args.output)


def _cmd_translate(args) -> None:
    if args.nbest is not None and args.nbest < 1:
        raise ConfigError(f"--nbest must be >= 1, got {args.nbest}")
    word_vocab = Vocab.load(args.word_vocab)
    bpe_vocab = Vocab.load(args.bpe_vocab)
    checkpoint = Checkpoint.load(args.checkpoint)
    if args.preprocess:
        if not (args.truecase_model and args.bpe_merges):
            raise ConfigError("--preprocess needs --truecase-model and --bpe-merges")
        truecase = C.TruecaseModel.load(args.truecase_model)
        merges = BpeModel.load(args.bpe_merges)
        sub_lines = []
        for line in C.read_lines(args.input):
            tokens = C.truecase_apply(
                truecase, C.tokenize(C.normalize_punctuation(line)))
            sub_lines.append(apply_bpe(merges, tokens))
    else:
        sub_lines = read_tokens(args.input)

    batch = source_batch(word_vocab, bpe_vocab, sub_lines)
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


def _cmd_evaluate(args) -> None:
    if args.metric != "both":
        if args.json:
            raise ConfigError("--json needs --metric both")
        metric = bleu if args.metric == "bleu" else ter
        score = metric(C.read_lines(args.hyp), C.read_lines(args.ref))
        print(f"{args.metric.upper()} {score:.1f}")
        return
    report = evaluate_files(args.hyp, args.ref, args.json)
    print(f"BLEU {report.bleu:.1f}")
    print(f"TER {report.ter:.1f}")
    if not args.json:
        print(report.to_json())


def _cmd_pipeline(args) -> None:
    if not args.config:
        raise ConfigError("pipeline needs --config FILE")
    cfg = load_pipeline_config(args.config, workdir_override=args.workdir,
                               seed_override=args.seed)
    workdir, report = run_pipeline(cfg, verbose=args.verbose)
    print(f"workdir: {workdir}")
    print(f"BLEU {report.bleu:.1f}")
    print(f"TER {report.ter:.1f}")


def build_parser() -> _Parser:
    # a flag that sets a config value takes that key's parser as its type
    seed, decode = CONFIG_KEYS["pipeline"]["seed"], CONFIG_KEYS["decode"]
    parser = _Parser(prog="transference",
                     description="Two-encoder transformer translation pipeline.")
    parser.add_argument("--verbose", action="store_true")
    # global forms of the common flags; a subcommand's own value wins
    parser.add_argument("--config", dest="global_config", metavar="FILE")
    parser.add_argument("--seed", dest="global_seed", type=seed, metavar="N")
    parser.add_argument("--workdir", dest="global_workdir", metavar="DIR")
    # accept --verbose after the subcommand too; SUPPRESS keeps the
    # subparser from clobbering the top-level value when absent
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--verbose", action="store_true",
                        default=argparse.SUPPRESS)
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       parser_class=_Parser)

    def sub_parser(name: str, fn, **kwargs):
        p = subparsers.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = sub_parser("normalize",
                   lambda a: map_lines(a.input, a.output, C.normalize_punctuation),
                   help="punctuation normalization")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = sub_parser("tokenize",
                   lambda a: map_lines(a.input, a.output, lambda line: " ".join(
                       C.tokenize(line, no_escape=not a.escape))),
                   help="tokenize normalized text")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--escape", action="store_true",
                   help="replace special characters by entity escapes")

    p = sub_parser("clean", _cmd_clean,
                   help="drop bad pairs from a tokenized parallel corpus")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out-source", required=True)
    p.add_argument("--out-target", required=True)
    for key in ("min_tokens", "max_tokens", "max_ratio"):
        p.add_argument("--" + key.replace("_", "-"), type=CONFIG_KEYS["clean"][key],
                       default=getattr(PipelineConfig, key))

    p = sub_parser("truecase-train", lambda a: train_truecaser(a.input, a.model),
                   help="learn majority casings")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)

    p = sub_parser("truecase",
                   lambda a: truecase_files(a.model, [(a.input, a.output)]),
                   help="recase sentence-initial tokens")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--output", required=True)

    p = sub_parser("postprocess",
                   lambda a: map_lines(a.input, a.output,
                                       lambda line: C.postprocess(line.split())),
                   help="detokenize and normalize tokens")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = sub_parser("lm-train", lambda a: lm_train(a.input, a.model, a.order),
                   help="train an n-gram language model")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--order", type=CONFIG_KEYS["lm"]["order"],
                   default=PipelineConfig.lm_order)

    p = sub_parser("score", _cmd_score,
                   help="bilingual cross-entropy-difference scores")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--lm-in-source", required=True)
    p.add_argument("--lm-out-source", required=True)
    p.add_argument("--lm-in-target", required=True)
    p.add_argument("--lm-out-target", required=True)
    p.add_argument("--output", required=True)

    p = sub_parser("select", _cmd_select, help="rank by score and split the corpus")
    p.add_argument("--scores", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--n-validation", type=int,
                   default=PipelineConfig.n_validation)
    p.add_argument("--n-select", type=int, default=PipelineConfig.n_select)
    p.add_argument("--out-prefix", required=True)

    p = sub_parser("bpe-learn",
                   lambda a: learn_merges(a.inputs, a.output, a.vocab_size),
                   help="learn joint BPE merges")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--vocab-size", type=CONFIG_KEYS["bpe"]["vocab_size"],
                   default=PipelineConfig.bpe_vocab)
    p.add_argument("--output", required=True)

    p = sub_parser("bpe-apply",
                   lambda a: segment_files(a.merges, [(a.input, a.output)]),
                   help="segment tokens into subword units")
    p.add_argument("--merges", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = sub_parser("bpe-decode",
                   lambda a: map_lines(a.input, a.output, lambda line: " ".join(
                       decode_bpe(line.split()))),
                   help="undo BPE segmentation")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    for name, phase in (("train", "generic"), ("finetune", "finetune")):
        p = sub_parser(name, lambda a, _phase=phase: _run_training(a, _phase),
                       help=f"{phase} training phase")
        p.add_argument("--config", help="INI file with [model]/[train]/[finetune]")
        p.add_argument("--source-bpe", required=True)
        p.add_argument("--target-bpe", required=True)
        p.add_argument("--val-source-bpe", required=True)
        p.add_argument("--val-target-bpe", required=True)
        p.add_argument("--word-vocab", required=True)
        p.add_argument("--bpe-vocab", required=True)
        p.add_argument("--ckpt-dir", required=True)
        p.add_argument("--init", help="checkpoint to continue from")
        p.add_argument("--epochs", type=int)
        p.add_argument("--seed", type=seed)
        p.add_argument("--log")

    p = sub_parser("average", _cmd_average, help="elementwise mean of checkpoints")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--output", required=True)

    p = sub_parser("translate", _cmd_translate, help="beam-search decode")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True,
                   help="BPE-segmented source (or raw text with --preprocess)")
    p.add_argument("--word-vocab", required=True)
    p.add_argument("--bpe-vocab", required=True)
    p.add_argument("--output")
    p.add_argument("--beam", type=decode["beam"], default=PipelineConfig.beam)
    p.add_argument("--max-len", type=decode["max_len"],
                   default=PipelineConfig.decode_max_len)
    p.add_argument("--alpha", type=decode["length_alpha"],
                   default=PipelineConfig.length_alpha)
    p.add_argument("--nbest", type=int)
    p.add_argument("--preprocess", action="store_true")
    p.add_argument("--truecase-model")
    p.add_argument("--bpe-merges")

    p = sub_parser("evaluate", _cmd_evaluate, help="BLEU/TER scoring")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--metric", choices=("bleu", "ter", "both"), default="both")
    p.add_argument("--json", help="write the JSON report here (--metric both)")

    p = sub_parser("pipeline", _cmd_pipeline, help="run every stage end to end")
    p.add_argument("--config", help="INI file; may also be given globally")
    p.add_argument("--workdir")
    p.add_argument("--seed", type=seed)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name in ("config", "seed", "workdir"):
            # a subcommand's own flag wins over the global form
            if getattr(args, name, False) is None:
                setattr(args, name, getattr(args, f"global_{name}"))
        args.fn(args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except TransferenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
