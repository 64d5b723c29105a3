"""CLI subcommands, wired end to end over real files."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from transference.cli import main
from transference.corpus import read_lines, write_lines
from transference.model import (UNK_ID, Checkpoint, ModelConfig, Vocab,
                                init_params)
from transference.ngram import NGramLM
from transference.pipeline import prepare_pairs, source_batch

from conftest import TOY_PIPELINE_SETTINGS, write_pipeline_ini, write_world


def run_cli(*argv):
    return main(list(argv))


class TestTextCommands:
    def test_normalize_tokenize_postprocess(self, tmp_path):
        raw = tmp_path / "raw.txt"
        write_lines(str(raw), ["„Ahoj,  světe“…"])
        norm = tmp_path / "norm.txt"
        assert run_cli("normalize", "--input", str(raw), "--output", str(norm)) == 0
        assert read_lines(str(norm)) == ['"Ahoj, světe"...']
        tok = tmp_path / "tok.txt"
        assert run_cli("tokenize", "--input", str(norm), "--output", str(tok)) == 0
        assert read_lines(str(tok)) == ['" Ahoj , světe " ...']
        out = tmp_path / "out.txt"
        assert run_cli("postprocess", "--input", str(tok),
                       "--output", str(out)) == 0
        assert read_lines(str(out)) == ['"Ahoj, světe"...']

    def test_clean(self, tmp_path, capsys):
        src = tmp_path / "c.src"
        trg = tmp_path / "c.trg"
        write_lines(str(src), ["a b", "x " * 101, "c d"])
        write_lines(str(trg), ["p q", "y", "r s"])
        out_src = tmp_path / "o.src"
        out_trg = tmp_path / "o.trg"
        assert run_cli("clean", "--source", str(src), "--target", str(trg),
                       "--out-source", str(out_src),
                       "--out-target", str(out_trg)) == 0
        assert read_lines(str(out_src)) == ["a b", "c d"]
        report = json.loads(capsys.readouterr().out)
        assert report["dropped"] == {"too_long": 1}

    def test_truecase_roundtrip(self, tmp_path):
        corpus = tmp_path / "t.txt"
        write_lines(str(corpus), ["x Praha dnes", "y Praha a Praha"])
        model = tmp_path / "tc.tsv"
        assert run_cli("truecase-train", "--input", str(corpus),
                       "--model", str(model)) == 0
        inp = tmp_path / "in.txt"
        write_lines(str(inp), ["praha je"])
        out = tmp_path / "out.txt"
        assert run_cli("truecase", "--input", str(inp), "--model", str(model),
                       "--output", str(out)) == 0
        assert read_lines(str(out)) == ["Praha je"]


class TestLmCommands:
    def test_lm_train_score_select(self, tmp_path):
        dev = tmp_path / "dev.txt"
        write_lines(str(dev), ["a b a b", "a b b a"] * 3)
        gen_src = tmp_path / "g.src"
        gen_trg = tmp_path / "g.trg"
        write_lines(str(gen_src), ["a b a", "c c c", "a a b", "c c b"])
        write_lines(str(gen_trg), ["a b b", "c c b", "b a a", "c b c"])
        lm_in = tmp_path / "in.lm"
        lm_out = tmp_path / "out.lm"
        assert run_cli("lm-train", "--input", str(dev), "--model", str(lm_in),
                       "--order", "2") == 0
        assert run_cli("lm-train", "--input", str(gen_src), "--model",
                       str(lm_out), "--order", "2") == 0
        loaded = NGramLM.load(str(lm_in))
        assert loaded.order == 2

        scores = tmp_path / "scores.tsv"
        assert run_cli("score", "--source", str(gen_src), "--target", str(gen_trg),
                       "--lm-in-source", str(lm_in), "--lm-out-source", str(lm_out),
                       "--lm-in-target", str(lm_in), "--lm-out-target", str(lm_out),
                       "--output", str(scores)) == 0
        rows = [line.split("\t") for line in read_lines(str(scores))]
        assert len(rows) == 4 and all(len(r) == 6 for r in rows)

        prefix = tmp_path / "split"
        assert run_cli("select", "--scores", str(scores), "--source", str(gen_src),
                       "--target", str(gen_trg), "--n-validation", "1",
                       "--n-select", "2", "--out-prefix", str(prefix)) == 0
        assert len(read_lines(f"{prefix}.validation.src")) == 1
        assert len(read_lines(f"{prefix}.selected.src")) == 2
        assert len(read_lines(f"{prefix}.sorted_all.src")) == 3


    def test_empty_sentence_in_score_is_2_and_named(self, tmp_path, capsys):
        src = tmp_path / "g.src"
        trg = tmp_path / "g.trg"
        write_lines(str(src), ["a b", "a a", "b a"])
        write_lines(str(trg), ["b a", "", "a b"])
        lm = tmp_path / "g.lm"
        assert run_cli("lm-train", "--input", str(src), "--model", str(lm),
                       "--order", "2") == 0
        scores = tmp_path / "scores.tsv"
        assert run_cli("score", "--source", str(src), "--target", str(trg),
                       "--lm-in-source", str(lm), "--lm-out-source", str(lm),
                       "--lm-in-target", str(lm), "--lm-out-target", str(lm),
                       "--output", str(scores)) == 2
        err = capsys.readouterr().err
        assert f"{trg} line 2: a sentence with no tokens" in err
        assert not scores.exists()


class TestBpeCommands:
    def test_learn_apply_decode(self, tmp_path):
        corpus = tmp_path / "c.txt"
        write_lines(str(corpus), ["low low low low low lower lower",
                                  "newest newest newest widest widest"])
        merges = tmp_path / "merges.txt"
        assert run_cli("bpe-learn", "--inputs", str(corpus),
                       "--vocab-size", "30", "--output", str(merges)) == 0
        applied = tmp_path / "applied.txt"
        assert run_cli("bpe-apply", "--merges", str(merges), "--input",
                       str(corpus), "--output", str(applied)) == 0
        decoded = tmp_path / "decoded.txt"
        assert run_cli("bpe-decode", "--input", str(applied),
                       "--output", str(decoded)) == 0
        assert read_lines(str(decoded)) == read_lines(str(corpus))


class TestEvaluateCommand:
    def test_prints_scores_and_json(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        write_lines(str(hyp), ["a b c d", "e f g h"])
        write_lines(str(ref), ["a b c d", "e f g h"])
        json_path = tmp_path / "report.json"
        assert run_cli("evaluate", "--hyp", str(hyp), "--ref", str(ref),
                       "--json", str(json_path)) == 0
        out = capsys.readouterr().out
        assert "BLEU 100.0" in out
        assert "TER 0.0" in out
        report = json.loads(Path(json_path).read_text())
        assert report["precisions"] == [1.0, 1.0, 1.0, 1.0]

    def test_single_metric(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        write_lines(str(hyp), ["a b"])
        assert run_cli("evaluate", "--hyp", str(hyp), "--ref", str(hyp),
                       "--metric", "bleu") == 0
        out = capsys.readouterr().out
        assert "BLEU" in out and "TER" not in out

    def test_json_report_needs_both_metrics(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        write_lines(str(hyp), ["a b"])
        json_path = tmp_path / "report.json"
        assert run_cli("evaluate", "--hyp", str(hyp), "--ref", str(hyp),
                       "--metric", "bleu", "--json", str(json_path)) == 1
        assert "--json" in capsys.readouterr().err
        assert not json_path.exists()


class TestAverageCommand:
    def test_average(self, tmp_path):
        cfg = ModelConfig(bpe_vocab_size=10, word_vocab_size=10,
                          n_layers_fw=1, n_layers_fs=1, n_layers_es=1,
                          n_layers_dec=1, d_model=8, d_ff=16, heads=2,
                          dropout=0.0, max_positions=8)
        paths = []
        for seed in (1, 2):
            ckpt = init_params(cfg, seed=seed)
            path = str(tmp_path / f"c{seed}.tfrx")
            ckpt.save(path)
            paths.append(path)
        out = str(tmp_path / "avg.tfrx")
        assert run_cli("average", "--inputs", *paths, "--output", out) == 0
        avg = Checkpoint.load(out)
        a = Checkpoint.load(paths[0])
        b = Checkpoint.load(paths[1])
        for name in avg.params:
            expected = ((a.params[name].data.astype(np.float64)
                         + b.params[name].data) / 2).astype(np.float32)
            np.testing.assert_array_equal(avg.params[name].data, expected)

    def test_missing_output_directory_is_2_and_named(self, tmp_path, capsys):
        cfg = ModelConfig(bpe_vocab_size=10, word_vocab_size=10,
                          n_layers_fw=1, n_layers_fs=1, n_layers_es=1,
                          n_layers_dec=1, d_model=8, d_ff=16, heads=2,
                          dropout=0.0, max_positions=8)
        path = str(tmp_path / "a.tfrx")
        init_params(cfg, seed=1).save(path)
        out = tmp_path / "nodir" / "b.tfrx"
        assert run_cli("average", "--inputs", path, "--output", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{out}: cannot write" in err and "No such file" in err

    @pytest.mark.parametrize("broken, cause", [
        ("a.tfrx", "No such file"), ("a.tfrx", "Is a directory"),
        ("a.json", "Is a directory")],
        ids=["missing_payload", "payload_is_directory", "sidecar_is_directory"])
    def test_unreadable_checkpoint_is_2_and_named(self, tmp_path, capsys,
                                                   broken, cause):
        cfg = ModelConfig(bpe_vocab_size=10, word_vocab_size=10,
                          n_layers_fw=1, n_layers_fs=1, n_layers_es=1,
                          n_layers_dec=1, d_model=8, d_ff=16, heads=2,
                          dropout=0.0, max_positions=8)
        path = tmp_path / "a.tfrx"
        init_params(cfg, seed=1).save(str(path))
        (tmp_path / broken).unlink()
        if cause == "Is a directory":
            (tmp_path / broken).mkdir()
        assert run_cli("average", "--inputs", str(path),
                       "--output", str(tmp_path / "b.tfrx")) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / broken}: cannot read" in err and cause in err


class TestErrorCodes:
    def test_usage_error_is_1(self):
        assert run_cli("no-such-command") == 1
        assert run_cli("evaluate", "--hyp", "x") == 1  # missing --ref

    def test_stage_failure_is_2(self, toy_files, tmp_path):
        ini = write_pipeline_ini(
            tmp_path / "bad.ini", toy_files, str(tmp_path / "work"),
            overrides={"select": {"n_validation": "100000"},
                       "train": {"epochs": "1"}, "finetune": {"epochs": "0"}})
        assert run_cli("pipeline", "--config", str(ini)) == 2

    def test_missing_config_is_1(self):
        assert run_cli("pipeline", "--config", "/nonexistent.ini") == 1

    @pytest.mark.parametrize("blocked", ["", "corpus", "manifests"],
                             ids=["workdir", "stage_dir", "manifest_dir"])
    def test_uncreatable_work_directory_is_2_and_named(
            self, toy_files, tmp_path, capsys, blocked):
        work = tmp_path / "work"
        if blocked:
            work.mkdir()
        path = work / blocked if blocked else work
        path.write_text("not a directory\n")
        ini = write_pipeline_ini(tmp_path / "c.ini", toy_files, str(work))
        assert run_cli("pipeline", "--config", str(ini)) == 2
        err = capsys.readouterr().err
        assert f"{path}: cannot create" in err and "File exists" in err


    def test_unreadable_stage_input_is_2_and_named(self, toy_files, tmp_path,
                                                   capsys):
        source = tmp_path / "source_dir"
        source.mkdir()
        ini = write_pipeline_ini(tmp_path / "c.ini",
                                 dict(toy_files, general_source=str(source)),
                                 str(tmp_path / "work"))
        assert run_cli("pipeline", "--config", str(ini)) == 2
        err = capsys.readouterr().err
        assert f"{source}: cannot read" in err and "Is a directory" in err

    def test_unopenable_lock_file_is_2_and_named(self, toy_files, tmp_path,
                                                 capsys):
        lock = tmp_path / "work" / ".lock"
        lock.mkdir(parents=True)
        ini = write_pipeline_ini(tmp_path / "c.ini", toy_files,
                                 str(tmp_path / "work"))
        assert run_cli("pipeline", "--config", str(ini)) == 2
        err = capsys.readouterr().err
        assert f"{lock}: cannot open" in err and "Is a directory" in err

    def test_manifest_that_is_a_directory_is_2_and_named(self, toy_files,
                                                         tmp_path, capsys):
        # a manifest that cannot be opened is stale, like a truncated one:
        # the stage reruns and writing its manifest fails, naming it
        work = tmp_path / "work"
        (work / "corpus").mkdir(parents=True)
        for name in ("general.src", "general.trg", "indomain.src",
                     "indomain.trg", "clean_report.json"):
            (work / "corpus" / name).write_text("")
        manifest = work / "manifests" / "clean.json"
        manifest.mkdir(parents=True)
        ini = write_pipeline_ini(tmp_path / "c.ini", toy_files, str(work))
        assert run_cli("pipeline", "--config", str(ini)) == 2
        err = capsys.readouterr().err
        assert f"{manifest}: cannot write" in err and "Is a directory" in err


class TestConfigErrors:
    @pytest.mark.parametrize("section, key, value", [
        ("train", "epochs", "abc"),
        ("train", "grad_clip", "nan?"),
        ("train", "warmup_step", "10"),      # unknown key: warmup_steps
        ("train", "seed", "3"),              # the seed lives in [pipeline]
        ("finetune", "epochs", "-1"),
        ("train", "grad_clip", "-1"),
        ("train", "grad_clip", "0"),
        ("train", "grad_clip", "nan"),
        ("select", "n_select", "0"),         # [finetune] epochs = 6
        ("decode", "beam", "0"),
        ("decode", "max_len", "0"),
        ("decode", "length_alpha", "nan"),
        ("lm", "order", "0"),
        ("model", "word_vocab_size", "-2"),
    ], ids=["bad_int", "bad_float", "unknown_key", "train_seed", "negative",
            "negative_clip", "zero_clip", "nan_clip", "nothing_to_finetune",
            "zero_beam", "zero_max_len", "nan_alpha", "zero_order",
            "negative_word_vocab"])
    def test_bad_config_is_1_and_named(self, toy_files, tmp_path, capsys,
                                       section, key, value):
        ini = write_pipeline_ini(tmp_path / "bad.ini", toy_files,
                                 str(tmp_path / "work"),
                                 overrides={section: {key: value}})
        assert run_cli("pipeline", "--config", str(ini)) == 1
        assert f"[{section}] {key}" in capsys.readouterr().err
        assert not (tmp_path / "work").exists()


class TestGlobalFlags:
    def test_global_workdir_and_config(self, toy_files, tmp_path):
        ini = write_pipeline_ini(tmp_path / "p.ini", toy_files,
                                 str(tmp_path / "ignored"),
                                 overrides={"train": {"epochs": "1"},
                                            "finetune": {"epochs": "0"}})
        work = tmp_path / "global_work"
        assert run_cli("--config", str(ini), "--workdir", str(work),
                       "pipeline") == 0
        assert (work / "ckpt" / "averaged.tfrx").exists()
        assert not (tmp_path / "ignored").exists()


class TestPipelineAndTranslateCommands:
    def test_pipeline_then_translate(self, toy_files, tmp_path, capsys):
        work = str(tmp_path / "work")
        ini = write_pipeline_ini(tmp_path / "p.ini", toy_files, work,
                                 overrides={"train": {"epochs": "2"},
                                            "finetune": {"epochs": "1"}})
        assert run_cli("pipeline", "--config", str(ini)) == 0
        out = capsys.readouterr().out
        assert "BLEU" in out and "TER" in out

        # standalone translate against the pipeline's artifacts
        hyp = tmp_path / "hyp.txt"
        assert run_cli("translate",
                       "--checkpoint", os.path.join(work, "ckpt", "averaged.tfrx"),
                       "--input", os.path.join(work, "bpe", "indomain.src.bpe"),
                       "--word-vocab", os.path.join(work, "bpe", "word.vocab"),
                       "--bpe-vocab", os.path.join(work, "bpe", "bpe.vocab"),
                       "--output", str(hyp), "--beam", "2", "--max-len", "16") == 0
        lines = read_lines(str(hyp))
        assert len(lines) == len(read_lines(toy_files["indomain_source"]))

        # n-best emits rank/score/text rows
        assert run_cli("translate",
                       "--checkpoint", os.path.join(work, "ckpt", "averaged.tfrx"),
                       "--input", os.path.join(work, "bpe", "indomain.src.bpe"),
                       "--word-vocab", os.path.join(work, "bpe", "word.vocab"),
                       "--bpe-vocab", os.path.join(work, "bpe", "bpe.vocab"),
                       "--beam", "2", "--max-len", "8", "--nbest", "2") == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if line]
        parts = rows[0].split("\t")
        assert parts[0] == "1" and len(parts) == 3
        float(parts[1])

    def test_translate_with_preprocess(self, toy_files, tmp_path):
        work = str(tmp_path / "work")
        ini = write_pipeline_ini(tmp_path / "p.ini", toy_files, work,
                                 overrides={"train": {"epochs": "1"},
                                            "finetune": {"epochs": "0"}})
        assert run_cli("pipeline", "--config", str(ini)) == 0
        raw = tmp_path / "raw.txt"
        write_lines(str(raw), ["sa sb sc sd se ."])
        hyp = tmp_path / "hyp.txt"
        assert run_cli("translate",
                       "--checkpoint", os.path.join(work, "ckpt", "averaged.tfrx"),
                       "--input", str(raw), "--preprocess",
                       "--truecase-model", os.path.join(work, "corpus", "truecase.src.tsv"),
                       "--bpe-merges", os.path.join(work, "bpe", "merges.txt"),
                       "--word-vocab", os.path.join(work, "bpe", "word.vocab"),
                       "--bpe-vocab", os.path.join(work, "bpe", "bpe.vocab"),
                       "--output", str(hyp), "--beam", "2", "--max-len", "12") == 0
        assert len(read_lines(str(hyp))) == 1


class TestTranslateNbest:
    def test_nbest_ranks_hypotheses_of_a_short_position_limit(self, tmp_path,
                                                              capsys):
        # max_positions 6 is below the default --max-len of 256
        bpe = Vocab(["a</w>", "b</w>", "c", "d</w>", "e</w>", "f", "g</w>",
                     "h</w>", "i</w>", "j</w>"])
        words = Vocab(["a", "b", "cd", "e", "fg", "h"])
        cfg = ModelConfig(bpe_vocab_size=len(bpe), word_vocab_size=len(words),
                          n_layers_fw=1, n_layers_fs=1, n_layers_es=1,
                          n_layers_dec=1, d_model=8, d_ff=16, heads=2,
                          dropout=0.0, max_positions=6)
        ckpt_path = str(tmp_path / "m.tfrx")
        init_params(cfg, seed=3).save(ckpt_path)
        bpe.save(str(tmp_path / "bpe.vocab"))
        words.save(str(tmp_path / "word.vocab"))
        write_lines(str(tmp_path / "in.bpe"), ["a</w> c d</w>", "f g</w> e</w> h</w>"])
        common = ["translate", "--checkpoint", ckpt_path,
                  "--input", str(tmp_path / "in.bpe"),
                  "--word-vocab", str(tmp_path / "word.vocab"),
                  "--bpe-vocab", str(tmp_path / "bpe.vocab"), "--beam", "3"]
        assert run_cli(*common, "--output", str(tmp_path / "best.txt")) == 0
        assert run_cli(*common, "--nbest", "3") == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert [int(r[0]) for r in rows] == [1, 2, 3, 1, 2, 3]
        for first in (0, 3):
            scores = [float(r[1]) for r in rows[first:first + 3]]
            assert scores == sorted(scores, reverse=True)
        assert [rows[0][2], rows[3][2]] == read_lines(str(tmp_path / "best.txt"))

    def test_nan_output_layer_is_2_and_named(self, tmp_path, capsys):
        bpe = Vocab(["a</w>", "b</w>", "c"])
        words = Vocab(["a", "b"])
        cfg = ModelConfig(bpe_vocab_size=len(bpe), word_vocab_size=len(words),
                          n_layers_fw=1, n_layers_fs=1, n_layers_es=1,
                          n_layers_dec=1, d_model=8, d_ff=16, heads=2,
                          dropout=0.0, max_positions=6)
        ckpt = init_params(cfg, seed=3)
        ckpt.params["output/weight"].data[:] = np.nan
        ckpt.save(str(tmp_path / "m.tfrx"))
        bpe.save(str(tmp_path / "bpe.vocab"))
        words.save(str(tmp_path / "word.vocab"))
        write_lines(str(tmp_path / "in.bpe"), ["a</w> b</w>"])
        assert run_cli("translate", "--checkpoint", str(tmp_path / "m.tfrx"),
                       "--input", str(tmp_path / "in.bpe"),
                       "--word-vocab", str(tmp_path / "word.vocab"),
                       "--bpe-vocab", str(tmp_path / "bpe.vocab")) == 2
        assert "log-probabilities contain NaN" in capsys.readouterr().err

    @pytest.mark.parametrize("nbest", ["0", "-1"])
    def test_nbest_below_one_is_1_and_named(self, tmp_path, capsys, nbest):
        self._check_bad_flag(tmp_path, capsys, "--nbest", nbest)

    @pytest.mark.parametrize("flag, value", [
        ("--beam", "0"), ("--beam", "-2"), ("--max-len", "0"), ("--max-len", "-3"),
        ("--alpha", "nan"), ("--alpha", "inf"),
    ], ids=["zero_beam", "negative_beam", "zero_max_len", "negative_max_len",
            "nan_alpha", "inf_alpha"])
    def test_decode_flag_out_of_range_is_1_and_named(self, tmp_path, capsys,
                                                      flag, value):
        self._check_bad_flag(tmp_path, capsys, flag, value)

    @staticmethod
    def _check_bad_flag(tmp_path, capsys, flag, value):
        bpe = Vocab(["a</w>", "b</w>", "c"])
        words = Vocab(["a", "b"])
        cfg = ModelConfig(bpe_vocab_size=len(bpe), word_vocab_size=len(words),
                          n_layers_fw=1, n_layers_fs=1, n_layers_es=1,
                          n_layers_dec=1, d_model=8, d_ff=16, heads=2,
                          dropout=0.0, max_positions=6)
        init_params(cfg, seed=3).save(str(tmp_path / "m.tfrx"))
        bpe.save(str(tmp_path / "bpe.vocab"))
        words.save(str(tmp_path / "word.vocab"))
        write_lines(str(tmp_path / "in.bpe"), ["a</w> b</w>"])
        assert run_cli("translate", "--checkpoint", str(tmp_path / "m.tfrx"),
                       "--input", str(tmp_path / "in.bpe"),
                       "--word-vocab", str(tmp_path / "word.vocab"),
                       "--bpe-vocab", str(tmp_path / "bpe.vocab"),
                       "--output", str(tmp_path / "out.txt"), flag, value) == 1
        err = capsys.readouterr().err
        assert flag in err and not (tmp_path / "out.txt").exists()


class TestSelectErrors:
    @pytest.mark.parametrize("row, cause", [
        ("7\t0.1\t1.0\t1.0\t1.0\t1.0", "index 7"),
        ("1\t0.1\t1.0\t1.0", "4 columns"),
        ("1\tnan\t1.0\t1.0\t1.0\t1.0", "non-finite value"),
        ("1\t0.1\t1.0\tinf\t1.0\t1.0", "non-finite value"),
        ("1\t0.1\t1.0\t1.0\t1.0\t-inf", "non-finite value"),
    ], ids=["index_past_corpus", "columns", "nan", "inf", "minus_inf"])
    def test_misaligned_scores_are_2(self, tmp_path, capsys, row, cause):
        src = tmp_path / "g.src"
        trg = tmp_path / "g.trg"
        write_lines(str(src), ["a b", "c d", "e f"])
        write_lines(str(trg), ["p q", "r s", "t u"])
        scores = tmp_path / "scores.tsv"
        write_lines(str(scores), ["0\t0.0\t1.0\t1.0\t1.0\t1.0", row])
        assert run_cli("select", "--scores", str(scores), "--source", str(src),
                       "--target", str(trg), "--n-validation", "1",
                       "--n-select", "1",
                       "--out-prefix", str(tmp_path / "split")) == 2
        err = capsys.readouterr().err
        assert f"{scores} line 2" in err and cause in err

    def test_scores_missing_a_pair_are_2(self, tmp_path, capsys):
        src = tmp_path / "g.src"
        trg = tmp_path / "g.trg"
        write_lines(str(src), ["a b", "c d", "e f", "g h"])
        write_lines(str(trg), ["p q", "r s", "t u", "v w"])
        scores = tmp_path / "scores.tsv"
        write_lines(str(scores), [f"{i}\t0.{i}\t1.0\t1.0\t1.0\t1.0"
                                  for i in (0, 1)])
        assert run_cli("select", "--scores", str(scores), "--source", str(src),
                       "--target", str(trg), "--n-validation", "1",
                       "--n-select", "1",
                       "--out-prefix", str(tmp_path / "split")) == 2
        err = capsys.readouterr().err
        assert f"{scores}: 2 rows for a corpus of 4 pairs" in err
        assert not list(tmp_path.glob("split*"))

    def test_repeated_pair_index_is_2(self, tmp_path, capsys):
        src = tmp_path / "g.src"
        trg = tmp_path / "g.trg"
        write_lines(str(src), ["a b", "c d", "e f"])
        write_lines(str(trg), ["p q", "r s", "t u"])
        scores = tmp_path / "scores.tsv"
        write_lines(str(scores), [f"{i}\t0.{n}\t1.0\t1.0\t1.0\t1.0"
                                  for n, i in enumerate((0, 0, 1))])
        assert run_cli("select", "--scores", str(scores), "--source", str(src),
                       "--target", str(trg), "--n-validation", "1",
                       "--n-select", "1",
                       "--out-prefix", str(tmp_path / "split")) == 2
        err = capsys.readouterr().err
        assert f"{scores} line 2" in err and "index 0 also on line 1" in err
        assert not list(tmp_path.glob("split*"))


class TestModelFileErrors:
    def test_malformed_merge_line_is_2(self, tmp_path, capsys):
        merges = tmp_path / "merges.txt"
        write_lines(str(merges), ["# bpe merge table v1", "l o", "a b c"])
        corpus = tmp_path / "c.txt"
        write_lines(str(corpus), ["low"])
        assert run_cli("bpe-apply", "--merges", str(merges), "--input",
                       str(corpus), "--output", str(tmp_path / "out.txt")) == 2
        err = capsys.readouterr().err
        assert f"{merges} line 3" in err and "'a b c'" in err

    @pytest.mark.parametrize("text, cause", [
        ('{"order": 2, "vocab": ["a"]}', "no 'counts' key"),
        ("order 2\n", "not a language model"),
        ('{"order": 2, "vocab": ["a"], "counts": [[]]}', "1 levels"),
        ('{"order": 0, "vocab": ["<unk>", "</s>"], "counts": []}',
         "order must be an integer >= 1, got 0"),
        ('{"order": 1, "vocab": [], "counts": [[]]}', "vocabulary has no '<unk>'"),
        ('{"order": 1, "vocab": ["<unk>", "a"], "counts": [[]]}',
         "vocabulary has no '</s>'"),
        ('{"order": 1, "vocab": ["<unk>", "</s>", "a"], '
         '"counts": [[[[], [["a", -3], ["</s>", 2]]]]]}', "not a finite number >= 1"),
        ('{"order": 1, "vocab": ["<unk>", "</s>", "a"], '
         '"counts": [[[[], [["a", NaN]]]]]}', "not a finite number >= 1"),
        ('{"order": 2, "vocab": ["<unk>", "</s>", "a"], '
         '"counts": [[[[], [["a", 2]]]], [[["a", "a"], [["a", 2]]]]]}',
         "a level-1 context has 2 tokens, expected 1"),
        ('{"order": 1, "vocab": ["<unk>", "</s>", "a"], '
         '"counts": [[[[], [["a", 1%s]]]]]}' % ("0" * 400), "not a language model"),
        ('{"order": 1, "vocab": ["<unk>", "</s>", "a"], '
         '"counts": [[[[], [["a", 2], ["zz", 50]]]]]}',
         "level 0 counts a token outside the vocabulary"),
        ('{"order": 2, "vocab": ["<unk>", "</s>", "a"], '
         '"counts": [[[[], [["a", 2]]]], [[["zz"], [["a", 2]]]]]}',
         "a level-1 context holds a token outside the vocabulary"),
    ], ids=["no_counts", "not_json", "missing_level", "order_0", "empty_vocab",
            "no_eos", "negative_count", "nan_count", "context_length",
            "huge_count", "foreign_target", "foreign_context"])
    def test_malformed_language_model_is_2(self, tmp_path, capsys, text, cause):
        src = tmp_path / "g.src"
        trg = tmp_path / "g.trg"
        write_lines(str(src), ["a b", "a a"])
        write_lines(str(trg), ["b a", "b b"])
        good = tmp_path / "good.lm"
        assert run_cli("lm-train", "--input", str(src), "--model", str(good),
                       "--order", "2") == 0
        bad = tmp_path / "bad.lm"
        bad.write_text(text, encoding="utf-8")
        scores = tmp_path / "scores.tsv"
        assert run_cli("score", "--source", str(src), "--target", str(trg),
                       "--lm-in-source", str(good), "--lm-out-source", str(bad),
                       "--lm-in-target", str(good), "--lm-out-target", str(good),
                       "--output", str(scores)) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and cause in err
        assert not scores.exists()

    @pytest.mark.parametrize("row", ["praha\tPraha", "praha\tPraha\tmany"],
                             ids=["two_fields", "count_not_int"])
    def test_malformed_truecase_model_is_2(self, tmp_path, capsys, row):
        model = tmp_path / "tc.tsv"
        write_lines(str(model), ["a\tA\t2", row])
        inp = tmp_path / "in.txt"
        write_lines(str(inp), ["praha je"])
        out = tmp_path / "out.txt"
        assert run_cli("truecase", "--input", str(inp), "--model", str(model),
                       "--output", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{model} line 2" in err and repr(row) in err
        assert not out.exists()


class TestInputFileErrors:
    @pytest.mark.parametrize("command, flags", [
        ("normalize", ["--input", "{missing}", "--output", "{out}"]),
        ("bpe-apply", ["--merges", "{missing}", "--input", "{out}",
                       "--output", "{out}.bpe"]),
        ("score", ["--source", "{out}", "--target", "{out}",
                   "--lm-in-source", "{missing}", "--lm-out-source", "{missing}",
                   "--lm-in-target", "{missing}", "--lm-out-target", "{missing}",
                   "--output", "{out}.tsv"]),
    ], ids=["normalize", "bpe-apply-merges", "score-lm"])
    def test_missing_input_is_2_and_named(self, tmp_path, capsys, command,
                                          flags):
        missing = tmp_path / "absent.txt"
        out = tmp_path / "out.txt"
        write_lines(str(out), ["a b"])
        assert run_cli(command, *(f.format(missing=missing, out=out)
                                  for f in flags)) == 2
        err = capsys.readouterr().err
        assert str(missing) in err and "No such file" in err

    @pytest.mark.parametrize("command, flags", [
        ("tokenize", ["--input", "{bad}", "--output", "{out}"]),
        ("bpe-learn", ["--inputs", "{bad}", "--output", "{out}"]),
    ], ids=["tokenize", "bpe-learn"])
    def test_non_utf8_input_is_2_and_named(self, tmp_path, capsys, command,
                                           flags):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"ahoj \xff svete\n")
        out = tmp_path / "out.txt"
        assert run_cli(command, *(f.format(bad=bad, out=out)
                                  for f in flags)) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "not UTF-8" in err
        assert not out.exists()

    def test_stage_names_an_unreadable_input(self, toy_files, tmp_path, capsys):
        with open(toy_files["general_source"], "ab") as fh:
            fh.write(b"\xff\n")
        ini = write_pipeline_ini(tmp_path / "p.ini", toy_files,
                                 str(tmp_path / "work"))
        assert run_cli("pipeline", "--config", ini) == 2
        err = capsys.readouterr().err
        assert "stage 'clean'" in err and toy_files["general_source"] in err


class TestOutputFileErrors:
    @pytest.mark.parametrize("command, flags", [
        ("normalize", ["--input", "{inp}", "--output", "{out}"]),
        ("truecase-train", ["--input", "{inp}", "--model", "{out}"]),
        ("bpe-learn", ["--inputs", "{inp}", "--vocab-size", "30",
                       "--output", "{out}"]),
        ("lm-train", ["--input", "{inp}", "--model", "{out}"]),
        ("score", ["--source", "{inp}", "--target", "{inp}",
                   "--lm-in-source", "{lm}", "--lm-out-source", "{lm}",
                   "--lm-in-target", "{lm}", "--lm-out-target", "{lm}",
                   "--output", "{out}"]),
        ("evaluate", ["--hyp", "{inp}", "--ref", "{inp}", "--json", "{out}"]),
    ], ids=["normalize", "truecase-train", "bpe-learn", "lm-train", "score",
            "evaluate-json"])
    def test_missing_output_directory_is_2_and_named(self, tmp_path, capsys,
                                                     command, flags):
        inp = tmp_path / "in.txt"
        write_lines(str(inp), ["Praha je hezka", "a b a b"])
        lm = tmp_path / "in.lm"
        assert run_cli("lm-train", "--input", str(inp), "--model", str(lm)) == 0
        out = tmp_path / "nodir" / "out.txt"
        assert run_cli(command, *(f.format(inp=inp, lm=lm, out=out)
                                  for f in flags)) == 2
        err = capsys.readouterr().err
        assert f"{out}: cannot write" in err and "No such file" in err


class TestTrainingCommands:
    """CLI ``train`` / ``finetune`` on the pipeline's own artifacts."""

    @pytest.fixture(scope="class")
    def pipeline_work(self, toy_world, tmp_path_factory):
        root = tmp_path_factory.mktemp("train_cli")
        files = write_world(toy_world, root)
        ini = write_pipeline_ini(root / "p.ini", files, str(root / "work"),
                                 overrides={"finetune": {"epochs": "0"}})
        assert run_cli("pipeline", "--config", ini) == 0
        return root, ini

    @staticmethod
    def data_flags(work, split, prefix=""):
        return [f"--{prefix}source-bpe", os.path.join(work, "bpe", f"{split}.src.bpe"),
                f"--{prefix}target-bpe", os.path.join(work, "bpe", f"{split}.trg.bpe")]

    def common(self, work, split):
        return (self.data_flags(work, split)
                + self.data_flags(work, "validation", prefix="val-")
                + ["--word-vocab", os.path.join(work, "bpe", "word.vocab"),
                   "--bpe-vocab", os.path.join(work, "bpe", "bpe.vocab")])

    def test_train_reproduces_the_pipeline_checkpoint(self, pipeline_work,
                                                      tmp_path):
        root, ini = pipeline_work
        work = str(root / "work")
        ckpt = tmp_path / "ckpt"
        assert run_cli("train", "--config", ini, *self.common(work, "sorted_all"),
                       "--ckpt-dir", str(ckpt)) == 0
        for name in ("averaged.tfrx", "averaged.json"):
            assert ((ckpt / name).read_bytes()
                    == (root / "work" / "ckpt" / name).read_bytes()), name

    def test_stage_commands_reproduce_the_pipeline_files(self, pipeline_work,
                                                        tmp_path, capsys):
        # clean, truecase, bpe and evaluate run the same functions as the
        # pipeline's stages, so they write the pipeline's bytes
        root, ini = pipeline_work
        work = root / "work"
        clean = TOY_PIPELINE_SETTINGS["clean"]
        commands = [
            *[("normalize", "--input", root / f"general.{side}",
               "--output", tmp_path / f"norm.{side}") for side in ("src", "trg")],
            *[("tokenize", "--input", tmp_path / f"norm.{side}",
               "--output", tmp_path / f"tok.{side}") for side in ("src", "trg")],
            ("clean", "--source", tmp_path / "tok.src",
             "--target", tmp_path / "tok.trg",
             "--out-source", tmp_path / "general.src",
             "--out-target", tmp_path / "general.trg",
             "--min-tokens", clean["min_tokens"],
             "--max-tokens", clean["max_tokens"],
             "--max-ratio", clean["max_ratio"]),
            ("truecase-train", "--input", work / "corpus" / "general.src",
             "--model", tmp_path / "tc.src.tsv"),
            ("truecase", "--input", work / "corpus" / "general.src",
             "--model", tmp_path / "tc.src.tsv",
             "--output", tmp_path / "general.src.tc"),
            ("bpe-learn", "--inputs", work / "corpus" / "general.src.tc",
             work / "corpus" / "general.trg.tc",
             "--vocab-size", TOY_PIPELINE_SETTINGS["bpe"]["vocab_size"],
             "--output", tmp_path / "merges.txt"),
            ("bpe-apply", "--merges", tmp_path / "merges.txt",
             "--input", work / "select" / "validation.src",
             "--output", tmp_path / "validation.src.bpe"),
            ("evaluate", "--hyp", work / "out" / "hypotheses.txt",
             "--ref", root / "dev.trg", "--json", tmp_path / "report.json"),
        ]
        capsys.readouterr()
        for command in commands:
            assert run_cli(*map(str, command)) == 0, command[0]
        # clean is the first command that prints
        assert (capsys.readouterr().out.splitlines()[0]
                == (work / "corpus" / "clean_report.json").read_text())
        for mine, theirs in [
                ("general.src", work / "corpus" / "general.src"),
                ("general.trg", work / "corpus" / "general.trg"),
                ("tc.src.tsv", work / "corpus" / "truecase.src.tsv"),
                ("general.src.tc", work / "corpus" / "general.src.tc"),
                ("merges.txt", work / "bpe" / "merges.txt"),
                ("validation.src.bpe", work / "bpe" / "validation.src.bpe"),
                ("report.json", work / "out" / "report.json")]:
            assert ((tmp_path / mine).read_bytes()
                    == theirs.read_bytes()), theirs.name

    def test_finetune_from_init_writes_an_average(self, pipeline_work,
                                                  tmp_path):
        root, ini = pipeline_work
        work = str(root / "work")
        init = os.path.join(work, "ckpt", "averaged.tfrx")
        ckpt = tmp_path / "ft"
        assert run_cli("finetune", "--config", ini, *self.common(work, "selected"),
                       "--ckpt-dir", str(ckpt), "--init", init,
                       "--epochs", "1") == 0
        tuned = Checkpoint.load(str(ckpt / "averaged.tfrx"))
        start = Checkpoint.load(init)
        assert tuned.step > start.step
        assert sorted(p.name for p in ckpt.glob("epoch_*.tfrx")) == ["epoch_1.tfrx"]

    def test_word_ids_are_the_word_files(self, pipeline_work):
        # the first encoder's words, derived from the segmented source,
        # are the truecased tokens the segmentation was made from
        work = pipeline_work[0] / "work"
        word_vocab = Vocab.load(str(work / "bpe" / "word.vocab"))
        bpe_vocab = Vocab.load(str(work / "bpe" / "bpe.vocab"))

        def encoded(path):
            return [word_vocab.encode(line.split()) for line in read_lines(str(path))]

        for split in ("sorted_all", "selected", "validation"):
            pairs = prepare_pairs(word_vocab, bpe_vocab,
                                  str(work / "bpe" / f"{split}.src.bpe"),
                                  str(work / "bpe" / f"{split}.trg.bpe"))
            want = encoded(work / "select" / f"{split}.src")
            assert [list(p.word_ids) for p in pairs] == want, split
            assert all(UNK_ID not in ids for ids in want)
        subs = [line.split() for line
                in read_lines(str(work / "bpe" / "indomain.src.bpe"))]
        batch = source_batch(word_vocab, bpe_vocab, subs)
        assert ([row[~pad].tolist() for row, pad in zip(batch.f_w, batch.f_w_pad)]
                == encoded(work / "corpus" / "indomain.src.tc"))

    def test_misaligned_training_files_are_2(self, pipeline_work, tmp_path,
                                             capsys):
        root, ini = pipeline_work
        work = str(root / "work")
        src = tmp_path / "s.bpe"
        trg = tmp_path / "t.bpe"
        write_lines(str(src), ["sa</w> .</w>", "sb</w> .</w>", "sc</w> .</w>"])
        write_lines(str(trg), ["ta</w> .</w>", "tb</w> .</w>"])
        common = self.common(work, "sorted_all")
        common[1], common[3] = str(src), str(trg)   # --source-bpe, --target-bpe
        ckpt = tmp_path / "ckpt"
        assert run_cli("train", "--config", ini, *common,
                       "--ckpt-dir", str(ckpt)) == 2
        err = capsys.readouterr().err
        assert "line counts differ" in err and str(src) in err and str(trg) in err
        assert not (ckpt / "averaged.tfrx").exists()

    def test_source_words_flag_is_gone(self, pipeline_work, tmp_path, capsys):
        root, ini = pipeline_work
        work = str(root / "work")
        assert run_cli("train", "--config", ini, *self.common(work, "selected"),
                       "--source-words", os.path.join(work, "select", "selected.src"),
                       "--ckpt-dir", str(tmp_path / "ckpt")) == 1
        assert "--source-words" in capsys.readouterr().err

    def test_unwritable_loss_log_is_2_and_named(self, pipeline_work, tmp_path,
                                                capsys):
        root, ini = pipeline_work
        log = tmp_path / "nodir" / "log.csv"
        assert run_cli("train", "--config", ini,
                       *self.common(str(root / "work"), "selected"),
                       "--ckpt-dir", str(tmp_path / "ckpt"), "--epochs", "1",
                       "--log", str(log)) == 2
        err = capsys.readouterr().err
        assert f"{log}: cannot write" in err and "No such file" in err

    def test_checkpoint_directory_that_is_a_file_is_2_and_named(
            self, pipeline_work, tmp_path, capsys):
        root, ini = pipeline_work
        ckpt = tmp_path / "ckpt"
        ckpt.write_text("not a directory\n")
        assert run_cli("train", "--config", ini,
                       *self.common(str(root / "work"), "selected"),
                       "--ckpt-dir", str(ckpt)) == 2
        err = capsys.readouterr().err
        assert f"{ckpt}: cannot create" in err and "File exists" in err

    def test_finetune_without_init_is_1(self, pipeline_work, tmp_path, capsys):
        root, ini = pipeline_work
        assert run_cli("finetune", "--config", ini,
                       *self.common(str(root / "work"), "selected"),
                       "--ckpt-dir", str(tmp_path / "ft")) == 1
        assert "--init" in capsys.readouterr().err
