"""End-to-end pipeline: smoke run, manifest-based resumption, input
tampering, and failure surfacing."""

import dataclasses
import json
import os
from pathlib import Path

import pytest

from transference import ngram
from transference.errors import ConfigError, StageError
from transference.pipeline import (DATA_KEYS, load_pipeline_config,
                                   run_pipeline)
from transference.corpus import read_lines

from conftest import write_pipeline_ini, write_world


def small_overrides(**extra):
    # keep the smoke tests quick; determinism gets the full settings
    base = {"train": {"epochs": "2"}, "finetune": {"epochs": "1"},
            "select": {"n_validation": "8", "n_select": "60"}}
    base.update(extra)
    return base


def _both(pattern):
    return [pattern.format(side) for side in ("src", "trg")]


_DATA = ["[data] general_source", "[data] general_target",
         "[data] indomain_source", "[data] indomain_target"]
_TC = _both("corpus/general.{}.tc") + _both("corpus/indomain.{}.tc")
_SPLITS = [p for name in ("validation", "selected", "sorted_all")
           for p in _both(f"select/{name}.{{}}")]
_VOCABS = ["bpe/word.vocab", "bpe/bpe.vocab"]
_TRAIN_BPE = [p for name in ("sorted_all", "selected", "validation")
              for p in _both(f"bpe/{name}.{{}}.bpe")]

# stage -> (inputs, sorted params keys, outputs), paths relative to the
# work directory
MANIFEST_FILES = {
    "clean": (_DATA, ["max_ratio", "max_tokens", "min_tokens"],
              _both("corpus/general.{}") + _both("corpus/indomain.{}")
              + ["corpus/clean_report.json"]),
    "truecase": (_both("corpus/general.{}") + _both("corpus/indomain.{}"), [],
                 _both("corpus/truecase.{}.tsv") + _TC),
    "lm_train": (_TC, ["order"],
                 _both("lm/in_domain.{}.json") + _both("lm/out_domain.{}.json")),
    "score": (_both("corpus/general.{}.tc") + _both("lm/in_domain.{}.json")
              + _both("lm/out_domain.{}.json"), [], ["select/scores.tsv"]),
    "select": (["select/scores.tsv"] + _both("corpus/general.{}.tc"),
               ["n_select", "n_validation"], _SPLITS),
    "bpe": (_TC + _SPLITS, ["vocab_size", "word_vocab"],
            ["bpe/merges.txt"] + _VOCABS + _TRAIN_BPE
            + _both("bpe/indomain.{}.bpe")),
    "train": (_VOCABS + _TRAIN_BPE, ["finetune", "generic", "model", "seed"],
              ["ckpt/averaged.tfrx", "ckpt/loss_log.csv"]),
    "translate": (["ckpt/averaged.tfrx", "bpe/indomain.src.bpe"] + _VOCABS,
                  ["beam", "length_alpha", "max_len"],
                  ["out/hypotheses.bpe"]),
    "postprocess": (["out/hypotheses.bpe"], [], ["out/hypotheses.txt"]),
    "evaluate": (["out/hypotheses.txt", "[data] indomain_target"], [],
                 ["out/report.json"]),
}


@pytest.fixture()
def toy_config(toy_files, tmp_path):
    ini = write_pipeline_ini(tmp_path / "pipeline.ini", toy_files,
                             str(tmp_path / "work"),
                             overrides=small_overrides())
    return ini


class TestRunPipeline:
    def test_end_to_end_smoke(self, toy_config):
        cfg = load_pipeline_config(toy_config)
        workdir, report = run_pipeline(cfg)
        assert os.path.exists(os.path.join(workdir, "ckpt", "averaged.tfrx"))
        assert os.path.exists(os.path.join(workdir, "out", "hypotheses.txt"))
        assert 0.0 <= report.bleu <= 100.0
        assert report.ter >= 0.0
        assert report.sentences == 48
        hyp_lines = read_lines(os.path.join(workdir, "out", "hypotheses.txt"))
        assert len(hyp_lines) == 48

    def test_rerun_skips_every_stage(self, toy_config, capsys):
        cfg = load_pipeline_config(toy_config)
        run_pipeline(cfg)
        capsys.readouterr()
        _, report = run_pipeline(cfg, verbose=True)
        out = capsys.readouterr().out
        assert "running" not in out
        skipped = [line for line in out.splitlines() if "skipped" in line]
        assert len(skipped) == 10  # every stage has a manifest hit
        assert report.sentences == 48

    def test_tampering_input_forces_downstream_rerun(self, toy_config, capsys):
        cfg = load_pipeline_config(toy_config)
        run_pipeline(cfg)
        # tamper with a primary input: swap two source words
        lines = read_lines(cfg.general_source)
        lines[0] = " ".join(reversed(lines[0].split()))
        with open(cfg.general_source, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        capsys.readouterr()
        run_pipeline(cfg, verbose=True)
        out = capsys.readouterr().out
        for stage in ("clean", "truecase", "lm_train", "score", "select",
                      "bpe", "train", "translate"):
            assert f"{stage}: running" in out, stage

    def test_tampered_intermediate_is_regenerated(self, toy_config, capsys):
        # an output hash mismatch re-runs the producing stage; because
        # regeneration is deterministic, the restored bytes let every
        # consumer skip again
        cfg = load_pipeline_config(toy_config)
        workdir, _ = run_pipeline(cfg)
        scores = os.path.join(workdir, "select", "scores.tsv")
        original = Path(scores).read_bytes()
        lines = read_lines(scores)
        with open(scores, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines[::-1]) + "\n")
        capsys.readouterr()
        run_pipeline(cfg, verbose=True)
        out = capsys.readouterr().out
        assert "score: running" in out
        assert "select: up to date, skipped" in out
        assert Path(scores).read_bytes() == original

    def test_truncated_manifest_reruns_its_stage(self, toy_config, capsys):
        # a crash while a manifest is written leaves partial JSON; the
        # next run treats it as stale and reruns that stage
        cfg = load_pipeline_config(toy_config)
        workdir, _ = run_pipeline(cfg)
        report = Path(workdir, "out", "report.json").read_bytes()
        Path(workdir, "manifests", "score.json").write_text('{"inputs": {"in.txt"')
        capsys.readouterr()
        run_pipeline(cfg, verbose=True)
        out = capsys.readouterr().out
        assert "score: running" in out
        assert "select: up to date, skipped" in out
        json.loads(Path(workdir, "manifests", "score.json").read_text())
        assert Path(workdir, "out", "report.json").read_bytes() == report

    def test_manifests_hash_each_stage_files(self, toy_config):
        # a stage that stopped hashing a file it reads would skip stale
        # data on a rerun without failing anything else
        cfg = load_pipeline_config(toy_config)
        workdir, _ = run_pipeline(cfg)
        data = {getattr(cfg, key): f"[data] {key}" for key in DATA_KEYS}

        def names(paths):
            return sorted(data.get(p) or os.path.relpath(p, workdir)
                          for p in paths)

        for stage, (inputs, params, outputs) in MANIFEST_FILES.items():
            manifest = json.loads(
                Path(workdir, "manifests", f"{stage}.json").read_text())
            assert names(manifest["inputs"]) == sorted(inputs), stage
            assert sorted(json.loads(manifest["params"])) == params, stage
            assert names(manifest["outputs"]) == sorted(outputs), stage
        assert (sorted(os.listdir(Path(workdir, "manifests")))
                == sorted(f"{stage}.json" for stage in MANIFEST_FILES))

    def test_validation_bigger_than_corpus_fails_at_select(self, toy_files,
                                                           tmp_path):
        ini = write_pipeline_ini(
            tmp_path / "bad.ini", toy_files, str(tmp_path / "work"),
            overrides=small_overrides(
                select={"n_validation": "100000", "n_select": "10"}))
        cfg = load_pipeline_config(ini)
        with pytest.raises(StageError, match="select") as err:
            run_pipeline(cfg)
        assert isinstance(err.value.cause, ConfigError)

    def test_score_stage_calls_score_pair_once_per_pair(self, toy_files,
                                                        tmp_path, monkeypatch):
        # the benchmark's traced run times the score stage by wrapping
        # ngram.score_pair; a validation block larger than the corpus
        # stops the run at select, right after score
        calls = []
        score_pair = ngram.score_pair
        monkeypatch.setattr(ngram, "score_pair", lambda pair, *lms: (
            calls.append(pair.original_index) or score_pair(pair, *lms)))
        ini = write_pipeline_ini(
            tmp_path / "p.ini", toy_files, str(tmp_path / "work"),
            overrides=small_overrides(select={"n_validation": "100000"}))
        with pytest.raises(StageError, match="select"):
            run_pipeline(load_pipeline_config(ini))
        pairs = read_lines(str(tmp_path / "work" / "corpus" / "general.src.tc"))
        assert sorted(calls) == list(range(len(pairs))) and len(pairs) > 100

    @pytest.mark.parametrize("line, cause", [
        ("", "source sentence 5 is empty"),
        (" ".join(["sa"] * 40) + " .", "the model takes at most 33"),
    ], ids=["empty", "too_long"])
    def test_undecodable_source_fails_before_training(self, toy_world,
                                                      tmp_path, line, cause):
        dev_src = list(toy_world.dev_src)
        dev_src[5] = line
        files = write_world(dataclasses.replace(toy_world, dev_src=dev_src),
                            tmp_path)
        ini = write_pipeline_ini(tmp_path / "p.ini", files,
                                 str(tmp_path / "work"),
                                 overrides=small_overrides())
        with pytest.raises(StageError, match=cause) as info:
            run_pipeline(load_pipeline_config(ini))
        assert info.value.stage == "translate"
        assert not (tmp_path / "work" / "ckpt" / "averaged.tfrx").exists()

    def test_missing_input_rejected_before_any_stage(self, toy_files, tmp_path):
        toy_files = dict(toy_files, general_source=str(tmp_path / "missing.src"))
        ini = write_pipeline_ini(tmp_path / "cfg.ini", toy_files,
                                 str(tmp_path / "work"))
        cfg = load_pipeline_config(ini)
        with pytest.raises(ConfigError, match="not found"):
            run_pipeline(cfg)

    def test_workdir_lock_rejects_concurrent_use(self, toy_config, tmp_path):
        import fcntl
        cfg = load_pipeline_config(toy_config)
        os.makedirs(cfg.workdir, exist_ok=True)
        holder = open(os.path.join(cfg.workdir, ".lock"), "w")
        fcntl.flock(holder, fcntl.LOCK_EX)
        try:
            with pytest.raises(ConfigError, match="locked"):
                run_pipeline(cfg)
        finally:
            fcntl.flock(holder, fcntl.LOCK_UN)
            holder.close()


class TestConfigLoading:
    def test_workdir_env_override(self, toy_files, tmp_path, monkeypatch):
        ini = write_pipeline_ini(tmp_path / "cfg.ini", toy_files,
                                 str(tmp_path / "work"))
        monkeypatch.setenv("TRANSFERENCE_WORKDIR", str(tmp_path / "env_work"))
        cfg = load_pipeline_config(ini)
        assert cfg.workdir == str(tmp_path / "env_work")
        # explicit flag beats the environment
        cfg = load_pipeline_config(ini, workdir_override=str(tmp_path / "flag"))
        assert cfg.workdir == str(tmp_path / "flag")

    def test_missing_config_file(self):
        with pytest.raises(ConfigError):
            load_pipeline_config("/nonexistent/pipeline.ini")

    def test_settings_parsed(self, toy_files, tmp_path):
        ini = write_pipeline_ini(tmp_path / "cfg.ini", toy_files,
                                 str(tmp_path / "work"))
        cfg = load_pipeline_config(ini)
        assert cfg.n_validation == 8
        assert cfg.bpe_vocab == 90
        assert cfg.model.d_model == 32
        assert cfg.train_generic.epochs == 8
        assert cfg.train_finetune.epochs == 6
        assert cfg.train_finetune.batch_tokens == 640  # inherited from [train]
        assert cfg.seed == 11

    def test_artifact_layout(self, toy_config):
        cfg = load_pipeline_config(toy_config)
        workdir, _ = run_pipeline(cfg)
        for rel in ("corpus/general.src.tc", "select/scores.tsv",
                    "select/validation.src", "select/selected.src",
                    "select/sorted_all.src", "bpe/merges.txt",
                    "bpe/bpe.vocab", "bpe/word.vocab",
                    "ckpt/epoch_1.tfrx", "ckpt/loss_log.csv",
                    "out/report.json", "manifests/train.json"):
            assert os.path.exists(os.path.join(workdir, rel)), rel
        report = json.loads(Path(workdir, "out", "report.json").read_text())
        assert set(report) >= {"bleu", "ter", "precisions"}
