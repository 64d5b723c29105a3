"""The config table: the README example, [finetune] inheritance, the
seed, and configs without [data]."""

import pathlib
import re

import pytest

from transference.cli import main
from transference.errors import ConfigError
from transference.pipeline import load_pipeline_config, run_pipeline

from conftest import write_pipeline_ini

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def write_ini(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_readme_example_parses(tmp_path, monkeypatch):
    monkeypatch.delenv("TRANSFERENCE_WORKDIR", raising=False)
    block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"),
                      re.S).group(1)
    cfg = load_pipeline_config(write_ini(tmp_path / "readme.ini", block))
    assert cfg.general_source == "corpus/general.cs"
    assert cfg.workdir == "work"
    assert cfg.model.d_model == 512 and cfg.model.n_layers_dec == 6
    assert cfg.bpe_vocab == 28000
    assert (cfg.n_validation, cfg.n_select) == (1000, 500000)
    assert cfg.word_vocab == 50000
    assert cfg.train_generic.epochs == 30
    assert cfg.train_finetune.epochs == 10
    assert cfg.train_generic.grad_clip == cfg.train_finetune.grad_clip == 5.0
    assert cfg.length_alpha == 1.0 and cfg.seed == 1


def test_finetune_inherits_every_key_but_epochs(tmp_path):
    ini = write_ini(tmp_path / "c.ini", "[train]\nepochs = 3\nbatch_tokens = 99\n"
                    "grad_clip = none  # no guard\n[pipeline]\nseed = 5\n")
    cfg = load_pipeline_config(ini)
    assert (cfg.train_generic.epochs, cfg.train_finetune.epochs) == (3, 10)
    assert cfg.train_finetune.batch_tokens == 99
    assert cfg.train_finetune.grad_clip is None
    assert cfg.train_generic.seed == cfg.train_finetune.seed == cfg.seed == 5
    cfg = load_pipeline_config(ini, seed_override=8)
    assert cfg.train_generic.seed == cfg.train_finetune.seed == cfg.seed == 8


def test_no_file_gives_the_dataclass_defaults():
    cfg = load_pipeline_config(None)
    assert cfg.model.d_model == 512 and cfg.train_generic.epochs == 30
    assert cfg.train_finetune.epochs == 10 and cfg.seed == 1


def test_invalid_value_is_named_by_section(tmp_path):
    ini = write_ini(tmp_path / "c.ini", "[model]\nd_model = 30\nheads = 4\n")
    with pytest.raises(ConfigError, match=r"\[model\] d_model 30 not divisible"):
        load_pipeline_config(ini)


def test_malformed_ini_is_a_config_error(tmp_path):
    ini = write_ini(tmp_path / "c.ini", "epochs = 3\n")
    with pytest.raises(ConfigError, match="section"):
        load_pipeline_config(ini)


def test_data_is_required_only_to_run_the_pipeline(tmp_path, capsys):
    ini = write_ini(tmp_path / "c.ini", "[model]\nd_model = 16\n")
    cfg = load_pipeline_config(ini)
    assert cfg.model.d_model == 16
    with pytest.raises(ConfigError, match=r"\[data\] entry: 'general_source'"):
        run_pipeline(cfg)
    assert main(["pipeline", "--config", ini]) == 1
    assert "[data]" in capsys.readouterr().err


def test_misspelled_section_is_a_config_error(tmp_path, capsys):
    ini = write_ini(tmp_path / "c.ini", "[train]\nepochs = 2\n[fintune]\nepochs = 0\n")
    with pytest.raises(ConfigError, match=r"\[fintune\]"):
        load_pipeline_config(ini)
    assert main(["pipeline", "--config", ini]) == 1
    assert "[fintune]" in capsys.readouterr().err


def test_negative_n_select_fails_before_the_first_stage(toy_files, tmp_path, capsys):
    work = tmp_path / "work"
    ini = write_pipeline_ini(tmp_path / "c.ini", toy_files, str(work),
                             {"select": {"n_select": -3}})
    assert main(["pipeline", "--config", ini]) == 1
    assert "n_select must be >= 0" in capsys.readouterr().err
    assert not work.exists()


@pytest.mark.parametrize("clean, message", [
    ({"min_tokens": 12, "max_tokens": 3},
     "[clean] min_tokens must be <= [clean] max_tokens, got 12 > 3"),
    ({"min_tokens": 0, "max_tokens": 0}, "[clean] max_tokens must be >= 1, got 0"),
    ({"max_ratio": 0.5}, "[clean] max_ratio must be >= 1, got 0.5"),
    ({"max_ratio": "nan"}, "[clean] max_ratio must be >= 1, got nan")])
def test_clean_limits_no_pair_meets_fail_before_the_first_stage(
        toy_files, tmp_path, capsys, clean, message):
    work = tmp_path / "work"
    ini = write_pipeline_ini(tmp_path / "c.ini", toy_files, str(work),
                             {"clean": clean})
    assert main(["pipeline", "--config", ini]) == 1
    assert message in capsys.readouterr().err
    assert not work.exists()


def test_order_above_bound_fails_before_the_first_stage(toy_files, tmp_path,
                                                        capsys):
    work = tmp_path / "work"
    ini = write_pipeline_ini(tmp_path / "c.ini", toy_files, str(work),
                             {"lm": {"order": 11}})
    assert main(["pipeline", "--config", ini]) == 1
    assert "[lm] order must be <= 10, got 11" in capsys.readouterr().err
    assert not work.exists()
