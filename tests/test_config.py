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
    assert "[lm] order must be from 1 to 10, got 11" in capsys.readouterr().err
    assert not work.exists()


# Every range-checked key that fills a PipelineConfig field: the field,
# a value out of range, and the commands whose flag sets the same value
# ("--seed pipeline" is the global flag before the command).
RANGES = [
    ("pipeline", "seed", "seed", "-1",
     ["--seed pipeline", "pipeline --seed", "train --seed", "finetune --seed"]),
    ("clean", "max_tokens", "max_tokens", "0", ["clean --max-tokens"]),
    ("clean", "max_ratio", "max_ratio", "0.5", ["clean --max-ratio"]),
    ("clean", "max_ratio", "max_ratio", "nan", ["clean --max-ratio"]),
    ("lm", "order", "lm_order", "0", ["lm-train --order"]),
    ("lm", "order", "lm_order", "11", ["lm-train --order"]),
    ("select", "n_validation", "n_validation", "0", []),
    ("select", "n_select", "n_select", "-1", []),
    ("bpe", "vocab_size", "bpe_vocab", "0", ["bpe-learn --vocab-size"]),
    ("bpe", "vocab_size", "bpe_vocab", "-5", ["bpe-learn --vocab-size"]),
    ("model", "word_vocab_size", "word_vocab", "0", []),
    ("decode", "beam", "beam", "0", ["translate --beam"]),
    ("decode", "max_len", "decode_max_len", "0", ["translate --max-len"]),
    ("decode", "length_alpha", "length_alpha", "nan", ["translate --alpha"]),
    ("decode", "length_alpha", "length_alpha", "inf", ["translate --alpha"]),
]
RANGE_IDS = [f"{section}.{key}={value}" for section, key, _, value, _ in RANGES]

# each command's other arguments; OUT is the file or directory it writes
TRAINING = ["--source-bpe", "s", "--target-bpe", "t", "--val-source-bpe", "vs",
            "--val-target-bpe", "vt", "--word-vocab", "w", "--bpe-vocab", "b",
            "--ckpt-dir", "OUT"]
COMMANDS = {
    "pipeline": ["pipeline", "--config", "c.ini", "--workdir", "OUT"],
    "train": ["train", *TRAINING],
    "finetune": ["finetune", *TRAINING, "--init", "m.tfrx"],
    "clean": ["clean", "--source", "s", "--target", "t", "--out-source", "OUT",
              "--out-target", "OUT"],
    "lm-train": ["lm-train", "--input", "c.txt", "--model", "OUT"],
    "bpe-learn": ["bpe-learn", "--inputs", "c.txt", "--output", "OUT"],
    "translate": ["translate", "--checkpoint", "m.tfrx", "--input", "s",
                  "--word-vocab", "w", "--bpe-vocab", "b", "--output", "OUT"],
}


@pytest.mark.parametrize("section, key, field, value, flags", RANGES,
                         ids=RANGE_IDS)
def test_out_of_range_key_fails_before_the_first_stage(
        toy_files, tmp_path, capsys, section, key, field, value, flags):
    work = tmp_path / "work"
    ini = write_pipeline_ini(tmp_path / "c.ini", toy_files, str(work),
                             {section: {key: value}})
    assert main(["pipeline", "--config", ini]) == 1
    err = capsys.readouterr().err
    assert f"usage error: [{section}] {key} must be " in err
    assert err.endswith(f", got {value}\n")
    assert not work.exists()


@pytest.mark.parametrize("section, key, field, value, flags", RANGES,
                         ids=RANGE_IDS)
def test_out_of_range_value_set_in_python_fails_before_the_first_stage(
        toy_files, tmp_path, section, key, field, value, flags):
    work = tmp_path / "work"
    cfg = load_pipeline_config(write_pipeline_ini(tmp_path / "c.ini", toy_files,
                                                  str(work)))
    setattr(cfg, field, type(getattr(cfg, field))(value))
    with pytest.raises(ConfigError,
                       match=rf"^\[{section}\] {key} must be .*, got {value}$"):
        run_pipeline(cfg)
    assert not work.exists()


@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value) for _, _, _, value, flags in RANGES
    for command, flag in (f.split() for f in flags)])
def test_out_of_range_flag_is_1_and_named(tmp_path, capsys, command, flag,
                                          value):
    out = tmp_path / "out"
    if command.startswith("--"):  # the global flag
        command, flag = flag, command
        argv = [flag, value, *COMMANDS[command]]
    else:
        argv = [*COMMANDS[command], flag, value]
    assert main([str(out) if arg == "OUT" else arg for arg in argv]) == 1
    err = capsys.readouterr().err
    assert f"usage error: argument {flag}: must be " in err
    assert err.endswith(f", got {value}\n")
    assert not out.exists()


@pytest.mark.parametrize("field, key, value", [
    ("beam", "beam", 2.5), ("seed", "seed", True), ("max_tokens", "max_tokens", "x"),
    ("length_alpha", "length_alpha", None), ("bpe_vocab", "vocab_size", 1e3)])
def test_wrong_type_set_in_python_is_a_config_error(toy_files, tmp_path, field,
                                                    key, value):
    cfg = load_pipeline_config(write_pipeline_ini(tmp_path / "c.ini", toy_files,
                                                  str(tmp_path / "work")))
    setattr(cfg, field, value)
    with pytest.raises(ConfigError, match=f"] {key}: bad value"):
        run_pipeline(cfg)
    assert not (tmp_path / "work").exists()


def test_validate_parses_text_set_in_python(toy_files, tmp_path):
    cfg = load_pipeline_config(write_pipeline_ini(tmp_path / "c.ini", toy_files,
                                                  str(tmp_path / "work")))
    cfg.max_tokens, cfg.length_alpha, cfg.seed = "100", "0.5", 7
    cfg.validate()
    assert (cfg.max_tokens, cfg.length_alpha, cfg.seed) == (100, 0.5, 7)


def test_seed_override_below_zero_is_named():
    with pytest.raises(ConfigError, match=r"\[pipeline\] seed must be >= 0, got -1"):
        load_pipeline_config(None, seed_override=-1)


def test_training_commands_check_the_same_ranges(tmp_path, capsys):
    ini = write_ini(tmp_path / "c.ini", "[decode]\nbeam = 0\n")
    argv = [str(tmp_path / "out") if arg == "OUT" else arg
            for arg in COMMANDS["train"]]
    assert main([*argv, "--config", ini]) == 1
    assert "[decode] beam must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
