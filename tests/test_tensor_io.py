"""Named-tensor container format round trips and wire layout."""

import errno
import json
import os
import struct
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from transference import tensor_io
from transference.cli import main
from transference.errors import CheckpointError
from transference.model import Checkpoint, ModelConfig, init_params
from transference.tensor_io import MAGIC, load_tensors, save_tensors


def test_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "embed/word": rng.normal(size=(5, 3)).astype(np.float32),
        "scalarish": np.array([1.5], dtype=np.float32),
        "deep/nested/name": rng.normal(size=(2, 2, 2)).astype(np.float32),
    }
    path = str(tmp_path / "model.tfrx")
    save_tensors(path, tensors)
    loaded = load_tensors(path)
    assert list(loaded.keys()) == list(tensors.keys())
    for name in tensors:
        np.testing.assert_array_equal(loaded[name], tensors[name])


def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "model.tfrx"
    save_tensors(str(path), {"w": np.ones((2, 3), dtype=np.float32)})
    old = path.read_bytes()
    packed = []

    def pack(fmt, *values):
        packed.append(fmt)
        if len(packed) == 4:  # the second tensor's name length
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return struct.pack(fmt, *values)

    monkeypatch.setattr(tensor_io, "struct", SimpleNamespace(pack=pack))
    with pytest.raises(CheckpointError) as info:
        save_tensors(str(path), {"a": np.zeros(4, dtype=np.float32),
                                 "b": np.zeros(2, dtype=np.float32)})
    assert str(info.value) == f"{path}: cannot write: No space left on device"
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["model.tfrx"]


def test_wire_layout(tmp_path):
    path = str(tmp_path / "one.tfrx")
    arr = np.array([[1.0, 2.0]], dtype=np.float32)
    save_tensors(path, {"w": arr})
    blob = Path(path).read_bytes()
    assert blob[:5] == MAGIC
    offset = 5
    (name_len,) = struct.unpack_from("<Q", blob, offset)
    offset += 8
    assert name_len == 1
    assert blob[offset:offset + 1] == b"w"
    offset += 1
    (rank,) = struct.unpack_from("<Q", blob, offset)
    offset += 8
    assert rank == 2
    dims = struct.unpack_from("<QQ", blob, offset)
    offset += 16
    assert dims == (1, 2)
    payload = np.frombuffer(blob[offset:offset + 8], dtype="<f4")
    np.testing.assert_array_equal(payload, [1.0, 2.0])
    assert len(blob) == offset + 8


def test_utf8_names(tmp_path):
    path = str(tmp_path / "utf8.tfrx")
    save_tensors(path, {"váhy/učení": np.zeros(2, dtype=np.float32)})
    assert "váhy/učení" in load_tensors(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.tfrx"
    path.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_tensors(str(path))


def test_truncated_payload_rejected(tmp_path):
    path = str(tmp_path / "trunc.tfrx")
    save_tensors(path, {"w": np.ones((4, 4), dtype=np.float32)})
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[:-7])
    with pytest.raises(CheckpointError, match="truncated"):
        load_tensors(path)


def test_atomic_write_leaves_no_temp(tmp_path):
    path = str(tmp_path / "a.tfrx")
    save_tensors(path, {"w": np.zeros(1, dtype=np.float32)})
    assert [p.name for p in tmp_path.iterdir()] == ["a.tfrx"]


def _record(name: bytes, shape, payload: bytes, rank=None) -> bytes:
    dims = b"".join(struct.pack("<Q", d) for d in shape)
    return (struct.pack("<Q", len(name)) + name
            + struct.pack("<Q", len(shape) if rank is None else rank)
            + dims + payload)


def test_truncation_at_every_offset_fails_or_leaves_a_prefix(tmp_path):
    tensors = {"a": np.arange(3, dtype=np.float32),
               "bé/c": np.ones((2, 2), dtype=np.float32),
               "d": np.array([7.0], dtype=np.float32)}
    full = str(tmp_path / "full.tfrx")
    save_tensors(full, tensors)
    blob = Path(full).read_bytes()
    cut_path = tmp_path / "cut.tfrx"
    prefixes = 0
    for cut in range(len(blob)):
        cut_path.write_bytes(blob[:cut])
        try:
            loaded = load_tensors(str(cut_path))
        except CheckpointError:
            continue
        names = list(tensors)[:len(loaded)]
        assert list(loaded) == names and len(loaded) < len(tensors), cut
        for name in names:
            np.testing.assert_array_equal(loaded[name], tensors[name])
        prefixes += 1
    assert prefixes == len(tensors)  # the cuts at the magic and each record end


@pytest.mark.parametrize("blob", [
    struct.pack("<Q", 1 << 40) + b"w",
    _record(b"w", (), b"", rank=1 << 40),
    _record(b"w", (1 << 40,), b"\x00" * 8),
    _record(b"w", (1 << 20, 1 << 20, 1 << 20), b""),
], ids=["name_length", "rank", "dim", "dim_product"])
def test_forged_lengths_raise_without_allocating(tmp_path, blob):
    path = tmp_path / "forged.tfrx"
    path.write_bytes(MAGIC + blob)
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="truncated"):
            load_tensors(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_bad_name_and_impossible_shape_rejected(tmp_path):
    path = tmp_path / "bad.tfrx"
    path.write_bytes(MAGIC + _record(b"\xff\xfe", (1,), b"\x00" * 4))
    with pytest.raises(CheckpointError, match="UTF-8"):
        load_tensors(str(path))
    path.write_bytes(MAGIC + _record(b"w", (0, 1 << 63), b""))
    with pytest.raises(CheckpointError, match="shape"):
        load_tensors(str(path))


def _tiny_checkpoint(tmp_path) -> str:
    cfg = ModelConfig(bpe_vocab_size=6, word_vocab_size=6, n_layers_fw=1,
                      n_layers_fs=1, n_layers_es=1, n_layers_dec=1,
                      d_model=4, d_ff=8, heads=2, dropout=0.0, max_positions=4)
    path = str(tmp_path / "m.tfrx")
    init_params(cfg, seed=0).save(path)
    return path


@pytest.mark.parametrize("sidecar", [
    "{not json", "[1, 2]", '{"step": 3}', '{"config": {"d_model": 4}, "step": 0}',
    '{"config": null, "step": 0}',
], ids=["bad_json", "not_an_object", "no_config", "partial_config", "null_config"])
def test_malformed_sidecar_is_a_checkpoint_error(tmp_path, sidecar):
    path = _tiny_checkpoint(tmp_path)
    (tmp_path / "m.json").write_text(sidecar, encoding="utf-8")
    with pytest.raises(CheckpointError, match="m.json"):
        Checkpoint.load(path)


@pytest.mark.parametrize("name, value", [
    ("n_layers_fw", 1.5), ("d_model", 8.0), ("max_positions", 8.5),
    ("heads", "2"), ("d_ff", True),
], ids=["fractional_layers", "float_d_model", "fractional_positions",
        "string_heads", "bool_d_ff"])
def test_non_integer_sidecar_size_is_a_checkpoint_error(tmp_path, capsys, name,
                                                        value):
    path = _tiny_checkpoint(tmp_path)
    sidecar = tmp_path / "m.json"
    data = json.loads(sidecar.read_text(encoding="utf-8"))
    data["config"][name] = value
    sidecar.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(CheckpointError,
                       match=rf"m\.json: .*{name}: bad value"):
        Checkpoint.load(path)
    assert main(["average", "--inputs", path, path,
                 "--output", str(tmp_path / "avg.tfrx")]) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("value, cause", [
    (2.7, "step: bad value 2.7"), (True, "step: bad value True"),
    ("7", "step: bad value '7'"), (-4, "step must be >= 0, got -4"),
], ids=["fractional", "bool", "string", "negative"])
def test_bad_sidecar_step_is_a_checkpoint_error(tmp_path, capsys, value, cause):
    path = _tiny_checkpoint(tmp_path)
    sidecar = tmp_path / "m.json"
    data = json.loads(sidecar.read_text(encoding="utf-8"))
    data["step"] = value
    sidecar.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(CheckpointError, match=rf"m\.json: .*{cause}"):
        Checkpoint.load(path)
    assert main(["average", "--inputs", path, path,
                 "--output", str(tmp_path / "avg.tfrx")]) == 2
    assert cause in capsys.readouterr().err


def test_sidecar_config_must_fit_the_tensors(tmp_path, capsys):
    path = _tiny_checkpoint(tmp_path)
    sidecar = tmp_path / "m.json"
    data = json.loads(sidecar.read_text(encoding="utf-8"))
    data["config"]["d_model"] = 8
    sidecar.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(CheckpointError, match=r"'embed/word' has shape \(6, 4\)"):
        Checkpoint.load(path)
    assert main(["average", "--inputs", path, path,
                 "--output", str(tmp_path / "avg.tfrx")]) == 2
    assert "embed/word" in capsys.readouterr().err


@pytest.mark.parametrize("edit, name", [
    (lambda t: t.pop("output/bias"), "output/bias"),
    (lambda t: t.update({"decoder/layer_1/ffn/w1": t["decoder/layer_0/ffn/w1"]}),
     "decoder/layer_1/ffn/w1"),
], ids=["missing", "extra"])
def test_missing_or_extra_tensor_is_named(tmp_path, edit, name):
    path = _tiny_checkpoint(tmp_path)
    tensors = load_tensors(path)
    edit(tensors)
    save_tensors(path, tensors)
    with pytest.raises(CheckpointError, match=name):
        Checkpoint.load(path)


def test_cli_average_of_a_forged_checkpoint_exits_2(tmp_path, capsys):
    path = _tiny_checkpoint(tmp_path)
    blob = Path(path).read_bytes()
    # forge the rank of the first record
    name_len = struct.unpack_from("<Q", blob, len(MAGIC))[0]
    at = len(MAGIC) + 8 + name_len
    Path(path).write_bytes(blob[:at] + struct.pack("<Q", 1 << 40) + blob[at + 8:])
    assert main(["average", "--inputs", path, path,
                 "--output", str(tmp_path / "avg.tfrx")]) == 2
    assert "truncated" in capsys.readouterr().err
