"""The two-encoder transformer.

One encoder stack reads source words, a second reads source subwords, and
a third bridge stack (a decoder block without the causal mask) runs
self-attention over the subword stream and cross-attention into the word
encoder's output.  The decoder attends to the bridge output and predicts
subword units; its embedding table is the same stored tensor as the
subword encoder's.

Every layer of the four stacks is ``_layer``; its attention is
``multi_head_attention`` over the fused ``T.attention``, and every
projection is a ``T.linear``.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass, field, asdict
from typing import Iterable, Sequence

import numpy as np

from . import tensor as T
from .corpus import read_lines, write_lines, write_text
from .errors import (CheckpointError, ConfigError, ContractError, Setting,
                     at_least, check_fields, checked)
from .tensor import MASK_VALUE, Tensor
from .tensor_io import load_tensors, save_tensors

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
SPECIALS = ("<pad>", "<s>", "</s>", "<unk>")


class Vocab:
    """Token/id mapping with fixed special ids (pad=0, bos=1, eos=2, unk=3)."""

    def __init__(self, tokens: Sequence[str]):
        self.itos = list(SPECIALS) + [t for t in tokens if t not in SPECIALS]
        self.stoi = {t: i for i, t in enumerate(self.itos)}

    def __len__(self) -> int:
        return len(self.itos)

    @classmethod
    def from_corpus(cls, sentences: Iterable[Sequence[str]],
                    max_size: int | None = None) -> "Vocab":
        counts: Counter[str] = Counter()
        for sent in sentences:
            counts.update(sent)
        ranked = sorted(counts, key=lambda t: (-counts[t], t))
        return cls(ranked[:max_size])

    def encode(self, tokens: Sequence[str]) -> list[int]:
        unk = self.stoi["<unk>"]
        return [self.stoi.get(t, unk) for t in tokens]

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.itos[i] for i in ids]

    def save(self, path: str) -> None:
        write_lines(path, self.itos[len(SPECIALS):])

    @classmethod
    def load(cls, path: str) -> "Vocab":
        return cls([line for line in read_lines(path) if line])


# The rule of each ModelConfig field, of the [model] key that sets it
# (``layers`` sets all four n_layers_*) and of a checkpoint sidecar's value.
MODEL_RULES = {**dict.fromkeys(("bpe_vocab_size", "word_vocab_size", "n_layers_fw",
                                "n_layers_fs", "n_layers_es", "n_layers_dec", "d_model",
                                "d_ff", "heads", "max_positions"), at_least(int, 1)),
               "dropout": Setting(float, "in [0, 1)", lambda p: 0 <= p < 1)}


@dataclass
class ModelConfig:
    bpe_vocab_size: int
    word_vocab_size: int
    n_layers_fw: int = 6
    n_layers_fs: int = 6
    n_layers_es: int = 6
    n_layers_dec: int = 6
    d_model: int = 512
    d_ff: int = 2048
    heads: int = 8
    dropout: float = 0.1
    max_positions: int = 256

    def __post_init__(self):
        check_fields(self, MODEL_RULES)
        if self.d_model % self.heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by heads {self.heads}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        return cls(**data)


@dataclass
class SourceBatch:
    """Padded word-id and subword-id views of the same source sentences."""

    f_w: np.ndarray        # [batch, src_words] int ids
    f_w_pad: np.ndarray    # [batch, src_words] bool, True at pads
    f_s: np.ndarray        # [batch, src_subwords] int ids
    f_s_pad: np.ndarray    # [batch, src_subwords] bool, True at pads


@dataclass
class EncodedSource:
    enc1_out: Tensor       # [batch, src_words, d_model]
    enc2_out: Tensor       # [batch, src_subwords, d_model]
    enc12_out: Tensor      # [batch, src_subwords, d_model]
    f_w_pad: np.ndarray = field(repr=False, default=None)
    f_s_pad: np.ndarray = field(repr=False, default=None)


@dataclass
class Checkpoint:
    """Every learned tensor by name, plus its config and step counter."""

    params: dict[str, Tensor]
    config: ModelConfig
    step: int = 0

    def save(self, path: str) -> None:
        save_tensors(path, {name: t.data for name, t in self.params.items()})
        sidecar = {"config": self.config.to_dict(), "step": self.step}
        base = path[:-len(".tfrx")] if path.endswith(".tfrx") else path
        write_text(base + ".json", [json.dumps(sidecar, indent=2, sort_keys=True)])

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        base = path[:-len(".tfrx")] if path.endswith(".tfrx") else path
        try:
            with open(base + ".json", encoding="utf-8") as fh:
                sidecar = json.load(fh)
        except FileNotFoundError as exc:
            raise CheckpointError(f"missing config sidecar for {path}") from exc
        except OSError as exc:
            raise CheckpointError(f"{base}.json: cannot read: {exc.strerror}") from None
        except ValueError as exc:
            raise CheckpointError(f"{base}.json is not JSON: {exc}") from exc
        try:
            config = ModelConfig.from_dict(sidecar["config"])
            step = checked("step", at_least(int, 0).check, sidecar["step"])
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise CheckpointError(
                f"{base}.json: malformed sidecar: {exc!r}") from exc
        arrays = load_tensors(path)
        expected = param_shapes(config)
        for name, arr in arrays.items():
            if name not in expected:
                raise CheckpointError(
                    f"{path}: tensor '{name}' is not a parameter of the "
                    f"config in {base}.json")
            if arr.shape != expected[name]:
                raise CheckpointError(
                    f"{path}: tensor '{name}' has shape {arr.shape}, the config "
                    f"in {base}.json gives {expected[name]}")
        missing = [name for name in expected if name not in arrays]
        if missing:
            raise CheckpointError(
                f"{path}: tensor '{missing[0]}' of the config in {base}.json is missing")
        params = {name: Tensor(arr, requires_grad=True)
                  for name, arr in arrays.items()}
        return cls(params, config, step)


def positional_encoding(length: int, d_model: int,
                        max_positions: int = 256,
                        dtype=np.float32) -> np.ndarray:
    """Sinusoidal table: sin at even dims, cos at odd dims, wavelength
    10000^(2i/d_model)."""
    if length > max_positions:
        raise ContractError(
            f"sequence length {length} exceeds max positions {max_positions}")
    positions = np.arange(length, dtype=np.float64)[:, None]
    dims = np.arange(d_model, dtype=np.float64)[None, :]
    angles = positions / np.power(10000.0, 2.0 * (dims // 2) / d_model)
    table = np.empty((length, d_model), dtype=np.float64)
    table[:, 0::2] = np.sin(angles[:, 0::2])
    table[:, 1::2] = np.cos(angles[:, 1::2])
    return table.astype(dtype)


def padding_attention_mask(pad: np.ndarray, dtype=np.float32) -> np.ndarray:
    """Additive mask [batch, 1, 1, len] blocking attention into pads."""
    kind = np.dtype(dtype).type
    return np.where(pad[:, None, None, :], kind(MASK_VALUE), kind(0.0))


def causal_attention_mask(length: int, dtype=np.float32) -> np.ndarray:
    """Additive mask [1, 1, len, len] blocking attention to later positions."""
    mask = np.triu(np.full((length, length), MASK_VALUE, dtype=np.dtype(dtype)), k=1)
    return mask[None, None, :, :]


@functools.lru_cache(maxsize=None)
def _tables(d_model: int, max_positions: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The read-only positional table [max_positions + 1, d_model] and
    causal mask [1, 1, max_positions + 1, max_positions + 1] of one model
    shape; every forward slices the positions it covers from them."""
    n = max_positions + 1
    tables = (positional_encoding(n, d_model, n, dtype), causal_attention_mask(n, dtype))
    for table in tables:
        table.flags.writeable = False
    return tables


def multi_head_attention(params: dict[str, Tensor], prefix: str, x: Tensor,
                         memory: Tensor, mask: np.ndarray | None, heads: int,
                         kv: tuple[Tensor, Tensor] | None = None) -> Tensor:
    """Attention of ``x`` over ``memory``, both [batch, len, d_model]:
    ``{prefix}/wq`` projects q from ``x``, ``{prefix}/wk`` and ``wv`` k and
    v from ``memory``; with d_k = d_model // heads, head i attends with
    columns [i*d_k, (i+1)*d_k) at scale 1/sqrt(d_k), and ``{prefix}/wo``
    projects the merged heads.

    ``kv``, when given, holds keys and values already projected,
    [batch, len, d_model], and ``memory`` is not read.  ``x``
    [rows, n, d_model] may then have a multiple of batch rows: each group
    of rows // batch consecutive rows attends as the queries of one batch
    entry, and the output keeps the shape of ``x``."""
    d_model = x.shape[-1]
    scale = 1.0 / math.sqrt(d_model // heads)
    q = T.linear(x, params[f"{prefix}/wq"])
    k, v = kv or (T.linear(memory, params[f"{prefix}/wk"]),
                  T.linear(memory, params[f"{prefix}/wv"]))
    if kv is None or k.shape[0] == q.shape[0]:
        return T.linear(T.attention(q, k, v, mask, scale, heads), params[f"{prefix}/wo"])
    q = T.reshape(q, (k.shape[0], -1, d_model))
    out = T.reshape(T.attention(q, k, v, mask, scale, heads), x.shape)
    return T.linear(out, params[f"{prefix}/wo"])


def _sublayer(x: Tensor, sub_out: Tensor, params: dict[str, Tensor],
              norm_prefix: str, cfg: ModelConfig, training: bool, rng) -> Tensor:
    dropped = T.dropout(sub_out, cfg.dropout, training, rng)
    return T.layer_norm(T.add(x, dropped),
                        params[f"{norm_prefix}/gain"],
                        params[f"{norm_prefix}/bias"])


def _ffn(x: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    hidden = T.relu(T.linear(x, params[f"{prefix}/w1"], params[f"{prefix}/b1"]))
    return T.linear(hidden, params[f"{prefix}/w2"], params[f"{prefix}/b2"])


def _embed(table: Tensor, ids: np.ndarray, cfg: ModelConfig,
           training: bool, rng, start: int = 0) -> Tensor:
    """Scaled embeddings of ``ids`` plus the positional encoding of
    positions ``start``, ``start + 1``, ..."""
    x = T.scale(T.embedding(table, ids), math.sqrt(cfg.d_model))
    positions = _tables(cfg.d_model, cfg.max_positions, table.dtype)[0]
    end = start + ids.shape[-1]
    if end > len(positions):
        raise ContractError(
            f"sequence length {end} exceeds max positions {len(positions)}")
    x = T.add(x, T.constant(positions[start:end]))
    return T.dropout(x, cfg.dropout, training, rng)


# Every stack: name -> (ModelConfig layer-count field, cross-attends), in
# the order ``init_params`` draws their parameters.
STACKS = {"enc_word": ("n_layers_fw", False),
          "enc_subword": ("n_layers_fs", False),
          "enc_cross": ("n_layers_es", True),
          "decoder": ("n_layers_dec", True)}


def _layer_prefixes(config: ModelConfig, stack: str) -> list[str]:
    """Parameter-name prefix of each layer of ``stack``, bottom first."""
    return [f"{stack}/layer_{i}" for i in range(getattr(config, STACKS[stack][0]))]


def _layer(prefix: str, x: Tensor, mask: np.ndarray, params: dict[str, Tensor],
           cfg: ModelConfig, training: bool, rng, memory: Tensor | None = None,
           memory_mask: np.ndarray | None = None,
           self_kv: tuple[Tensor, Tensor] | None = None,
           cross_kv: tuple[Tensor, Tensor] | None = None) -> Tensor:
    """One transformer layer: self-attention, cross-attention into
    ``memory`` when it is given, then the feed-forward block, each inside
    residual + layer norm with dropout.  ``self_kv`` and ``cross_kv`` are
    keys and values already projected (``multi_head_attention``)."""
    attn = multi_head_attention(params, f"{prefix}/self_attn", x, x, mask,
                                cfg.heads, self_kv)
    x = _sublayer(x, attn, params, f"{prefix}/self_attn_norm", cfg, training, rng)
    if memory is not None:
        cross = multi_head_attention(params, f"{prefix}/cross_attn", x, memory,
                                     memory_mask, cfg.heads, cross_kv)
        x = _sublayer(x, cross, params, f"{prefix}/cross_attn_norm",
                      cfg, training, rng)
    return _sublayer(x, _ffn(x, params, f"{prefix}/ffn"),
                     params, f"{prefix}/ffn_norm", cfg, training, rng)


def _stack(stack: str, x: Tensor, mask: np.ndarray, params: dict[str, Tensor],
           cfg: ModelConfig, training: bool, rng, memory: Tensor | None = None,
           memory_mask: np.ndarray | None = None) -> Tensor:
    for prefix in _layer_prefixes(cfg, stack):
        x = _layer(prefix, x, mask, params, cfg, training, rng, memory, memory_mask)
    return x


def encode(config: ModelConfig, params: dict[str, Tensor],
           batch: SourceBatch, training: bool = False,
           rng=None) -> EncodedSource:
    """Run the word encoder, the subword encoder, and the bridge stack,
    whose layers add cross-attention from the subword stream into the word
    encoder's final output."""
    if batch.f_w.size and batch.f_w.max() >= config.word_vocab_size:
        raise ContractError("word ids exceed the word vocabulary")
    if batch.f_s.size and batch.f_s.max() >= config.bpe_vocab_size:
        raise ContractError("subword ids exceed the BPE vocabulary")
    dtype = params["embed/word"].data.dtype
    word_mask = padding_attention_mask(batch.f_w_pad, dtype)
    sub_mask = padding_attention_mask(batch.f_s_pad, dtype)

    x_w = _embed(params["embed/word"], batch.f_w, config, training, rng)
    enc1 = _stack("enc_word", x_w, word_mask, params, config, training, rng)
    x_s = _embed(params["embed/bpe"], batch.f_s, config, training, rng)
    enc2 = _stack("enc_subword", x_s, sub_mask, params, config, training, rng)
    y = _stack("enc_cross", enc2, sub_mask, params, config, training, rng,
               enc1, word_mask)
    return EncodedSource(enc1, enc2, y, batch.f_w_pad, batch.f_s_pad)


class DecoderCache:
    """Decoder state for decoding one position at a time with
    ``decode_forward`` against ``encoded``.

    Per decoder layer it holds the self-attention keys and values of
    every position decoded so far, in arrays [rows, capacity, d_model]
    allocated once, and the cross-attention keys and values of the bridge
    output, [sources, src_len, d_model] each, projected once.  ``ids``
    records the decoded token ids.
    Consecutive groups of rows decode the same source sentence: with n
    sources, row r reads source r // (rows // n).
    """

    def __init__(self, config: ModelConfig, params: dict[str, Tensor],
                 encoded: EncodedSource, rows: int, capacity: int):
        memory = encoded.enc12_out
        if rows % memory.shape[0]:
            raise ContractError(
                f"a cache of {rows} rows cannot split evenly over "
                f"{memory.shape[0]} sources")
        shape = (rows, capacity, config.d_model)
        self.ids = np.full((rows, capacity), PAD_ID, dtype=np.int64)
        self.keys = [np.empty(shape, memory.dtype) for _ in range(config.n_layers_dec)]
        self.values = [np.empty(shape, memory.dtype) for _ in range(config.n_layers_dec)]
        self.cross = [tuple(T.linear(memory, params[f"{prefix}/cross_attn/{w}"])
                            for w in ("wk", "wv"))
                      for prefix in _layer_prefixes(config, "decoder")]
        self.cross_mask = padding_attention_mask(encoded.f_s_pad, memory.dtype)
        self.length = 0

    @property
    def rows(self) -> int:
        return self.ids.shape[0]

    def reorder(self, parents: np.ndarray) -> None:
        """Row r continues the hypothesis of row ``parents[r]``; rows keep
        their source sentence, so parents stay within a row's group."""
        n = self.length
        self.ids[:, :n] = self.ids[parents, :n]
        for arr in self.keys + self.values:
            arr[:, :n] = arr[parents, :n]


def decode_forward(config: ModelConfig, params: dict[str, Tensor],
                   encoded: EncodedSource, target_prefix_ids: np.ndarray,
                   training: bool = False, rng=None,
                   cache: DecoderCache | None = None,
                   project: bool = True) -> Tensor:
    """Causally masked decoder over BPE ids attending to the bridge
    output; returns logits [batch, tgt_len, bpe_vocab], or with
    ``project=False`` the decoder states [batch, tgt_len, d_model] that
    the output projection reads.

    Sequences may be one position longer than ``max_positions`` to make
    room for the BOS offset.  Padded targets must be padded on the right:
    the causal mask alone then keeps every real position off the pads.

    With a ``cache``, ``target_prefix_ids`` [cache.rows, n] holds the next
    n positions of every cached row: they attend to the cached positions
    and to each other, their keys and values join the cache, and the
    logits cover only them.
    """
    ids = np.asarray(target_prefix_ids)
    start = 0 if cache is None else cache.length
    end = start + ids.shape[-1]
    if end > config.max_positions + 1:
        raise ContractError(
            f"target length {end} exceeds max positions {config.max_positions}")
    if ids.size and ids.max() >= config.bpe_vocab_size:
        raise ContractError("target ids exceed the BPE vocabulary")
    dtype = params["embed/bpe"].data.dtype
    mask = _tables(config.d_model, config.max_positions, dtype)[1][:, :, start:end, :end]
    if cache is None:
        cross_mask = padding_attention_mask(encoded.f_s_pad, dtype)
    else:
        if ids.shape[0] != cache.rows:
            raise ContractError(
                f"{ids.shape[0]} target rows for a cache of {cache.rows} rows")
        if end > cache.ids.shape[1]:
            raise ContractError(
                f"target length {end} exceeds the cache's {cache.ids.shape[1]} positions")
        cache.ids[:, start:end] = ids
        cross_mask = cache.cross_mask

    y = _embed(params["embed/bpe"], ids, config, training, rng, start)
    for i, prefix in enumerate(_layer_prefixes(config, "decoder")):
        self_kv = cross_kv = None
        if cache is not None:
            stores = (cache.keys[i], cache.values[i])
            for w, store in zip(("wk", "wv"), stores):
                store[:, start:end] = T.linear(y, params[f"{prefix}/self_attn/{w}"]).data
            self_kv = tuple(T.constant(store[:, :end]) for store in stores)
            cross_kv = cache.cross[i]
        y = _layer(prefix, y, mask, params, config, training, rng,
                   encoded.enc12_out, cross_mask, self_kv, cross_kv)

    if cache is not None:
        cache.length = end
    if not project:
        return y
    return T.linear(y, params["output/weight"], params["output/bias"])


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int,
            dtype) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every learned tensor of ``config``, in the order
    ``init_params`` draws them."""
    d, ff = config.d_model, config.d_ff
    shapes = {"embed/word": (config.word_vocab_size, d),
              "embed/bpe": (config.bpe_vocab_size, d)}
    for stack, (_, has_cross) in STACKS.items():
        for prefix in _layer_prefixes(config, stack):
            blocks = ["self_attn"] + (["cross_attn"] if has_cross else [])
            for block in blocks:
                for w in ("wq", "wk", "wv", "wo"):
                    shapes[f"{prefix}/{block}/{w}"] = (d, d)
                shapes[f"{prefix}/{block}_norm/gain"] = (d,)
                shapes[f"{prefix}/{block}_norm/bias"] = (d,)
            shapes.update({f"{prefix}/ffn/w1": (d, ff), f"{prefix}/ffn/b1": (ff,),
                           f"{prefix}/ffn/w2": (ff, d), f"{prefix}/ffn/b2": (d,),
                           f"{prefix}/ffn_norm/gain": (d,),
                           f"{prefix}/ffn_norm/bias": (d,)})
    shapes["output/weight"] = (d, config.bpe_vocab_size)
    shapes["output/bias"] = (config.bpe_vocab_size,)
    return shapes


def init_params(config: ModelConfig, seed: int,
                dtype=np.float32) -> Checkpoint:
    """Deterministic initialization: Xavier-uniform projections and FFN
    weights, N(0, d_model^-1/2) embeddings, unit layer-norm gains."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(config).items():
        if name.startswith("embed/"):
            data = rng.normal(0.0, config.d_model ** -0.5, size=shape).astype(dtype)
        elif len(shape) == 2:
            data = _xavier(rng, *shape, dtype)
        elif name.endswith("/gain"):
            data = np.ones(shape, dtype=dtype)
        else:
            data = np.zeros(shape, dtype=dtype)
        params[name] = Tensor(data, requires_grad=True, dtype=dtype)
    return Checkpoint(params, config, step=0)


def pad_ids(rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Ragged id rows as one [rows, longest] int64 array padded with
    ``PAD_ID``, and the boolean mask that is True at the padding."""
    width = max((len(r) for r in rows), default=0)
    ids = np.full((len(rows), width), PAD_ID, dtype=np.int64)
    pad_mask = np.ones((len(rows), width), dtype=bool)
    for i, row in enumerate(rows):
        ids[i, :len(row)] = row
        pad_mask[i, :len(row)] = False
    return ids, pad_mask


def make_source_batch(word_ids: list[list[int]],
                      sub_ids: list[list[int]]) -> SourceBatch:
    """Pad ragged id lists into a SourceBatch (``pad_ids``)."""
    return SourceBatch(*pad_ids(word_ids), *pad_ids(sub_ids))


def check_source(source: SourceBatch, max_positions: int) -> None:
    """Raise ``ContractError`` naming the first sentence of ``source``
    that a model of ``max_positions`` cannot encode and decode: one with
    no words or subwords, or with more than ``max_positions + 1`` of
    either."""
    if source.f_s.shape[0] == 0:
        raise ContractError("empty source batch")
    n_subs = (~source.f_s_pad).sum(axis=1).tolist()
    n_words = (~source.f_w_pad).sum(axis=1).tolist()
    for row, (subs, words) in enumerate(zip(n_subs, n_words)):
        if subs == 0 or words == 0:
            raise ContractError(f"source sentence {row} is empty")
        if max(subs, words) > max_positions + 1:
            raise ContractError(
                f"source sentence {row} has {subs} subwords and {words} words; "
                f"the model takes at most {max_positions + 1}")
