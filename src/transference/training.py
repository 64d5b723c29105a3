"""Training loop: token-bucketed batching, label-smoothed loss, Adam with
the inverse-square-root warmup schedule, per-epoch checkpointing, best-k
checkpoint averaging, and the generic -> fine-tune regime."""

from __future__ import annotations

import csv
import ctypes
import io
import math
import os
import platform
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from . import tensor as T
from .corpus import write_text
from .errors import (CheckpointError, ConfigError, ContractError, Setting,
                     TrainingError, at_least, check_fields)
from .model import (Checkpoint, ModelConfig, PAD_ID, BOS_ID, EOS_ID,
                    SourceBatch, decode_forward, encode, make_source_batch)
from .tensor import GradTape, Tensor, backward


# The rule of each TrainConfig field and of the [train] and [finetune] key
# of the same name; ``seed`` is the [pipeline] seed.  A grad_clip of None
# ("none" or "off") disables the divergence guard.
TRAIN_RULES = {
    "epochs": at_least(int, 0), "seed": at_least(int, 0),
    **dict.fromkeys(("batch_tokens", "max_len", "warmup_steps", "checkpoint_keep"),
                    at_least(int, 1)),
    **dict.fromkeys(("beta1", "beta2", "label_smoothing"),
                    Setting(float, "in [0, 1)", lambda b: 0 <= b < 1)),
    "adam_epsilon": Setting(float, "> 0", lambda e: e > 0),
    "grad_clip": Setting(float, "> 0 or none", lambda c: c > 0, none=("none", "off"))}


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_tokens: int = 25000
    max_len: int = 256
    warmup_steps: int = 8000
    beta1: float = 0.9
    beta2: float = 0.98
    adam_epsilon: float = 1e-9
    label_smoothing: float = 0.1
    checkpoint_keep: int = 8
    grad_clip: float | None = 5.0
    seed: int = 1

    def __post_init__(self):
        check_fields(self, TRAIN_RULES)


def lr_schedule(step: int, d_model: int = 512, warmup: int = 8000) -> float:
    """d_model^-0.5 * min(step^-0.5, step * warmup^-1.5).

    The linear branch is computed as (step/warmup) * warmup^-0.5 so the
    two branches are bit-identical at step == warmup.
    """
    if step < 1:
        raise ContractError(f"schedule step must be >= 1, got {step}")
    rsqrt = step ** -0.5
    linear = (step / warmup) * warmup ** -0.5
    return d_model ** -0.5 * min(rsqrt, linear)


def label_smoothed_loss(logits: Tensor, target_ids: np.ndarray,
                        eps_ls: float = 0.1, pad_id: int = PAD_ID) -> Tensor:
    """Mean cross-entropy against the smoothed target distribution:
    1 - eps on the gold token, eps/(V-1) on every other vocabulary entry.
    Padding positions are excluded from the mean."""
    target_ids = np.asarray(target_ids)
    return T.smoothed_cross_entropy(logits, target_ids, target_ids != pad_id, eps_ls)


@dataclass
class OptimizerState:
    """Adam first/second moment accumulators plus the global step."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, Tensor],
                   step: int = 0) -> "OptimizerState":
        return cls(m={k: np.zeros_like(p.data) for k, p in params.items()},
                   v={k: np.zeros_like(p.data) for k, p in params.items()},
                   step=step)


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: OptimizerState, lr: float,
              beta1: float = 0.9, beta2: float = 0.98,
              epsilon: float = 1e-9) -> None:
    """One bias-corrected Adam update, in place over the parameter dict."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if np.isnan(g).any():
            raise TrainingError(f"NaN gradient for parameter '{name}'")
        m = state.m[name]
        v = state.v[name]
        # The same float operations, in the same order, as
        # m = beta1 m + (1 - beta1) g; v = beta2 v + (1 - beta2) g^2;
        # p - lr m_hat / (sqrt(v_hat) + epsilon), through three buffers.
        term = np.multiply(g, 1.0 - beta1)
        m *= beta1
        m += term
        np.multiply(g, g, out=term)
        term *= 1.0 - beta2
        v *= beta2
        v += term
        update = np.divide(m, bc1)
        denom = np.divide(v, bc2)
        np.sqrt(denom, out=denom)
        denom += epsilon
        update *= lr
        update /= denom
        p.data = p.data - update.astype(p.data.dtype, copy=False)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm.
    Returns the pre-clip norm."""
    total = 0.0
    for g in grads.values():
        total += float((g.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0:
        factor = max_norm / norm
        for name in grads:
            grads[name] = grads[name] * factor
    return norm


@dataclass(frozen=True)
class PreparedPair:
    """One training example: word ids, subword ids, target subword ids."""

    word_ids: tuple[int, ...]
    sub_ids: tuple[int, ...]
    tgt_ids: tuple[int, ...]


@dataclass
class Batch:
    source: SourceBatch
    tgt_in: np.ndarray    # decoder input, BOS + target
    tgt_out: np.ndarray   # labels, target + EOS
    pairs: tuple[PreparedPair, ...] = field(repr=False, default=())


def _build_batch(pairs: list[PreparedPair]) -> Batch:
    source = make_source_batch([list(p.word_ids) for p in pairs],
                               [list(p.sub_ids) for p in pairs])
    width = max(len(p.tgt_ids) for p in pairs) + 1
    tgt_in = np.full((len(pairs), width), PAD_ID, dtype=np.int64)
    tgt_out = np.full((len(pairs), width), PAD_ID, dtype=np.int64)
    for i, p in enumerate(pairs):
        row = list(p.tgt_ids)
        tgt_in[i, 0] = BOS_ID
        tgt_in[i, 1:len(row) + 1] = row
        tgt_out[i, :len(row)] = row
        tgt_out[i, len(row)] = EOS_ID
    return Batch(source, tgt_in, tgt_out, tuple(pairs))


def make_batches(pairs: list[PreparedPair], batch_tokens: int = 25000,
                 max_len: int = 256, seed: int = 1,
                 epoch: int = 0) -> list[Batch]:
    """Shuffle deterministically per (seed, epoch), bucket by length, and
    fill batches greedily so that the larger of the padded source and
    target token counts stays within ``batch_tokens``.  Pairs with either
    side longer than ``max_len`` subwords are dropped; every surviving
    pair appears in exactly one batch."""
    survivors = [p for p in pairs
                 if len(p.sub_ids) <= max_len and len(p.tgt_ids) <= max_len]
    if not survivors:
        return []
    for p in survivors:
        if max(len(p.sub_ids), len(p.tgt_ids) + 1) > batch_tokens:
            raise ConfigError(
                f"a single pair of length {max(len(p.sub_ids), len(p.tgt_ids) + 1)} "
                f"cannot fit the {batch_tokens}-token budget")

    rng = np.random.default_rng([seed, epoch])
    order = rng.permutation(len(survivors))
    shuffled = [survivors[i] for i in order]
    shuffled.sort(key=lambda p: max(len(p.sub_ids), len(p.tgt_ids) + 1))

    batches: list[list[PreparedPair]] = []
    current: list[PreparedPair] = []
    max_src = max_tgt = 0
    for p in shuffled:
        new_src = max(max_src, len(p.sub_ids))
        new_tgt = max(max_tgt, len(p.tgt_ids) + 1)
        count = len(current) + 1
        if current and max(new_src, new_tgt) * count > batch_tokens:
            batches.append(current)
            current = [p]
            max_src, max_tgt = len(p.sub_ids), len(p.tgt_ids) + 1
        else:
            current.append(p)
            max_src, max_tgt = new_src, new_tgt
    if current:
        batches.append(current)

    batch_order = rng.permutation(len(batches))
    return [_build_batch(batches[i]) for i in batch_order]


def average_checkpoints(checkpoints: Iterable[Checkpoint]) -> Checkpoint:
    """Elementwise arithmetic mean per named tensor (float64 accumulation
    in input order, stored back as float32); config and step come from the
    newest input, the first with the largest step.  The inputs are read
    one at a time, so a generator of loads keeps one checkpoint in memory
    beside the accumulators."""
    acc: dict[str, np.ndarray] = {}
    count = 0
    for ckpt in checkpoints:
        if not count:
            acc = {name: np.zeros(t.shape, dtype=np.float64)
                   for name, t in ckpt.params.items()}
        elif set(ckpt.params.keys()) != set(acc):
            extra = set(ckpt.params.keys()) ^ set(acc)
            raise CheckpointError(
                f"checkpoint parameter names differ: {sorted(extra)[0]}")
        for name, total in acc.items():
            if ckpt.params[name].shape != total.shape:
                raise CheckpointError(f"shape mismatch for tensor '{name}': "
                                      f"{ckpt.params[name].shape} vs {total.shape}")
            total += ckpt.params[name].data
        if not count or ckpt.step > step:
            config, step = ckpt.config, ckpt.step
        count += 1
        del ckpt  # freed before the next one is read
    if not count:
        raise CheckpointError("no checkpoints to average")
    averaged = {name: Tensor((total / count).astype(np.float32), requires_grad=True)
                for name, total in acc.items()}
    return Checkpoint(averaged, replace(config), step)


def forward_loss(config: ModelConfig, params: dict[str, Tensor],
                 batch: Batch, eps_ls: float, training: bool,
                 rng=None) -> Tensor:
    encoded = encode(config, params, batch.source, training, rng)
    logits = decode_forward(config, params, encoded, batch.tgt_in,
                            training, rng)
    return label_smoothed_loss(logits, batch.tgt_out, eps_ls)


def validation_loss(config: ModelConfig, params: dict[str, Tensor],
                    batches: list[Batch], eps_ls: float) -> float:
    total = 0.0
    tokens = 0
    for batch in batches:
        n = int((batch.tgt_out != PAD_ID).sum())
        loss = forward_loss(config, params, batch, eps_ls, training=False)
        total += loss.item() * n
        tokens += n
    return total / max(tokens, 1)


def train_step(config: ModelConfig, params: dict[str, Tensor], batch: Batch,
               state: OptimizerState, cfg: TrainConfig,
               rng) -> tuple[float, float]:
    """One optimizer step on ``batch``: the scheduled learning rate, a
    training-mode forward under a tape, backward, clipping and Adam.
    Returns (lr, loss); a non-finite loss returns before backward and
    leaves ``params`` and ``state`` as they were."""
    lr = lr_schedule(state.step + 1, config.d_model, cfg.warmup_steps)
    with GradTape() as tape:
        loss = forward_loss(config, params, batch, cfg.label_smoothing,
                            training=True, rng=rng)
    loss_value = loss.item()
    if not math.isfinite(loss_value):
        return lr, loss_value
    by_leaf = backward(tape, loss)
    grads = {name: by_leaf[p] if p in by_leaf else np.zeros_like(p.data)
             for name, p in params.items()}
    del by_leaf  # one reference per gradient, so clipping frees the old one
    if cfg.grad_clip is not None:
        clip_gradients(grads, cfg.grad_clip)
    adam_step(params, grads, state, lr, cfg.beta1, cfg.beta2, cfg.adam_epsilon)
    return lr, loss_value


@dataclass
class LogRow:
    step: int
    phase: str
    lr: float
    train_loss: float
    val_loss: float | None


def write_loss_log(path: str, rows: list[LogRow]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["step", "phase", "lr", "train_loss", "val_loss"])
    for row in rows:
        writer.writerow([row.step, row.phase, f"{row.lr:.10g}",
                         f"{row.train_loss:.6f}",
                         "" if row.val_loss is None else f"{row.val_loss:.6f}"])
    write_text(path, [buf.getvalue()])


@dataclass
class TrainResult:
    averaged: Checkpoint
    log: list[LogRow]
    epoch_records: list[tuple[str, float]]  # (checkpoint path, val loss)
    aborted: bool = False


def _keep_freed_heap() -> None:
    """Keep freed memory on the C heap between training steps (glibc only).

    The tape frees each array once no backward rule reads it, so at the
    end of a step the top of the heap is free, and glibc's default
    thresholds hand those pages back to the kernel; the next step then
    faults every page in again.  Fixed thresholds keep arrays below
    32 MiB on the heap and trim only above 64 MiB of free top, so steps
    reuse the same pages.  No float changes; other C libraries are left
    as they are."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)   # M_TRIM_THRESHOLD


def train(generic_pairs: list[PreparedPair],
          finetune_pairs: list[PreparedPair],
          val_pairs: list[PreparedPair],
          checkpoint: Checkpoint,
          generic_config: TrainConfig,
          finetune_config: TrainConfig,
          ckpt_dir: str,
          log_path: str | None = None,
          verbose: bool = False) -> TrainResult:
    """Phase 1 trains on the full sorted general data, phase 2 fine-tunes
    on the selection with the step counter (and Adam moments) carried
    over.  One checkpoint is written per epoch; the best ``checkpoint_keep``
    by validation loss are averaged into ``ckpt_dir/averaged.tfrx``.

    On divergence (non-finite loss) training stops and the checkpoints
    written so far are still averaged.
    """
    try:
        os.makedirs(ckpt_dir, exist_ok=True)
    except OSError as exc:
        raise CheckpointError(f"{ckpt_dir}: cannot create: {exc.strerror}") from None
    _keep_freed_heap()
    config = checkpoint.config
    params = checkpoint.params
    state = OptimizerState.for_params(params, step=checkpoint.step)
    drop_rng = np.random.default_rng(generic_config.seed)
    val_batches = make_batches(val_pairs, generic_config.batch_tokens,
                               generic_config.max_len,
                               seed=generic_config.seed, epoch=0) if val_pairs else []

    log: list[LogRow] = []
    epoch_records: list[tuple[str, float]] = []
    aborted = False
    # one entry per epoch of both phases; the index seeds the shuffle and
    # names the checkpoint
    epochs = [(phase, cfg, data)
              for phase, cfg, data in (("generic", generic_config, generic_pairs),
                                       ("finetune", finetune_config, finetune_pairs))
              for _ in range(cfg.epochs)]
    for epoch, (phase, cfg, data) in enumerate(epochs):
        batches = make_batches(data, cfg.batch_tokens, cfg.max_len,
                               seed=cfg.seed, epoch=epoch)
        if not batches:
            raise TrainingError(f"no trainable pairs in phase '{phase}'")
        for batch in batches:
            lr, loss = train_step(config, params, batch, state, cfg, drop_rng)
            aborted = not math.isfinite(loss)
            if aborted:
                break
            log.append(LogRow(state.step, phase, lr, loss, None))
        if aborted:
            break
        val = (validation_loss(config, params, val_batches,
                               cfg.label_smoothing)
               if val_batches else float(log[-1].train_loss))
        path = os.path.join(ckpt_dir, f"epoch_{epoch + 1}.tfrx")
        Checkpoint(params, config, state.step).save(path)
        epoch_records.append((path, val))
        last = log[-1]
        log.append(LogRow(state.step, phase, last.lr, last.train_loss, val))
        if verbose:
            print(f"[{phase}] epoch {epoch + 1}: step {state.step} "
                  f"train {last.train_loss:.4f} val {val:.4f}")

    if not epoch_records:
        raise TrainingError(
            "no checkpoints produced (zero epochs configured, or divergence "
            "before the first epoch finished)")

    keep_cfg = finetune_config if finetune_config.epochs > 0 else generic_config
    keep = sorted(epoch_records, key=lambda r: (r[1], r[0]))[:keep_cfg.checkpoint_keep]
    averaged = average_checkpoints(Checkpoint.load(path) for path, _ in keep)
    averaged.save(os.path.join(ckpt_dir, "averaged.tfrx"))
    if log_path:
        write_loss_log(log_path, log)
    return TrainResult(averaged, log, epoch_records, aborted)
