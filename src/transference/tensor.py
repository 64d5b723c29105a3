"""Dense tensors with tape-based reverse-mode automatic differentiation.

Data lives in numpy arrays (float32 for training storage, float64 for the
gradient-check tests; ops preserve the input dtype).  Operations executed
while a :class:`GradTape` is active are recorded in execution order, and
``backward`` replays the tape in reverse, which visits operations in
reverse topological order by construction, and returns each leaf's
gradient; tensors carry no gradient slot.  Tensors are treated as
immutable values once created; gradients accumulate additively when a
tensor feeds several operations.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, NumericError, ShapeError

DEFAULT_DTYPE = np.float32

# Additive mask value standing in for -inf: after the max-subtraction in
# softmax, exp() underflows to an exact 0.0 weight, while every stored
# tensor stays finite.
MASK_VALUE = -1e9


class Tensor:
    """A dense row-major float array plus autodiff bookkeeping."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class TapeEntry:
    """One executed operation: output, inputs, and its backward rule."""

    __slots__ = ("output", "inputs", "backward_rule")

    def __init__(self, output: Tensor, inputs: tuple[Tensor, ...],
                 backward_rule: Callable[[np.ndarray], tuple]):
        self.output = output
        self.inputs = inputs
        self.backward_rule = backward_rule


class GradTape:
    """Ordered record of executed operations (define-by-run).

    A tape is single-owner: use one per forward pass and do not share it
    across concurrent tasks.
    """

    def __init__(self):
        self.entries: list[TapeEntry] = []

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPE_STACK.pop()

    def record(self, output: Tensor, inputs: tuple[Tensor, ...],
               backward_rule: Callable[[np.ndarray], tuple]) -> None:
        self.entries.append(TapeEntry(output, inputs, backward_rule))


_TAPE_STACK: list[GradTape] = []


def _active_tape() -> GradTape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _make_output(data: np.ndarray, inputs: Sequence[Tensor],
                 backward_rule: Callable[[np.ndarray], tuple]) -> Tensor:
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs),
                 dtype=data.dtype)
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        tape.record(out, tuple(inputs), backward_rule)
    return out


def backward(tape: GradTape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Accumulate d(loss)/d(leaf) for every requires-grad leaf on the tape.

    Returns a mapping keyed by leaf tensor; leaves present on the tape but
    not on any path to the loss get a zero gradient.  The mapping is the
    only place the gradients are kept.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    produced = {id(entry.output) for entry in tape.entries}

    leaves: dict[int, Tensor] = {}
    for entry in tape.entries:
        for t in entry.inputs:
            if t.requires_grad and id(t) not in produced:
                leaves[id(t)] = t
    if loss.requires_grad and id(loss) not in produced:
        leaves[id(loss)] = loss

    for entry in reversed(tape.entries):
        out_grad = grads.pop(id(entry.output), None)
        if out_grad is None:
            continue
        input_grads = entry.backward_rule(out_grad)
        for t, g in zip(entry.inputs, input_grads):
            if g is None or not t.requires_grad:
                continue
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g

    result: dict[Tensor, np.ndarray] = {}
    for key, leaf in leaves.items():
        g = grads.get(key)
        result[leaf] = (np.zeros_like(leaf.data) if g is None
                        else np.asarray(g, dtype=leaf.data.dtype))
    return result


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, (g_dim, s_dim) in enumerate(zip(grad.shape, shape)):
        if s_dim == 1 and g_dim != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def constant(data, dtype=None) -> Tensor:
    """A tensor that never takes gradients (masks, positional tables)."""
    return Tensor(data, requires_grad=False, dtype=dtype)


# The binary ops' backward rules return None for an input that takes no
# gradient (masks, positional tables) instead of computing and dropping it.

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def rule(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _make_output(out, (a, b), rule)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def rule(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.data.shape) if b.requires_grad else None)

    return _make_output(out, (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    a_data, b_data = a.data, b.data

    def rule(g):
        return (_unbroadcast(g * b_data, a_data.shape) if a.requires_grad else None,
                _unbroadcast(g * a_data, b_data.shape) if b.requires_grad else None)

    return _make_output(out, (a, b), rule)


def scale(a: Tensor, factor: float) -> Tensor:
    out = a.data * a.data.dtype.type(factor)

    def rule(g):
        return (g * a.data.dtype.type(factor),)

    return _make_output(out, (a,), rule)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; leading batch dimensions broadcast.

    A stack of rows times one matrix, [..., d] @ [d, k], runs forward and
    backward as flat [rows, d] GEMMs, so the weight gradient is one
    product instead of a per-batch stack summed away."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2, got {a.shape} and {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    a_data, b_data = a.data, b.data
    if b_data.ndim == 2 and a_data.ndim > 2:
        return _rows_times_matrix(a, b, None)
    out = np.matmul(a_data, b_data)

    def rule(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b_data, -1, -2)), a_data.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(np.swapaxes(a_data, -1, -2), g), b_data.shape)
        return ga, gb

    return _make_output(out, (a, b), rule)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for x [..., d], w [d, k] and b [k], as one op."""
    if w.data.ndim != 2 or x.data.ndim < 1 or x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"linear input {x.shape} does not fit weight {w.shape}")
    if b.data.shape != w.data.shape[1:]:
        raise ShapeError(f"linear bias {b.shape} does not fit weight {w.shape}")
    return _rows_times_matrix(x, w, b)


def _rows_times_matrix(x: Tensor, w: Tensor, b: Tensor | None) -> Tensor:
    """[..., d] @ [d, k] (+ b) as one [rows, d] GEMM, with both gradients
    as flat GEMMs and the bias gradient as one column sum."""
    d, k = w.data.shape
    lead = x.data.shape[:-1]
    rows = math.prod(lead)
    x2 = x.data.reshape(rows, d)
    w_data = w.data
    out = x2 @ w_data
    if b is not None:
        out += b.data
    inputs = (x, w) if b is None else (x, w, b)

    def rule(g):
        g2 = g.reshape(rows, k)
        grads = [(g2 @ w_data.T).reshape(lead + (d,)) if x.requires_grad else None,
                 x2.T @ g2 if w.requires_grad else None]
        if b is not None:
            grads.append(g2.sum(axis=0) if b.requires_grad else None)
        return grads

    return _make_output(out.reshape(lead + (k,)), inputs, rule)


def _to_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """[..., len, d] -> a view [..., heads, len, d_h]; head i is columns [i*d_h, (i+1)*d_h)."""
    return np.swapaxes(x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads)), -2, -3)


def _from_heads(x: np.ndarray) -> np.ndarray:
    """[..., heads, len, d_h] -> [..., len, heads * d_h], undoing ``_to_heads``."""
    return np.swapaxes(x, -2, -3).reshape(x.shape[:-3] + (x.shape[-2], x.shape[-3] * x.shape[-1]))


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None,
              scale: float = 1.0, heads: int | None = None) -> Tensor:
    """softmax(q @ k^T * scale + mask) @ v over the last two axes, as one
    op with one backward rule.  Leading dimensions broadcast; ``mask`` is
    an additive constant that takes no gradient.  With ``heads``, q, k and
    v are [..., len, d] and attend as heads (``_to_heads``; ``mask`` then
    broadcasts to [..., heads, len_q, len_k]), merged back to [..., len, d]."""
    kind = q.data.dtype.type
    q_data, k_data, v_data = q.data, k.data, v.data
    if heads is not None:
        q_data, k_data, v_data = (_to_heads(x, heads) for x in (q_data, k_data, v_data))
    probs = np.matmul(q_data, np.swapaxes(k_data, -1, -2))
    probs *= kind(scale)
    if mask is not None:
        mask = np.asarray(mask, dtype=probs.dtype)
        try:
            full = np.broadcast_shapes(mask.shape, probs.shape)
        except ValueError as exc:
            raise ShapeError(
                f"mask shape {mask.shape} does not broadcast to scores {probs.shape}") from exc
        if full == probs.shape:
            probs += mask
        else:
            probs = probs + mask
    if np.isnan(probs).any():
        raise NumericError("attention scores contain NaN")
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    out = np.matmul(probs, v_data)

    def rule(g):
        if heads is not None:
            g = _to_heads(g, heads)
        gv = None
        if v.requires_grad:
            gv = _unbroadcast(np.matmul(np.swapaxes(probs, -1, -2), g), v_data.shape)
        gs = np.matmul(g, np.swapaxes(v_data, -1, -2))
        gs -= (gs * probs).sum(axis=-1, keepdims=True)
        gs *= probs
        gs *= kind(scale)
        gq = gk = None
        if q.requires_grad:
            gq = _unbroadcast(np.matmul(gs, k_data), q_data.shape)
        if k.requires_grad:
            gk = _unbroadcast(np.matmul(np.swapaxes(gs, -1, -2), q_data), k_data.shape)
        if heads is None:
            return gq, gk, gv
        return tuple(None if x is None else _from_heads(x) for x in (gq, gk, gv))

    return _make_output(out if heads is None else _from_heads(out), (q, k, v), rule)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)
    keep = a.data > 0

    def rule(g):
        return (g * keep,)

    return _make_output(out, (a,), rule)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along `axis`; slices sum to 1."""
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {a.shape}")
    if np.isnan(a.data).any():
        raise NumericError("softmax input contains NaN")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def rule(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return ((g - inner) * out,)

    return _make_output(out, (a,), rule)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"log_softmax axis {axis} invalid for shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    probs = np.exp(out)

    def rule(g):
        return (g - probs * g.sum(axis=axis, keepdims=True),)

    return _make_output(out, (a,), rule)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor,
               epsilon: float = 1e-6) -> Tensor:
    """Normalize the last dimension to zero mean / unit variance, then
    apply elementwise gain and bias."""
    dim = a.data.shape[-1]
    if gain.data.shape != (dim,) or bias.data.shape != (dim,):
        raise ShapeError(
            f"layer_norm gain/bias {gain.shape}/{bias.shape} do not match last dim {dim}")
    # Rows as one [rows, dim] matrix; a row sum is a product with a ones
    # vector, much faster than a reduction over a short last axis.
    kind = a.data.dtype.type
    x = a.data.reshape(-1, dim)
    ones = np.ones(dim, dtype=x.dtype)
    inv_dim = kind(1.0 / dim)
    x_hat = x - ((x @ ones) * inv_dim)[:, None]
    var = np.einsum("ij,ij->i", x_hat, x_hat) * inv_dim
    var += kind(epsilon)
    inv = (1.0 / np.sqrt(var))[:, None]
    x_hat *= inv
    out = x_hat * gain.data
    out += bias.data
    gain_data = gain.data

    def rule(g):
        g2 = g.reshape(-1, dim)
        g_gain = np.einsum("ij,ij->j", g2, x_hat)
        g_bias = g2.sum(axis=0)
        d_hat = g2 * gain_data
        proj = np.einsum("ij,ij->i", d_hat, x_hat) * inv_dim
        d_hat -= ((d_hat @ ones) * inv_dim)[:, None]
        d_hat -= x_hat * proj[:, None]
        d_hat *= inv
        return d_hat.reshape(a.data.shape), g_gain, g_bias

    return _make_output(out.reshape(a.data.shape), (a, gain, bias), rule)


def dropout(a: Tensor, p: float, training: bool, rng) -> Tensor:
    """Inverted dropout: zero with probability p and scale survivors by
    1/(1-p) at train time; identity in evaluation mode.

    `rng` is an integer seed or a numpy Generator; it is only consumed in
    training mode with p > 0.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability {p} outside [0, 1)")
    if not training or p == 0.0:
        return a
    gen = np.random.default_rng(rng) if isinstance(rng, int) else rng
    if gen is None:
        raise ContractError("training-mode dropout needs an RNG")
    keep = (gen.random(a.data.shape) >= p)
    factor = a.data.dtype.type(1.0 / (1.0 - p))
    mask = keep.astype(a.data.dtype) * factor
    out = a.data * mask

    def rule(g):
        return (g * mask,)

    return _make_output(out, (a,), rule)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup; backward scatter-adds into the table gradient."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ContractError(
            f"embedding ids outside [0, {table.data.shape[0]})")
    out = table.data[ids]

    def rule(g):
        g_table = np.zeros_like(table.data)
        np.add.at(g_table, ids.reshape(-1),
                  g.reshape(-1, table.data.shape[-1]))
        return (g_table,)

    return _make_output(out, (table,), rule)


def reshape(a: Tensor, shape: Iterable[int]) -> Tensor:
    shape = tuple(shape)
    out = a.data.reshape(shape)
    orig = a.data.shape

    def rule(g):
        return (g.reshape(orig),)

    return _make_output(out, (a,), rule)


def transpose(a: Tensor, axes: Iterable[int]) -> Tensor:
    axes = tuple(axes)
    out = np.transpose(a.data, axes)
    inverse = tuple(np.argsort(axes))

    def rule(g):
        return (np.transpose(g, inverse),)

    return _make_output(out, (a,), rule)


def reduce_sum(a: Tensor, axis: int | None = None,
               keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.data.shape

    def rule(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _make_output(np.asarray(out), (a,), rule)


def gather_last(a: Tensor, index: np.ndarray) -> Tensor:
    """take_along_axis on the last axis; index shape = a.shape[:-1] + (k,)."""
    index = np.asarray(index)
    if index.shape[:-1] != a.data.shape[:-1]:
        raise ShapeError(
            f"gather index shape {index.shape} incompatible with {a.shape}")
    out = np.take_along_axis(a.data, index, axis=-1)
    flat_rows = int(np.prod(a.data.shape[:-1], dtype=np.int64)) if a.data.ndim > 1 else 1

    def rule(g):
        g_a = np.zeros_like(a.data)
        g2 = g_a.reshape(flat_rows, a.data.shape[-1])
        idx2 = index.reshape(flat_rows, index.shape[-1])
        rows = np.arange(flat_rows)[:, None]
        np.add.at(g2, (rows, idx2), g.reshape(flat_rows, index.shape[-1]))
        return (g_a,)

    return _make_output(out, (a,), rule)


def smoothed_cross_entropy(logits: Tensor, targets: np.ndarray,
                           counted: np.ndarray, eps: float) -> Tensor:
    """Mean label-smoothed cross-entropy over the ``counted`` positions,
    as one op: 1 - eps on the target id, eps / (V - 1) on every other id.

    ``targets`` and the boolean ``counted`` have the shape of ``logits``
    without its last axis.  Only the log-probabilities are kept for the
    backward rule, which is ((a + s V) p - s - a onehot) / n at counted
    positions, with s = eps / (V - 1) and a = 1 - eps - s."""
    targets = np.asarray(targets)
    counted = np.asarray(counted, dtype=bool)
    if targets.shape != logits.data.shape[:-1] or counted.shape != targets.shape:
        raise ShapeError(
            f"targets {targets.shape} / counted {counted.shape} do not fit logits {logits.shape}")
    n = int(counted.sum())
    if n == 0:
        raise ContractError("cross-entropy over no counted positions")
    vocab = logits.data.shape[-1]
    kind = logits.data.dtype.type
    smooth = eps / (vocab - 1)
    gold_weight = 1.0 - eps - smooth
    logp = logits.data - logits.data.max(axis=-1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))
    gold = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    per_pos = gold * kind(-gold_weight) + logp.sum(axis=-1) * kind(-smooth)
    out = np.asarray(per_pos[counted].sum() * kind(1.0 / n))

    def rule(g):
        grad = np.exp(logp)
        grad *= kind(gold_weight + smooth * vocab)
        grad -= kind(smooth)
        flat = grad.reshape(-1, vocab)
        flat[np.arange(flat.shape[0]), targets.reshape(-1)] -= kind(gold_weight)
        grad *= (counted * (g / n)).astype(grad.dtype)[..., None]
        return (grad,)

    return _make_output(out, (logits,), rule)
