"""Dense tensors with tape-based reverse-mode automatic differentiation.

Data lives in numpy arrays (float32 for training storage, float64 for the
gradient-check tests; ops preserve the input dtype).  Operations executed
while a :class:`GradTape` is active are recorded in execution order as
graph structure, not tensors: each entry keeps its output's node number,
one slot per input (the input's node when this tape produced it, the
leaf tensor itself, or ``None`` when it takes no gradient) and a backward
rule that captures only the arrays it reads.  An intermediate array that
no rule reads is freed as soon as the forward pass drops it.
``backward`` replays the tape in reverse, which visits operations in
reverse topological order by construction, releases each rule once it
has run, and returns each leaf's gradient; a tape runs backward once,
and tensors carry no gradient slot.  Tensors are treated as immutable
values once created; gradients accumulate additively when a tensor feeds
several operations.

It holds only the ops the model and the training loop run; the tests
keep the unfused ops they compare the fused ones with.
"""

from __future__ import annotations

import itertools
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
    """A dense row-major float array plus autodiff bookkeeping: ``node``
    is the number a tape gave the tensor when an op recorded it as its
    output, and ``None`` otherwise."""

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.node: int | None = None

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
    """One executed operation: its output's node, one slot per input (the
    node of an output recorded earlier on the same tape, a leaf tensor, or
    ``None`` for an input that takes no gradient), and its backward rule
    (``None`` once ``backward`` has run it)."""

    __slots__ = ("node", "inputs", "backward_rule")

    def __init__(self, node: int, inputs: tuple,
                 backward_rule: Callable[[np.ndarray], tuple]):
        self.node = node
        self.inputs = inputs
        self.backward_rule = backward_rule


# Node numbers are global, so a tensor recorded on one tape can never be
# mistaken for a node of another; object ids could be, once freed
# intermediates let CPython reuse them.
_NODES = itertools.count()


class GradTape:
    """Ordered record of executed operations (define-by-run).

    A tape is single-owner: use one per forward pass and do not share it
    across concurrent tasks.  ``backward`` consumes it.
    """

    def __init__(self):
        self.entries: list[TapeEntry] = []
        self.consumed = False
        self._nodes: set[int] = set()

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPE_STACK.pop()

    def record(self, output: Tensor, inputs: Sequence[Tensor],
               backward_rule: Callable[[np.ndarray], tuple]) -> None:
        slots = tuple(None if not t.requires_grad
                      else t.node if t.node in self._nodes else t
                      for t in inputs)
        output.node = next(_NODES)
        self._nodes.add(output.node)
        self.entries.append(TapeEntry(output.node, slots, backward_rule))


_TAPE_STACK: list[GradTape] = []


def _active_tape() -> GradTape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _make_output(data: np.ndarray, inputs: Sequence[Tensor],
                 backward_rule: Callable[[np.ndarray], tuple]) -> Tensor:
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs),
                 dtype=data.dtype)
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        tape.record(out, inputs, backward_rule)
    return out


def backward(tape: GradTape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Accumulate d(loss)/d(leaf) for every requires-grad leaf on the tape.

    Returns a mapping keyed by leaf tensor; leaves present on the tape but
    not on any path to the loss get a zero gradient.  The mapping is the
    only place the gradients are kept.  Each entry's rule is dropped once
    it has run, so the arrays it captured are freed as the replay goes;
    the tape keeps its entries but cannot run backward again.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if tape.consumed:
        raise ContractError("backward over a consumed tape: a tape runs backward once")
    tape.consumed = True

    # gradients of recorded outputs by node, of leaves by tensor (in the
    # order the leaves first appear on the tape)
    grads: dict[int, np.ndarray] = {}
    leaf_grads: dict[Tensor, np.ndarray | None] = {}
    for entry in tape.entries:
        for slot in entry.inputs:
            if isinstance(slot, Tensor):
                leaf_grads.setdefault(slot)
    ones = np.ones_like(loss.data)
    if loss.node in tape._nodes:
        grads[loss.node] = ones
    elif loss.requires_grad:
        leaf_grads[loss] = ones

    for entry in reversed(tape.entries):
        rule, entry.backward_rule = entry.backward_rule, None
        out_grad = grads.pop(entry.node, None)
        if out_grad is None:
            continue
        for slot, g in zip(entry.inputs, rule(out_grad)):
            if g is None or slot is None:
                continue
            store = leaf_grads if isinstance(slot, Tensor) else grads
            prev = store.get(slot)
            store[slot] = g if prev is None else prev + g

    return {leaf: (np.zeros_like(leaf.data) if g is None
                   else np.asarray(g, dtype=leaf.data.dtype))
            for leaf, g in leaf_grads.items()}


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


# Backward rules capture shapes, flags and the arrays they read, never
# the input or output tensors, so the tape pins no array that no rule
# reads.  They return None for an input that takes no gradient (masks,
# positional tables) instead of computing and dropping it.

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    a_shape, b_shape = a.data.shape, b.data.shape
    a_grad, b_grad = a.requires_grad, b.requires_grad

    def rule(g):
        return (_unbroadcast(g, a_shape) if a_grad else None,
                _unbroadcast(g, b_shape) if b_grad else None)

    return _make_output(out, (a, b), rule)


def scale(a: Tensor, factor: float) -> Tensor:
    factor = a.data.dtype.type(factor)
    out = a.data * factor

    def rule(g):
        return (g * factor,)

    return _make_output(out, (a,), rule)


def _check_linear(x: Tensor, w: Tensor, b: Tensor | None) -> None:
    if w.data.ndim != 2 or x.data.ndim < 1 or x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"linear input {x.shape} does not fit weight {w.shape}")
    if b is not None and b.data.shape != w.data.shape[1:]:
        raise ShapeError(f"linear bias {b.shape} does not fit weight {w.shape}")


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b) for x [..., d], w [d, k] and b [k], as one op: one
    [rows, d] GEMM, both gradients as flat GEMMs and the bias gradient as
    one column sum."""
    _check_linear(x, w, b)
    d, k = w.data.shape
    lead = x.data.shape[:-1]
    rows = math.prod(lead)
    x2 = x.data.reshape(rows, d)
    w_data = w.data
    out = x2 @ w_data
    if b is not None:
        out += b.data
    inputs = (x, w) if b is None else (x, w, b)
    x_grad, w_grad = x.requires_grad, w.requires_grad
    b_grad = b is not None and b.requires_grad

    def rule(g):
        g2 = g.reshape(rows, k)
        return ((g2 @ w_data.T).reshape(lead + (d,)) if x_grad else None,
                x2.T @ g2 if w_grad else None,
                g2.sum(axis=0) if b_grad else None)

    return _make_output(out.reshape(lead + (k,)), inputs, rule)


def _to_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """[..., len, d] -> a view [..., heads, len, d_h]; head i is columns [i*d_h, (i+1)*d_h)."""
    return np.swapaxes(x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads)), -2, -3)


def _from_heads(x: np.ndarray) -> np.ndarray:
    """[..., heads, len, d_h] -> [..., len, heads * d_h], undoing ``_to_heads``."""
    return np.swapaxes(x, -2, -3).reshape(x.shape[:-3] + (x.shape[-2], x.shape[-3] * x.shape[-1]))


# Longest last axis on which ``_row_max`` loops over columns.  Measured
# with numpy 2.4 on float32 scores (one BLAS thread, 2-vCPU Xeon): the
# loop beat the native reduction at every length up to 48, for both
# [B, H, L, L] training scores and [240, 4, 1, L] decode steps, and lost
# at 64 and above.
_ROW_MAX_LOOP = 48


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)``.  numpy's reduction over a short
    last axis pays a per-row cost, so short rows take the maximum one
    column at a time with ``np.maximum``.  A maximum is exact, and both
    give NaN for a row that holds one; they can differ only in the sign
    of a zero maximum, which numpy's vectorized reduction picks by lane
    order, and ``exp(x - m)`` reads +0 and -0 alike."""
    n = x.shape[-1]
    if n == 0 or n > _ROW_MAX_LOOP:
        return x.max(axis=-1, keepdims=True)
    m = x[..., :1].copy()
    for j in range(1, n):
        np.maximum(m, x[..., j:j + 1], out=m)
    return m


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None,
              scale: float = 1.0, heads: int | None = None) -> Tensor:
    """softmax(q @ k^T * scale + mask) @ v over the last two axes, as one
    op with one backward rule.  Leading dimensions broadcast; ``mask`` is
    an additive constant that takes no gradient.  With ``heads``, q, k and
    v are [..., len, d] and attend as heads (``_to_heads``; ``mask`` then
    broadcasts to [..., heads, len_q, len_k]), merged back to [..., len, d]."""
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"query/key depth mismatch: {q.shape} vs {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"key/value length mismatch: {k.shape} vs {v.shape}")
    if heads is not None and (q.shape[-1] % heads or v.shape[-1] % heads):
        raise ShapeError(f"query depth {q.shape[-1]} or value depth {v.shape[-1]} "
                         f"is not divisible by {heads} heads")
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
    row_max = _row_max(probs)
    # the maximum of a row is NaN when any of its scores is
    if np.isnan(row_max).any():
        raise NumericError("attention scores contain NaN")
    probs -= row_max
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    out = np.matmul(probs, v_data)
    q_grad, k_grad, v_grad = q.requires_grad, k.requires_grad, v.requires_grad

    def rule(g):
        if heads is not None:
            g = _to_heads(g, heads)
        gv = None
        if v_grad:
            gv = _unbroadcast(np.matmul(np.swapaxes(probs, -1, -2), g), v_data.shape)
        gs = np.matmul(g, np.swapaxes(v_data, -1, -2))
        gs -= (gs * probs).sum(axis=-1, keepdims=True)
        gs *= probs
        gs *= kind(scale)
        gq = gk = None
        if q_grad:
            gq = _unbroadcast(np.matmul(gs, k_data), q_data.shape)
        if k_grad:
            gk = _unbroadcast(np.matmul(np.swapaxes(gs, -1, -2), q_data), k_data.shape)
        if heads is None:
            return gq, gk, gv
        return tuple(None if x is None else _from_heads(x) for x in (gq, gk, gv))

    return _make_output(out if heads is None else _from_heads(out), (q, k, v), rule)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)

    # out > 0 is a.data > 0, NaN included, and the linear after a relu
    # keeps ``out`` for its own rule anyway
    def rule(g):
        return (g * (out > 0),)

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
    shape = a.data.shape

    def rule(g):
        g2 = g.reshape(-1, dim)
        g_gain = np.einsum("ij,ij->j", g2, x_hat)
        g_bias = g2.sum(axis=0)
        d_hat = g2 * gain_data
        proj = np.einsum("ij,ij->i", d_hat, x_hat) * inv_dim
        d_hat -= ((d_hat @ ones) * inv_dim)[:, None]
        d_hat -= x_hat * proj[:, None]
        d_hat *= inv
        return d_hat.reshape(shape), g_gain, g_bias

    return _make_output(out.reshape(shape), (a, gain, bias), rule)


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
    dtype = a.data.dtype
    factor = dtype.type(1.0 / (1.0 - p))
    out = a.data * (keep.astype(dtype) * factor)

    # the rule keeps the boolean mask and rebuilds the same float mask
    def rule(g):
        return (g * (keep.astype(dtype) * factor),)

    return _make_output(out, (a,), rule)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup; backward scatter-adds into the table gradient."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ContractError(
            f"embedding ids outside [0, {table.data.shape[0]})")
    out = table.data[ids]
    shape, dtype = table.data.shape, table.data.dtype

    def rule(g):
        g_table = np.zeros(shape, dtype=dtype)
        np.add.at(g_table, ids.reshape(-1), g.reshape(-1, shape[-1]))
        return (g_table,)

    return _make_output(out, (table,), rule)


def reshape(a: Tensor, shape: Iterable[int]) -> Tensor:
    shape = tuple(shape)
    out = a.data.reshape(shape)
    orig = a.data.shape

    def rule(g):
        return (g.reshape(orig),)

    return _make_output(out, (a,), rule)


# Bytes of rows that ``stable_log_softmax`` exponentiates at once: its
# one temporary is a block of rows this size (or one row), not a copy of
# the whole array.
_EXP_BLOCK_BYTES = 1 << 20


def stable_log_softmax(x: np.ndarray) -> np.ndarray:
    """log softmax over the last axis of a C-contiguous array, in place,
    shifted by the row maximum so that exp cannot overflow; returns ``x``.
    The exp-sums run over blocks of about ``_EXP_BLOCK_BYTES``; each row
    gets the float operations of one whole-array pass."""
    if not x.flags.c_contiguous:
        raise ContractError("stable_log_softmax works in place on a C-contiguous array")
    x -= x.max(axis=-1, keepdims=True)
    rows = x.reshape(-1, x.shape[-1])
    block = max(1, _EXP_BLOCK_BYTES // (rows.shape[1] * rows.itemsize))
    for start in range(0, rows.shape[0], block):
        part = rows[start:start + block]
        part -= np.log(np.exp(part).sum(axis=-1, keepdims=True))
    return x


def smoothed_cross_entropy(x: Tensor, targets: np.ndarray,
                           counted: np.ndarray, eps: float,
                           weight: Tensor | None = None,
                           bias: Tensor | None = None) -> Tensor:
    """Mean label-smoothed cross-entropy over the ``counted`` positions,
    as one op: 1 - eps on the target id, eps / (V - 1) on every other id.

    Given ``weight`` [d, V] (and ``bias`` [V]), ``x`` [..., d] holds the
    states the output projection reads, and the op computes the logits
    ``x @ weight + bias`` with ``linear``'s float operations; without
    them ``x`` holds the logits [..., V] and the op works on one copy.
    ``targets`` and the boolean ``counted`` have the shape of ``x``
    without its last axis.

    One [rows, V] buffer holds the logits and becomes the
    log-probabilities in place.  The backward rule keeps only that buffer
    (and ``x`` and ``weight``), overwrites it with the logits gradient,
    ((a + s V) p - s - a onehot) / n at counted positions with
    s = eps / (V - 1) and a = 1 - eps - s, and runs ``linear``'s two
    GEMMs and bias sum on it."""
    project = weight is not None
    if project:
        _check_linear(x, weight, bias)
    targets = np.asarray(targets)
    counted = np.asarray(counted, dtype=bool)
    if targets.shape != x.data.shape[:-1] or counted.shape != targets.shape:
        raise ShapeError(
            f"targets {targets.shape} / counted {counted.shape} do not fit "
            f"{'states' if project else 'logits'} {x.shape}")
    n = int(counted.sum())
    if n == 0:
        raise ContractError("cross-entropy over no counted positions")
    rows, depth = targets.size, x.data.shape[-1]
    flat_targets = targets.reshape(-1)
    flat_counted = counted.reshape(-1)
    if project:
        x2, w_data = x.data.reshape(rows, depth), weight.data
        logp = x2 @ w_data
        if bias is not None:
            logp += bias.data
    else:
        logp = np.array(x.data, order="C").reshape(rows, depth)
    vocab = logp.shape[-1]
    kind = logp.dtype.type
    smooth = eps / (vocab - 1)
    gold_weight = 1.0 - eps - smooth
    stable_log_softmax(logp)
    gold = logp[np.arange(rows), flat_targets]
    per_pos = gold * kind(-gold_weight) + logp.sum(axis=-1) * kind(-smooth)
    out = np.asarray(per_pos[flat_counted].sum() * kind(1.0 / n))

    def logits_grad(g):
        grad = np.exp(logp, out=logp)
        grad *= kind(gold_weight + smooth * vocab)
        grad -= kind(smooth)
        grad[np.arange(rows), flat_targets] -= kind(gold_weight)
        grad *= (flat_counted * (g / n)).astype(grad.dtype)[:, None]
        return grad

    shape = x.data.shape
    if not project:
        return _make_output(out, (x,), lambda g: (logits_grad(g).reshape(shape),))
    x_grad, w_grad = x.requires_grad, weight.requires_grad
    b_grad = bias is not None and bias.requires_grad

    def rule(g):
        g2 = logits_grad(g)
        return ((g2 @ w_data.T).reshape(shape) if x_grad else None,
                x2.T @ g2 if w_grad else None,
                g2.sum(axis=0) if b_grad else None)

    return _make_output(out, (x, weight) if bias is None else (x, weight, bias), rule)
