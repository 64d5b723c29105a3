"""Unfused tape ops that the tests compose into references.

The program runs fused ops (``tensor.linear``, ``tensor.attention``,
``tensor.smoothed_cross_entropy``) with one hand-written backward rule
each.  The tests check each fused op against the same computation built
from the small ops below, and check these ops themselves against finite
differences.  They record on the active tape through
``tensor._make_output`` exactly as the program's ops do, so ``backward``
treats both alike; no module under ``src/`` calls them.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from transference.errors import NumericError, ShapeError
from transference.tensor import Tensor, _make_output, _unbroadcast


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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading batch dimensions
    broadcast, and each gradient is summed back to its input's shape."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2, got {a.shape} and {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    a_data, b_data = a.data, b.data
    out = np.matmul(a_data, b_data)

    def rule(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b_data, -1, -2)), a_data.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(np.swapaxes(a_data, -1, -2), g), b_data.shape)
        return ga, gb

    return _make_output(out, (a, b), rule)


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
