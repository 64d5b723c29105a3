"""Tensor ops, tape-based backward, and gradient checks."""

import ast
import inspect
import weakref
from pathlib import Path

import numpy as np
import pytest

from transference import tensor as T
from transference.errors import ConfigError, ContractError, NumericError, ShapeError
from transference.tensor import GradTape, Tensor, backward

import reference as R
from oracles import (finite_difference_gradients, matmul_reference,
                     relative_gradient_error)


class TestMatmul:
    """The program's GEMM: ``T.linear`` without a bias."""

    def test_identity(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(2, 2)), dtype=np.float64)
        eye = Tensor(np.eye(2), dtype=np.float64)
        np.testing.assert_array_equal(T.linear(a, eye).data, a.data)

    def test_zeros(self):
        rng = np.random.default_rng(1)
        zeros = Tensor(np.zeros((3, 4)))
        b = Tensor(rng.normal(size=(4, 2)))
        out = T.linear(zeros, b)
        assert out.shape == (3, 2)
        np.testing.assert_array_equal(out.data, np.zeros((3, 2), dtype=np.float32))

    def test_matches_scalar_triple_loop(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 5))
        out = T.linear(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64))
        np.testing.assert_allclose(out.data, matmul_reference(a, b),
                                   rtol=1e-12, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_batched_broadcast(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 3, 4))
        w = rng.normal(size=(4, 5))
        out = T.linear(Tensor(a, dtype=np.float64), Tensor(w, dtype=np.float64))
        for i in range(2):
            np.testing.assert_allclose(out.data[i], matmul_reference(a[i], w),
                                       rtol=1e-12)


class TestSoftmax:
    def test_constant_vector(self):
        out = R.softmax(Tensor([3.0, 3.0, 3.0], dtype=np.float64))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 7))
        a = R.softmax(Tensor(x, dtype=np.float64)).data
        b = R.softmax(Tensor(x + 11.5, dtype=np.float64)).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_analytic_values(self):
        out = R.softmax(Tensor([0.0, np.log(3.0)], dtype=np.float64))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_rows_sum_to_one_at_large_magnitude(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1e4, 1e4, size=(20, 13))
        out = R.softmax(Tensor(x, dtype=np.float64), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)
        assert np.isfinite(out.data).all()

    def test_nan_input_raises(self):
        with pytest.raises(NumericError):
            R.softmax(Tensor([1.0, np.nan]))

    def test_bad_axis(self):
        with pytest.raises(ShapeError):
            R.softmax(Tensor([1.0, 2.0]), axis=3)


class TestLayerNorm:
    def test_constant_row_is_zeroed(self):
        x = Tensor(np.full((2, 4), 7.0))
        out = T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-5)

    def test_already_normalized_row(self):
        x = Tensor(np.array([[1.0, -1.0]]), dtype=np.float64)
        out = T.layer_norm(x, Tensor(np.ones(2), dtype=np.float64),
                           Tensor(np.zeros(2), dtype=np.float64), epsilon=1e-12)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-6)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(6)
        row = rng.normal(size=(1, 9))
        gain = rng.normal(size=9)
        bias = rng.normal(size=9)
        eps = 1e-6
        out = T.layer_norm(Tensor(row, dtype=np.float64),
                           Tensor(gain, dtype=np.float64),
                           Tensor(bias, dtype=np.float64), epsilon=eps)
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        expected = (row - mu) / np.sqrt(var + eps) * gain + bias
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_mean_zero_var_one_before_gain(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(3, 5, 16)), dtype=np.float64)
        out = T.layer_norm(x, Tensor(np.ones(16), dtype=np.float64),
                           Tensor(np.zeros(16), dtype=np.float64))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-4)

    def test_gain_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)),
                         Tensor(np.zeros(4)))


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with GradTape() as tape:
            loss = R.reduce_sum(x)
        grads = backward(tape, loss)
        np.testing.assert_array_equal(grads[x], np.ones((2, 3), dtype=np.float32))

    def test_dot_product_gradient(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(1, 5)), requires_grad=True, dtype=np.float64)
        y = Tensor(rng.normal(size=(5, 1)), requires_grad=True, dtype=np.float64)
        with GradTape() as tape:
            loss = R.reduce_sum(R.matmul(x, y))
        grads = backward(tape, loss)
        np.testing.assert_allclose(grads[x], y.data.T, rtol=1e-12)
        np.testing.assert_allclose(grads[y], x.data.T, rtol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with GradTape() as tape:
            out = T.scale(x, 2.0)
        with pytest.raises(ContractError):
            backward(tape, out)

    def test_off_path_parameter_gets_zero(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        with GradTape() as tape:
            used = R.reduce_sum(T.scale(x, 1.0))
            _unused = T.scale(y, 2.0)
        grads = backward(tape, used)
        np.testing.assert_array_equal(grads[y], np.zeros(3, dtype=np.float32))

    def test_reuse_accumulates(self):
        # x used as both matmul operands of x @ x^T: grad is the sum of
        # both partials, d/dx sum(x x^T) = (x^T 1)^T ... checked against
        # finite differences instead of a hand formula.
        rng = np.random.default_rng(9)
        x_data = rng.normal(size=(3, 3)).astype(np.float64)
        x = Tensor(x_data.copy(), requires_grad=True, dtype=np.float64)

        with GradTape() as tape:
            xt = R.transpose(x, (1, 0))
            loss = R.reduce_sum(R.matmul(x, xt))
        grads = backward(tape, loss)

        def loss_fn():
            return float((x_data @ x_data.T).sum())

        numeric = finite_difference_gradients(loss_fn, {"x": x_data})["x"]
        assert relative_gradient_error(grads[x], numeric) < 1e-6


class TestDropout:
    def test_p_zero_identity(self):
        x = Tensor(np.ones((4, 4)))
        out_train = T.dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
        out_eval = T.dropout(x, 0.0, training=False, rng=None)
        np.testing.assert_array_equal(out_train.data, x.data)
        np.testing.assert_array_equal(out_eval.data, x.data)

    def test_eval_mode_identity(self):
        x = Tensor(np.ones((4, 4)))
        out = T.dropout(x, 0.7, training=False, rng=None)
        np.testing.assert_array_equal(out.data, x.data)

    def test_statistics_and_scaling(self):
        rng = np.random.default_rng(10)
        x = Tensor(np.ones((200, 200)))
        out = T.dropout(x, 0.1, training=True, rng=rng)
        zero_fraction = float((out.data == 0).mean())
        assert abs(zero_fraction - 0.1) < 0.02
        nonzero = out.data[out.data != 0]
        np.testing.assert_allclose(nonzero, np.float32(1.0 / 0.9))

    def test_invalid_probability(self):
        with pytest.raises(ConfigError):
            T.dropout(Tensor(np.ones(3)), 1.0, training=True, rng=0)
        with pytest.raises(ConfigError):
            T.dropout(Tensor(np.ones(3)), -0.1, training=True, rng=0)

    def test_seeded_determinism(self):
        x = Tensor(np.ones((8, 8)))
        a = T.dropout(x, 0.5, training=True, rng=123).data
        b = T.dropout(x, 0.5, training=True, rng=123).data
        np.testing.assert_array_equal(a, b)


def _gradcheck_op(build, arrays, tol=1e-4, h=1e-5):
    """Analytic vs central-difference gradients for a composed op."""
    tensors = {name: Tensor(arr, requires_grad=True, dtype=np.float64)
               for name, arr in arrays.items()}
    with GradTape() as tape:
        loss = build(tensors)
    grads = backward(tape, loss)

    def loss_fn():
        rebuilt = {name: Tensor(arr, dtype=np.float64)
                   for name, arr in arrays.items()}
        return build(rebuilt).item()

    numeric = finite_difference_gradients(loss_fn, arrays, h=h)
    for name, t in tensors.items():
        err = relative_gradient_error(grads[t], numeric[name])
        assert err < tol, f"{name}: relative error {err}"


class TestGradientChecks:
    """Every differentiable op against central finite differences."""

    def test_matmul(self):
        rng = np.random.default_rng(11)
        arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))}
        _gradcheck_op(lambda t: R.reduce_sum(R.matmul(t["a"], t["b"])), arrays)

    def test_softmax_weighted(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(3, 5))
        arrays = {"x": rng.normal(size=(3, 5))}
        _gradcheck_op(
            lambda t: R.reduce_sum(R.mul(R.softmax(t["x"], axis=-1),
                                         T.constant(w, dtype=np.float64))),
            arrays)

    def test_log_softmax(self):
        rng = np.random.default_rng(13)
        w = rng.normal(size=(2, 6))
        arrays = {"x": rng.normal(size=(2, 6))}
        _gradcheck_op(
            lambda t: R.reduce_sum(R.mul(R.log_softmax(t["x"], axis=-1),
                                         T.constant(w, dtype=np.float64))),
            arrays)

    def test_layer_norm(self):
        rng = np.random.default_rng(14)
        arrays = {"x": rng.normal(size=(2, 3, 6)),
                  "g": rng.normal(size=6), "b": rng.normal(size=6)}
        _gradcheck_op(
            lambda t: R.reduce_sum(
                R.mul(T.layer_norm(t["x"], t["g"], t["b"]),
                      T.constant(np.arange(36, dtype=np.float64).reshape(2, 3, 6)))),
            arrays)

    def test_relu(self):
        rng = np.random.default_rng(15)
        arrays = {"x": rng.normal(size=(4, 4)) + 0.05}
        _gradcheck_op(lambda t: R.reduce_sum(T.relu(t["x"])), arrays)

    def test_embedding_gather(self):
        rng = np.random.default_rng(16)
        ids = np.array([[0, 2], [1, 2]])
        arrays = {"table": rng.normal(size=(3, 4))}
        _gradcheck_op(
            lambda t: R.reduce_sum(T.embedding(t["table"], ids)), arrays)

    def test_gather_last(self):
        rng = np.random.default_rng(17)
        idx = np.array([[1], [0]])
        arrays = {"x": rng.normal(size=(2, 3))}
        _gradcheck_op(lambda t: R.reduce_sum(R.gather_last(t["x"], idx)), arrays)

    def test_mul_add_broadcast(self):
        rng = np.random.default_rng(18)
        arrays = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(3,))}
        _gradcheck_op(
            lambda t: R.reduce_sum(R.mul(T.add(t["a"], t["b"]), t["a"])), arrays)


class TestTapeStructure:
    def test_entries_follow_execution_order(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with GradTape() as tape:
            a = T.scale(x, 2.0)
            b = T.add(a, x)
            c = R.reduce_sum(b)
        assert [e.node for e in tape.entries] == [a.node, b.node, c.node]
        # reverse replay is reverse topological: every op's inputs were
        # produced earlier on the tape, or are the leaf itself
        produced = set()
        for entry in tape.entries:
            for slot in entry.inputs:
                assert slot is x or (isinstance(slot, int) and slot in produced)
            produced.add(entry.node)

    def test_second_backward_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with GradTape() as tape:
            y = R.reduce_sum(T.scale(x, 2.0))
        backward(tape, y)
        assert len(tape.entries) == 2
        assert all(entry.backward_rule is None for entry in tape.entries)
        with pytest.raises(ContractError, match="consumed"):
            backward(tape, y)

    def test_output_of_another_tape_is_a_leaf(self):
        x = Tensor(np.arange(3.0), requires_grad=True, dtype=np.float64)
        with GradTape() as first:
            y = T.scale(x, 2.0)
            with GradTape() as second:
                z = R.reduce_sum(T.scale(y, 3.0))
        assert first.entries[0].inputs == (x,)
        assert second.entries[0].inputs[0] is y
        grads = backward(second, z)
        assert list(grads) == [y]
        np.testing.assert_array_equal(grads[y], [3.0, 3.0, 3.0])

    def test_nothing_recorded_without_grad_or_tape(self):
        x = Tensor(np.ones(3), requires_grad=False)
        with GradTape() as tape:
            T.scale(x, 2.0)
        assert tape.entries == []
        y = Tensor(np.ones(3), requires_grad=True)
        out = T.scale(y, 2.0)  # no active tape
        assert out.requires_grad


def _residual_graph(leaves, held=None):
    """linear -> dropout -> add -> layer_norm -> linear -> smoothed
    cross-entropy on one tape, as in a transformer sublayer and the output
    layer.  Returns the tape, the loss and weakrefs to the arrays of the
    dropout output, the residual sum and the logits; with ``held``, every
    intermediate tensor is appended to it."""
    x, w1, b1, gain, bias, w2, b2 = leaves
    targets = np.array([[1, 4, 2], [3, 0, 0]])
    with GradTape() as tape:
        hidden = T.linear(x, w1, b1)
        dropped = T.dropout(hidden, 0.25, True, np.random.default_rng(7))
        summed = T.add(x, dropped)
        normed = T.layer_norm(summed, gain, bias)
        logits = T.linear(normed, w2, b2)
        loss = T.smoothed_cross_entropy(logits, targets, targets != 0, 0.1)
    if held is not None:
        held.extend((hidden, dropped, summed, normed, logits))
    return tape, loss, [weakref.ref(t.data) for t in (dropped, summed, logits)]


class TestTapeMemory:
    def test_unread_intermediates_are_freed_with_equal_gradients(self):
        rng = np.random.default_rng(41)
        shapes = [(2, 3, 8), (8, 8), (8,), (8,), (8,), (8, 5), (5,)]
        leaves = [Tensor(rng.normal(size=shape), requires_grad=True)
                  for shape in shapes]
        tape, loss, refs = _residual_graph(leaves)
        assert [ref() for ref in refs] == [None, None, None]
        grads = backward(tape, loss)

        held = []
        tape, loss, refs = _residual_graph(leaves, held)
        assert all(ref() is not None for ref in refs)
        grads_held = backward(tape, loss)
        assert list(grads) == list(grads_held) == leaves
        for leaf in leaves:
            assert grads[leaf].tobytes() == grads_held[leaf].tobytes()


class TestRowMax:
    """``T._row_max``, the softmax max in ``T.attention``, on both sides
    of the length where it switches from a column loop to ``max``."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_native_max(self, dtype):
        rng = np.random.default_rng(42)
        special = np.array([0.0, -0.0, T.MASK_VALUE, -np.inf], dtype=dtype)
        cross = T._ROW_MAX_LOOP
        for n in (1, 2, 7, 15, cross - 1, cross, cross + 1, cross + 2):
            for lead in [(4,), (4, 3, 5)]:
                x = rng.normal(size=lead + (n,)).astype(dtype)
                pick = rng.integers(0, 8, size=x.shape)
                x[pick < 4] = special[pick[pick < 4]]
                x[0] = special[rng.integers(0, 2, size=n)]   # zeros only
                x[1] = special[rng.integers(1, 4, size=n)]   # no +0.0
                x[2] = -np.inf
                got, want = T._row_max(x), x.max(axis=-1, keepdims=True)
                assert got.dtype == want.dtype and got.shape == want.shape
                np.testing.assert_array_equal(got, want)
                # bit for bit, except where numpy's own reduction picks the
                # sign of a zero maximum by its vector lane order; the
                # softmax reads either sign alike
                nonzero = want != 0
                assert got[nonzero].tobytes() == want[nonzero].tobytes()
                with np.errstate(invalid="ignore"):
                    assert np.exp(x - got).tobytes() == np.exp(x - want).tobytes()


def _tensor_calls_in_src() -> set[str]:
    """Names of ``transference.tensor`` that a module of the package other
    than ``tensor.py`` reads, as ``T.name`` or imported by name."""
    src = Path(T.__file__).parent
    used = set()
    for path in src.glob("*.py"):
        if path.name == "tensor.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases, imported = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module == "tensor":
                    imported |= {a.asname or a.name for a in node.names}
                elif node.module is None:
                    aliases |= {a.asname or a.name for a in node.names
                                if a.name == "tensor"}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                used.add(node.attr)
            elif isinstance(node, ast.Name) and node.id in imported:
                used.add(node.id)
    return used


class TestTensorInvariants:
    def test_every_public_function_has_a_caller_in_src(self):
        public = {name for name, obj in vars(T).items()
                  if inspect.isfunction(obj) and obj.__module__ == T.__name__
                  and not name.startswith("_")}
        assert public - _tensor_calls_in_src() == set()

    def test_shape_data_consistency(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert int(np.prod(t.shape)) == t.size

    def test_forward_ops_stay_finite(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.uniform(-50, 50, size=(6, 8)), dtype=np.float64)
        outs = [R.softmax(x), R.log_softmax(x), T.relu(x),
                T.layer_norm(x, Tensor(np.ones(8), dtype=np.float64),
                             Tensor(np.zeros(8), dtype=np.float64))]
        for out in outs:
            assert np.isfinite(out.data).all()


def _unfused_attention(q, k, v, mask, scale):
    """The attention core as separate tape ops."""
    nd = len(k.shape)
    k_t = R.transpose(k, tuple(range(nd - 2)) + (nd - 1, nd - 2))
    scores = T.scale(R.matmul(q, k_t), scale)
    if mask is not None:
        scores = T.add(scores, T.constant(mask, dtype=scores.dtype))
    return R.matmul(R.softmax(scores, axis=-1), v)


def _tape_split_attention(q, k, v, mask, scale, heads):
    """Head-split attention with the split and merge as tape ops around
    the single-head op: [B, len, d] -> [B, heads, len, d / heads] -> back."""
    def split(x):
        b, n, d = x.shape
        return R.transpose(T.reshape(x, (b, n, heads, d // heads)), (0, 2, 1, 3))
    out = R.transpose(T.attention(split(q), split(k), split(v), mask, scale),
                      (0, 2, 1, 3))
    return T.reshape(out, out.shape[:2] + (out.shape[2] * out.shape[3],))


def _unfused_smoothed_ce(logits, targets, counted, eps):
    """The label-smoothed loss as separate tape ops."""
    vocab = logits.shape[-1]
    logp = R.log_softmax(logits, axis=-1)
    gold = T.reshape(R.gather_last(logp, targets[..., None]), targets.shape)
    smooth = eps / (vocab - 1)
    per_pos = T.add(T.scale(gold, -(1.0 - eps - smooth)),
                    T.scale(R.reduce_sum(logp, axis=-1), -smooth))
    masked = R.mul(per_pos, T.constant(counted.astype(np.float64)))
    return T.scale(R.reduce_sum(masked), 1.0 / int(counted.sum()))


def _attention_cases():
    """Inputs and additive mask by case: a padding mask, a causal mask,
    and keys and values shared across heads."""
    rng = np.random.default_rng(31)
    pad = np.zeros((2, 1, 1, 5))
    pad[1, ..., 3:] = T.MASK_VALUE
    causal = np.triu(np.full((4, 4), T.MASK_VALUE), k=1)[None, None]
    return {
        "padding": ({"q": rng.normal(size=(2, 3, 4, 6)),
                     "k": rng.normal(size=(2, 3, 5, 6)),
                     "v": rng.normal(size=(2, 3, 5, 2))}, pad),
        "causal": ({"q": rng.normal(size=(2, 2, 4, 3)),
                    "k": rng.normal(size=(2, 2, 4, 3)),
                    "v": rng.normal(size=(2, 2, 4, 3))}, causal),
        "broadcast_heads": ({"q": rng.normal(size=(2, 3, 4, 6)),
                             "k": rng.normal(size=(2, 1, 5, 6)),
                             "v": rng.normal(size=(2, 1, 5, 3))}, None),
    }


def _weighted_sum(out, seed):
    """A scalar that reads every output entry with its own weight."""
    w = np.random.default_rng(seed).normal(size=out.shape)
    return R.reduce_sum(R.mul(out, T.constant(w, dtype=np.float64)))


def _grads_of(build, arrays):
    tensors = {name: Tensor(arr, requires_grad=True, dtype=np.float64)
               for name, arr in arrays.items()}
    with GradTape() as tape:
        loss = build(tensors)
    grads = backward(tape, loss)
    return loss, {name: grads[t] for name, t in tensors.items()}


def _head_cases():
    """[B, len, d] inputs by case: a [B, 1, 1, S] padding mask with values
    wider than queries and keys, and a [1, 1, T, T] causal mask."""
    rng = np.random.default_rng(35)
    pad = np.zeros((2, 1, 1, 5))
    pad[1, ..., 3:] = T.MASK_VALUE
    causal = np.triu(np.full((4, 4), T.MASK_VALUE), k=1)[None, None]
    return {
        "padding": ({"q": rng.normal(size=(2, 4, 8)),
                     "k": rng.normal(size=(2, 5, 8)),
                     "v": rng.normal(size=(2, 5, 12))}, pad),
        "causal": ({"q": rng.normal(size=(2, 4, 8)),
                    "k": rng.normal(size=(2, 4, 8)),
                    "v": rng.normal(size=(2, 4, 8))}, causal),
    }


class TestFusedOps:
    """The fused training ops: finite-difference gradients, and the same
    values and gradients as the unfused compositions they replace."""

    @pytest.mark.parametrize("case", ["padding", "causal", "broadcast_heads"])
    def test_attention_gradients(self, case):
        arrays, mask = _attention_cases()[case]
        _gradcheck_op(lambda t: _weighted_sum(
            T.attention(t["q"], t["k"], t["v"], mask, 0.4), 3), arrays)

    @pytest.mark.parametrize("case", ["padding", "causal", "broadcast_heads"])
    def test_attention_equals_unfused(self, case):
        arrays, mask = _attention_cases()[case]
        fused, g_fused = _grads_of(lambda t: _weighted_sum(
            T.attention(t["q"], t["k"], t["v"], mask, 0.4), 3), arrays)
        plain, g_plain = _grads_of(lambda t: _weighted_sum(
            _unfused_attention(t["q"], t["k"], t["v"], mask, 0.4), 3), arrays)
        assert abs(fused.item() - plain.item()) <= 1e-12
        for name in arrays:
            np.testing.assert_allclose(g_fused[name], g_plain[name],
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("heads", [2, 4])
    @pytest.mark.parametrize("case", ["padding", "causal"])
    def test_attention_heads_gradients(self, case, heads):
        arrays, mask = _head_cases()[case]
        _gradcheck_op(lambda t: _weighted_sum(
            T.attention(t["q"], t["k"], t["v"], mask, 0.4, heads), 6), arrays)

    @pytest.mark.parametrize("heads", [2, 4])
    @pytest.mark.parametrize("case", ["padding", "causal"])
    def test_attention_heads_equal_split_reference(self, case, heads):
        arrays, mask = _head_cases()[case]
        q, k, v = (Tensor(arrays[name], dtype=np.float64) for name in "qkv")
        np.testing.assert_allclose(
            T.attention(q, k, v, mask, 0.4, heads).data,
            _tape_split_attention(q, k, v, mask, 0.4, heads).data, rtol=0, atol=1e-12)
        fused, g_fused = _grads_of(lambda t: _weighted_sum(
            T.attention(t["q"], t["k"], t["v"], mask, 0.4, heads), 6), arrays)
        plain, g_plain = _grads_of(lambda t: _weighted_sum(
            _tape_split_attention(t["q"], t["k"], t["v"], mask, 0.4, heads), 6),
            arrays)
        assert abs(fused.item() - plain.item()) <= 1e-12
        for name in arrays:
            np.testing.assert_allclose(g_fused[name], g_plain[name],
                                       rtol=0, atol=1e-12)

    def test_attention_rejects_one_nan_score(self):
        # attention finds NaN scores through their row maxima, on both
        # sides of the column-loop length and wherever the NaN sits
        for n in (5, T._ROW_MAX_LOOP + 2):
            for at in (0, n // 2, n - 1):
                k = np.ones((n, 2))
                k[at] = np.nan
                with pytest.raises(NumericError):
                    T.attention(Tensor(np.ones((3, 2))), Tensor(k), Tensor(k))

    def test_attention_rejects_nan_and_bad_mask(self):
        q = Tensor(np.array([[np.nan, 1.0]]))
        k = Tensor(np.ones((3, 2)))
        with pytest.raises(NumericError):
            T.attention(q, k, k)
        with pytest.raises(ShapeError, match="mask"):
            T.attention(Tensor(np.ones((1, 2))), k, k, np.zeros((2, 2)))

    def test_linear_gradients_and_unfused_equality(self):
        rng = np.random.default_rng(32)
        arrays = {"x": rng.normal(size=(2, 3, 4)), "w": rng.normal(size=(4, 5)),
                  "b": rng.normal(size=5)}
        fused = lambda t: _weighted_sum(T.linear(t["x"], t["w"], t["b"]), 4)
        _gradcheck_op(fused, arrays)
        value, g_fused = _grads_of(fused, arrays)
        plain, g_plain = _grads_of(lambda t: _weighted_sum(
            T.add(R.matmul(t["x"], t["w"]), t["b"]), 4), arrays)
        assert abs(value.item() - plain.item()) <= 1e-12
        for name in arrays:
            np.testing.assert_allclose(g_fused[name], g_plain[name],
                                       rtol=0, atol=1e-12)

    def test_attention_shape_errors(self):
        q = Tensor(np.ones((2, 3, 6)))
        with pytest.raises(ShapeError, match="query/key depth"):
            T.attention(q, Tensor(np.ones((2, 4, 4))), Tensor(np.ones((2, 4, 6))))
        with pytest.raises(ShapeError, match="key/value length"):
            T.attention(q, Tensor(np.ones((2, 4, 6))), Tensor(np.ones((2, 5, 6))))
        with pytest.raises(ShapeError, match="not divisible by 4 heads"):
            T.attention(q, q, q, None, 1.0, heads=4)
        with pytest.raises(ShapeError, match="not divisible by 2 heads"):
            T.attention(q, q, Tensor(np.ones((2, 3, 5))), None, 1.0, heads=2)

    def test_linear_shape_errors(self):
        with pytest.raises(ShapeError):
            T.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))),
                     Tensor(np.ones(5)))
        with pytest.raises(ShapeError):
            T.linear(Tensor(np.ones((2, 4))), Tensor(np.ones((4, 5))),
                     Tensor(np.ones(4)))

    @pytest.mark.parametrize("a_shape", [(2, 3, 4), (2, 2, 3, 4)],
                             ids=["3d", "4d"])
    def test_rows_times_matrix_gradients(self, a_shape):
        rng = np.random.default_rng(33)
        arrays = {"a": rng.normal(size=a_shape), "b": rng.normal(size=(4, 3))}
        build = lambda t: _weighted_sum(T.linear(t["a"], t["b"]), 5)
        _gradcheck_op(build, arrays)
        _, grads = _grads_of(build, arrays)
        # the weight gradient equals the per-entry products summed away
        w = np.random.default_rng(5).normal(size=a_shape[:-1] + (3,))
        stacked = np.matmul(np.swapaxes(arrays["a"], -1, -2), w)
        np.testing.assert_allclose(
            grads["b"], stacked.reshape(-1, 4, 3).sum(axis=0), rtol=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_smoothed_cross_entropy_gradients(self, eps):
        rng = np.random.default_rng(34)
        targets = np.array([[1, 4, 0], [2, 0, 0]])
        counted = targets != 0
        arrays = {"z": rng.normal(size=(2, 3, 6))}
        fused = lambda t: T.smoothed_cross_entropy(t["z"], targets, counted, eps)
        _gradcheck_op(fused, arrays)
        value, g_fused = _grads_of(fused, arrays)
        plain, g_plain = _grads_of(
            lambda t: _unfused_smoothed_ce(t["z"], targets, counted, eps), arrays)
        assert abs(value.item() - plain.item()) <= 1e-12
        np.testing.assert_allclose(g_fused["z"], g_plain["z"], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(g_fused["z"][~counted], 0.0)

    def test_smoothed_cross_entropy_contract(self):
        z = Tensor(np.zeros((1, 2, 3)))
        with pytest.raises(ContractError):
            T.smoothed_cross_entropy(z, np.array([[1, 2]]),
                                     np.zeros((1, 2), dtype=bool), 0.1)
        with pytest.raises(ShapeError):
            T.smoothed_cross_entropy(z, np.array([1, 2]),
                                     np.ones(2, dtype=bool), 0.1)

    def test_constant_inputs_get_no_gradient(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        c = T.constant(np.ones((2, 3)))
        w = T.constant(np.ones((3, 2)))
        x3 = Tensor(np.ones((1, 2, 3)), requires_grad=True)
        ops = {"add": (T.add, (x, c)), "sub": (R.sub, (c, x)),
               "mul": (R.mul, (x, c)), "matmul": (R.matmul, (x, w)),
               "rows_matmul": (T.linear, (x3, w))}
        for name, (op, inputs) in ops.items():
            with GradTape() as tape:
                out = op(*inputs)
            (entry,) = tape.entries
            # a slot is None exactly for an input that takes no gradient
            assert [slot is None for slot in entry.inputs] == \
                [not t.requires_grad for t in inputs], name
            grads = entry.backward_rule(np.ones_like(out.data))
            for slot, grad in zip(entry.inputs, grads):
                assert (grad is None) == (slot is None), name
