"""Autodiff core: forward values, recorded gradients, and graph misuse errors."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradtools import check_gradients
from tsgan.errors import DomainError, GraphError, ShapeError
from tape_oracle import (_unbroadcast, add, clamp, log, matmul, mean, mul, neg, relu, sigmoid,
                         sub, tanh, tsum)
from tsgan.numcore import (RngStream, Tape, Tensor, backward, concat, conv1d, dropout,
                           gru_sequence, leaf_grads, lstm_sequence, reshape, slice_tensor)
from tsgan.numcore.tensor import _record


def test_arithmetic_forward_values():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[10.0, 20.0], [30.0, 40.0]])
    np.testing.assert_array_equal(add(a, b).data, [[11.0, 22.0], [33.0, 44.0]])
    np.testing.assert_array_equal(sub(a, b).data, [[-9.0, -18.0], [-27.0, -36.0]])
    np.testing.assert_array_equal(mul(a, b).data, [[10.0, 40.0], [90.0, 160.0]])
    np.testing.assert_array_equal(neg(a).data, [[-1.0, -2.0], [-3.0, -4.0]])


def test_matmul_forward_matches_numpy():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(3, 5))
    np.testing.assert_allclose(matmul(Tensor(a), Tensor(b)).data, a @ b)
    batched = rng.normal(size=(2, 4, 3))
    np.testing.assert_allclose(matmul(Tensor(batched), Tensor(b)).data, batched @ b)


def test_activation_forward_values():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    np.testing.assert_allclose(sigmoid(Tensor(x)).data, 1.0 / (1.0 + np.exp(-x)))
    np.testing.assert_allclose(tanh(Tensor(x)).data, np.tanh(x))
    np.testing.assert_array_equal(relu(Tensor(x)).data, np.maximum(x, 0.0))


def test_sigmoid_is_stable_at_extreme_inputs():
    out = sigmoid(Tensor([-800.0, 800.0])).data
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(0.0, abs=1e-300)
    assert out[1] == pytest.approx(1.0)


def _masked_sigmoid(x):
    """The two-branch form sigmoid used before the tanh form."""
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


def test_sigmoid_tanh_form_matches_masked_form_without_fp_warnings():
    x = np.concatenate([np.linspace(-750.0, 750.0, 30001), [-745.2, -40.0, -1e-300, 0.0, 1e-300]])
    with np.errstate(under="ignore"):
        expected = _masked_sigmoid(x)
    xt = Tensor(x, requires_grad=True)
    with np.errstate(all="raise"):
        with Tape() as rec:
            out = sigmoid(xt)
            loss = tsum(out)
        grad = backward(rec, loss)[xt.tape_id]
    np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-15)
    np.testing.assert_allclose(grad, expected * (1.0 - expected), rtol=0, atol=1e-15)


def test_log_rejects_non_positive_input():
    with pytest.raises(DomainError):
        log(Tensor([1.0, 0.0]))
    with pytest.raises(DomainError):
        log(Tensor([-1.0]))


def test_non_broadcastable_shapes_rejected():
    with pytest.raises(ShapeError):
        add(Tensor(np.ones((3, 2))), Tensor(np.ones((4, 2))))


def test_mean_and_sum_reduce_every_entry():
    x = np.arange(12.0).reshape(3, 4)
    assert mean(Tensor(x)).item() == pytest.approx(x.mean())
    assert tsum(Tensor(x)).item() == pytest.approx(x.sum())


def test_zero_d_values_keep_shape_zero_d():
    assert Tensor(np.float64(2.0)).shape == ()
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert mean(x).shape == ()
    assert tsum(x).shape == ()


def test_simple_chain_gradient():
    # d/dx mean((x*x)) = 2x/n, checked exactly.
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    with Tape() as rec:
        loss = mean(mul(x, x))
    g = backward(rec, loss)[x.tape_id]
    np.testing.assert_allclose(g, 2.0 * x.data / 3.0)


def test_broadcast_gradient_sums_over_expanded_axes():
    a = Tensor(np.ones((3, 1)), requires_grad=True)
    b = Tensor(np.ones((4,)), requires_grad=True)
    with Tape() as rec:
        loss = tsum(mul(Tensor(np.ones((3, 4))), add(a, b)))
    grads = backward(rec, loss)
    assert grads[a.tape_id].shape == (3, 1)
    assert grads[b.tape_id].shape == (4,)
    np.testing.assert_allclose(grads[a.tape_id], np.full((3, 1), 4.0))
    np.testing.assert_allclose(grads[b.tape_id], np.full((4,), 3.0))


def _summed_to(full, shape):
    """Adjoint of broadcasting `shape` up to full.shape, by explicit accumulation."""
    out = np.zeros(shape)
    extra = full.ndim - len(shape)
    for idx in np.ndindex(full.shape):
        out[tuple(0 if n == 1 else i for i, n in zip(idx[extra:], shape))] += full[idx]
    return out


@settings(max_examples=80, deadline=None)
@given(shapes=hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=3,
                                                max_side=3),
       op=st.sampled_from(["add", "sub", "mul"]), seed=st.integers(0, 2**16))
def test_broadcast_gradients_property(shapes, op, seed):
    (sa, sb), out_shape = shapes.input_shapes, shapes.result_shape
    draw = np.random.default_rng(seed)
    a = Tensor(draw.normal(size=sa), requires_grad=True)
    b = Tensor(draw.normal(size=sb), requires_grad=True)
    g = draw.normal(size=out_shape)
    fn = {"add": add, "sub": sub, "mul": mul}[op]
    with Tape() as rec:
        loss = tsum(mul(fn(a, b), g))
    grads = backward(rec, loss)
    partials = {"add": (1.0, 1.0), "sub": (1.0, -1.0), "mul": (b.data, a.data)}[op]
    for leaf, partial in zip((a, b), partials):
        got = grads[leaf.tape_id]
        assert got.shape == leaf.shape
        full = g * np.broadcast_to(partial, out_shape)
        np.testing.assert_allclose(got, _unbroadcast(full, leaf.shape), rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, _summed_to(full, leaf.shape), rtol=0, atol=1e-12)


def test_matmul_gradients_against_finite_differences():
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    check_gradients(lambda: mean(mul(matmul(a, b), matmul(a, b))), [a, b])


def test_batched_matmul_gradients():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    check_gradients(lambda: mean(tanh(matmul(x, w))), [x, w])


def test_activation_gradients():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(6,)), requires_grad=True)
    check_gradients(lambda: mean(sigmoid(x)), [x])
    check_gradients(lambda: mean(tanh(x)), [x])
    y = Tensor(rng.normal(size=(6,)) + 0.05, requires_grad=True)
    check_gradients(lambda: mean(relu(y)), [y])


def test_log_gradient():
    x = Tensor(np.array([0.5, 1.0, 2.5]), requires_grad=True)
    check_gradients(lambda: tsum(log(x)), [x])


def test_concat_routes_gradients_to_both_parts():
    a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    b = Tensor(np.array([[3.0, 4.0], [5.0, 6.0]]), requires_grad=True)
    with Tape() as rec:
        joined = concat([a, b], axis=0)
        loss = tsum(mul(joined, joined))
    grads = backward(rec, loss)
    np.testing.assert_allclose(grads[a.tape_id], 2.0 * a.data)
    np.testing.assert_allclose(grads[b.tape_id], 2.0 * b.data)


def test_slice_gradient_scatters_into_source():
    x = Tensor(np.arange(10.0).reshape(5, 2), requires_grad=True)
    with Tape() as rec:
        piece = slice_tensor(x, (slice(1, 3), slice(None)))
        loss = tsum(piece)
    g = backward(rec, loss)[x.tape_id]
    expected = np.zeros((5, 2))
    expected[1:3] = 1.0
    np.testing.assert_array_equal(g, expected)


def test_reshape_gradient_restores_shape():
    x = Tensor(np.arange(6.0), requires_grad=True)
    check_gradients(lambda: mean(mul(reshape(x, (2, 3)), reshape(x, (2, 3)))), [x])


def test_clamp_gradient_masks_saturated_entries():
    x = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
    with Tape() as rec:
        loss = tsum(clamp(x, -1.0, 1.0))
    g = backward(rec, loss)[x.tape_id]
    np.testing.assert_array_equal(g, [0.0, 1.0, 0.0])


def test_conv1d_forward_against_manual_correlation():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 9, 3))
    w = rng.normal(size=(4, 3, 5))
    stride = 2
    out = conv1d(Tensor(x), Tensor(w), Tensor(np.zeros(5)), "linear", stride).data
    out_len = (9 - 4) // stride + 1
    assert out.shape == (2, out_len, 5)
    for b in range(2):
        for t in range(out_len):
            window = x[b, t * stride : t * stride + 4, :]
            np.testing.assert_allclose(out[b, t], np.tensordot(window, w, axes=2))


def test_conv1d_gradients_against_finite_differences():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(2, 8, 2)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    check_gradients(lambda: mean(mul(conv1d(x, w, b, "linear", 2),
                                     conv1d(x, w, b, "linear", 2))), [x, w, b])


def test_conv1d_shape_errors():
    with pytest.raises(ShapeError):
        conv1d(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 1, 1))), np.zeros(1), "linear", 1)
    with pytest.raises(ShapeError):
        conv1d(Tensor(np.ones((1, 4, 2))), Tensor(np.ones((3, 5, 1))), np.zeros(1), "linear", 1)
    with pytest.raises(ShapeError):
        conv1d(Tensor(np.ones((1, 2, 1))), Tensor(np.ones((3, 1, 1))), np.zeros(1), "linear", 1)


def test_dropout_eval_mode_is_identity():
    x = Tensor(np.arange(8.0), requires_grad=True)
    out = dropout(x, 0.4)
    assert out is x


def test_dropout_train_mode_masks_and_rescales():
    x = Tensor(np.ones((200, 50)))
    out = dropout(x, 0.4, RngStream(7, ("mask",))).data
    kept = out != 0.0
    np.testing.assert_allclose(out[kept], 1.0 / 0.6)
    assert 0.55 < kept.mean() < 0.65


def test_dropout_rate_must_be_below_one():
    for rng in (None, RngStream(0, ("m",))):
        with pytest.raises(DomainError):
            dropout(Tensor(np.ones(3)), 1.0, rng)


def test_dropout_gradient_uses_the_same_mask():
    x = Tensor(np.ones(400), requires_grad=True)
    with Tape() as rec:
        out = dropout(x, 0.25, RngStream(3, ("mask",)))
        loss = tsum(out)
    g = backward(rec, loss)[x.tape_id]
    np.testing.assert_allclose(g, out.data)


def test_double_backward_is_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as rec:
        loss = mean(mul(x, x))
    backward(rec, loss)
    with pytest.raises(GraphError):
        backward(rec, loss)


def test_recording_on_a_consumed_tape_is_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as rec:
        loss = mean(mul(x, x))
    backward(rec, loss)
    with pytest.raises(GraphError):
        with rec:
            mean(mul(x, x))


def test_non_scalar_loss_is_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as rec:
        vec = mul(x, x)
    with pytest.raises(GraphError):
        backward(rec, vec)


def test_loss_off_the_record_is_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as rec:
        mul(x, x)
    with Tape() as other:
        loss = mean(mul(x, x))
    with pytest.raises(GraphError):
        backward(rec, loss)


def test_unreached_leaf_gets_a_zero_gradient():
    """backward() returns a plain array for every leaf, the unreached one included."""
    x = Tensor(np.ones(3), requires_grad=True)
    y = Tensor(np.ones(3), requires_grad=True)
    with Tape() as rec:
        mul(y, y)  # joins the record but never feeds the loss
        loss = mean(mul(x, x))
    grads = backward(rec, loss)
    assert set(grads) == {x.tape_id, y.tape_id}
    assert all(type(g) is np.ndarray for g in grads.values())
    np.testing.assert_array_equal(grads[y.tape_id], np.zeros(3))


def test_only_values_that_need_a_gradient_join_the_tape():
    """A data batch and the scalar in `1.0 - p` get no tape id, hold no tape and have
    None in their node's in_ids; the differentiable input joins as the one leaf."""
    x = Tensor(np.ones(3), requires_grad=True)
    data = Tensor(np.full(3, 2.0))
    with Tape() as rec:
        mean(sub(1.0, mul(data, x)))
    assert data.tape_id is None and data._tape is None
    assert [n[2] for n in rec.nodes] == [(None, x.tape_id), (None, 1), (2,)]
    assert rec._leaves == {x.tape_id: x}


def test_a_constant_that_fed_a_recorded_op_is_no_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    c = Tensor(np.array(2.0))
    with Tape() as rec:
        mean(mul(x, c))
    with pytest.raises(GraphError, match="not on this computation record"):
        backward(rec, c)


def test_detach_blocks_gradient_flow():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    with Tape() as rec:
        frozen = mul(x, x).detach()
        loss = tsum(mul(x, frozen))
    g = backward(rec, loss)[x.tape_id]
    np.testing.assert_allclose(g, frozen.data)


def test_leaf_grads_maps_names_and_rejects_stale_tapes():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    with Tape() as rec:
        loss = mean(add(matmul(Tensor(np.ones((3, 2))), w), b))
    gmap = backward(rec, loss)
    flat = leaf_grads(rec, {"w": w, "b": b}, gmap)
    assert flat.dtype == np.float64 and flat.shape == (6,)
    expected = np.concatenate([gmap[w.tape_id].ravel(), gmap[b.tape_id]])
    assert flat.tobytes() == expected.tobytes()  # laid in the mapping's order

    with Tape() as second:
        loss2 = mean(matmul(Tensor(np.ones((3, 2))), w))
    gmap2 = backward(second, loss2)
    with pytest.raises(GraphError) as err:
        leaf_grads(second, {"w": w, "b": b}, gmap2)
    assert "b" in str(err.value)


def test_backward_frees_each_node_before_earlier_nodes_run():
    """A node's saved arrays die at their last use, not when the whole pass ends."""
    events = []

    def probe(t):  # identity whose backward logs when it runs
        def bw(g):
            events.append("earlier backward")
            return (g,)
        return _record("probe", Tensor(t.data.copy()), (t,), bw)

    x = Tensor(np.ones(3), requires_grad=True)
    held = np.full(3, 2.0)
    weakref.finalize(held, events.append, "later node's array freed")
    with Tape() as rec:
        loss = tsum(mul(probe(x), Tensor(held)))  # mul's closure keeps `held`
    del held
    gmap = backward(rec, loss)
    assert events == ["later node's array freed", "earlier backward"]
    assert rec.nodes == []
    np.testing.assert_array_equal(gmap[x.tape_id], [2.0, 2.0, 2.0])


def test_no_active_tape_means_no_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    out = mul(x, x)
    assert out.tape_id is None


def test_composite_expression_gradcheck():
    rng = np.random.default_rng(6)
    w1 = Tensor(rng.normal(scale=0.5, size=(3, 4)), requires_grad=True)
    w2 = Tensor(rng.normal(scale=0.5, size=(4, 1)), requires_grad=True)
    x = Tensor(rng.normal(size=(5, 3)))

    def loss():
        h = tanh(matmul(x, w1))
        out = sigmoid(matmul(h, w2))
        err = sub(out, 0.3)
        return mean(mul(err, err))

    check_gradients(loss, [w1, w2])


def test_tape_node_list_describes_the_graph():
    x = Tensor(np.ones(2), requires_grad=True)
    with Tape() as rec:
        mean(mul(x, x))
    assert [n[0] for n in rec.nodes] == ["mul", "mean"]


def test_a_closure_that_takes_its_gradient_holds_the_only_reference():
    """backward() keeps no name on the output gradient it passes to a closure, so a
    closure that deletes its argument frees the gradient before it returns."""
    x = Tensor(np.ones(3), requires_grad=True)
    freed = []

    def bw(g):
        ref = weakref.ref(g)
        del g
        freed.append(ref() is None)
        return (np.ones(3),)

    with Tape() as rec:
        loss = tsum(_record("probe", Tensor(np.zeros(3)), (x,), bw))
    gmap = backward(rec, loss)
    assert freed == [True]
    np.testing.assert_array_equal(gmap[x.tape_id], np.ones(3))


# --- random op graphs against central differences ---------------------------
# Every node is 2-D and at most MAX_DIM on a side. mean reduces to a (1, 1) node;
# concat, slice and reshape act on one axis or view; gru/lstm read an (r, c) node
# as r sequences of c one-feature steps and flatten their (r, c, units) output
# back to 2-D.
GRAPH_OPS = ("add", "sub", "mul", "matmul", "sigmoid", "tanh", "mean", "concat",
             "slice", "reshape", "gru", "lstm")
MAX_DIM = 6
_GATES = {"gru": 3, "lstm": 4}


def _recurrent(kind, x, *cell):
    r, c = x.shape
    out = (gru_sequence if kind == "gru" else lstm_sequence)(reshape(x, (r, c, 1)), *cell)
    return reshape(out, (r, c * out.shape[2]))


_APPLY = {
    "add": add, "sub": sub, "mul": mul, "matmul": matmul,
    "sigmoid": sigmoid, "tanh": tanh,
    "mean": lambda x: reshape(mean(x), (1, 1)),
    "concat": lambda x, other, axis: concat([x, other], axis=axis),
    "slice": slice_tensor,
    "reshape": reshape,
    "gru": lambda x, *cell: _recurrent("gru", x, *cell),
    "lstm": lambda x, *cell: _recurrent("lstm", x, *cell),
}


def _draw_graph(draw, rng):
    """(leaves, steps, weights): step i is (op, input refs, static args) making node i+1.

    A ref is ("leaf", j) or ("node", k); node 0 is leaf 0. The loss is
    mean(last node * weights), a fixed non-uniform read-out.
    """
    leaves, shapes = [], []

    def leaf(shape):
        leaves.append(Tensor(rng.uniform(-1.0, 1.0, size=shape), requires_grad=True))
        return ("leaf", len(leaves) - 1)

    def partner(shape):
        """An earlier node of `shape` (fan-out) or a fresh leaf of it."""
        same = [k for k, s in enumerate(shapes) if s == shape]
        if same and draw(st.booleans()):
            return ("node", draw(st.sampled_from(same)))
        return leaf(shape)

    first = leaf((draw(st.integers(1, 3)), draw(st.integers(1, 3))))
    shapes.append(leaves[0].shape)
    steps = [("input", [first], ())]
    for op in draw(st.lists(st.sampled_from(GRAPH_OPS), min_size=2, max_size=6)):
        k = len(shapes) - 1
        r, c = shapes[k]
        x, args = ("node", k), ()
        if op in ("add", "sub", "mul"):
            broadcast = draw(st.booleans())  # a (1, c) partner broadcasts over rows
            refs, shape = [x, partner((1, c) if broadcast else (r, c))], (r, c)
        elif op == "matmul":
            n = draw(st.integers(1, 3))
            refs, shape = [x, leaf((c, n))], (r, n)
        elif op in ("sigmoid", "tanh"):
            refs, shape = [x], (r, c)
        elif op == "mean":
            refs, shape = [x], (1, 1)
        elif op == "concat" and max(r, c) < MAX_DIM:
            axis = draw(st.sampled_from([a for a in (0, 1) if (r, c)[a] < MAX_DIM]))
            n = draw(st.integers(1, min(MAX_DIM - (r, c)[axis], 3)))
            other = (n, c) if axis == 0 else (r, n)
            refs, args = [x, partner(other)], (axis,)
            shape = (r + n, c) if axis == 0 else (r, c + n)
        elif op in ("slice", "concat"):  # a concat with no room left slices instead
            op = "slice"
            axis = draw(st.integers(0, 1))
            size = (r, c)[axis]
            start = draw(st.integers(0, size - 1))
            stop = draw(st.integers(start + 1, size))
            index = (slice(start, stop),) if axis == 0 else (slice(None), slice(start, stop))
            refs, args = [x], (index,)
            shape = (stop - start, c) if axis == 0 else (r, stop - start)
        elif op == "reshape":
            shape = draw(st.sampled_from([s for s in ((c, r), (1, r * c), (r * c, 1))
                                          if max(s) <= MAX_DIM]))
            refs, args = [x], (shape,)
        else:  # gru / lstm: feature width 1, one or two units
            units = draw(st.integers(1, min(2, MAX_DIM // c)))
            cell = [leaf((1 + units, units)) if i % 2 == 0 else leaf((units,))
                    for i in range(2 * _GATES[op])]
            refs, shape = [x, *cell], (r, c * units)
        steps.append((op, refs, args))
        shapes.append(shape)
    weights = Tensor(rng.uniform(0.5, 1.5, size=shapes[-1]))
    return leaves, steps, weights


def _build_graph(leaves, steps, weights):
    nodes = []
    for op, refs, args in steps:
        ins = [leaves[j] if kind == "leaf" else nodes[j] for kind, j in refs]
        nodes.append(ins[0] if op == "input" else _APPLY[op](*ins, *args))
    return mean(mul(nodes[-1], weights))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_random_op_graphs_match_central_differences(data, seed):
    leaves, steps, weights = _draw_graph(data.draw, np.random.default_rng(seed))
    check_gradients(lambda: _build_graph(leaves, steps, weights), leaves)
