"""Autodiff core: forward values, recorded gradients, and graph misuse errors."""

import numpy as np
import pytest

from gradtools import check_gradients
from tsgan.errors import DomainError, GraphError, ShapeError
from tsgan.numcore import (RngStream, Tape, Tensor, backward, clamp, concat,
                           conv1d, dropout, leaf_grads, log,
                           matmul, mean, mul, relu, reshape, sigmoid,
                           slice_tensor, sub, tanh, tsum)


def test_arithmetic_forward_values():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[10.0, 20.0], [30.0, 40.0]])
    np.testing.assert_array_equal((a + b).data, [[11.0, 22.0], [33.0, 44.0]])
    np.testing.assert_array_equal((a - b).data, [[-9.0, -18.0], [-27.0, -36.0]])
    np.testing.assert_array_equal((a * b).data, [[10.0, 40.0], [90.0, 160.0]])
    np.testing.assert_array_equal((-a).data, [[-1.0, -2.0], [-3.0, -4.0]])


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


def test_log_rejects_non_positive_input():
    with pytest.raises(DomainError):
        log(Tensor([1.0, 0.0]))
    with pytest.raises(DomainError):
        log(Tensor([-1.0]))


def test_non_broadcastable_shapes_rejected():
    with pytest.raises(ShapeError):
        Tensor(np.ones((3, 2))) + Tensor(np.ones((4, 2)))


def test_mean_and_sum_with_axis():
    x = np.arange(12.0).reshape(3, 4)
    assert mean(Tensor(x)).item() == pytest.approx(x.mean())
    np.testing.assert_allclose(mean(Tensor(x), axis=0).data, x.mean(axis=0))
    np.testing.assert_allclose(tsum(Tensor(x), axis=1).data, x.sum(axis=1))


def test_simple_chain_gradient():
    # d/dx mean((x*x)) = 2x/n, checked exactly.
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    with Tape() as rec:
        loss = mean(mul(x, x))
    g = backward(rec, loss)[x.tape_id].data
    np.testing.assert_allclose(g, 2.0 * x.data / 3.0)


def test_broadcast_gradient_sums_over_expanded_axes():
    a = Tensor(np.ones((3, 1)), requires_grad=True)
    b = Tensor(np.ones((4,)), requires_grad=True)
    with Tape() as rec:
        loss = tsum(Tensor(np.ones((3, 4))) * (a + b))
    grads = backward(rec, loss)
    assert grads[a.tape_id].data.shape == (3, 1)
    assert grads[b.tape_id].data.shape == (4,)
    np.testing.assert_allclose(grads[a.tape_id].data, np.full((3, 1), 4.0))
    np.testing.assert_allclose(grads[b.tape_id].data, np.full((4,), 3.0))


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
        loss = tsum(joined * joined)
    grads = backward(rec, loss)
    np.testing.assert_allclose(grads[a.tape_id].data, 2.0 * a.data)
    np.testing.assert_allclose(grads[b.tape_id].data, 2.0 * b.data)


def test_slice_gradient_scatters_into_source():
    x = Tensor(np.arange(10.0).reshape(5, 2), requires_grad=True)
    with Tape() as rec:
        piece = slice_tensor(x, (slice(1, 3), slice(None)))
        loss = tsum(piece)
    g = backward(rec, loss)[x.tape_id].data
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
    g = backward(rec, loss)[x.tape_id].data
    np.testing.assert_array_equal(g, [0.0, 1.0, 0.0])


def test_conv1d_forward_against_manual_correlation():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 9, 3))
    w = rng.normal(size=(4, 3, 5))
    stride = 2
    out = conv1d(Tensor(x), Tensor(w), stride=stride).data
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
    check_gradients(lambda: mean(mul(conv1d(x, w, stride=2), conv1d(x, w, stride=2))),
                    [x, w])


def test_conv1d_shape_errors():
    with pytest.raises(ShapeError):
        conv1d(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 1, 1))))
    with pytest.raises(ShapeError):
        conv1d(Tensor(np.ones((1, 4, 2))), Tensor(np.ones((3, 5, 1))))
    with pytest.raises(ShapeError):
        conv1d(Tensor(np.ones((1, 2, 1))), Tensor(np.ones((3, 1, 1))))


def test_dropout_eval_mode_is_identity():
    x = Tensor(np.arange(8.0), requires_grad=True)
    out = dropout(x, 0.4, mode="eval")
    assert out is x


def test_dropout_train_mode_masks_and_rescales():
    x = Tensor(np.ones((200, 50)))
    out = dropout(x, 0.4, mode="train", rng=RngStream(7, ("mask",))).data
    kept = out != 0.0
    np.testing.assert_allclose(out[kept], 1.0 / 0.6)
    assert 0.55 < kept.mean() < 0.65


def test_dropout_requires_rng_in_train_mode():
    with pytest.raises(DomainError):
        dropout(Tensor(np.ones(3)), 0.5, mode="train")
    with pytest.raises(DomainError):
        dropout(Tensor(np.ones(3)), 1.0, mode="train", rng=RngStream(0, ("m",)))


def test_dropout_gradient_uses_the_same_mask():
    x = Tensor(np.ones(400), requires_grad=True)
    with Tape() as rec:
        out = dropout(x, 0.25, mode="train", rng=RngStream(3, ("mask",)))
        loss = tsum(out)
    g = backward(rec, loss)[x.tape_id].data
    np.testing.assert_allclose(g, out.data)


def test_double_backward_is_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as rec:
        loss = mean(x * x)
    backward(rec, loss)
    with pytest.raises(GraphError):
        backward(rec, loss)


def test_recording_on_a_consumed_tape_is_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as rec:
        loss = mean(x * x)
    backward(rec, loss)
    with pytest.raises(GraphError):
        with rec:
            mean(x * x)


def test_non_scalar_loss_is_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as rec:
        vec = x * x
    with pytest.raises(GraphError):
        backward(rec, vec)


def test_loss_off_the_record_is_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as rec:
        x * x
    with Tape() as other:
        loss = mean(x * x)
    with pytest.raises(GraphError):
        backward(rec, loss)


def test_unreached_leaf_gets_a_zero_gradient():
    x = Tensor(np.ones(3), requires_grad=True)
    y = Tensor(np.ones(3), requires_grad=True)
    with Tape() as rec:
        y * y  # joins the record but never feeds the loss
        loss = mean(x * x)
    grads = backward(rec, loss)
    np.testing.assert_array_equal(grads[y.tape_id].data, np.zeros(3))


def test_detach_blocks_gradient_flow():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    with Tape() as rec:
        frozen = (x * x).detach()
        loss = tsum(x * frozen)
    g = backward(rec, loss)[x.tape_id].data
    np.testing.assert_allclose(g, frozen.data)


def test_leaf_grads_maps_names_and_rejects_stale_tapes():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    with Tape() as rec:
        loss = mean(matmul(Tensor(np.ones((3, 2))), w) + b)
    gmap = backward(rec, loss)
    named = leaf_grads(rec, {"w": w, "b": b}, gmap)
    assert set(named) == {"w", "b"}

    with Tape() as second:
        loss2 = mean(matmul(Tensor(np.ones((3, 2))), w))
    gmap2 = backward(second, loss2)
    with pytest.raises(GraphError) as err:
        leaf_grads(second, {"w": w, "b": b}, gmap2)
    assert "b" in str(err.value)


def test_no_active_tape_means_no_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    out = x * x
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
        mean(x * x)
    assert [n[0] for n in rec.nodes] == ["mul", "mean"]
