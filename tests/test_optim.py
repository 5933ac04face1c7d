"""Optimizer updates checked against hand-computed single steps.

Parameters are a ParamVector and gradients one flat float64 vector in its
order, the one layout optimizer_step takes."""

import numpy as np
import pytest

from tsgan.errors import ConfigError, GraphError, NumericAbort
from tsgan.numcore import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, RMSPROP_DECAY,
                           RMSPROP_EPS, OptimizerState, clip_weights,
                           optimizer_step)
from tsgan.numcore.optim import OPTIMIZERS, ParamVector


def _params(values):
    """A ParamVector holding the given named values, in their order."""
    arrays = {name: np.asarray(v, dtype=np.float64) for name, v in values.items()}
    return ParamVector([(name, a.shape) for name, a in arrays.items()],
                       np.concatenate([np.zeros(0), *arrays.values()], axis=None))


def test_sgd_descend_single_step():
    params = _params({"w": [1.0, -2.0]})
    optimizer_step(OptimizerState("sgd", 0.1), params, np.array([0.5, -1.5]))
    np.testing.assert_allclose(params["w"].data, [1.0 - 0.05, -2.0 + 0.15])


def test_sgd_ascend_flips_the_update():
    descend = _params({"w": [1.0]})
    ascend = _params({"w": [1.0]})
    grads = np.array([0.25])
    optimizer_step(OptimizerState("sgd", 0.2, direction="descend"), descend, grads)
    optimizer_step(OptimizerState("sgd", 0.2, direction="ascend"), ascend, grads)
    np.testing.assert_allclose(ascend["w"].data - 1.0, -(descend["w"].data - 1.0))


def test_adam_first_step_matches_hand_computation():
    g = np.array([0.3, -0.7])
    params = _params({"w": [0.0, 0.0]})
    optimizer_step(OptimizerState("adam", 0.01), params, g)
    m_hat = g  # bias correction makes the first step use the raw gradient
    v_hat = g * g
    expected = -0.01 * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    np.testing.assert_allclose(params["w"].data, expected, rtol=1e-12)


def test_adam_two_steps_track_the_moment_recursions():
    g1 = np.array([0.5])
    g2 = np.array([-0.2])
    params = _params({"w": [1.0]})
    state = OptimizerState("adam", 0.05)
    optimizer_step(state, params, g1)
    optimizer_step(state, params, g2)

    m = (1 - ADAM_BETA1) * g1
    v = (1 - ADAM_BETA2) * g1 * g1
    w = 1.0 - 0.05 * (m / (1 - ADAM_BETA1)) / (np.sqrt(v / (1 - ADAM_BETA2)) + ADAM_EPS)
    m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g2
    v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g2 * g2
    w = w - 0.05 * (m / (1 - ADAM_BETA1 ** 2)) / (np.sqrt(v / (1 - ADAM_BETA2 ** 2)) + ADAM_EPS)
    np.testing.assert_allclose(params["w"].data, w, rtol=1e-12)


def test_rmsprop_single_step_matches_hand_computation():
    g = np.array([2.0])
    params = _params({"w": [0.5]})
    optimizer_step(OptimizerState("rmsprop", 0.1), params, g)
    sq = (1 - RMSPROP_DECAY) * g * g
    expected = 0.5 - 0.1 * g / (np.sqrt(sq) + RMSPROP_EPS)
    np.testing.assert_allclose(params["w"].data, expected, rtol=1e-12)


@pytest.mark.parametrize("algo", OPTIMIZERS)
def test_one_block_update_writes_the_vector_in_place(algo):
    """A vector that fits in one block is committed from the first pass's scratch into the
    same vector, views and moment vectors."""
    params = _params({"w": [1.0], "b": [-2.0, 0.5]})
    flat, views = params.flat, [p.data for p in params.values()]
    state, g = OptimizerState(algo, 0.1), np.array([1.0, -0.5, 0.25])
    optimizer_step(state, params, g)
    moments = dict(state.moments)
    optimizer_step(state, params, g)
    assert params.flat is flat
    assert all(p.data is view for p, view in zip(params.values(), views))
    assert all(state.moments[k] is m for k, m in moments.items())
    assert flat[0] < 1.0 and flat[1] > -2.0 and flat[2] < 0.5


def test_non_finite_gradient_aborts_naming_the_parameter():
    params = _params({"w": [1.0], "ok": [1.0]})
    with pytest.raises(NumericAbort) as err:
        optimizer_step(OptimizerState("sgd", 0.1), params, np.array([np.nan, 0.0]))
    assert "w" in str(err.value)


def test_non_finite_update_aborts():
    params = _params({"w": [1.0]})
    with np.errstate(over="ignore"), pytest.raises(NumericAbort):
        optimizer_step(OptimizerState("sgd", 1e308), params, np.array([1e308]))


def _snapshot(state, params):
    moments = {k: v.copy() for k, v in state.moments.items()}
    return state.step_count, moments, {n: p.data.copy() for n, p in params.items()}


def _assert_same(snapshot, state, params):
    step_count, moments, values = snapshot
    assert state.step_count == step_count
    assert state.moments.keys() == moments.keys()
    for key, value in moments.items():
        np.testing.assert_array_equal(state.moments[key], value)
    for name, value in values.items():
        np.testing.assert_array_equal(params[name].data, value)


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "after-one-step"])
@pytest.mark.parametrize("algo", OPTIMIZERS)
def test_aborted_update_changes_nothing(algo, warm):
    """A non-finite gradient on a later parameter must not move the earlier ones."""
    params = _params({"a": [1.0], "b": [2.0]})
    state = OptimizerState(algo, 0.1)
    if warm:
        optimizer_step(state, params, np.array([0.5, -0.5]))
    before = _snapshot(state, params)
    with pytest.raises(NumericAbort, match="'b'"):
        optimizer_step(state, params, np.array([1.0, np.nan]))
    _assert_same(before, state, params)


def test_update_that_overflows_changes_nothing():
    """A finite gradient whose update overflows on a later parameter aborts the whole step."""
    params = _params({"a": [1.0], "b": [1.0]})
    state = OptimizerState("sgd", 1e308)
    before = _snapshot(state, params)
    with np.errstate(over="ignore"), pytest.raises(NumericAbort, match="after update"):
        optimizer_step(state, params, np.array([1.0, 1e308]))
    _assert_same(before, state, params)


@pytest.mark.parametrize("direction", ["descend", "ascend"])
@pytest.mark.parametrize("algo, moment", [("adam", "v"), ("rmsprop", "sq")])
def test_gradient_whose_square_overflows_changes_nothing(algo, moment, direction):
    """|g| above about 1.3e154 squares to inf: the second moment would stay infinite and
    the parameter would never move again, so the update aborts naming it."""
    params = _params({"a": [1.0, 2.0], "b": [3.0]})
    state = OptimizerState(algo, 0.1, direction=direction)
    optimizer_step(state, params, np.array([0.5, -0.5, 0.25]))
    before = _snapshot(state, params)
    with np.errstate(over="ignore"), \
            pytest.raises(NumericAbort, match=f"moment '{moment}' for parameter 'b'"):
        optimizer_step(state, params, np.array([0.1, 0.1, 1e200]))
    _assert_same(before, state, params)


def test_missing_gradient_is_a_graph_error():
    """A gradient vector one element short is refused before anything moves."""
    for algo in OPTIMIZERS:
        params, state = _params({"w": [1.0, 2.0], "b": [0.0]}), OptimizerState(algo, 0.1)
        for _ in range(2):  # fresh, then after one step
            before = _snapshot(state, params)
            with pytest.raises(GraphError, match=r"\(3,\)"):
                optimizer_step(state, params, np.array([1.0, 1.0]))
            _assert_same(before, state, params)
            optimizer_step(state, params, np.array([0.5, -0.5, 0.25]))


def test_gradient_shape_mismatch_is_rejected():
    """Only a 1-D vector with one value per parameter entry is a gradient."""
    params = _params({"w": [1.0, 2.0], "b": [0.0]})
    before = params.flat
    for g in [np.ones(4), np.ones((1, 3)), np.ones((3, 1)), np.float64(1.0)]:
        with pytest.raises(GraphError):
            optimizer_step(OptimizerState("sgd", 0.1), params, g)
    assert params.flat is before


def test_invalid_configuration_rejected():
    with pytest.raises(ConfigError):
        OptimizerState("adagrad", 0.1)
    with pytest.raises(ConfigError):
        OptimizerState("sgd", 0.0)
    with pytest.raises(ConfigError):
        OptimizerState("sgd", 0.1, direction="sideways")


def test_clip_weights_bounds_every_parameter():
    params = _params({"a": [0.5, -3.0], "b": [[2.0, -0.001]]})
    clip_weights(params, 0.01)
    for p in params.values():
        assert np.max(np.abs(p.data)) <= 0.01
    np.testing.assert_allclose(params["b"].data, [[0.01, -0.001]])


def test_clip_weights_rejects_non_positive_bound():
    with pytest.raises(ConfigError):
        clip_weights(_params({"a": [1.0]}), 0.0)

