"""One-node layers, losses and loss sums against the unfused chains they replace.

Each fused op must equal its chain in tests/tape_oracle.py bit for bit: the
forward value and the gradient of every input that needs one, for any output
gradient the rest of the tape hands it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tape_oracle as oracle
from tsgan.errors import ShapeError
from tsgan.models import (NetSpec, build_critic, build_discriminator, build_network,
                          min_discriminator_len)
from tsgan.numcore import RngStream, Tape, Tensor, backward, conv1d, dense
from tsgan.numcore.tensor import ACTIVATION_RULES
from tsgan.training import (PROB_FLOOR, bce, critic_estimate, critic_generator_cost,
                            discriminator_cost, gan_value, generator_cost, mse, weighted_sum)

# probabilities at and past the clamp bounds, mixed into uniform draws
EDGES = np.array([0.0, 1.0, PROB_FLOOR, 1.0 - PROB_FLOOR, PROB_FLOOR / 2])


def _normal(draw, shape):
    """Normal values: with hypothesis's short floats products round exactly too often."""
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=shape)


def _probs(draw, shape):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.uniform(0.0, 1.0, size=shape)
    edge = rng.random(size=shape) < 0.4
    p[edge] = rng.choice(EDGES, size=int(edge.sum()))
    return p


def _run(fn, arrays, needs, weights):
    """fn over fresh Tensors of `arrays` (those flagged in `needs` require a gradient),
    read out as sum(out * weights) on one tape: the output bytes and each gradient's."""
    leaves = [Tensor(a.copy(), requires_grad=n) for a, n in zip(arrays, needs)]
    with Tape() as tape:
        out = fn(*leaves)
        loss = oracle.tsum(oracle.mul(out, weights))
    grads = backward(tape, loss)
    return out.data.tobytes(), [grads[t.tape_id].tobytes() if n else None
                                for t, n in zip(leaves, needs)]


@settings(max_examples=120, deadline=None)
@given(data=st.data(), rank=st.sampled_from([2, 3]),
       activation=st.sampled_from(sorted(ACTIVATION_RULES)), x_grad=st.booleans())
def test_dense_equals_matmul_add_activation_bit_for_bit(data, rank, activation, x_grad):
    lead = data.draw(st.tuples(*[st.integers(1, 4)] * (rank - 1)))
    n_in, n_out = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    x, w = _normal(data.draw, (*lead, n_in)), _normal(data.draw, (n_in, n_out))
    b, weights = _normal(data.draw, (n_out,)), _normal(data.draw, (*lead, n_out))
    needs = (x_grad, True, True)

    def fused(*ts):
        return dense(*ts, activation)

    def chain(*ts):
        return oracle.dense(*ts, activation)

    assert _run(fused, (x, w, b), needs, weights) == _run(chain, (x, w, b), needs, weights)


def test_dense_records_one_node_and_skips_an_input_that_needs_no_gradient():
    x = Tensor(np.ones((3, 2)))
    w, b = Tensor(np.ones((2, 4)), requires_grad=True), Tensor(np.zeros(4), requires_grad=True)
    with Tape() as tape:
        dense(x, w, b, "tanh")
    assert [(n[0], n[2]) for n in tape.nodes] == [("dense", (None, 0, 1))]
    assert tape.nodes[0][3](np.ones((3, 4)))[0] is None


def test_network_records_one_node_per_dense_layer():
    spec = NetSpec("mlp", 3, [{"kind": "dense", "units": 4, "activation": "relu"},
                              {"kind": "dense", "units": 2, "activation": "sigmoid"}],
                   input_rank=2)
    net = build_network(spec, RngStream(0, ("mlp",)))
    with Tape() as tape:
        out = net.forward(Tensor(np.ones((5, 3))))
        mse(out, np.zeros((5, 2)))
    assert [n[0] for n in tape.nodes] == ["dense", "dense", "mse"]


@settings(max_examples=120, deadline=None)
@given(data=st.data(), stride=st.integers(1, 4),
       activation=st.sampled_from(sorted(ACTIVATION_RULES)), x_grad=st.booleans())
def test_conv1d_equals_convolution_add_activation_bit_for_bit(data, stride, activation, x_grad):
    batch, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    in_ch, out_ch = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    length = k + data.draw(st.integers(0, 3 * stride + 1))
    out_len = (length - k) // stride + 1
    x, w = _normal(data.draw, (batch, length, in_ch)), _normal(data.draw, (k, in_ch, out_ch))
    b, weights = _normal(data.draw, (out_ch,)), _normal(data.draw, (batch, out_len, out_ch))
    needs = (x_grad, True, True)

    def fused(*ts):
        return conv1d(*ts, activation, stride)

    def chain(*ts):
        return oracle.conv1d(*ts, activation, stride)

    assert _run(fused, (x, w, b), needs, weights) == _run(chain, (x, w, b), needs, weights)


def test_conv1d_records_one_node_and_skips_an_input_that_needs_no_gradient():
    rng = np.random.default_rng(0)
    x, w, b = rng.normal(size=(2, 9, 3)), rng.normal(size=(3, 3, 4)), rng.normal(size=4)
    g = rng.normal(size=(2, 4, 4))
    grads = []
    for x_grad in (True, False):
        ts = [Tensor(x, requires_grad=x_grad), Tensor(w, requires_grad=True),
              Tensor(b, requires_grad=True)]
        with Tape() as tape:
            conv1d(*ts, "relu", 2)
        assert [n[0] for n in tape.nodes] == ["conv1d"]
        grads.append(tape.nodes[0][3](g))
    (gx, gw, gb), (off, gw_off, gb_off) = grads
    assert gx.shape == x.shape and off is None
    assert gw.tobytes() == gw_off.tobytes() and gb.tobytes() == gb_off.tobytes()


@pytest.mark.parametrize("build", [build_discriminator, build_critic])
def test_a_builders_discriminator_records_one_node_per_layer(build):
    net = build(min_discriminator_len(), 2, RngStream(0, ("d",)), width_mult=1 / 32)
    with Tape() as tape:
        net.forward(Tensor(np.ones((3, min_discriminator_len(), 2))))
    assert [n[0] for n in tape.nodes] == ["conv1d"] * 3 + ["reshape"] + ["dense"] * 3
    assert len(tape.nodes) == len(net.spec.layers) == 7


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), scale=st.sampled_from([1.0, -0.37, 2.5]))
def test_weighted_sum_equals_its_mul_add_chain(data, n, scale):
    ws = data.draw(st.lists(st.sampled_from([1.0, 0.0, -0.5, 10.0]), min_size=n, max_size=n))
    losses = [_normal(data.draw, ()) for _ in range(n)]
    needs = data.draw(st.tuples(*[st.booleans()] * n).filter(any))
    weights = np.array(scale)

    def fused(*ts):
        return weighted_sum(ts, ws)

    def chain(*ts):
        return oracle.weighted_sum(ts, ws)

    assert _run(fused, losses, needs, weights) == _run(chain, losses, needs, weights)


def test_weighted_sum_records_one_node():
    a, b = Tensor(np.array(2.0), requires_grad=True), Tensor(np.array(3.0))
    with Tape() as tape:
        loss = weighted_sum([a, b], [0.5, 4.0])
    assert [(n[0], n[2]) for n in tape.nodes] == [("weighted_sum", (0, None))]
    assert loss.item() == 13.0 and backward(tape, loss)[a.tape_id] == 0.5


# name -> (fused loss, unfused chain, number of probability inputs)
LOSSES = {
    "bce1": (lambda p: bce(p, 1.0), lambda p: oracle.bce(p, 1.0), 1),
    "bce0": (lambda p: bce(p, 0.0), lambda p: oracle.bce(p, 0.0), 1),
    "gan_value": (gan_value, oracle.gan_value, 2),
    "discriminator_cost": (discriminator_cost, oracle.discriminator_cost, 2),
    "nonsaturating": (generator_cost, oracle.generator_cost, 1),
    "minimax": (lambda f: generator_cost(f, "minimax"),
                lambda f: oracle.generator_cost(f, "minimax"), 1),
    "zero_sum": (lambda r, f: generator_cost(f, "zero_sum", d_real=r),
                 lambda r, f: oracle.generator_cost(f, "zero_sum", d_real=r), 2),
}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(LOSSES)),
       scale=st.sampled_from([1.0, -0.37, 2.5]))
def test_probability_losses_equal_their_chains(data, name, scale):
    fused, chain, arity = LOSSES[name]
    shape = data.draw(st.sampled_from([(1,), (5,), (3, 1), (2, 2, 1)]))
    probs = [_probs(data.draw, shape) for _ in range(arity)]
    needs = data.draw(st.tuples(*[st.booleans()] * arity).filter(any))
    weights = np.array(scale)  # the output gradient the loss node receives
    assert _run(fused, probs, needs, weights) == _run(chain, probs, needs, weights)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), name=st.sampled_from(["mse", "critic_estimate", "critic_generator_cost"]),
       scale=st.sampled_from([1.0, -0.37, 2.5]))
def test_mean_losses_equal_their_chains(data, name, scale):
    shape = data.draw(st.sampled_from([(1,), (4,), (3, 2), (2, 3, 1)]))
    fused, chain = {"mse": (mse, oracle.mse),
                    "critic_estimate": (critic_estimate, oracle.critic_estimate),
                    "critic_generator_cost": (critic_generator_cost,
                                              oracle.critic_generator_cost)}[name]
    arity = 1 if name == "critic_generator_cost" else 2
    arrays = [_normal(data.draw, shape) for _ in range(arity)]
    needs = data.draw(st.tuples(*[st.booleans()] * arity).filter(any))
    weights = np.array(scale)
    assert _run(fused, arrays, needs, weights) == _run(chain, arrays, needs, weights)


@pytest.mark.parametrize("name", sorted(LOSSES))
def test_each_probability_loss_records_one_node(name):
    fused, _, arity = LOSSES[name]
    ps = [Tensor(np.full(3, 0.5), requires_grad=True) for _ in range(arity)]
    with Tape() as tape:
        fused(*ps)
    assert len(tape.nodes) == 1


@pytest.mark.parametrize("shapes", [((4,), (1,)), ((3, 2), (2,)), ((2, 3, 1), (2, 3)),
                                    ((3, 2), (2, 3))])
def test_mse_refuses_unequal_shapes(shapes):
    with pytest.raises(ShapeError, match="mse: shapes"):
        mse(*(np.zeros(s) for s in shapes))


def test_mse_against_a_target_that_needs_no_gradient_records_one_node():
    a = Tensor(np.arange(4.0), requires_grad=True)
    with Tape() as tape:
        loss = mse(a, np.ones(4))
    assert [(n[0], n[2]) for n in tape.nodes] == [("mse", (0, None))]
    np.testing.assert_array_equal(backward(tape, loss)[a.tape_id], (a.data - 1.0) / 2.0)
