"""One parameter vector per network: the flat update, fed one flat gradient vector,
against the per-parameter oracle, the view layout every network keeps, and checkpoint
bytes."""

import json
import tracemalloc
import weakref
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from optim_oracle import OracleState, oracle_clip, oracle_step
from tape_oracle import add, mean, mul
from test_kernel_digests import FIXTURE as DIGESTS
from test_kernel_digests import blas_probe
from tsgan.errors import GraphError, NumericAbort
from tsgan.models import (NetSpec, build_forecaster, build_timegan, load_checkpoint,
                          save_checkpoint)
from tsgan.models.network import build_network, param_shapes, require_finite_params
from tsgan.numcore import (OptimizerState, RngStream, Tape, Tensor, backward, clip_weights,
                           leaf_grads, optimizer_step)
from tsgan.numcore.optim import BLOCK, OPTIMIZERS, ParamGroup, ParamVector
from tsgan.training import step as step_module
from tsgan.training import wgan as wgan_module
from tsgan.training.step import train_step

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _assert_laid_over(vec):
    """Every Tensor of vec is the view of its span of vec.flat, in vec's order."""
    flat, offset = vec.flat, 0
    assert flat.dtype == np.float64 and flat.ndim == 1 and flat.flags.c_contiguous
    for name, p in vec.items():
        assert p.data.base is flat, name
        assert p.data.ctypes.data == flat.ctypes.data + 8 * offset, name
        offset += p.size
    assert offset == flat.size


def _assert_views(net):
    """Every parameter is the view of its span of net.params.flat, in canonical order."""
    assert [(k, p.shape) for k, p in net.params.items()] == param_shapes(net.spec)
    _assert_laid_over(net.params)


def _wide_net(seed):
    """Two dense layers, 93504 values: more than one block, a block edge inside L0.W."""
    spec = NetSpec("wide", 300, [{"kind": "dense", "units": 256, "activation": "tanh"},
                                 {"kind": "dense", "units": 64, "activation": "linear"}],
                   input_rank=2)
    return build_network(spec, RngStream(seed, ("wide",)))


def _grads(params, draw):
    """Gradients of mixed scale, so moments and steps differ across entries."""
    return {name: draw.normal(size=p.shape) * 10.0 ** draw.integers(-4, 2, size=p.shape)
            for name, p in params.items()}


def _flat(grads):
    """Named gradients as the one vector optimizer_step takes, in their order."""
    return np.concatenate([np.zeros(0), *grads.values()], axis=None)


def _assert_same_bytes(params, oracle_params):
    for name, p in params.items():
        assert p.data.tobytes() == oracle_params[name].data.tobytes(), name


def _assert_same_moments(state, oracle, params):
    offset = 0
    for name, p in params.items():
        for key, moment in oracle.slots[name].items():
            span = state.moments[key][offset : offset + p.size]
            assert span.tobytes() == moment.ravel().tobytes(), (name, key)
        offset += p.size


@pytest.mark.parametrize("direction", ["descend", "ascend"])
@pytest.mark.parametrize("algo", OPTIMIZERS)
def test_flat_step_matches_the_per_parameter_oracle(algo, direction):
    net = _wide_net(1)
    assert net.params.flat.size > BLOCK
    twin = net.clone()
    state, oracle = OptimizerState(algo, 1e-2, direction), OracleState(algo, 1e-2, direction)
    draw = np.random.default_rng(5)
    for _ in range(4):
        grads = _grads(net.params, draw)
        optimizer_step(state, net.params, _flat(grads))
        oracle_step(oracle, twin.params, grads)
        _assert_same_bytes(net.params, twin.params)
        _assert_same_moments(state, oracle, net.params)
        assert state.step_count == oracle.step_count
        _assert_views(net)


@pytest.mark.parametrize("algo", OPTIMIZERS)
def test_flat_step_over_merged_networks_matches_the_oracle(algo):
    """TimeGAN's joint update steps several networks' vectors as one parameter set."""
    nets = build_timegan(4, 3, 2, RngStream(3, ("tg",)))
    twins = {k: v.clone() for k, v in nets.items()}
    parts = ("embedder", "recovery", "generator", "supervisor")
    group = ParamGroup({k: nets[k].params for k in parts})
    flat_twin = {f"{k}.{n}": p for k in parts for n, p in twins[k].params.items()}
    state, oracle = OptimizerState(algo, 1e-2), OracleState(algo, 1e-2)
    draw = np.random.default_rng(6)
    for _ in range(3):
        grads = _grads(group, draw)
        optimizer_step(state, group, _flat(grads))
        oracle_step(oracle, flat_twin, grads)
        _assert_same_bytes(group, flat_twin)
        _assert_same_moments(state, oracle, group)
    for k in parts:
        _assert_views(nets[k])


@pytest.mark.parametrize("algo", OPTIMIZERS)
def test_flat_step_over_a_group_longer_than_a_block_matches_the_oracle(algo):
    """A group whose last blocks span several vectors: the update copies those from its
    scratch and repeats the arithmetic for the block before them, bit for bit."""
    nets = {"wide": _wide_net(7), **build_timegan(4, 3, 2, RngStream(8, ("tg",)))}
    parts = ("wide", "embedder", "recovery")
    twins = {k: nets[k].clone() for k in parts}
    group = ParamGroup({k: nets[k].params for k in parts})
    assert BLOCK < len(nets["wide"].params.flat) < 2 * BLOCK
    flat_twin = {f"{k}.{n}": p for k in parts for n, p in twins[k].params.items()}
    state, oracle = OptimizerState(algo, 1e-2), OracleState(algo, 1e-2)
    draw = np.random.default_rng(9)
    for _ in range(3):
        grads = _grads(group, draw)
        optimizer_step(state, group, _flat(grads))
        oracle_step(oracle, flat_twin, grads)
        _assert_same_bytes(group, flat_twin)
        _assert_same_moments(state, oracle, group)


@pytest.mark.parametrize("direction", ["descend", "ascend"])
@pytest.mark.parametrize("algo", OPTIMIZERS)
def test_leaf_grads_vector_steps_like_a_plain_dict(algo, direction):
    """leaf_grads lays a merged group's gradients over one float64 vector in the group's
    order; the update reads that vector as it is, never writes it, and moves the same bits
    as the per-parameter oracle stepping a plain dict of the same gradients."""
    parts = ("embedder", "recovery", "generator", "supervisor")
    nets = build_timegan(4, 3, 2, RngStream(3, ("tg",)))
    twins = {k: v.clone() for k, v in nets.items()}
    group = ParamGroup({k: nets[k].params for k in parts})
    flat_twin = {f"{k}.{n}": p for k in parts for n, p in twins[k].params.items()}
    state, oracle = OptimizerState(algo, 1e-2, direction), OracleState(algo, 1e-2, direction)
    for step in range(3):
        with Tape() as tape:
            loss = reduce(add, (mean(mul(mul(p, p), float(i + step)))
                                for i, p in enumerate(group.values())))
        gmap = backward(tape, loss)
        grads = leaf_grads(tape, group, gmap)
        plain = {name: gmap[p.tape_id].copy() for name, p in group.items()}
        assert grads.dtype == np.float64 and grads.tobytes() == _flat(plain).tobytes()
        before = grads.tobytes()
        optimizer_step(state, group, grads)
        oracle_step(oracle, flat_twin, plain)
        assert grads.tobytes() == before
        _assert_same_bytes(group, flat_twin)
        _assert_same_moments(state, oracle, group)


def test_clip_matches_the_oracle_and_keeps_the_views():
    net = _wide_net(2)
    twin = net.clone()
    grads = _grads(net.params, np.random.default_rng(7))  # moves some values past the bound
    optimizer_step(OptimizerState("sgd", 1.0), net.params, _flat(grads))
    oracle_step(OracleState("sgd", 1.0), twin.params, grads)
    clip_weights(net.params, 0.05)
    oracle_clip(twin.params, 0.05)
    _assert_same_bytes(net.params, twin.params)
    _assert_views(net)


@pytest.mark.parametrize("update", ["step", "clip"])
def test_update_writes_the_vector_in_place(update):
    """A network keeps one vector for its whole life: an update and a clip write that
    vector, and every parameter keeps the view it was given when the network was built."""
    net = _wide_net(3)
    flat, views = net.params.flat, [p.data for p in net.params.values()]
    before = flat.tobytes()
    if update == "step":
        optimizer_step(OptimizerState("adam", 0.1), net.params,
                       _flat(_grads(net.params, np.random.default_rng(8))))
    else:
        clip_weights(net.params, 1e-3)
    assert net.params.flat is flat
    assert all(p.data is view for p, view in zip(net.params.values(), views))
    assert flat.tobytes() != before
    _assert_views(net)


@pytest.mark.parametrize("algo", OPTIMIZERS)
def test_abort_in_the_last_block_changes_nothing(algo):
    """A vector longer than BLOCK whose only non-finite new value lies in its last block:
    the first pass finds it after every earlier block is computed, and the abort leaves the
    parameters, the moments and the step count byte for byte as they were."""
    net = _wide_net(5)
    size = net.params.flat.size
    assert size > BLOCK and (size - 1) // BLOCK > 0
    state = OptimizerState(algo, 1e307)
    g = np.random.default_rng(11).uniform(-1.0, 1.0, size)
    g[-1] = 0.0  # the warm step leaves the last value where it is
    optimizer_step(state, net.params, g)
    net.params.flat[-1] = 1.79e308  # one step of about 1e307 upward overflows it
    g[-1] = -1.0
    before = (net.params.flat.tobytes(), {k: m.tobytes() for k, m in state.moments.items()})
    with np.errstate(over="ignore"), pytest.raises(NumericAbort, match="'L1.b' after update"):
        optimizer_step(state, net.params, g)
    assert state.step_count == 1
    assert (net.params.flat.tobytes(),
            {k: m.tobytes() for k, m in state.moments.items()}) == before
    _assert_views(net)


@pytest.mark.parametrize("update", ["step", "clip"])
def test_update_on_a_tape_backward_has_not_consumed_is_a_graph_error(update):
    """A tape's backward closures read the parameter arrays it recorded: until backward
    consumes it, an update or a clip would change those arrays under it, so it is refused
    and nothing is written. After backward the same update goes through."""
    net = _wide_net(6)
    x = Tensor(np.random.default_rng(12).normal(size=(2, 300)))
    tape = Tape()
    with tape:
        loss = mean(net.forward(x))
    state = OptimizerState("adam", 0.1)
    g = np.ones(net.params.flat.size)
    before = net.params.flat.tobytes()
    with pytest.raises(GraphError, match="'L0.W' is on a tape that backward has not consumed"):
        if update == "step":
            optimizer_step(state, net.params, g)
        else:
            clip_weights(net.params, 1e-3)
    assert net.params.flat.tobytes() == before
    assert state.step_count == 0 and state.moments == {}
    optimizer_step(state, net.params, leaf_grads(tape, net.params, backward(tape, loss)))
    clip_weights(net.params, 1e-3)
    assert net.params.flat.tobytes() != before


def test_no_trainer_updates_parameters_that_an_unconsumed_tape_holds(tmp_path, monkeypatch):
    """The update and clip check sees only the tape each parameter was last recorded on.
    Over one training run of every model kind, no update and no clip finds any live
    unconsumed tape holding one of its parameters, so that check misses nothing here."""
    from test_chain_digests import chain_digests

    tapes, seen = weakref.WeakSet(), {"step": 0, "clip": 0}
    tape_init = Tape.__init__

    def tracked_init(self):
        tape_init(self)
        tapes.add(self)

    def checked(fn, kind):
        def wrapper(*args):
            params = args[1] if kind == "step" else args[0]
            ids = {id(p) for p in params.values()}
            for tape in list(tapes):
                assert tape.consumed or not ids & {id(t) for t in tape._leaves.values()}, kind
            seen[kind] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Tape, "__init__", tracked_init)
    monkeypatch.setattr(step_module, "optimizer_step",
                        checked(step_module.optimizer_step, "step"))
    monkeypatch.setattr(wgan_module, "clip_weights", checked(wgan_module.clip_weights, "clip"))
    chain_digests(tmp_path)
    assert seen["step"] > 0 and seen["clip"] > 0


@pytest.mark.parametrize("algo", OPTIMIZERS)
def test_warm_update_makes_no_vector_sized_temporary(algo):
    """An update's scratch is BLOCK-sized buffers (one per moment, the step and one more)
    whatever the vector's length. At 4*BLOCK values, a warm sgd or rmsprop update peaks
    below one vector's bytes; adam's four scratch buffers alone are one vector's bytes, so
    it peaks below one vector and one block. Writing a fresh vector costs a whole vector."""
    shapes = [("w", (2 * BLOCK,)), ("b", (2 * BLOCK,))]
    params = ParamVector(shapes, np.random.default_rng(13).normal(size=4 * BLOCK))
    g = np.random.default_rng(14).normal(size=4 * BLOCK)
    state = OptimizerState(algo, 1e-3)
    optimizer_step(state, params, g)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        optimizer_step(state, params, g)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 8 * (4 * BLOCK + (BLOCK if algo == "adam" else 0))


def test_params_are_views_after_build_load_clone_update_and_clip(tmp_path):
    net = build_forecaster("gru", 2, 3, 4, 2, 3, RngStream(4, ("views",)))
    _assert_views(net)
    x = Tensor(np.random.default_rng(9).normal(size=(2, 4, 3)))
    train_step(OptimizerState("rmsprop", 0.01), net.params, lambda: mean(net.forward(x)),
               "step", 0, 0)
    _assert_views(net)
    clip_weights(net.params, 0.1)
    _assert_views(net)
    twin = net.clone()
    _assert_views(twin)
    assert twin.params.flat is not net.params.flat
    save_checkpoint(tmp_path / "model", net)
    loaded, _ = load_checkpoint(tmp_path / "model")
    _assert_views(loaded)
    assert loaded.params.flat.tobytes() == net.params.flat.tobytes()


_READERS = {
    "save": lambda net, tmp: save_checkpoint(tmp / "model", net),
    "step": lambda net, tmp: optimizer_step(
        OptimizerState("sgd", 0.1), net.params,
        _flat({k: np.ones(p.shape) for k, p in net.params.items()})),
    "clip": lambda net, tmp: clip_weights(net.params, 0.1),
    "clone": lambda net, tmp: net.clone(),
    "finite": lambda net, tmp: require_finite_params(net),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_a_parameter_rebound_off_its_vector_is_a_graph_error(reader, tmp_path):
    """Each reader of the vector would drop the rebound value, so it names it instead."""
    net = build_forecaster("gru", 1, 2, 3, 1, 2, RngStream(11, ("cl",)))
    net.params["L0.Wz"].data = net.params["L0.Wz"].data + 1.0
    with pytest.raises(GraphError, match="'L0.Wz'"):
        _READERS[reader](net, tmp_path)
    assert not list(tmp_path.iterdir())


def _fixture_network(update):
    """The recipe of tests/fixtures/adam3.*: a seeded LSTM forecaster after 3 Adam steps,
    each taken by update(params, loss_fn)."""
    net = build_forecaster("lstm", 2, 4, 6, 3, 5, RngStream(9, ("fixture",)))
    x = Tensor(np.random.default_rng(8).normal(size=(2, 6, 5)))
    for _ in range(3):
        update(net.params, lambda: mean(mul(net.forward(x), net.forward(x))))
    return net


def test_checkpoint_bytes_match_the_per_parameter_writer(tmp_path):
    """tests/fixtures/adam3.json was written by the per-parameter checkpoint code that
    the flat vector replaced, and adam3.bin by write_fixture() below: the per-parameter
    oracle's Adam steps on the kernels' gradients, each parameter's bytes in manifest
    order. The flat optimizer and checkpoint writer must write the same bytes, and
    load those files back bit for bit. The bytes hold for the BLAS build that wrote
    them; where test_kernel_digests.blas_probe differs, only the load is checked."""
    loaded, manifest = load_checkpoint(FIXTURES / "adam3")
    _assert_views(loaded)
    assert manifest["step"] == 3
    assert loaded.params.flat.tobytes() == (FIXTURES / "adam3.bin").read_bytes()
    if json.loads(DIGESTS.read_text())["blas_probe"] != blas_probe():
        pytest.skip("this BLAS rounds the probe products differently from the fixture's")
    opt = OptimizerState("adam", 0.01)
    net = _fixture_network(lambda params, loss_fn: train_step(opt, params, loss_fn, "step", 0, 0))
    save_checkpoint(tmp_path / "adam3", net, seed=9, step=3)
    for ext in (".json", ".bin"):
        assert (tmp_path / f"adam3{ext}").read_bytes() == (FIXTURES / f"adam3{ext}").read_bytes()


def write_fixture() -> None:
    """Write tests/fixtures/adam3.bin from the per-parameter oracle; adam3.json stays."""
    oracle = OracleState("adam", 0.01)

    def update(params, loss_fn):
        with Tape() as tape:
            loss = loss_fn()
        gmap = backward(tape, loss)
        oracle_step(oracle, params, {name: gmap[p.tape_id] for name, p in params.items()})

    params = _fixture_network(update).params
    blob = b"".join(p.data.astype("<f8").tobytes() for p in params.values())
    (FIXTURES / "adam3.bin").write_bytes(blob)


if __name__ == "__main__":
    write_fixture()
