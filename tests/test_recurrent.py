"""Fused GRU/LSTM sequence kernels against the per-step cell oracle."""

import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cell_oracle import unroll
from tape_oracle import add, mean, mul, tsum
from test_kernel_digests import FIXTURE, blas_probe
import tsgan.numcore.recurrent as recurrent
from tsgan.errors import GraphError, ShapeError
from tsgan.models import NetSpec, build_network
from tsgan.numcore import (RngStream, Tape, Tensor, backward, gru_pack, gru_sequence, lstm_pack,
                           lstm_sequence)

KERNELS = {"gru": gru_sequence, "lstm": lstm_sequence}
PACKS = {"gru": gru_pack, "lstm": lstm_pack}
GATES = {"gru": "zrh", "lstm": "fiog"}
TOL = 1e-12


def _cell(kind, feat, units, seed):
    """Gate parameters drawn like a one-layer network's, with nonzero biases."""
    spec = NetSpec("cell", feat, [{"kind": kind, "units": units}])
    params = build_network(spec, RngStream(seed, ("cell",))).params
    cell = {k.split(".", 1)[1]: v for k, v in params.items()}
    draw = np.random.default_rng(seed)
    for gate in GATES[kind]:
        cell[f"b{gate}"].data = draw.normal(scale=0.5, size=units)
    return cell


def _weights(kind, cell):
    """The cell's parameters in its kernel's argument order."""
    return [cell[f"{p}{g}"] for g in GATES[kind] for p in "Wb"]


def _fused(kind, cell, x, state=None, packed=None):
    return KERNELS[kind](x, *_weights(kind, cell), state=state, packed=packed)


def _grads(run, x, cell, weights):
    """Forward value and gradients of sum(run() * weights) for x and every cell tensor."""
    leaves = [x, *cell.values()]
    with Tape() as tape:
        out = run()
        loss = tsum(mul(out, weights))
    gmap = backward(tape, loss)
    return out.data, [gmap[t.tape_id] for t in leaves]


@settings(max_examples=40, deadline=None)
# the backward's [1|x] and dx scratch lie in the spent gate buffer when 1 + feat <= k*units,
# and are fresh otherwise (the recurrent-desk GRU forecaster's feat 18 over 2 units)
@example(kind="gru", batch=64, seq=30, feat=18, units=2, seed=1)
@example(kind="lstm", batch=7, seq=5, feat=24, units=3, seed=2)
@example(kind="gru", batch=9, seq=6, feat=20, units=7, seed=3)
@example(kind="lstm", batch=4, seq=8, feat=23, units=6, seed=4)
# a time loop that runs once, and the batch-1 output copy
@example(kind="gru", batch=1, seq=1, feat=5, units=2, seed=5)
@example(kind="lstm", batch=1, seq=1, feat=9, units=2, seed=6)
@given(kind=st.sampled_from(["gru", "lstm"]), batch=st.integers(1, 64),
       seq=st.integers(1, 40), feat=st.integers(1, 24), units=st.integers(1, 16),
       seed=st.integers(0, 2**16))
def test_fused_kernel_matches_cell_oracle(kind, batch, seq, feat, units, seed):
    cell = _cell(kind, feat, units, seed)
    draw = np.random.default_rng(seed + 1)
    x = Tensor(draw.normal(size=(batch, seq, feat)), requires_grad=True)
    weights = draw.normal(size=(batch, seq, units))
    fused_out, fused_grads = _grads(lambda: _fused(kind, cell, x), x, cell, weights)
    oracle_out, oracle_grads = _grads(lambda: unroll(kind, cell, x), x, cell, weights)
    np.testing.assert_allclose(fused_out, oracle_out, rtol=0, atol=TOL)
    for name, f, o in zip(["x", *cell], fused_grads, oracle_grads):
        assert f.shape == o.shape, name
        np.testing.assert_allclose(f, o, rtol=0, atol=TOL, err_msg=name)


@pytest.mark.parametrize("kind", ["gru", "lstm"])
@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("x_grad", [True, False])
def test_backward_leaves_output_and_input_untouched(kind, batch, x_grad):
    """The backward consumes the kernel's private buffers, never its output or x."""
    cell = _cell(kind, 3, 4, 1)
    draw = np.random.default_rng(1)
    x = Tensor(draw.normal(size=(batch, 7, 3)), requires_grad=x_grad)
    x_bytes = x.data.tobytes()
    with Tape() as tape:
        out = _fused(kind, cell, x)
        out_bytes = out.data.tobytes()
        loss = tsum(mul(out, draw.normal(size=out.shape)))
    gmap = backward(tape, loss)
    assert out.data.tobytes() == out_bytes
    assert x.data.tobytes() == x_bytes
    assert (x.tape_id in gmap) == x_grad


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_backward_never_writes_the_gradient_it_receives(kind):
    """add() hands one output gradient to both its inputs. At batch 1 the kernel's
    time-major view of that gradient is contiguous, so a backward that worked in it
    would corrupt the sibling leaf's gradient, which here must stay 1/size."""
    cell = _cell(kind, 2, 3, 4)
    x = Tensor(np.random.default_rng(4).normal(size=(1, 6, 2)), requires_grad=True)
    s = Tensor(np.zeros((1, 6, 3)), requires_grad=True)
    with Tape() as tape:
        loss = mean(add(_fused(kind, cell, x), s))
    gmap = backward(tape, loss)
    assert gmap[s.tape_id].tobytes() == np.full((1, 6, 3), 1.0 / 18).tobytes()


def _spent_tape(kind):
    """A weak reference to the first of two two-layer training steps' tapes."""
    cells = _cell(kind, 2, 3, 0), _cell(kind, 3, 3, 1)
    x = Tensor(np.ones((2, 5, 2)), requires_grad=True)
    refs = []
    for _ in range(2):  # the second step moves every leaf onto a fresh tape
        with Tape() as tape:
            loss = tsum(_fused(kind, cells[1], _fused(kind, cells[0], x)))
        backward(tape, loss)
        refs.append(weakref.ref(tape))
    return refs[0]


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_spent_tape_is_freed_without_the_cycle_collector(kind):
    """The backward closure holds arrays only, so no reference cycle keeps its buffers alive."""
    gc.disable()
    try:
        assert _spent_tape(kind)() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_fused_kernel_records_one_node(kind):
    cell = _cell(kind, 2, 3, 0)
    x = Tensor(np.ones((2, 5, 2)))
    with Tape() as tape:
        _fused(kind, cell, x)
    assert [node[0] for node in tape.nodes] == [f"{kind}_sequence"]


@pytest.mark.parametrize("kind", ["gru", "lstm"])
@pytest.mark.parametrize("shape", [(3, 2), (2, 3, 2, 1), (0, 5, 2), (2, 0, 2), (2, 3, 4)],
                         ids=["rank-2", "rank-4", "empty-batch", "empty-seq", "width-mismatch"])
def test_fused_kernel_rejects_bad_input_shapes(kind, shape):
    cell = _cell(kind, 2, 3, 2)
    with pytest.raises(ShapeError):
        _fused(kind, cell, Tensor(np.zeros(shape)))


# the arrays of each kind's state: h, plus c for the LSTM
STATE_PARTS = {"gru": 1, "lstm": 2}
# Bit for bit only with the BLAS build the digest fixtures were written with; another
# build may round a product of a different row count differently.
SAME_BLAS = json.loads(FIXTURE.read_text())["blas_probe"] == blas_probe()


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["gru", "lstm"]), batch=st.sampled_from([4, 8, 12]),
       seq=st.integers(2, 12), feat=st.integers(1, 12), units=st.integers(1, 8),
       seed=st.integers(0, 2**16), data=st.data())
def test_a_call_from_another_calls_last_state_continues_it(kind, batch, seq, feat, units,
                                                           seed, data):
    """The batch is a multiple of 4: this BLAS rounds the last rows of a product whose
    row count is not one (the input side's seq*batch rows) differently."""
    split = data.draw(st.integers(1, seq - 1), label="split")
    cell = _cell(kind, feat, units, seed)
    x = np.random.default_rng(seed).normal(size=(batch, seq, feat))
    zeros = tuple(np.zeros((batch, units)) for _ in range(STATE_PARTS[kind]))
    whole, states = _fused(kind, cell, Tensor(x), state=zeros)
    assert whole.data.tobytes() == _fused(kind, cell, Tensor(x)).data.tobytes()
    assert [s.shape for s in states] == [(batch, seq, units)] * STATE_PARTS[kind]
    assert states[0] is whole.data
    head, head_states = _fused(kind, cell, Tensor(x[:, :split]), state=zeros)
    tail, tail_states = _fused(kind, cell, Tensor(x[:, split:]),
                               state=tuple(s[:, -1] for s in head_states))
    pairs = [(whole.data, (head.data, tail.data)),
             *((s, parts) for s, parts in zip(states, zip(head_states, tail_states)))]
    for want, parts in pairs:
        got = np.concatenate(parts, axis=1)
        if SAME_BLAS:
            assert got.tobytes() == want.tobytes()
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL)


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_initial_state_of_the_wrong_shape_is_refused(kind):
    cell = _cell(kind, 2, 3, 2)
    x = Tensor(np.zeros((4, 5, 2)))
    for state in [(np.zeros((4, 2)),) * STATE_PARTS[kind],
                  (np.zeros((4, 3)),) * (STATE_PARTS[kind] + 1)]:
        with pytest.raises(ShapeError, match="initial state"):
            _fused(kind, cell, x, state=state)


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_a_zero_state_gives_the_gradients_of_no_state(kind):
    """The state stays off the tape; from zeros, x and the parameters get the
    gradients of a call given no state."""
    cell = _cell(kind, 3, 4, 6)
    draw = np.random.default_rng(6)
    x = Tensor(draw.normal(size=(4, 5, 3)), requires_grad=True)
    weights = draw.normal(size=(4, 5, 4))
    zeros = tuple(np.zeros((4, 4)) for _ in range(STATE_PARTS[kind]))
    _, with_state = _grads(lambda: _fused(kind, cell, x, state=zeros)[0], x, cell, weights)
    _, without = _grads(lambda: _fused(kind, cell, x), x, cell, weights)
    for a, b in zip(with_state, without):
        assert a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
# batch 1 (the output copy is a view) and a time loop that runs once
@example(kind="gru", batch=1, seq=7, feat=5, units=3, seed=1, carried=False)
@example(kind="lstm", batch=1, seq=4, feat=9, units=2, seed=2, carried=True)
@example(kind="gru", batch=6, seq=1, feat=4, units=5, seed=3, carried=True)
@example(kind="lstm", batch=5, seq=1, feat=3, units=4, seed=4, carried=False)
@given(kind=st.sampled_from(["gru", "lstm"]), batch=st.integers(1, 16),
       seq=st.integers(1, 12), feat=st.integers(1, 24), units=st.integers(1, 8),
       seed=st.integers(0, 2**16), carried=st.booleans())
def test_a_call_given_packed_weights_equals_one_that_packs_them(kind, batch, seq, feat, units,
                                                               seed, carried):
    """The same ops in the same order either way, so bit for bit on any BLAS; two calls
    share one pack, which no call writes."""
    cell = _cell(kind, feat, units, seed)
    draw = np.random.default_rng(seed)
    x = Tensor(draw.normal(size=(batch, seq, feat)))
    state = (tuple(draw.normal(size=(batch, units)) for _ in range(STATE_PARTS[kind]))
             if carried else None)
    packed = PACKS[kind](*_weights(kind, cell))
    kept = [p.copy() for p in packed]
    want = _fused(kind, cell, x, state=state)
    for _ in range(2):
        got = _fused(kind, cell, x, state=state, packed=packed)
        if carried:
            assert [s.tobytes() for s in got[1]] == [s.tobytes() for s in want[1]]
            got = got[0]
        assert got.data.tobytes() == (want[0] if carried else want).data.tobytes()
    assert [p.tobytes() for p in packed] == [p.tobytes() for p in kept]


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_packed_weights_of_the_wrong_shape_are_refused(kind):
    cell = _cell(kind, 2, 3, 2)
    x = Tensor(np.zeros((4, 5, 2)))
    packed = PACKS[kind](*_weights(kind, cell))
    wider = PACKS[kind](*_weights(kind, _cell(kind, 3, 3, 2)))  # another input width
    narrower = PACKS[kind](*_weights(kind, _cell(kind, 2, 2, 2)))  # fewer units
    for bad in [packed[:1], packed[::-1], (*packed, packed[0]), (narrower[0], packed[1]),
                (packed[0], wider[1]), narrower]:
        with pytest.raises(ShapeError, match="packed weights"):
            _fused(kind, cell, x, packed=bad)


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_packed_weights_are_refused_on_a_recording_tape(kind):
    """A pack is a copy its weights' updates never reach, so a call that records
    gradients for them must pack them itself. Off the tape, or with nothing to
    record, a pack is taken."""
    cell = _cell(kind, 2, 3, 5)
    x = Tensor(np.ones((2, 4, 2)))
    packed = PACKS[kind](*_weights(kind, cell))
    with Tape() as tape:
        with pytest.raises(GraphError, match="packed weights"):
            _fused(kind, cell, x, packed=packed)
        constants = {k: Tensor(v.data) for k, v in cell.items()}
        _fused(kind, constants, x, packed=packed)
    assert tape.nodes == []
    _fused(kind, cell, x, packed=packed)


class _CountingNumpy:
    """numpy whose functions count their calls; types and constants pass through."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)
        return counted


def _dispatch_counts(kind, seq, counter):
    """`counter`'s calls in one forward and in its backward at batch 3, feat 2, units 4."""
    cell = _cell(kind, 2, 4, 7)
    x = Tensor(np.ones((3, seq, 2)), requires_grad=True)
    start = counter.calls
    with Tape() as tape:
        out = _fused(kind, cell, x)
        forward = counter.calls - start
        loss = tsum(out)
    start = counter.calls
    backward(tape, loss)
    return forward, counter.calls - start


# numpy calls per timestep of each time loop (forward, backward): every op in the loops
# is a numpy function called by name, none an augmented operator, so all are counted
STEP_CALLS = {"gru": (12, 11), "lstm": (10, 10)}


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_time_loops_make_a_fixed_number_of_numpy_calls_per_step(kind, monkeypatch):
    counter = _CountingNumpy()
    monkeypatch.setattr(recurrent, "np", counter)
    for seq in (2, 9):
        counts = [_dispatch_counts(kind, n, counter) for n in (seq, seq + 1)]
        per_step = tuple(b - a for a, b in zip(*counts))
        assert per_step == STEP_CALLS[kind], seq


# Peak bytes one backward allocates, over a (batch, seq, units) array's: the
# output gradient, the BPTT factors and the gradients it returns. The kernels'
# earlier backward, which kept every factor in a fresh buffer beside the
# forward's, read 6.9 (GRU) and 8.2 (LSTM) at this shape. A GRU backward that held
# its output gradient to the end and took fresh scratch for dx read 5.0, and one that
# kept every gate's gradient until dx was made read 4.3 (GRU) and 3.6 (LSTM). This one
# copies the LSTM's gate gradients out time-major, one of the four into a fresh slab,
# frees each kernel's one fresh slab before dx is made, and reads 3.7 and 3.9.
PEAK_SLABS = {"gru": 4.75, "lstm": 5.5}


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_backward_peak_memory_stays_under_its_bound(kind):
    batch, seq, feat, units = 32, 40, 64, 96
    cell = _cell(kind, feat, units, 3)
    x = Tensor(np.random.default_rng(3).normal(size=(batch, seq, feat)), requires_grad=True)
    with Tape() as tape:
        loss = tsum(_fused(kind, cell, x))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        backward(tape, loss)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak / (8 * batch * seq * units) < PEAK_SLABS[kind]
