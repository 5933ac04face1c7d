"""Batched iterative forecasting against the per-window oracle."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forecast_oracle import iterative_forecast, timegan_direct
from test_recurrent import SAME_BLAS
import tsgan.models.network as network
import tsgan.numcore.recurrent as recurrent
import tsgan.training.synthesis as synthesis
from tsgan.data import (FEATURE_COLUMNS, PriceSeries, apply_scaler, build_features,
                        fit_scaler, make_synthetic_series, make_windows)
from tsgan.errors import DataError
from tsgan.models import NetSpec, Network, build_forecaster, build_network, build_timegan
from tsgan.numcore import RngStream
from tsgan.training import (ForecasterPredictor, GanPredictor, PersistencePredictor,
                            TimeganPredictor, as_predictor, forecast)

TOL = 1e-12


def _windows(rows=60, seq_len=6, horizon=4, zero_volume_row=None):
    series = make_synthetic_series("sine", rows, seed=0)
    if zero_volume_row is not None:
        values = series.values.copy()
        values[zero_volume_row, 5] = 0.0
        series = PriceSeries(series.dates, values)
    fm = build_features(series, sma_window=3)
    scaler = fit_scaler(fm)
    return make_windows(apply_scaler(fm, scaler), seq_len, horizon), scaler


DS, SCALER = _windows()


def _model(kind, seed):
    rng = RngStream(seed, ("forecast-test", kind))
    if kind == "timegan":
        return build_timegan(feature_dim=18, hidden_dim=3, rng=rng)
    if kind == "gan":
        # two recurrent layers and a per-step dense between them: all carried by the roll
        spec = NetSpec("gen", 18 + 2, [
            {"kind": "gru", "units": 3}, {"kind": "dense", "units": 4, "activation": "tanh"},
            {"kind": "dropout", "rate": 0.2}, {"kind": "lstm", "units": 2},
            {"kind": "last_step"}, {"kind": "dense", "units": 2, "activation": "sigmoid"}])
        return GanPredictor(build_network(spec, rng), 18, seed)
    return build_forecaster(kind, layers=2, units=3, seq_len=6, horizon=2,
                            input_dim=18, rng=rng)


class _PredictOnly:
    """A predictor known only by predict(): the iterative forecast re-runs it per step."""

    def __init__(self, predictor):
        self.predictor = predictor
        self.name = predictor.name
        self.head_width = predictor.head_width

    def predict(self, inputs, width):
        return self.predictor.predict(inputs, width)


def _forecast(model, windows, horizon, staged):
    """An iterative forecast, with the staged roll forced on wherever it applies (and
    H > 1), or off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synthesis, "_CALL_STEPS", 0 if staged else 10**9)
        return forecast(model, windows, horizon, mode="iterative", scaler=SCALER).scaled


@settings(max_examples=40, deadline=None)
@example(kind="gan", count=3, horizon=9, seed=1, staged=True)
@example(kind="gan", count=1, horizon=4, seed=2, staged=True)
@example(kind="lstm", count=5, horizon=8, seed=3, staged=True)
@given(kind=st.sampled_from(["gru", "lstm", "gan", "timegan"]), count=st.integers(1, 6),
       horizon=st.integers(1, 9), seed=st.integers(0, 2**16), staged=st.booleans())
def test_batched_iterative_forecast_matches_the_per_window_oracle(kind, count, horizon, seed,
                                                                  staged):
    """Horizons past seq_len (6) start some future windows on predicted rows. The
    generator draws its noise per predict() call, so it is checked against the
    per-step re-run of the same predictor, over two forecasts in turn."""
    model = _model(kind, seed)
    draw = np.random.default_rng(seed)
    windows = DS.take(draw.choice(DS.count, count, replace=False), "test")
    got = _forecast(model, windows, horizon, staged)
    assert got.shape == (count, horizon)
    if kind == "gan":
        rerun = _PredictOnly(_model(kind, seed))
        again = _forecast(model, windows, horizon, staged)
        for mine in (got, again):
            want = _forecast(rerun, windows, horizon, staged)
            np.testing.assert_allclose(mine, want, rtol=0, atol=TOL)
        return
    want = iterative_forecast(as_predictor(model, windows), windows, horizon, SCALER)
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)

    idx = np.sort(draw.choice(count, draw.integers(1, count + 1), replace=False))
    part = _forecast(model, windows.take(idx, "test"), horizon, staged)
    np.testing.assert_allclose(part, got[idx], rtol=0, atol=TOL)


@pytest.mark.parametrize("kind", ["gru", "gan"])
@pytest.mark.parametrize("chunk", [4, 8])
def test_a_chunked_staged_roll_gives_the_single_pass(kind, chunk, monkeypatch):
    """With the byte cap forced below one pass, the windows roll in independent chunks.
    Chunks are multiples of 4 windows, so the products keep their rows' rounding."""
    monkeypatch.setattr(synthesis, "_CALL_STEPS", 0)
    windows = DS.take(np.arange(24), "test")
    single = forecast(_model(kind, 3), windows, 7, mode="iterative", scaler=SCALER).scaled
    model = _model(kind, 3)
    net = model.net if kind == "gan" else model
    monkeypatch.setattr(synthesis, "ROLL_BYTES", 7 * net.row_bytes() * chunk)
    calls = Counter()
    roll = synthesis._staged_roll

    def counted(net, stop, rows, *args):
        calls[rows.shape[0]] += 1
        return roll(net, stop, rows, *args)

    monkeypatch.setattr(synthesis, "_staged_roll", counted)
    chunked = forecast(model, windows, 7, mode="iterative", scaler=SCALER).scaled
    assert calls == {chunk: 24 // chunk}
    if SAME_BLAS:
        assert chunked.tobytes() == single.tobytes()
    np.testing.assert_allclose(chunked, single, rtol=0, atol=TOL)


@pytest.mark.parametrize("kind", ["gru", "lstm"])
@pytest.mark.parametrize("horizon", [1, 2, 3, 4, 9])
def test_staged_roll_runs_each_layer_over_L_plus_H_minus_1_timesteps(kind, horizon,
                                                                     monkeypatch):
    """The first pass runs the window's rows in pieces of seq_len // H rows (at least
    one); each later step advances the open windows by one row."""
    monkeypatch.setattr(synthesis, "_CALL_STEPS", 0)
    seq_len, steps, kernel = DS.seq_len, [], network._SEQUENCE_KERNELS[kind]

    def counted(x, *args, **kwargs):
        steps.append(x.shape[1])
        return kernel(x, *args, **kwargs)

    monkeypatch.setitem(network._SEQUENCE_KERNELS, kind, counted)
    forecast(_model(kind, 4), DS.take(np.arange(5), "test"), horizon, mode="iterative",
             scaler=SCALER)
    piece = max(1, seq_len // horizon)
    want = [min(piece, seq_len - t) for t in range(0, seq_len, piece)] + [1] * (horizon - 1)
    if horizon == 1:  # nothing to stage: one predict() call
        want = [seq_len]
    assert steps[0::2] == steps[1::2] == want  # the forecaster's two layers in turn
    assert sum(want) == seq_len + horizon - 1


def _net(kind, seed):
    model = _model(kind, seed)
    return model.net if kind == "gan" else model


@pytest.mark.parametrize("kind", ["gru", "lstm", "gan"])
def test_a_staged_forecast_packs_each_recurrent_layer_once(kind, monkeypatch):
    """Every trunk call of the roll, over three chunks of windows, takes the packs made
    once at the start of the forecast; no kernel packs its weights again."""
    monkeypatch.setattr(synthesis, "_CALL_STEPS", 0)
    net = _net(kind, 6)
    monkeypatch.setattr(synthesis, "ROLL_BYTES", 7 * net.row_bytes() * 4)
    packs, calls = Counter(), []
    for cell, pack in list(network._PACKS.items()):
        def counted(*params, cell=cell, pack=pack):
            packs[cell] += 1
            return pack(*params)

        monkeypatch.setitem(network._PACKS, cell, counted)
        monkeypatch.setattr(recurrent, f"{cell}_pack", counted)
    for cell, kernel in list(network._SEQUENCE_KERNELS.items()):
        def given(x, *params, kernel=kernel, **kwargs):
            calls.append("packed" in kwargs)
            return kernel(x, *params, **kwargs)

        monkeypatch.setitem(network._SEQUENCE_KERNELS, cell, given)
    forecast(net, DS.take(np.arange(12), "test"), 7, mode="iterative", scaler=SCALER)
    assert packs == Counter(layer["kind"] for layer in net.spec.layers
                            if layer["kind"] in network._PACKS)
    # per chunk, 6 first-pass pieces and 6 steps of 2 recurrent layers each
    assert len(calls) == 3 * 12 * 2 and all(calls)


@pytest.mark.parametrize("kind", ["gru", "lstm", "gan"])
def test_a_forecast_reads_weights_written_in_place_since_the_last_one(kind, monkeypatch):
    """No pack outlives its forecast: after an in-place update of the network's vector,
    a forecast equals a fresh network's with the new weights."""
    monkeypatch.setattr(synthesis, "_CALL_STEPS", 0)
    net = _net(kind, 7)
    windows = DS.take(np.arange(8), "test")

    def run(model):
        return forecast(model, windows, 7, mode="iterative", scaler=SCALER).scaled

    before = run(net)
    np.multiply(net.params.flat, 0.75, out=net.params.flat)
    after = run(net)
    assert after.tobytes() == run(Network(net.spec, net.params.flat.copy())).tobytes()
    assert not np.array_equal(after, before)


@pytest.mark.parametrize("seq_len, horizon, staged", [(30, 10, True), (80, 5, True),
                                                      (6, 3, False), (6, 9, False)])
def test_the_staged_roll_runs_where_its_saved_timesteps_outweigh_its_added_calls(
        seq_len, horizon, staged):
    """recurrent-desk's and generator-full's forecasts stage; wgan-critic's re-runs:
    over 6 rows, the first pass in pieces makes five layer calls against the
    re-run's three while saving ten timesteps."""
    piece = max(1, seq_len // horizon)
    assert synthesis._roll_pays(seq_len, horizon, piece) == staged


class _Recorder:
    """predict() returns the window's last scaled close and keeps every input."""

    name = "recorder"
    head_width = 1

    def __init__(self, close_index):
        self.close_index = close_index
        self.inputs = []

    def predict(self, inputs, width):
        self.inputs.append(inputs.copy())
        return np.repeat(inputs[:, -1:, self.close_index], width, axis=1)


def test_zero_previous_raw_value_gives_a_zero_diff_without_warnings():
    # Series row 7 is the last row of window 0 (2 rows trimmed, seq_len 6).
    ds, scaler = _windows(zero_volume_row=7)
    vol = ds.feature_names.index("Volume")
    diff = ds.feature_names.index("Volume_Diff")
    assert scaler.mins[vol] == 0.0
    rec = _Recorder(ds.target_index)
    with np.errstate(all="raise"):
        res = forecast(rec, ds, 2, mode="iterative", scaler=scaler)
    appended = rec.inputs[1][0, -1]
    assert appended[vol] == 0.0
    assert appended[diff] == (0.0 - scaler.mins[diff]) / (scaler.maxs[diff] - scaler.mins[diff])
    want = iterative_forecast(_Recorder(ds.target_index), ds, 2, scaler)
    np.testing.assert_allclose(res.scaled, want, rtol=0, atol=TOL)


def test_gan_iterative_first_step_equals_the_direct_head():
    ds, scaler = _windows(rows=90, horizon=3)
    assert ds.count == 80
    spec = NetSpec("gen", 18 + 2, [
        {"kind": "gru", "units": 4},
        {"kind": "last_step"},
        {"kind": "dense", "units": 3, "activation": "sigmoid"},
    ])
    gen = build_network(spec, RngStream(1, ("tinygen",)))
    iterative = forecast(gen, ds, 3, mode="iterative", scaler=scaler, seed=5)
    direct = forecast(gen, ds, 3, mode="direct", scaler=scaler, seed=5)
    assert np.array_equal(iterative.scaled[:, 0], direct.scaled[:, 0])
    again = forecast(gen, ds, 3, mode="iterative", scaler=scaler, seed=5)
    assert again.scaled.tobytes() == iterative.scaled.tobytes()


HEAD = 4


def _predictor(kind):
    """A fresh predictor of each class over DS's 18 features, with a head of HEAD steps."""
    if kind == "forecaster":
        return ForecasterPredictor(build_forecaster("lstm", layers=1, units=3, seq_len=6,
                                                    horizon=HEAD, input_dim=18,
                                                    rng=RngStream(2, ("width",))))
    if kind == "gan":
        spec = NetSpec("gen", 18 + 2, [{"kind": "gru", "units": 4}, {"kind": "last_step"},
                                       {"kind": "dense", "units": HEAD, "activation": "sigmoid"}])
        return GanPredictor(build_network(spec, RngStream(3, ("width",))), 18, seed=4)
    if kind == "timegan":
        nets = build_timegan(feature_dim=18, hidden_dim=3, rng=RngStream(5, ("width",)))
        return TimeganPredictor(nets, DS.target_index, HEAD)
    return PersistencePredictor(DS.target_index, HEAD)


@pytest.mark.parametrize("kind", ["forecaster", "gan", "timegan", "persistence"])
def test_predict_width_is_the_head_prefix(kind):
    full = _predictor(kind).predict(DS.inputs, HEAD)
    assert full.shape == (DS.count, HEAD)
    for width in range(1, HEAD + 1):
        part = _predictor(kind).predict(DS.inputs, width)
        assert part.shape == (DS.count, width)
        assert part.tobytes() == full[:, :width].tobytes()


@pytest.mark.parametrize("horizon", [1, 3, 5])
def test_timegan_iterative_step_is_one_embedder_supervisor_and_recovery_call(
        horizon, monkeypatch):
    ds, scaler = _windows(horizon=5)
    nets = build_timegan(feature_dim=18, hidden_dim=3, rng=RngStream(6, ("calls",)))
    calls = Counter()
    forward = Network.forward

    def counted(net, *args, **kw):
        calls[net.name] += 1
        return forward(net, *args, **kw)

    monkeypatch.setattr(Network, "forward", counted)
    forecast(nets, ds, horizon, mode="iterative", scaler=scaler)
    assert calls == {"embedder": horizon, "supervisor": horizon, "recovery": horizon}


@pytest.mark.parametrize("width", [1, 4, 40])
def test_timegan_direct_forecast_carries_the_supervisor_state(width, monkeypatch):
    """Each supervisor layer runs the window's L timesteps once, then one per later step,
    L + width - 1 in all, and the forecast stays within 1e-12 of the per-step re-run
    (relative to its largest value)."""
    nets = build_timegan(feature_dim=18, hidden_dim=3, rng=RngStream(8, ("direct",)))
    want = timegan_direct(nets, DS.target_index, DS.inputs, width)
    steps, running = Counter(), []
    forward, kernel = Network.forward, network._SEQUENCE_KERNELS["gru"]

    def named(net, *args, **kwargs):
        running.append(net.name)
        try:
            return forward(net, *args, **kwargs)
        finally:
            running.pop()

    def counted(x, *args, **kwargs):
        steps[running[-1]] += x.shape[1]
        return kernel(x, *args, **kwargs)

    monkeypatch.setattr(Network, "forward", named)
    monkeypatch.setitem(network._SEQUENCE_KERNELS, "gru", counted)
    got = TimeganPredictor(nets, DS.target_index, width).predict(DS.inputs, width)
    layers = len(nets["supervisor"].spec.layers) - 1  # three gru layers, a dense head
    assert steps == {"embedder": layers * DS.seq_len,
                     "supervisor": layers * (DS.seq_len + width - 1), "recovery": layers}
    assert got.shape == (DS.count, width)
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL * np.abs(want).max())


@pytest.mark.parametrize("names", [
    [*FEATURE_COLUMNS[1:], FEATURE_COLUMNS[0]],
    [*FEATURE_COLUMNS[:-1], "Close_EMA"],
    [f"f{i}" for i in range(len(FEATURE_COLUMNS))],
])
def test_iterative_forecast_needs_the_build_features_columns(names):
    ds = DS.take(np.arange(3), "test")
    ds.feature_names = names
    with pytest.raises(DataError, match="build_features columns"):
        forecast(_Recorder(ds.target_index), ds, 2, mode="iterative", scaler=SCALER)
