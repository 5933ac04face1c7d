"""Batched iterative forecasting against the per-window oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from forecast_oracle import iterative_forecast
from tsgan.data import (PriceSeries, apply_scaler, build_features,
                        fit_scaler, make_synthetic_series, make_windows)
from tsgan.models import NetSpec, build_forecaster, build_network, build_timegan
from tsgan.numcore import RngStream
from tsgan.training import as_predictor, forecast

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
    return build_forecaster(kind, layers=1, units=3, seq_len=6, horizon=2,
                            input_dim=18, rng=rng)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["gru", "lstm", "timegan"]), count=st.integers(1, 6),
       horizon=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_batched_iterative_forecast_matches_the_per_window_oracle(kind, count, horizon, seed):
    model = _model(kind, seed)
    draw = np.random.default_rng(seed)
    windows = DS.take(draw.choice(DS.count, count, replace=False), "test")
    got = forecast(model, windows, horizon, mode="iterative", scaler=SCALER).scaled
    want = iterative_forecast(as_predictor(model, windows), windows, horizon, SCALER)
    assert got.shape == (count, horizon)
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)

    idx = np.sort(draw.choice(count, draw.integers(1, count + 1), replace=False))
    part = forecast(model, windows.take(idx, "test"), horizon, mode="iterative",
                    scaler=SCALER).scaled
    np.testing.assert_allclose(part, got[idx], rtol=0, atol=TOL)


class _Recorder:
    """predict() returns the window's last scaled close and keeps every input."""

    name = "recorder"
    head_width = 1

    def __init__(self, close_index):
        self.close_index = close_index
        self.inputs = []

    def predict(self, inputs):
        self.inputs.append(inputs.copy())
        return inputs[:, -1:, self.close_index]


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
