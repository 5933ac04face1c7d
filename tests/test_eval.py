"""Metrics, horizon sweeps, perturbation grids, and the comparison table."""

import numpy as np
import pytest

from tsgan.data import (TARGET_COLUMN, apply_scaler, build_features, fit_scaler,
                        inverse_scaler, make_synthetic_series, make_windows,
                        split_train_test)
from tsgan.errors import (ConfigError, DataError, DomainError, GraphError, NumericAbort,
                          ShapeError)
from tsgan.evaluate import (ComparisonTable, MetricsReport, compare_models,
                            horizon_sweep, mape, persistence_report,
                            perturbation_study, rmse, spec_hidden_layers,
                            weighted_average)
from tsgan.models import NetSpec, build_forecaster, build_network
from tsgan.numcore import RngStream
from tsgan.training import PersistencePredictor, TrainConfig, forecast, train_forecaster


def small_split(rows=60, seq_len=6, horizon=3, seed=0):
    """Chronological train/test windows; scaled-basis MAPE needs the test
    partition because the scaler maps the training minimum to exactly 0."""
    series = make_synthetic_series("sine", rows, seed=seed)
    fm = build_features(series, sma_window=3)
    scaler = fit_scaler(fm)
    ds = make_windows(apply_scaler(fm, scaler), seq_len, horizon)
    train, test = split_train_test(ds, 0.7)
    return train, test, scaler


def test_rmse_mape_match_brute_force():
    rng = np.random.default_rng(0)
    y = rng.uniform(0.5, 2.0, 4000)
    yhat = y + rng.normal(0, 0.3, 4000)
    brute_rmse = np.sqrt(sum((a - b) ** 2 for a, b in zip(y, yhat)) / y.size)
    brute_mape = sum(abs(a - b) / abs(a) for a, b in zip(y, yhat)) / y.size
    assert rmse(y, yhat) == pytest.approx(brute_rmse, abs=1e-12)
    assert mape(y, yhat) == pytest.approx(brute_mape, abs=1e-12)


def test_worked_metric_example():
    y, yhat = [1.0, 2.0, 3.0], [2.0, 2.0, 2.0]
    assert rmse(y, yhat) == pytest.approx(0.81650, abs=5e-6)
    assert mape(y, yhat) == pytest.approx(0.44444, abs=5e-6)


def test_metric_validation():
    with pytest.raises(ShapeError):
        rmse([1.0, 2.0], [1.0])
    with pytest.raises(ShapeError):
        mape([], [])
    with pytest.raises(DomainError, match="index 1"):
        mape([1.0, 0.0, 2.0], [1.0, 1.0, 1.0])
    assert rmse(np.ones((2, 3)), np.ones((3, 2))) == 0.0  # flattened comparison


def test_weighted_average():
    assert weighted_average([1.0, 3.0], [1.0, 1.0]) == 2.0
    assert weighted_average([1.0, 3.0], [3.0, 1.0]) == 1.5
    with pytest.raises(ConfigError):
        weighted_average([1.0], [1.0, 2.0])
    with pytest.raises(ConfigError):
        weighted_average([1.0, 2.0], [0.0, 0.0])
    with pytest.raises(ConfigError):
        weighted_average([1.0, 2.0], [1.0, -1.0])


def _report(model, rmse_by_h, hidden_layers=None, epochs=None, basis="scaled",
            horizons=(1, 3), weights=(1.0, 1.0)):
    per_h = {h: {"rmse": rmse_by_h[i], "mape": rmse_by_h[i] / 10.0}
             for i, h in enumerate(horizons)}
    return MetricsReport(model, list(horizons), per_h, list(weights), basis,
                         hidden_layers, epochs)


def test_metrics_report_weighting_and_roundtrip():
    rep = _report("gru", (0.2, 0.4), hidden_layers=2, epochs=50, weights=(1.0, 3.0))
    assert rep.weighted["rmse"] == pytest.approx((0.2 + 3 * 0.4) / 4.0)
    assert rep.weighted["mape"] == pytest.approx((0.02 + 3 * 0.04) / 4.0)

    again = MetricsReport.from_dict(rep.as_dict())
    assert again.model == "gru" and again.horizons == [1, 3]
    assert again.per_horizon[3]["rmse"] == 0.4
    assert again.weighted == rep.weighted
    assert again.hidden_layers == 2 and again.epochs == 50

    with pytest.raises(ConfigError):
        _report("x", (0.1, 0.2), basis="percent")
    with pytest.raises(DataError, match="re-based"):
        rep.with_basis("original")  # no original-unit metrics to re-base on


def test_spec_hidden_layers():
    net = build_forecaster("gru", layers=2, units=3, seq_len=6, horizon=3,
                           input_dim=18, rng=RngStream(0, ("f",)))
    assert spec_hidden_layers(net) == 2
    assert spec_hidden_layers(PersistencePredictor(0, 3)) is None


def test_horizon_sweep_against_hand_metrics():
    _, ds, scaler = small_split()
    predictor = PersistencePredictor(ds.target_index, 3)
    rep = horizon_sweep(predictor, ds, horizons=(1, 3), weights=(1.0, 2.0),
                        scaler=scaler)

    last = ds.inputs[:, -1, ds.target_index]
    preds = np.repeat(last[:, None], 3, axis=1)
    for h in (1, 3):
        assert rep.per_horizon[h]["rmse"] == pytest.approx(
            rmse(ds.targets[:, :h], preds[:, :h]), abs=1e-15)
        assert rep.per_horizon[h]["mape"] == pytest.approx(
            mape(ds.targets[:, :h], preds[:, :h]), abs=1e-15)
    assert rep.weighted["rmse"] == pytest.approx(weighted_average(
        [rep.per_horizon[1]["rmse"], rep.per_horizon[3]["rmse"]], [1.0, 2.0]))
    assert rep.basis == "scaled"
    assert rep.per_horizon_original is not None
    assert rep.weighted_original["rmse"] > 0
    assert rep.with_basis("scaled") is rep
    orig = rep.with_basis("original")
    assert orig.basis == "original" and orig.per_horizon == rep.per_horizon_original
    assert orig.weighted == rep.weighted_original


def test_horizon_sweep_validation():
    _, ds, _ = small_split()
    predictor = PersistencePredictor(ds.target_index, 3)
    with pytest.raises(DataError, match="cannot evaluate"):
        horizon_sweep(predictor, ds, horizons=(1, 10))
    short_head = PersistencePredictor(ds.target_index, 2)
    with pytest.raises(ConfigError, match="exceeds the trained head width 2"):
        horizon_sweep(short_head, ds, horizons=(3,))
    with pytest.raises(ConfigError):
        horizon_sweep(predictor, ds, horizons=())


def _sweep_model(kind, ds):
    if kind == "forecaster":
        return build_forecaster("gru", layers=1, units=3, seq_len=ds.seq_len,
                                horizon=ds.horizon, input_dim=18, rng=RngStream(3, ("sweep",)))
    spec = NetSpec("gen", 18 + 2, [{"kind": "gru", "units": 4}, {"kind": "last_step"},
                                   {"kind": "dense", "units": ds.horizon,
                                    "activation": "sigmoid"}])
    return build_network(spec, RngStream(4, ("sweep",)))


@pytest.mark.parametrize("kind", ["forecaster", "generator"])
def test_horizon_sweep_scores_the_direct_forecast(kind):
    _, ds, scaler = small_split()
    model = _sweep_model(kind, ds)
    horizons = (1, 2, ds.horizon)
    rep = horizon_sweep(model, ds, horizons, scaler=scaler, seed=7)
    for h in horizons:
        res = forecast(model, ds, h, "direct", scaler, seed=7)
        y = ds.targets[:, :h]
        y_orig = inverse_scaler(y, scaler, TARGET_COLUMN)
        assert rep.per_horizon[h] == {"rmse": rmse(y, res.scaled), "mape": mape(y, res.scaled)}
        assert rep.per_horizon_original[h] == {"rmse": rmse(y_orig, res.original),
                                               "mape": mape(y_orig, res.original)}
    longer = small_split(horizon=ds.horizon + 1)[1]
    with pytest.raises(ConfigError, match="exceeds the trained head width"):
        horizon_sweep(model, longer, (longer.horizon,), scaler=scaler)


def test_persistence_report_and_baseline():
    _, ds, scaler = small_split()
    rep = persistence_report(ds, horizons=(1, 3), scaler=scaler)
    assert rep.model == "persistence"
    assert rep.hidden_layers == 0 and rep.epochs == 0

    res = forecast(PersistencePredictor(ds.target_index, 3), ds, 3, mode="direct",
                   scaler=scaler)
    last = ds.inputs[:, -1, ds.target_index]
    np.testing.assert_array_equal(res.scaled, np.repeat(last[:, None], 3, axis=1))


def test_perturbation_study_isolates_failures(monkeypatch):
    train, test, scaler = small_split()
    cfg = TrainConfig(epochs=1, batch_size=32, lr_g=1e-3, hidden_units=3,
                      width_mult=1.0)
    real_train = train_forecaster

    def abort_two_layers(net, windows, cell_cfg):
        if cell_cfg.hidden_layers == 2:
            raise NumericAbort("non-finite loss")
        return real_train(net, windows, cell_cfg)

    monkeypatch.setattr("tsgan.evaluate.train_forecaster", abort_two_layers)
    grid = perturbation_study("gru", [2, 1], [1, 2], train, test, scaler, cfg)
    assert (grid["model"], grid["layer_grid"], grid["epoch_grid"]) == ("gru", [2, 1], [1, 2])
    assert len(grid["cells"]) == 4
    by_key = {(c["layers"], c["epochs"]): c for c in grid["cells"]}
    assert by_key[(2, 1)]["status"] == "failed"
    assert by_key[(2, 1)]["error"] == "non-finite loss"
    for epochs in (1, 2):
        cell = by_key[(1, epochs)]
        assert cell["status"] == "ok"
        assert cell["rmse"] > 0 and cell["mape"] > 0
        assert cell["manifest"]["config"]["epochs"] == epochs

    # an empty grid, or a grid value below 1, is refused before any cell runs
    for layer_grid, epoch_grid in (([], [1]), ([0, 1], [1]), ([-2], [1]), ([1], [2, 0])):
        with pytest.raises(ConfigError):
            perturbation_study("gru", layer_grid, epoch_grid, train, test, scaler, cfg)


@pytest.mark.parametrize("error", [TypeError, GraphError, ShapeError, ConfigError, DataError,
                                   DomainError])
def test_perturbation_study_propagates_programming_errors(monkeypatch, error):
    """Only a NumericAbort, a cell's own run failing, is a failed cell: a programming or
    usage error, or data that fails every cell alike, propagates."""
    train, test, scaler = small_split()

    def broken(*args, **kwargs):
        raise error("bad call")

    monkeypatch.setattr("tsgan.evaluate.train_forecaster", broken)
    with pytest.raises(error, match="bad call"):
        perturbation_study("gru", [1], [1], train, test, scaler, TrainConfig(epochs=1))


def test_compare_models_sorts_and_appends_baseline():
    reports = [
        _report("lstm", (0.30, 0.30), hidden_layers=3, epochs=150),
        _report("gru", (0.20, 0.20), hidden_layers=2, epochs=50),
        _report("gan", (0.20, 0.20), hidden_layers=4, epochs=250),
    ]
    base = _report("persistence", (0.10, 0.10), hidden_layers=0, epochs=0)
    table = compare_models(reports, baseline=base)
    assert [r["model"] for r in table.rows] == ["gan", "gru", "lstm", "persistence"]

    lines = table.to_csv().splitlines()
    assert lines[0] == ("MODEL,RMSE,MAPE,Number of Hidden Layers,EPOCH Number,"
                        "RMSE@1,MAPE@1,RMSE@3,MAPE@3")
    assert lines[1].startswith("gan,0.2,0.02,4,250,")
    assert lines[-1].startswith("persistence,0.1,")

    nested = table.as_dict()
    assert nested["basis"] == "scaled"
    assert nested["rows"][0]["per_horizon"]["1"]["rmse"] == 0.2


def test_compare_models_rejects_inconsistent_reports():
    with pytest.raises(ConfigError):
        compare_models([])
    with pytest.raises(DataError, match="mixed metric bases"):
        compare_models([_report("a", (0.1, 0.2)),
                        _report("b", (0.1, 0.2), basis="original")])
    with pytest.raises(DataError, match="horizons"):
        compare_models([_report("a", (0.1, 0.2)),
                        _report("b", (0.1, 0.2), horizons=(1, 2))])
    with pytest.raises(DataError, match="baseline"):
        compare_models([_report("a", (0.1, 0.2))],
                       baseline=_report("p", (0.1, 0.2), horizons=(2, 4)))


def test_comparison_blank_cells_for_unknown_provenance():
    table = ComparisonTable([{
        "model": "mystery", "rmse": 0.5, "mape": 0.05,
        "hidden_layers": None, "epochs": None,
        "per_horizon": {1: {"rmse": 0.5, "mape": 0.05}},
    }], horizons=[1], basis="scaled")
    assert table.to_csv().splitlines()[1] == "mystery,0.5,0.05,,,0.5,0.05"
