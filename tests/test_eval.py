"""Metrics, horizon sweeps, perturbation grids, and the comparison table."""

import numpy as np
import pytest

from tsgan.data import (apply_scaler, build_features, fit_scaler,
                        make_synthetic_series, make_windows, split_train_test)
from tsgan.errors import ConfigError, DataError, DomainError, ShapeError
from tsgan.evaluate import (ComparisonTable, MetricsReport, compare_models,
                            horizon_sweep, mape, persistence_report,
                            perturbation_study, rmse, spec_hidden_layers,
                            weighted_average)
from tsgan.models import build_forecaster
from tsgan.numcore import RngStream
from tsgan.training import PersistencePredictor, TrainConfig, forecast


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


def test_horizon_sweep_validation():
    _, ds, _ = small_split()
    predictor = PersistencePredictor(ds.target_index, 3)
    with pytest.raises(DataError, match="cannot evaluate"):
        horizon_sweep(predictor, ds, horizons=(1, 10))
    short_head = PersistencePredictor(ds.target_index, 2)
    with pytest.raises(ConfigError, match="cannot sweep"):
        horizon_sweep(short_head, ds, horizons=(3,))
    with pytest.raises(ConfigError):
        horizon_sweep(predictor, ds, horizons=())


def test_persistence_report_and_baseline():
    _, ds, scaler = small_split()
    rep = persistence_report(ds, horizons=(1, 3), scaler=scaler)
    assert rep.model == "persistence"
    assert rep.hidden_layers == 0 and rep.epochs == 0

    res = forecast(PersistencePredictor(ds.target_index, 3), ds, 3, mode="direct",
                   scaler=scaler)
    last = ds.inputs[:, -1, ds.target_index]
    np.testing.assert_array_equal(res.scaled, np.repeat(last[:, None], 3, axis=1))


def test_perturbation_study_isolates_failures():
    train, test, scaler = small_split()
    cfg = TrainConfig(epochs=1, batch_size=32, lr_g=1e-3, hidden_units=3,
                      width_mult=1.0)
    grid = perturbation_study("gru", [0, 1], [1, 2],
                              {"train": train, "test": test, "scaler": scaler}, cfg)
    assert grid.model_kind == "gru"
    assert len(grid.cells) == 4
    by_key = {(c["layers"], c["epochs"]): c for c in grid.cells}
    assert by_key[(0, 1)]["status"] == "failed" and "error" in by_key[(0, 1)]
    for epochs in (1, 2):
        cell = by_key[(1, epochs)]
        assert cell["status"] == "ok"
        assert cell["rmse"] > 0 and cell["mape"] > 0
        assert cell["manifest"]["config"]["epochs"] == epochs

    with pytest.raises(ConfigError):
        perturbation_study("gru", [], [1], {"train": train, "test": test,
                                            "scaler": scaler}, cfg)


def test_perturbation_study_propagates_programming_errors(monkeypatch):
    train, test, scaler = small_split()

    def broken(*args, **kwargs):
        raise TypeError("bad call")

    monkeypatch.setattr("tsgan.evaluate.train_forecaster", broken)
    with pytest.raises(TypeError, match="bad call"):
        perturbation_study("gru", [1], [1], {"train": train, "test": test,
                                             "scaler": scaler}, TrainConfig(epochs=1))


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
