"""Forecast metrics, horizon sweeps, perturbation studies, model comparison.

Metrics default to the scaled basis (targets as the models see them);
original-unit metrics are computed alongside whenever a scaler is supplied,
and the basis is recorded on every report so mixed-basis comparisons are
rejected instead of silently blended.
"""

from __future__ import annotations

import numpy as np

from .artifacts import csv_text, is_a
from .data.ohlcv import TARGET_COLUMN
from .data.scaling import ScalerParams, inverse_scaler
from .data.windows import WindowDataset
from .errors import ConfigError, DataError, DomainError, NumericAbort, ShapeError
from .models.builders import build_forecaster, scale_width
from .numcore import RngStream
from .training.config import TrainConfig
from .training.forecaster import train_forecaster
from .training.synthesis import PersistencePredictor, forecast

DEFAULT_HORIZONS = (10, 40, 80)
METRIC_BASES = ("scaled", "original")


def _pair(metric: str, y, yhat) -> tuple[np.ndarray, np.ndarray]:
    """y and yhat as flat float64 arrays of one non-empty length; else a ShapeError."""
    y = np.asarray(y, dtype=np.float64).ravel()
    yhat = np.asarray(yhat, dtype=np.float64).ravel()
    if y.size != yhat.size:
        raise ShapeError(f"{metric}: lengths differ ({y.size} vs {yhat.size})")
    if y.size == 0:
        raise ShapeError(f"{metric}: empty input")
    return y, yhat


def rmse(y, yhat) -> float:
    y, yhat = _pair("rmse", y, yhat)
    return float(np.sqrt(np.mean((y - yhat) ** 2)))


def mape(y, yhat) -> float:
    """Mean absolute percentage error as a fraction (0.05 means 5%)."""
    y, yhat = _pair("mape", y, yhat)
    zero = np.nonzero(y == 0.0)[0]
    if zero.size:
        raise DomainError(f"mape: zero actual at index {int(zero[0])}")
    return float(np.mean(np.abs(y - yhat) / np.abs(y)))


def weighted_average(values: list[float], weights: list[float]) -> float:
    w = np.asarray(weights, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if w.size != v.size or w.size == 0:
        raise ConfigError("weighted_average: weights and values disagree")
    if not np.all(np.isfinite(w)) or np.any(w < 0) or w.sum() == 0:
        raise ConfigError(f"weights must be finite, non-negative and not all zero: {weights}")
    return float(np.sum(w * v) / np.sum(w))


def check_horizons(horizons, span: int | None = None) -> list[int]:
    """The horizons as a non-empty list of ints, each at least one step.

    Given the test windows' `span`, a horizon past it is a DataError.
    """
    horizons = [int(h) for h in horizons]
    if not horizons or min(horizons) < 1:
        raise ConfigError(f"horizons must be one or more steps >= 1, got {horizons}")
    too_long = [h for h in horizons if span is not None and h > span]
    if too_long:
        raise DataError(f"test windows span horizon {span}, cannot evaluate {too_long}")
    return horizons


class MetricsReport:
    """One model's per-horizon and weighted-average errors."""

    def __init__(self, model: str, horizons: list[int], per_horizon: dict,
                 weights: list[float], basis: str, hidden_layers: int | None = None,
                 epochs: int | None = None, per_horizon_original: dict | None = None):
        if basis not in METRIC_BASES:
            raise ConfigError(f"basis must be one of {METRIC_BASES}, got {basis!r}")
        self.model = model
        self.horizons = check_horizons(horizons)
        self.per_horizon = per_horizon
        self.weights = list(weights)
        self.basis = basis
        self.hidden_layers = hidden_layers
        self.epochs = epochs
        self.per_horizon_original = per_horizon_original
        self.weighted, self.weighted_original = (
            None if t is None else
            {m: weighted_average([t[h][m] for h in self.horizons], weights)
             for m in ("rmse", "mape")}
            for t in (per_horizon, per_horizon_original))

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "horizons": self.horizons,
            "weights": self.weights,
            "basis": self.basis,
            "hidden_layers": self.hidden_layers,
            "epochs": self.epochs,
            "per_horizon": {str(h): self.per_horizon[h] for h in self.horizons},
            "weighted": self.weighted,
            "per_horizon_original": None if self.per_horizon_original is None else
                {str(h): self.per_horizon_original[h] for h in self.horizons},
            "weighted_original": self.weighted_original,
        }

    def with_basis(self, basis: str) -> "MetricsReport":
        """This report on `basis`: itself, or re-based on its original-unit metrics."""
        if basis == self.basis:
            return self
        if basis != "original" or self.per_horizon_original is None:
            raise DataError(f"report {self.model!r} cannot be re-based from "
                            f"{self.basis} to {basis}")
        return MetricsReport(self.model, self.horizons, self.per_horizon_original,
                             self.weights, "original", self.hidden_layers, self.epochs)

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        """Rebuild a report from as_dict() output; a malformed one is a DataError, as is
        a horizon or count that is no int, or a weight or metric that is no number."""
        try:
            per_h, per_ho = ({int(k): v for k, v in t.items()} if t is not None else None
                             for t in (d["per_horizon"], d.get("per_horizon_original")))
            ints = [*d["horizons"], *(v for v in (d.get("hidden_layers"), d.get("epochs"))
                                      if v is not None)]
            numbers = [*d["weights"], *(m[k] for t in (per_h, per_ho or {})
                                        for m in t.values() for k in ("rmse", "mape"))]
            if not (all(is_a(v, int) for v in ints)
                    and all(is_a(v, (int, float)) for v in numbers)):
                raise TypeError("a horizon or count is no int, or a weight or metric no number")
            return cls(d["model"], d["horizons"], per_h, d["weights"], d["basis"],
                       d.get("hidden_layers"), d.get("epochs"), per_ho)
        except (AttributeError, ConfigError, KeyError, TypeError, ValueError) as e:
            raise DataError(f"malformed metrics report: {type(e).__name__}: {e}") from None


def spec_hidden_layers(model) -> int | None:
    """Layer count excluding the output head; None when not derivable."""
    spec = getattr(model, "spec", None)
    if spec is None:
        return None
    countable = [l for l in spec.layers
                 if l["kind"] in ("gru", "lstm", "dense", "conv1d")]
    return max(0, len(countable) - 1)


def horizon_sweep(model, test_windows: WindowDataset, horizons=DEFAULT_HORIZONS,
                  weights=None, scaler: ScalerParams | None = None,
                  hidden_layers: int | None = None, epochs: int | None = None,
                  name: str | None = None, seed: int = 0) -> MetricsReport:
    """Metrics of the direct forecast at each horizon plus the weighted average."""
    horizons = check_horizons(horizons, test_windows.horizon)
    if weights is None:
        weights = [1.0] * len(horizons)
    result = forecast(model, test_windows, max(horizons), "direct", scaler, seed)
    preds, preds_orig = result.scaled, result.original
    targets = test_windows.targets
    per_h, per_h_orig = {}, None
    if scaler is not None:
        per_h_orig, targets_orig = {}, inverse_scaler(targets, scaler, TARGET_COLUMN)
    for h in horizons:
        per_h[h] = {"rmse": rmse(targets[:, :h], preds[:, :h]),
                    "mape": mape(targets[:, :h], preds[:, :h])}
        if per_h_orig is not None:
            per_h_orig[h] = {"rmse": rmse(targets_orig[:, :h], preds_orig[:, :h]),
                             "mape": mape(targets_orig[:, :h], preds_orig[:, :h])}
    if hidden_layers is None:
        hidden_layers = spec_hidden_layers(model)
    return MetricsReport(name or result.model, horizons, per_h, weights, "scaled",
                         hidden_layers, epochs, per_h_orig)


def persistence_report(test_windows: WindowDataset, horizons=DEFAULT_HORIZONS,
                       weights=None, scaler: ScalerParams | None = None) -> MetricsReport:
    horizons = check_horizons(horizons)
    predictor = PersistencePredictor(test_windows.target_index, max(horizons))
    return horizon_sweep(predictor, test_windows, horizons, weights, scaler,
                         hidden_layers=0, epochs=0, name="persistence")


def perturbation_study(model_kind: str, layer_grid, epoch_grid, train: WindowDataset,
                       test: WindowDataset, scaler: ScalerParams | None, cfg: TrainConfig,
                       horizons=None) -> dict:
    """One seeded training run per (layers, epochs) cell; a cell whose run aborts on a
    non-finite value is recorded as failed, and any other error propagates.

    Returns the perturb.json document: the model kind, both grids and one dict
    per cell, in grid order.
    """
    layer_grid = [int(x) for x in layer_grid]
    epoch_grid = [int(x) for x in epoch_grid]
    if not layer_grid or not epoch_grid or min(layer_grid + epoch_grid) < 1:
        raise ConfigError(f"perturbation grids must be non-empty with every value >= 1, "
                          f"got layers {layer_grid} and epochs {epoch_grid}")
    horizons = check_horizons([test.horizon] if horizons is None else horizons, test.horizon)
    cells = []
    units = scale_width(cfg.hidden_units, cfg.width_mult)
    for layers in layer_grid:
        for epochs in epoch_grid:
            cell_cfg = cfg.replace(hidden_layers=layers, epochs=epochs)
            manifest = {"config": cell_cfg.as_dict(), "model": model_kind,
                        "units": units}
            try:
                net = build_forecaster(
                    model_kind, layers, units, train.seq_len, train.horizon,
                    train.inputs.shape[2],
                    RngStream(cell_cfg.seed, ("perturb", model_kind, layers, epochs)),
                )
                train_forecaster(net, train, cell_cfg)
                report = horizon_sweep(net, test, horizons, scaler=scaler,
                                       hidden_layers=layers, epochs=epochs,
                                       name=f"{model_kind}-l{layers}-e{epochs}")
                cells.append({"layers": layers, "epochs": epochs, "status": "ok",
                              **report.weighted, "manifest": manifest})
            except NumericAbort as e:  # a cell's own run failed: data, not an abort
                cells.append({
                    "layers": layers, "epochs": epochs, "status": "failed",
                    "error": str(e), "manifest": manifest,
                })
    return {"model": model_kind, "layer_grid": layer_grid, "epoch_grid": epoch_grid,
            "cells": cells}


class ComparisonTable:
    """Rows of model metrics in the validation-table layout."""

    COLUMNS = ("MODEL", "RMSE", "MAPE", "Number of Hidden Layers", "EPOCH Number")

    def __init__(self, rows: list[dict], horizons: list[int], basis: str):
        self.rows = rows
        self.horizons = horizons
        self.basis = basis

    def to_csv(self) -> str:
        header = [*self.COLUMNS,
                  *(f"{m}@{h}" for h in self.horizons for m in ("RMSE", "MAPE"))]
        return csv_text(header, (
            [r["model"], r["rmse"], r["mape"], r["hidden_layers"], r["epochs"],
             *(r["per_horizon"][h][m] for h in self.horizons for m in ("rmse", "mape"))]
            for r in self.rows))

    def as_dict(self) -> dict:
        return {"basis": self.basis, "horizons": self.horizons, "rows": [
            {**r, "per_horizon": {str(h): r["per_horizon"][h] for h in self.horizons}}
            for r in self.rows
        ]}


def compare_models(reports: list[MetricsReport],
                   baseline: MetricsReport | None = None) -> ComparisonTable:
    """Sort by weighted RMSE (name tie-break) and append the baseline row."""
    if not reports:
        raise ConfigError("compare_models needs at least one report")
    bases = {r.basis for r in reports} | ({baseline.basis} if baseline else set())
    if len(bases) > 1:
        raise DataError(f"mixed metric bases cannot be compared: {sorted(bases)}")
    horizons, weights = reports[0].horizons, reports[0].weights
    for r in reports:
        if r.horizons != horizons:
            raise DataError(f"report {r.model!r} covers horizons {r.horizons}, "
                            f"expected {horizons}")
        if r.weights != weights:
            raise DataError(f"report {r.model!r} weights its horizons {r.weights}, "
                            f"expected {weights}")

    def row(r: MetricsReport) -> dict:
        return {"model": r.model, "rmse": r.weighted["rmse"], "mape": r.weighted["mape"],
                "hidden_layers": r.hidden_layers, "epochs": r.epochs,
                "per_horizon": r.per_horizon}

    rows = [row(r) for r in sorted(reports, key=lambda r: (r.weighted["rmse"], r.model))]
    if baseline is not None:
        if baseline.horizons != horizons:
            raise DataError("baseline report horizons disagree with the comparison")
        rows.append(row(baseline))
    return ComparisonTable(rows, horizons, reports[0].basis)
