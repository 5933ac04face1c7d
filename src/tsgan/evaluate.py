"""Forecast metrics, horizon sweeps, perturbation studies, model comparison.

Metrics default to the scaled basis (targets as the models see them);
original-unit metrics are computed alongside whenever a scaler is supplied,
and the basis is recorded on every report so mixed-basis comparisons are
rejected instead of silently blended.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .data.scaling import ScalerParams, inverse_scaler
from .data.windows import WindowDataset
from .errors import ConfigError, DataError, DomainError, ShapeError, ToolkitError
from .models.builders import build_forecaster, scale_width
from .numcore import RngStream
from .training.config import TrainConfig
from .training.forecaster import train_forecaster
from .training.synthesis import PersistencePredictor, as_predictor

DEFAULT_HORIZONS = (10, 40, 80)


def rmse(y, yhat) -> float:
    y = np.asarray(y, dtype=np.float64).ravel()
    yhat = np.asarray(yhat, dtype=np.float64).ravel()
    if y.size != yhat.size:
        raise ShapeError(f"rmse: lengths differ ({y.size} vs {yhat.size})")
    if y.size == 0:
        raise ShapeError("rmse: empty input")
    return float(np.sqrt(np.mean((y - yhat) ** 2)))


def mape(y, yhat) -> float:
    """Mean absolute percentage error as a fraction (0.05 means 5%)."""
    y = np.asarray(y, dtype=np.float64).ravel()
    yhat = np.asarray(yhat, dtype=np.float64).ravel()
    if y.size != yhat.size:
        raise ShapeError(f"mape: lengths differ ({y.size} vs {yhat.size})")
    if y.size == 0:
        raise ShapeError("mape: empty input")
    zero = np.nonzero(y == 0.0)[0]
    if zero.size:
        raise DomainError(f"mape: zero actual at index {int(zero[0])}")
    return float(np.mean(np.abs(y - yhat) / np.abs(y)))


def weighted_average(values: list[float], weights: list[float]) -> float:
    w = np.asarray(weights, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if w.size != v.size or w.size == 0:
        raise ConfigError("weighted_average: weights and values disagree")
    if np.any(w < 0) or w.sum() == 0:
        raise ConfigError("weights must be non-negative and not all zero")
    return float(np.sum(w * v) / np.sum(w))


class MetricsReport:
    """One model's per-horizon and weighted-average errors."""

    def __init__(self, model: str, horizons: list[int], per_horizon: dict,
                 weights: list[float], basis: str, hidden_layers: int | None = None,
                 epochs: int | None = None, per_horizon_original: dict | None = None):
        if basis not in ("scaled", "original"):
            raise ConfigError(f"basis must be 'scaled' or 'original', got {basis!r}")
        self.model = model
        self.horizons = list(horizons)
        self.per_horizon = per_horizon
        self.weights = list(weights)
        self.basis = basis
        self.hidden_layers = hidden_layers
        self.epochs = epochs
        self.per_horizon_original = per_horizon_original
        self.weighted = {
            "rmse": weighted_average([per_horizon[h]["rmse"] for h in self.horizons], weights),
            "mape": weighted_average([per_horizon[h]["mape"] for h in self.horizons], weights),
        }
        self.weighted_original = None
        if per_horizon_original is not None:
            self.weighted_original = {
                "rmse": weighted_average(
                    [per_horizon_original[h]["rmse"] for h in self.horizons], weights),
                "mape": weighted_average(
                    [per_horizon_original[h]["mape"] for h in self.horizons], weights),
            }

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

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        horizons = [int(h) for h in d["horizons"]]
        per_h = {int(k): v for k, v in d["per_horizon"].items()}
        per_ho = d.get("per_horizon_original")
        if per_ho is not None:
            per_ho = {int(k): v for k, v in per_ho.items()}
        return cls(d["model"], horizons, per_h, d["weights"], d["basis"],
                   d.get("hidden_layers"), d.get("epochs"), per_ho)


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
    """Direct-head metrics at each horizon plus the weighted average."""
    horizons = [int(h) for h in horizons]
    if not horizons:
        raise ConfigError("horizon_sweep: no horizons given")
    too_long = [h for h in horizons if h > test_windows.horizon]
    if too_long:
        raise DataError(
            f"test windows span horizon {test_windows.horizon}, cannot evaluate {too_long}"
        )
    if weights is None:
        weights = [1.0] * len(horizons)
    predictor = as_predictor(model, test_windows, seed)
    h_max = max(horizons)
    if predictor.head_width < h_max:
        raise ConfigError(
            f"model head covers {predictor.head_width} steps, cannot sweep horizon {h_max}"
        )
    preds = predictor.predict(test_windows.inputs)[:, :h_max]
    targets = test_windows.targets
    per_h = {}
    per_h_orig = None
    if scaler is not None:
        per_h_orig = {}
        preds_orig = inverse_scaler(preds, scaler, "Close")
        targets_orig = inverse_scaler(targets, scaler, "Close")
    for h in horizons:
        per_h[h] = {"rmse": rmse(targets[:, :h], preds[:, :h]),
                    "mape": mape(targets[:, :h], preds[:, :h])}
        if per_h_orig is not None:
            per_h_orig[h] = {"rmse": rmse(targets_orig[:, :h], preds_orig[:, :h]),
                             "mape": mape(targets_orig[:, :h], preds_orig[:, :h])}
    if hidden_layers is None:
        hidden_layers = spec_hidden_layers(model)
    return MetricsReport(name or predictor.name, horizons, per_h, weights, "scaled",
                         hidden_layers, epochs, per_h_orig)


def persistence_report(test_windows: WindowDataset, horizons=DEFAULT_HORIZONS,
                       weights=None, scaler: ScalerParams | None = None) -> MetricsReport:
    predictor = PersistencePredictor(test_windows.target_index,
                                     max(int(h) for h in horizons))
    return horizon_sweep(predictor, test_windows, horizons, weights, scaler,
                         hidden_layers=0, epochs=0, name="persistence")


class PerturbationGrid:
    def __init__(self, model_kind: str, layer_grid: list[int], epoch_grid: list[int]):
        self.model_kind = model_kind
        self.layer_grid = list(layer_grid)
        self.epoch_grid = list(epoch_grid)
        self.cells: list[dict] = []

    def as_dict(self) -> dict:
        return {
            "model": self.model_kind,
            "layer_grid": self.layer_grid,
            "epoch_grid": self.epoch_grid,
            "cells": self.cells,
        }


def perturbation_study(model_kind: str, layer_grid, epoch_grid, data: dict,
                       cfg: TrainConfig, horizons=None) -> PerturbationGrid:
    """One seeded training run per (layers, epochs) cell; failures don't abort.

    `data` supplies train/test WindowDatasets and the fitted scaler.
    """
    layer_grid = [int(x) for x in layer_grid]
    epoch_grid = [int(x) for x in epoch_grid]
    if not layer_grid or not epoch_grid:
        raise ConfigError("perturbation grids must be non-empty")
    train, test = data["train"], data["test"]
    scaler = data.get("scaler")
    if horizons is None:
        horizons = [test.horizon]
    grid = PerturbationGrid(model_kind, layer_grid, epoch_grid)
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
                grid.cells.append({
                    "layers": layers, "epochs": epochs, "status": "ok",
                    "rmse": report.weighted["rmse"], "mape": report.weighted["mape"],
                    "manifest": manifest,
                })
            except ToolkitError as e:  # a failed cell is data, not an abort
                grid.cells.append({
                    "layers": layers, "epochs": epochs, "status": "failed",
                    "error": str(e), "manifest": manifest,
                })
    return grid


class ComparisonTable:
    """Rows of model metrics in the validation-table layout."""

    COLUMNS = ("MODEL", "RMSE", "MAPE", "Number of Hidden Layers", "EPOCH Number")

    def __init__(self, rows: list[dict], horizons: list[int], basis: str):
        self.rows = rows
        self.horizons = horizons
        self.basis = basis

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        header = list(self.COLUMNS)
        for h in self.horizons:
            header += [f"RMSE@{h}", f"MAPE@{h}"]
        writer.writerow(header)
        for r in self.rows:
            row = [r["model"], repr(r["rmse"]), repr(r["mape"]),
                   "" if r["hidden_layers"] is None else r["hidden_layers"],
                   "" if r["epochs"] is None else r["epochs"]]
            for h in self.horizons:
                row += [repr(r["per_horizon"][h]["rmse"]), repr(r["per_horizon"][h]["mape"])]
            writer.writerow(row)
        return out.getvalue()

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
    horizons = reports[0].horizons
    for r in reports:
        if r.horizons != horizons:
            raise DataError(f"report {r.model!r} covers horizons {r.horizons}, "
                            f"expected {horizons}")

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
