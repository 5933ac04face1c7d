"""End-to-end dataset preparation: CSV to repaired series to split windows.

Each stage is available separately in tsgan.data; this module chains them in
the canonical order and keeps a manifest of what happened to the rows so a
prepared dataset is auditable and reproducible.
"""

from __future__ import annotations

from pathlib import Path

from .data.features import FeatureMatrix, build_features
from .data.ohlcv import PriceSeries, parse_ohlcv_csv, repair_calendar
from .data.scaling import ScalerParams, apply_scaler, fit_scaler
from .data.windows import WindowDataset, make_windows, split_train_test
from .errors import DataError


def load_series(path: str | Path) -> PriceSeries:
    """Parse one OHLCV CSV file into a date-sorted series (no repair yet)."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    return parse_ohlcv_csv(path.read_text())


class DatasetBundle:
    """Everything downstream stages need, plus a provenance manifest."""

    def __init__(self, series: PriceSeries, features: FeatureMatrix,
                 scaled: FeatureMatrix, scaler: ScalerParams,
                 windows: WindowDataset, train: WindowDataset, test: WindowDataset,
                 manifest: dict):
        self.series = series
        self.features = features
        self.scaled = scaled
        self.scaler = scaler
        self.windows = windows
        self.train = train
        self.test = test
        self.manifest = manifest


def prepare_dataset(series: PriceSeries, seq_len: int, horizon: int,
                    sma_window: int = 10, knn_k: int = 5,
                    train_fraction: float = 0.7,
                    target_column: str = "Close") -> DatasetBundle:
    """Repair, featurize, scale, window, and split one price series."""
    raw_rows = len(series)
    repaired = series if series.provenance == "repaired" else repair_calendar(series, knn_k)
    features = build_features(repaired, sma_window)
    scaler = fit_scaler(features, train_fraction)
    scaled = apply_scaler(features, scaler)
    windows = make_windows(scaled, seq_len, horizon, target_column)
    train, test = split_train_test(windows, train_fraction)
    boundary_row = int(test.origin_rows[0])
    manifest = {
        "raw_rows": raw_rows,
        "repaired_rows": len(repaired),
        "imputed_rows": repaired.imputation_count,
        "feature_rows": features.shape[0],
        "trimmed_rows": features.trimmed_rows,
        "zero_div_warnings": features.zero_div_warnings,
        "feature_columns": list(features.names),
        "sma_window": sma_window,
        "knn_k": knn_k,
        "seq_len": seq_len,
        "horizon": horizon,
        "target_column": target_column,
        "train_fraction": train_fraction,
        "scaler_train_rows": scaler.train_rows,
        "window_count": windows.count,
        "train_windows": train.count,
        "test_windows": test.count,
        "split_boundary_date": str(scaled.dates[boundary_row]),
        "date_range": [str(repaired.dates[0]), str(repaired.dates[-1])],
    }
    return DatasetBundle(repaired, features, scaled, scaler, windows, train, test, manifest)

