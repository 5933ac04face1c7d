"""Data layer: OHLCV ingest, calendar repair, features, scaling, windows, fixtures."""

from .features import FeatureMatrix, build_features, features_to_csv, pct_change, trailing_sma
from .ohlcv import (
    MAX_GAP_BUSINESS_DAYS,
    RAW_COLUMNS,
    PriceSeries,
    parse_ohlcv_csv,
    repair_calendar,
    series_to_csv,
)
from .scaling import (
    ScalerParams,
    apply_scaler,
    fit_scaler,
    inverse_scale_matrix,
    inverse_scaler,
    scale_values,
)
from .synth import AR1_LEVEL, AR1_PHI, AR1_SIGMA, SYNTH_KINDS, make_synthetic_series
from .windows import WindowDataset, make_windows, split_train_test

__all__ = [
    "AR1_LEVEL",
    "AR1_PHI",
    "AR1_SIGMA",
    "FeatureMatrix",
    "MAX_GAP_BUSINESS_DAYS",
    "PriceSeries",
    "RAW_COLUMNS",
    "SYNTH_KINDS",
    "ScalerParams",
    "WindowDataset",
    "apply_scaler",
    "build_features",
    "features_to_csv",
    "fit_scaler",
    "inverse_scale_matrix",
    "inverse_scaler",
    "make_synthetic_series",
    "make_windows",
    "parse_ohlcv_csv",
    "pct_change",
    "repair_calendar",
    "scale_values",
    "series_to_csv",
    "split_train_test",
]
