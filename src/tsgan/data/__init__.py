"""Data layer: OHLCV ingest, calendar repair, features, scaling, windows, fixtures."""

from .features import (
    FEATURE_COLUMNS,
    FeatureMatrix,
    build_features,
    features_to_csv,
    newest_feature_row,
    pct_change,
    trailing_sma,
)
from .ohlcv import (
    MAX_GAP_BUSINESS_DAYS,
    RAW_COLUMNS,
    TARGET_COLUMN,
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
)
from .synth import AR1_LEVEL, AR1_PHI, AR1_SIGMA, SYNTH_KINDS, make_synthetic_series
from .windows import WindowDataset, make_windows, split_train_test
