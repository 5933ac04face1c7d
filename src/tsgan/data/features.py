"""Feature construction: raw columns, one-step percentage changes, trailing SMAs.

With the default 10-row SMA window the matrix has exactly 18 columns: the 6
raw variables, their 6 _Diff percentage changes, and their 6 _SMA trailing
means. Leading rows where a diff or SMA is undefined are trimmed so the
matrix is dense.
"""

from __future__ import annotations

import numpy as np

from ..artifacts import csv_text
from ..errors import DataError
from .ohlcv import RAW_COLUMNS, PriceSeries


class FeatureMatrix:
    """Dense per-date feature values with names and a date index."""

    def __init__(self, names: list[str], values: np.ndarray, dates: list,
                 sma_window: int, trimmed_rows: int = 0, zero_div_warnings: int = 0):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != len(names):
            raise DataError(
                f"feature matrix shape {values.shape} does not match {len(names)} names"
            )
        if values.shape[0] != len(dates):
            raise DataError("feature matrix rows and date index disagree")
        if not np.all(np.isfinite(values)):
            raise DataError("feature matrix contains non-finite values")
        self.names = list(names)
        self.values = values
        self.dates = list(dates)
        self.sma_window = int(sma_window)
        self.trimmed_rows = int(trimmed_rows)
        self.zero_div_warnings = int(zero_div_warnings)

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def column(self, name: str) -> np.ndarray:
        try:
            return self.values[:, self.names.index(name)]
        except ValueError:
            raise DataError(f"no feature column named {name!r}") from None

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DataError(f"no feature column named {name!r}") from None

    def with_values(self, values: np.ndarray) -> "FeatureMatrix":
        return FeatureMatrix(self.names, values, self.dates, self.sma_window,
                             self.trimmed_rows, self.zero_div_warnings)


def pct_change(raw: np.ndarray) -> tuple[np.ndarray, int]:
    """(v[t] - v[t-1]) / v[t-1] along rows, zero denominators mapped to 0 and counted."""
    prev = raw[:-1]
    cur = raw[1:]
    zero = prev == 0.0
    out = np.zeros_like(cur)
    np.divide(cur - prev, prev, out=out, where=~zero)
    return out, int(zero.sum())


def trailing_sma(raw: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean over `window` rows inclusive; defined from row window-1 on."""
    cum = np.concatenate([[0.0], np.cumsum(raw)])
    return (cum[window:] - cum[:-window]) / window


def build_features(series: PriceSeries, sma_window: int = 10) -> FeatureMatrix:
    """Raw + _Diff + _SMA columns for every OHLCV variable, leading rows trimmed."""
    if sma_window < 1:
        raise DataError(f"sma_window must be >= 1, got {sma_window}")
    n = len(series)
    if n <= sma_window:
        raise DataError(f"need more than {sma_window} rows to build features, have {n}")
    trim = max(1, sma_window - 1)
    raw = series.values
    diff, warnings = pct_change(raw)
    sma = np.column_stack([trailing_sma(raw[:, j], sma_window) for j in range(raw.shape[1])])
    names = [*RAW_COLUMNS, *(f"{c}_Diff" for c in RAW_COLUMNS),
             *(f"{c}_SMA" for c in RAW_COLUMNS)]
    values = np.hstack([raw[trim:], diff[trim - 1:], sma[trim - (sma_window - 1):]])
    return FeatureMatrix(
        names, values, series.dates[trim:], sma_window,
        trimmed_rows=trim, zero_div_warnings=warnings,
    )


def features_to_csv(features: FeatureMatrix) -> str:
    return csv_text(["Date", *features.names],
                    ([date, *row] for date, row in zip(features.dates, features.values)))
