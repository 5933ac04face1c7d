"""Min-max scaling fitted on the chronological training partition only.

Test-partition values may land outside [0, 1] after scaling; they are
deliberately not clipped, so out-of-range behaviour is visible rather than
silently flattened.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from .features import FeatureMatrix


class ScalerParams:
    """Per-column min/max observed on the first `train_rows` rows."""

    def __init__(self, names: list[str], mins: np.ndarray, maxs: np.ndarray, train_rows: int):
        mins = np.asarray(mins, dtype=np.float64)
        maxs = np.asarray(maxs, dtype=np.float64)
        if len(names) != mins.size or mins.size != maxs.size:
            raise DataError("scaler arity mismatch between names and bounds")
        if np.any(maxs <= mins):
            bad = [names[i] for i in np.nonzero(maxs <= mins)[0]]
            raise DataError(f"scaler bounds degenerate for columns: {bad}")
        self.names = list(names)
        self.mins = mins
        self.maxs = maxs
        self.train_rows = int(train_rows)

    def index_of(self, column: str) -> int:
        try:
            return self.names.index(column)
        except ValueError:
            raise DataError(f"scaler has no column named {column!r}") from None

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "mins": [float(v) for v in self.mins],
            "maxs": [float(v) for v in self.maxs],
            "train_rows": self.train_rows,
        }


def fit_scaler(features: FeatureMatrix, train_fraction: float = 0.7) -> ScalerParams:
    """Column bounds from the chronologically first `train_fraction` of rows."""
    if not 0.0 < train_fraction <= 1.0:
        raise DataError(f"train_fraction must be in (0, 1], got {train_fraction}")
    n = features.values.shape[0]
    train_rows = max(1, int(n * train_fraction))
    head = features.values[:train_rows]
    mins = head.min(axis=0)
    maxs = head.max(axis=0)
    constant = np.nonzero(maxs == mins)[0]
    if constant.size:
        bad = [features.names[i] for i in constant]
        raise DataError(f"constant columns cannot be min-max scaled: {bad}")
    return ScalerParams(features.names, mins, maxs, train_rows)


def apply_scaler(features: FeatureMatrix, params: ScalerParams) -> FeatureMatrix:
    if features.names != params.names:
        raise DataError("scaler was fitted on different columns")
    scaled = (features.values - params.mins) / (params.maxs - params.mins)
    return features.with_values(scaled)


def inverse_scaler(values: np.ndarray, params: ScalerParams, column: str) -> np.ndarray:
    """Map scaled values of one column back to original units."""
    i = params.index_of(column)
    return np.asarray(values, dtype=np.float64) * (params.maxs[i] - params.mins[i]) + params.mins[i]


def inverse_scale_matrix(values: np.ndarray, params: ScalerParams) -> np.ndarray:
    """Inverse-scale an array whose last axis runs over all scaler columns."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] != len(params.names):
        raise DataError(
            f"last axis {values.shape[-1]} does not match {len(params.names)} scaler columns"
        )
    return values * (params.maxs - params.mins) + params.mins
