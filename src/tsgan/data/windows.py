"""Sliding-window datasets and the chronological 7:3 split.

Window i covers feature rows [i, i+seq_len); its targets are the next
`horizon` values of the target column. The split is by window order, which
is forecast-origin chronology: every training window's first target row
precedes every test window's.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import DataError
from .features import FeatureMatrix
from .ohlcv import TARGET_COLUMN


class WindowDataset:
    """Model-ready (inputs, targets) windows plus alignment metadata."""

    def __init__(self, inputs: np.ndarray, targets: np.ndarray, seq_len: int,
                 horizon: int, feature_names: list[str], target_index: int,
                 origin_rows: np.ndarray, dates: list, split: str = "full",
                 sma_window: int | None = None):
        inputs = np.asarray(inputs, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if inputs.ndim != 3 or targets.ndim != 2:
            raise DataError(f"bad window shapes {inputs.shape} / {targets.shape}")
        if inputs.shape[0] != targets.shape[0]:
            raise DataError("window inputs and targets disagree on count")
        if inputs.shape[1] != seq_len or targets.shape[1] != horizon:
            raise DataError("window shapes disagree with declared seq_len/horizon")
        self.inputs = inputs
        self.targets = targets
        self.seq_len = int(seq_len)
        self.horizon = int(horizon)
        self.feature_names = list(feature_names)
        self.target_index = int(target_index)
        self.origin_rows = np.asarray(origin_rows, dtype=np.int64)
        self.dates = list(dates)
        self.split = split
        self.sma_window = sma_window

    @property
    def count(self) -> int:
        return self.inputs.shape[0]

    def target_dates(self, window: int) -> list:
        start = int(self.origin_rows[window])
        return self.dates[start : start + self.horizon]

    def history_paths(self) -> np.ndarray:
        """The target column's history inside each window, shape (count, seq_len)."""
        return self.inputs[:, :, self.target_index]

    def take(self, index: np.ndarray, split: str) -> "WindowDataset":
        return WindowDataset(
            self.inputs[index], self.targets[index], self.seq_len, self.horizon,
            self.feature_names, self.target_index, self.origin_rows[index],
            self.dates, split=split, sma_window=self.sma_window,
        )


def make_windows(features: FeatureMatrix, seq_len: int, horizon: int) -> WindowDataset:
    """All stride-1 windows: count = rows - seq_len - horizon + 1."""
    if seq_len < 1 or horizon < 1:
        raise DataError(f"seq_len and horizon must be >= 1, got ({seq_len}, {horizon})")
    n = features.values.shape[0]
    need = seq_len + horizon
    if n < need:
        raise DataError(f"need at least {need} feature rows for windows, have {n}")
    target_index = features.index_of(TARGET_COLUMN)
    count = n - seq_len - horizon + 1
    # one strided copy each; the window axis comes last in the view, so move it
    inputs = sliding_window_view(features.values, seq_len, axis=0)[:count]
    inputs = inputs.transpose(0, 2, 1).copy()
    targets = sliding_window_view(features.values[seq_len:, target_index], horizon).copy()
    origins = np.arange(count, dtype=np.int64) + seq_len
    return WindowDataset(inputs, targets, seq_len, horizon, features.names,
                         target_index, origins, features.dates, split="full",
                         sma_window=features.sma_window)


def split_train_test(ds: WindowDataset, ratio: float = 0.7) -> tuple[WindowDataset, WindowDataset]:
    """First floor(ratio * count) windows train, the rest test; counts always add up."""
    if not 0.0 < ratio < 1.0:
        raise DataError(f"split ratio must be in (0, 1), got {ratio}")
    k = int(ds.count * ratio)
    if k < 1 or k >= ds.count:
        raise DataError(
            f"split ratio {ratio} leaves an empty partition ({k} of {ds.count} windows)"
        )
    idx = np.arange(ds.count)
    return ds.take(idx[:k], "train"), ds.take(idx[k:], "test")
