"""Reference forecasts: one window and one step at a time, and TimeGAN's re-run.

The batched roll-forward in tsgan.training.synthesis replaced the
per-window loop; the tests keep it as the oracle that path is checked
against. It takes validated inputs (a scaler and windows built from a
FeatureMatrix) and calls predict() for one step of a batch of one window.
TimeGAN's direct forecast, which now carries the supervisor's state from
step to step, is checked against the re-run it replaced.
"""

import numpy as np

from tsgan.data import RAW_COLUMNS, inverse_scale_matrix, inverse_scaler
from tsgan.numcore import Tensor


def feature_row(raw: np.ndarray, names: list[str], sma_window: int) -> np.ndarray:
    """Features for the newest raw row, given full raw history (rows, 6)."""
    raw_index = {c: i for i, c in enumerate(RAW_COLUMNS)}
    row = np.empty(len(names))
    for j, name in enumerate(names):
        if name in raw_index:
            row[j] = raw[-1, raw_index[name]]
        elif name.endswith("_Diff"):
            c = raw_index[name[: -len("_Diff")]]
            prev = raw[-2, c]
            row[j] = 0.0 if prev == 0.0 else (raw[-1, c] - prev) / prev
        elif name.endswith("_SMA"):
            c = raw_index[name[: -len("_SMA")]]
            row[j] = raw[-sma_window:, c].mean()
        else:
            raise ValueError(f"cannot recompute unknown feature column {name!r}")
    return row


def iterative_forecast(predictor, windows, horizon: int, scaler) -> np.ndarray:
    """(count, horizon) scaled closes, rolling each window forward on its own."""
    raw_cols = [windows.feature_names.index(c) for c in RAW_COLUMNS]
    close_raw_pos = RAW_COLUMNS.index("Close")
    n = windows.count
    out = np.empty((n, horizon))
    original = inverse_scale_matrix(windows.inputs, scaler)
    for i in range(n):
        window = windows.inputs[i].copy()
        raw = original[i][:, raw_cols].copy()
        for step in range(horizon):
            pred = float(predictor.predict(window[None], 1)[0, 0])
            out[i, step] = pred
            new_raw = raw[-1].copy()
            new_raw[close_raw_pos] = inverse_scaler(pred, scaler, "Close")
            raw = np.vstack([raw, new_raw])
            feat = feature_row(raw, windows.feature_names, windows.sma_window)
            feat_scaled = (feat - scaler.mins) / (scaler.maxs - scaler.mins)
            window = np.vstack([window[1:], feat_scaled])
    return out


def timegan_direct(nets, close_index: int, inputs: np.ndarray, width: int) -> np.ndarray:
    """(count, width) scaled closes: the supervisor re-run over the whole growing latent
    sequence at every step, and recovery once per step on the appended latent."""
    h = nets["embedder"].forward(Tensor(inputs)).data
    out = np.empty((inputs.shape[0], width))
    for step in range(width):
        nxt = nets["supervisor"].forward(Tensor(h)).data[:, -1:, :]
        h = np.concatenate([h, nxt], axis=1)
        out[:, step] = nets["recovery"].forward(Tensor(nxt)).data[:, 0, close_index]
    return out
