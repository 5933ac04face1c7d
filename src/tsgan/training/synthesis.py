"""Forecast paths and synthetic samples out of trained models.

Predictors adapt each model family to one interface: predict(inputs) maps a
(count, seq_len, features) batch to a (count, head_width) matrix of scaled
close predictions. forecast() then runs either the direct multi-step head
or the iterative single-step roll-forward, which rebuilds raw prices,
derived features, and scaling at every step.
"""

from __future__ import annotations

import numpy as np

from ..data.ohlcv import RAW_COLUMNS
from ..data.scaling import ScalerParams, inverse_scale_matrix, inverse_scaler
from ..data.windows import WindowDataset
from ..errors import ConfigError, DataError, NumericAbort
from ..models.network import Network
from ..numcore import RngStream, Tensor
from .gan import gen_latent_dim
from .timegan import TIMEGAN_NET_NAMES

FORECAST_MODES = ("direct", "iterative")


def require_finite_params(net: Network) -> None:
    for name, p in net.params.items():
        if not np.all(np.isfinite(p.data)):
            raise NumericAbort(f"{net.name}: parameter {name!r} contains non-finite values")


class ForecasterPredictor:
    """Direct wrapper over a trained recurrent forecaster."""

    def __init__(self, net: Network):
        require_finite_params(net)
        self.net = net
        self.name = net.name
        self.head_width = net.spec.layers[-1]["units"]

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        return self.net.forward(Tensor(inputs)).data


class GanPredictor:
    """Conditional generator sampler: feature history + seeded noise -> close path."""

    def __init__(self, gen: Network, n_features: int, seed: int):
        require_finite_params(gen)
        self.gen = gen
        self.name = gen.name
        self.latent_dim = gen_latent_dim(gen, n_features)
        self.head_width = gen.spec.layers[-1]["units"]
        self._rng = RngStream(seed, ("sample", gen.name))
        self._calls = 0

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        count, seq_len, _ = inputs.shape
        z = self._rng.child("z", self._calls).normal((count, seq_len, self.latent_dim))
        self._calls += 1
        return self.gen.forward(Tensor(np.concatenate([inputs, z], axis=2))).data


class TimeganPredictor:
    """Forecast by rolling the supervisor forward in latent space.

    The window is embedded, the supervisor's one-step-ahead latent extends
    the sequence step by step, and recovery maps the appended latents back
    to scaled features, from which the close column is read.
    """

    def __init__(self, nets: dict, close_index: int, head_width: int):
        missing = [n for n in TIMEGAN_NET_NAMES if n not in nets]
        if missing:
            raise ConfigError(f"timegan predictor missing sub-networks: {missing}")
        for name in ("embedder", "recovery", "supervisor"):
            require_finite_params(nets[name])
        self.nets = nets
        self.name = "timegan"
        self.close_index = close_index
        self.head_width = head_width

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        h = self.nets["embedder"].forward(Tensor(inputs)).data
        out = np.empty((inputs.shape[0], self.head_width))
        for step in range(self.head_width):
            nxt = self.nets["supervisor"].forward(Tensor(h)).data[:, -1:, :]
            h = np.concatenate([h, nxt], axis=1)
            rec = self.nets["recovery"].forward(Tensor(nxt)).data
            out[:, step] = rec[:, 0, self.close_index]
        return out


class PersistencePredictor:
    """Repeats each window's last observed close; the sanity floor."""

    def __init__(self, close_index: int, head_width: int):
        self.name = "persistence"
        self.close_index = close_index
        self.head_width = head_width

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        last = inputs[:, -1, self.close_index]
        return np.repeat(last[:, None], self.head_width, axis=1)


class ForecastResult:
    """Per-window predicted close paths, scaled and in original units."""

    def __init__(self, scaled: np.ndarray, original: np.ndarray | None, horizon: int,
                 mode: str, model: str, dates: list | None = None):
        scaled = np.asarray(scaled, dtype=np.float64)
        if scaled.ndim != 2 or scaled.shape[1] != horizon:
            raise DataError(f"forecast shape {scaled.shape} disagrees with horizon {horizon}")
        self.scaled = scaled
        self.original = None if original is None else np.asarray(original, dtype=np.float64)
        self.horizon = int(horizon)
        self.mode = mode
        self.model = model
        self.dates = dates

    @property
    def count(self) -> int:
        return self.scaled.shape[0]


def as_predictor(model, windows: WindowDataset, seed: int = 0):
    """Coerce a Network / timegan dict / ready predictor to the predict() interface."""
    if hasattr(model, "predict"):
        return model
    if isinstance(model, dict):
        return TimeganPredictor(model, windows.target_index, windows.horizon)
    if isinstance(model, Network):
        if model.spec.input_dim == windows.inputs.shape[2]:
            return ForecasterPredictor(model)
        return GanPredictor(model, windows.inputs.shape[2], seed)
    raise ConfigError(f"cannot build a predictor from {type(model).__name__}")


def _feature_rows(raw: np.ndarray, names: list[str], sma_window: int) -> np.ndarray:
    """Features for the newest raw row of every buffer, raw shape (n, rows, 6)."""
    raw_index = {c: i for i, c in enumerate(RAW_COLUMNS)}
    rows = np.zeros((raw.shape[0], len(names)))
    for j, name in enumerate(names):
        if name in raw_index:
            rows[:, j] = raw[:, -1, raw_index[name]]
        elif name.endswith("_Diff"):
            c = raw_index[name[: -len("_Diff")]]
            prev = raw[:, -2, c]
            np.divide(raw[:, -1, c] - prev, prev, out=rows[:, j], where=prev != 0.0)
        elif name.endswith("_SMA"):
            c = raw_index[name[: -len("_SMA")]]
            rows[:, j] = raw[:, -sma_window:, c].mean(axis=1)
        else:
            raise DataError(f"cannot recompute unknown feature column {name!r}")
    return rows


def forecast(model, windows: WindowDataset, horizon: int, mode: str = "direct",
             scaler: ScalerParams | None = None, seed: int = 0) -> ForecastResult:
    """Predict `horizon` scaled closes for every window in the dataset."""
    if mode not in FORECAST_MODES:
        raise ConfigError(f"forecast mode must be one of {FORECAST_MODES}, got {mode!r}")
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    predictor = as_predictor(model, windows, seed)
    if mode == "direct":
        if horizon > predictor.head_width:
            raise ConfigError(
                f"horizon {horizon} exceeds the trained head width {predictor.head_width}"
            )
        scaled = predictor.predict(windows.inputs)[:, :horizon]
    else:
        scaled = _iterative_forecast(predictor, windows, horizon, scaler)
    original = None
    if scaler is not None:
        original = inverse_scaler(scaled, scaler, "Close")
    dates = [windows.target_dates(i)[:horizon] for i in range(windows.count)] \
        if windows.dates else None
    return ForecastResult(scaled, original, horizon, mode, predictor.name, dates)


def _iterative_forecast(predictor, windows: WindowDataset, horizon: int,
                        scaler: ScalerParams | None) -> np.ndarray:
    """Roll 1-step predictions forward, rebuilding features from raw prices.

    All windows roll forward together: each step is one predict() call over
    the whole (count, seq_len, features) batch. The predicted closes are
    appended to a (count, seq_len + step, 6) raw-price buffer; the other raw
    channels carry their last observed values forward; diffs and SMAs are
    recomputed from the buffer and rescaled before the windows shift.
    """
    if scaler is None:
        raise ConfigError("iterative forecasting needs the fitted scaler")
    sma_window = windows.sma_window
    if sma_window is None:
        raise ConfigError("iterative forecasting needs windows built from a FeatureMatrix")
    if windows.seq_len < sma_window:
        raise ConfigError(
            f"iterative forecasting needs seq_len >= sma_window "
            f"({windows.seq_len} < {sma_window})"
        )
    missing = [c for c in RAW_COLUMNS if c not in windows.feature_names]
    if missing:
        raise DataError(f"windows lack raw columns needed for roll-forward: {missing}")
    raw_cols = [windows.feature_names.index(c) for c in RAW_COLUMNS]
    close_raw_pos = RAW_COLUMNS.index("Close")
    out = np.empty((windows.count, horizon))
    window = windows.inputs
    raw = inverse_scale_matrix(window, scaler)[:, :, raw_cols]
    for step in range(horizon):
        out[:, step] = predictor.predict(window)[:, 0]
        new_raw = raw[:, -1].copy()
        new_raw[:, close_raw_pos] = inverse_scaler(out[:, step], scaler, "Close")
        raw = np.concatenate([raw, new_raw[:, None]], axis=1)
        feat = _feature_rows(raw, windows.feature_names, sma_window)
        feat_scaled = (feat - scaler.mins) / (scaler.maxs - scaler.mins)
        window = np.concatenate([window[:, 1:], feat_scaled[:, None]], axis=1)
    return out


def generate_synthetic(model, count: int, seq_len: int, seed: int,
                       scaler: ScalerParams | None = None,
                       windows: WindowDataset | None = None) -> np.ndarray:
    """Sample synthetic sequences in original units.

    TimeGAN (a dict of sub-networks) emits (count, seq_len, features) full
    feature sequences. A conditional generator Network emits
    (count, horizon, 1) close paths conditioned on histories drawn from
    `windows`. Parameters must be finite; training state is not otherwise
    inspected, so an untrained-but-finite model is valid input.
    """
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    rng = RngStream(seed, ("generate",))
    if isinstance(model, dict):
        missing = [n for n in TIMEGAN_NET_NAMES if n not in model]
        if missing:
            raise ConfigError(f"timegan model missing sub-networks: {missing}")
        if scaler is None:
            raise ConfigError("timegan generation needs the fitted scaler")
        for name in ("generator", "supervisor", "recovery"):
            require_finite_params(model[name])
        noise_dim = model["generator"].spec.input_dim
        z = rng.uniform(0.0, 1.0, (count, seq_len, noise_dim))
        latent = model["supervisor"].forward(model["generator"].forward(Tensor(z))).data
        x_scaled = model["recovery"].forward(Tensor(latent)).data
        return inverse_scale_matrix(x_scaled, scaler)
    if isinstance(model, Network):
        if windows is None or scaler is None:
            raise ConfigError("conditional generation needs history windows and the scaler")
        require_finite_params(model)
        predictor = GanPredictor(model, windows.inputs.shape[2], seed)
        pick = rng.integers(0, windows.count, (count,))
        paths = predictor.predict(windows.inputs[pick])
        return inverse_scaler(paths, scaler, "Close")[:, :, None]
    raise ConfigError(f"cannot generate from {type(model).__name__}")
