"""Forecast paths and synthetic samples out of trained models.

Predictors adapt each model family to one interface: predict(inputs, width)
maps a (count, seq_len, features) batch to a (count, width) matrix of scaled
close predictions, the first `width` steps of the trained head (head_width).
forecast() then runs either the direct multi-step head or the iterative
single-step roll-forward, which rebuilds raw prices, derived features, and
scaling after every step.

An iterative forecast of H steps over windows of L rows reads H future windows:
window k is rows k..k+L-1 of the window rolled forward, whose rows from L on are
built from the predicted closes. The per-step re-run makes one predict() call per
step over every window, so each layer runs H calls of L timesteps. The staged
roll instead carries each future window's recurrent state, for a recurrent
forecaster or conditional generator whose layers before last_step work per
timestep (gru, lstm, dropout, dense):
- a first pass runs all H windows, stacked window-major, from zero states over
  their known rows, in pieces of L // H rows (at least one), so that no layer call
  holds more window rows than a predict() call does; each window keeps its state
  after its last known row, and window 0's head gives step 0;
- each step s then advances the windows still open by the row built from step
  s-1, from their carried states, and window s's head gives step s.
Each layer runs L + H - 1 timesteps in all instead of L * H, in about 2H - 1
calls instead of H; the roll runs where the timesteps it saves outweigh the calls
it adds (_roll_pays), which windows of a few rows per step do not. ROLL_BYTES caps
a first-pass call, and a larger forecast rolls in independent chunks of windows.
The roll packs each recurrent layer's weights once per forecast (Network.pack)
and every trunk call of every chunk takes those packs, so no call repacks weights
that cannot change during it; the packs are dropped when the forecast returns.
TimeGAN, persistence and any object known only by predict() keep the re-run.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..data.features import FEATURE_COLUMNS, newest_feature_row
from ..data.ohlcv import RAW_COLUMNS, TARGET_COLUMN
from ..data.scaling import ScalerParams, inverse_scale_matrix, inverse_scaler
from ..data.windows import WindowDataset
from ..errors import ConfigError, DataError
from ..models.network import Network, require_finite_params
from ..numcore import RngStream, Tensor
from .gan import gen_latent_dim
from .timegan import require_timegan_nets

FORECAST_MODES = ("direct", "iterative")

# Bytes one layer call of the staged roll's first pass may hold (see Network.row_bytes):
# a forecast over more windows rolls in independent chunks of them.
ROLL_BYTES = 64 * 2**20
# What one more layer call costs in timesteps of a time loop. With the weights
# packed once per forecast, a trunk call through Network.forward with carried
# states still takes about 30-70 us of set-up at desk scale, against 5-40 us a
# timestep as the call grows from 32 to 288 rows (2-core x86-64 box, OpenBLAS, by
# timeit against the call's length), so a call costs about 2-10 timesteps. The
# staged roll runs only when the timesteps it saves outweigh the layer calls it
# adds (see _roll_pays). Both paths stay: forced on every forecast, the roll cut
# perfbench's wgan-critic forecast (6-row windows, 3 steps) from a median 231k to
# 196k windows/s, -15%, slower in 6 of 6 alternating runs of 6 s (same box).
_CALL_STEPS = 8

# Layer kinds that work per timestep, so that the staged roll can carry them on
_PER_STEP = ("gru", "lstm", "dropout", "dense")
_CLOSE_RAW = RAW_COLUMNS.index(TARGET_COLUMN)


class ForecasterPredictor:
    """Direct wrapper over a trained recurrent forecaster."""

    def __init__(self, net: Network):
        require_finite_params(net)
        self.net = net
        self.name = net.name
        self.head_width = net.spec.layers[-1]["units"]

    def predict(self, inputs: np.ndarray, width: int) -> np.ndarray:
        return self.net.forward(Tensor(inputs)).data[:, :width]

    def noise(self, count: int, seq_len: int, calls: int) -> np.ndarray:
        """The input columns the next `calls` predict() calls add to their windows: none."""
        return np.empty((calls, count, seq_len, 0))


class GanPredictor:
    """Conditional generator sampler: feature history + seeded noise -> close path."""

    def __init__(self, gen: Network, n_features: int, seed: int):
        require_finite_params(gen)
        self.net = gen
        self.name = gen.name
        self.latent_dim = gen_latent_dim(gen, n_features)
        self.head_width = gen.spec.layers[-1]["units"]
        self._rng = RngStream(seed, ("sample", gen.name))
        self._calls = 0

    def predict(self, inputs: np.ndarray, width: int) -> np.ndarray:
        count, seq_len, _ = inputs.shape
        z = self.noise(count, seq_len, 1)[0]
        return self.net.forward(Tensor(np.concatenate([inputs, z], axis=2))).data[:, :width]

    def noise(self, count: int, seq_len: int, calls: int) -> np.ndarray:
        """The z the next `calls` predict() calls would draw, (calls, count, seq_len,
        latent_dim), call n's from the ("z", n) child stream; those calls count as made."""
        z = np.empty((calls, count, seq_len, self.latent_dim))
        for k, z_k in enumerate(z):
            z_k[...] = self._rng.child("z", self._calls + k).normal(z_k.shape)
        self._calls += calls
        return z


class TimeganPredictor:
    """Forecast by rolling the supervisor forward in latent space.

    The window is embedded once and the supervisor's one-step-ahead latent
    extends the sequence step by step: the supervisor runs over the embedded
    window once from zero states, then one timestep per step from its carried
    state, L + width - 1 timesteps in all. Recovery maps every step's latent
    back to scaled features in one call, and the close column is read.
    """

    def __init__(self, nets: dict, close_index: int, head_width: int):
        require_timegan_nets(nets, finite=("embedder", "recovery", "supervisor"))
        self.nets = nets
        self.name = "timegan"
        self.close_index = close_index
        self.head_width = head_width

    def predict(self, inputs: np.ndarray, width: int) -> np.ndarray:
        sup, count = self.nets["supervisor"], inputs.shape[0]
        h = self.nets["embedder"].forward(Tensor(inputs))
        carry = list(zip(sup.zero_states(count), sup.pack()))
        latents = []
        for _ in range(width):
            out, states = sup.forward(h, carry=carry)
            h = Tensor(out.data[:, -1:])
            latents.append(h.data)
            carry = [(tuple(s[:, -1] for s in state), pack)
                     for state, (_, pack) in zip(states, carry)]
        rec = self.nets["recovery"].forward(Tensor(np.concatenate(latents))).data
        return rec[:, 0, self.close_index].reshape(width, count).T


class PersistencePredictor:
    """Repeats each window's last observed close; the sanity floor."""

    def __init__(self, close_index: int, head_width: int):
        self.name = "persistence"
        self.close_index = close_index
        self.head_width = head_width

    def predict(self, inputs: np.ndarray, width: int) -> np.ndarray:
        last = inputs[:, -1, self.close_index]
        return np.repeat(last[:, None], width, axis=1)


class ForecastResult:
    """Per-window predicted close paths, scaled and in original units."""

    def __init__(self, scaled: np.ndarray, original: np.ndarray | None, horizon: int,
                 mode: str, model: str):
        scaled = np.asarray(scaled, dtype=np.float64)
        if scaled.ndim != 2 or scaled.shape[1] != horizon:
            raise DataError(f"forecast shape {scaled.shape} disagrees with horizon {horizon}")
        self.scaled = scaled
        self.original = None if original is None else np.asarray(original, dtype=np.float64)
        self.horizon = int(horizon)
        self.mode = mode
        self.model = model


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
        scaled = predictor.predict(windows.inputs, horizon)
    else:
        scaled = _iterative_forecast(predictor, windows, horizon, scaler)
    original = None
    if scaler is not None:
        original = inverse_scaler(scaled, scaler, TARGET_COLUMN)
    return ForecastResult(scaled, original, horizon, mode, predictor.name)


def _iterative_forecast(predictor, windows: WindowDataset, horizon: int,
                        scaler: ScalerParams | None) -> np.ndarray:
    """Roll 1-step predictions forward, rebuilding features from raw prices.

    All windows roll forward together. Future window k reads rows k..k+L-1 of
    one (count, L + horizon - 1, features) row buffer, whose row L+s-1 is built
    from step s-1's predicted closes (see _append_row). The staged roll drives
    the predictors it can (see _roll_stop); the others make one predict() call
    per step over the whole batch.
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
    if tuple(windows.feature_names) != FEATURE_COLUMNS:
        raise DataError("iterative forecasting rebuilds the build_features columns, "
                        f"but the windows hold {windows.feature_names}")
    count, seq_len, width = windows.inputs.shape
    rows = np.zeros((count, seq_len + horizon - 1, width))
    rows[:, :seq_len] = windows.inputs
    raw = np.empty((count, seq_len + horizon - 1, len(RAW_COLUMNS)))
    raw[:, :seq_len] = inverse_scale_matrix(windows.inputs, scaler)[:, :, :len(RAW_COLUMNS)]
    out = np.empty((count, horizon))
    stop = _roll_stop(predictor)
    # a first-pass call of the staged roll holds no more window rows than one
    # predict() call over the batch, and at most ROLL_BYTES
    piece = max(1, seq_len // horizon)
    if stop is None or not _roll_pays(seq_len, horizon, piece):
        for step in range(horizon):
            if step:
                _append_row(rows, raw, seq_len + step - 1, out[:, step - 1], scaler, sma_window)
            out[:, step] = predictor.predict(rows[:, step:step + seq_len], 1)[:, 0]
        return out
    z = predictor.noise(count, seq_len, horizon)
    chunk = max(1, ROLL_BYTES // (horizon * piece * predictor.net.row_bytes()))
    # packed once for every layer call of every chunk, and dropped with this call
    packs = predictor.net.pack()
    for lo in range(0, count, chunk):
        part = slice(lo, lo + chunk)
        extend = partial(_append_row, rows[part], raw[part], scaler=scaler,
                         sma_window=sma_window)
        out[part] = _staged_roll(predictor.net, stop, rows[part], z[:, part], extend, piece,
                                 packs)
    return out


def _append_row(rows: np.ndarray, raw: np.ndarray, at: int, closes: np.ndarray,
                scaler: ScalerParams, sma_window: int) -> None:
    """Row `at` of the raw-price and scaled-feature buffers from predicted scaled closes:
    the other raw channels carry row at-1 forward, and the diffs and SMAs are
    recomputed from the raw rows up to `at`. The close is inverted (inverse_scaler's
    arithmetic) and the row scaled in place."""
    raw[:, at] = raw[:, at - 1]
    i, close = scaler.index_of(TARGET_COLUMN), raw[:, at, _CLOSE_RAW]
    np.multiply(closes, scaler.maxs[i] - scaler.mins[i], out=close)
    close += scaler.mins[i]
    feat = newest_feature_row(raw[:, :at + 1], sma_window)
    np.subtract(feat, scaler.mins, out=feat)
    np.divide(feat, scaler.maxs - scaler.mins, out=rows[:, at])


def _roll_stop(predictor) -> int | None:
    """The index of the last_step layer when the staged roll can drive `predictor`, else None."""
    if not isinstance(predictor, (ForecasterPredictor, GanPredictor)):
        return None
    kinds = [layer["kind"] for layer in predictor.net.spec.layers]
    if "last_step" not in kinds:
        return None
    stop = kinds.index("last_step")
    return stop if all(kind in _PER_STEP for kind in kinds[:stop]) else None


def _roll_pays(seq_len: int, horizon: int, piece: int) -> bool:
    """Whether the staged roll, ceil(L / piece) + H - 1 layer calls over L + H - 1
    timesteps, costs less than the per-step re-run, H calls over L * H timesteps."""
    calls = -(-seq_len // piece) + horizon - 1
    return (seq_len - 1) * (horizon - 1) > _CALL_STEPS * (calls - horizon)


def _staged_roll(net: Network, stop: int, rows: np.ndarray, z: np.ndarray, extend,
                 piece: int, packs: list) -> np.ndarray:
    """The (count, H) scaled closes of H future windows, rolled in one staged pass.

    `rows` is the (count, L+H-1, features) row buffer, its first L rows known and
    the rest zero until extend(at, closes) writes row `at` from the step before's
    closes. `z` holds each future window's extra input columns, (H, count, L, n).
    `packs` holds net.pack(), which every trunk call carries with its states.
    """
    horizon, count, seq_len, extra = z.shape
    width = rows.shape[2]
    out = np.empty((count, horizon))
    # window k's rows, window-major: (H, count, L, features), a view of `rows`
    by_count, by_row, by_feature = rows.strides
    windows = as_strided(rows, (horizon, count, seq_len, width),
                         (by_row, by_count, by_row, by_feature), writeable=False)
    # The first pass runs every window from a zero state in pieces of `piece` rows.
    # Window k knows its rows 0..L-1-k, so a piece runs the windows with a known row
    # in it, a prefix of the window-major stack; the outputs of rows not yet known
    # (zero) are never read, and each window keeps its state after its last known row.
    running = net.zero_states(horizon * count)
    carried = [[np.zeros((horizon, count, s.shape[1])) for s in layer] for layer in running]
    # each pass's inputs, in buffers made once per roll; a forecaster adds no noise columns
    x = np.empty((horizon, count, piece, width + extra))
    x_step = np.empty((horizon - 1, count, width + extra))
    for t0 in range(0, seq_len, piece):
        t1 = min(seq_len, t0 + piece)
        n = min(horizon, seq_len - t0)
        x_p = x[:n, :, :t1 - t0]
        x_p[..., :width] = windows[:n, :, t0:t1]
        if extra:
            x_p[..., width:] = z[:n, :, t0:t1]
        carry = [(tuple([s[:n * count] for s in layer]), pack)
                 for layer, pack in zip(running, packs)]
        trunk, states = net.forward(Tensor(x_p.reshape(n * count, t1 - t0, -1)), stop=stop,
                                    carry=carry)
        for layer, got in zip(carried, states):
            for c, s in zip(layer, got):
                s = s.reshape(n, count, t1 - t0, -1)
                for k in range(max(0, seq_len - t1), n):  # last known row L-1-k in [t0, t1)
                    c[k] = s[k, :, seq_len - 1 - k - t0]
        running = [tuple([s[:, -1] for s in layer]) for layer in states]
    out[:, 0] = net.forward(Tensor(trunk.data[:count, -1]), start=stop + 1).data[:, 0]
    for step in range(1, horizon):
        at = seq_len + step - 1
        extend(at, out[:, step - 1])
        # row `at` is row at-k of each window k still open, k in [step, end); window
        # `step` ends on it
        end = min(horizon, at + 1)
        open_windows, batch = slice(step, end), (end - step) * count
        x = x_step[:end - step]
        x[..., :width] = rows[:, at]
        if extra:
            for k in range(step, end):
                x[k - step, :, width:] = z[k, :, at - k]
        carry = [(tuple([c[open_windows].reshape(batch, -1) for c in layer]), pack)
                 for layer, pack in zip(carried, packs)]
        trunk, states = net.forward(Tensor(x.reshape(batch, 1, -1)), stop=stop, carry=carry)
        for layer, got in zip(carried, states):
            for c, s in zip(layer, got):
                c[open_windows] = s.reshape(end - step, count, -1)
        out[:, step] = net.forward(Tensor(trunk.data[:count, -1]), start=stop + 1).data[:, 0]
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
        require_timegan_nets(model, finite=("generator", "supervisor", "recovery"))
        if scaler is None:
            raise ConfigError("timegan generation needs the fitted scaler")
        if seq_len < 1:
            raise ConfigError(f"seq_len must be >= 1, got {seq_len}")
        noise_dim = model["generator"].spec.input_dim
        z = rng.uniform(0.0, 1.0, (count, seq_len, noise_dim))
        latent = model["supervisor"].forward(model["generator"].forward(Tensor(z))).data
        x_scaled = model["recovery"].forward(Tensor(latent)).data
        return inverse_scale_matrix(x_scaled, scaler)
    if isinstance(model, Network):
        if windows is None or scaler is None:
            raise ConfigError("conditional generation needs history windows and the scaler")
        predictor = GanPredictor(model, windows.inputs.shape[2], seed)
        pick = rng.integers(0, windows.count, (count,))
        paths = predictor.predict(windows.inputs[pick], predictor.head_width)
        return inverse_scaler(paths, scaler, TARGET_COLUMN)[:, :, None]
    raise ConfigError(f"cannot generate from {type(model).__name__}")
