"""Seeded synthetic OHLCV fixtures for desk-scale training and tests.

Three kinds:
  jump  - geometric random walk with one downward jump regime partway in
          (a crash-shock analogue for stress cases)
  sine  - sinusoid plus Gaussian noise around a fixed level
  ar1   - mean-reverting AR(1) about a level, strong persistence

Rows are consecutive business days with no gaps, and high/low always bracket
open/close, so fixtures pass ingest and repair untouched.
"""

from __future__ import annotations

import datetime as dt

import numpy as np

from ..errors import ConfigError
from ..numcore import RngStream
from .ohlcv import PriceSeries

SYNTH_KINDS = ("jump", "sine", "ar1")

AR1_PHI = 0.8
AR1_LEVEL = 100.0
AR1_SIGMA = 1.5


def _close_path(kind: str, rows: int, rng: RngStream) -> np.ndarray:
    if kind == "jump":
        # drifting log-walk with an 8-day crash regime around 55% of the span
        rets = rng.normal((rows,), loc=0.0004, scale=0.01)
        crash = int(rows * 0.55)
        span = min(8, rows - crash)
        if span > 0:
            rets[crash : crash + span] = rng.normal((span,), loc=-0.035, scale=0.02)
        return 100.0 * np.exp(np.cumsum(rets))
    if kind == "sine":
        t = np.arange(rows)
        noise = rng.normal((rows,), scale=0.5)
        return 100.0 + 10.0 * np.sin(2.0 * np.pi * t / 40.0) + noise
    if kind == "ar1":
        eps = rng.normal((rows,), scale=AR1_SIGMA)
        x = np.empty(rows)
        x[0] = AR1_LEVEL + eps[0]
        for t in range(1, rows):
            x[t] = AR1_LEVEL + AR1_PHI * (x[t - 1] - AR1_LEVEL) + eps[t]
        return x
    raise ConfigError(f"unknown synthetic kind {kind!r}; expected one of {SYNTH_KINDS}")


def make_synthetic_series(kind: str, rows: int, seed: int,
                          start: dt.date = dt.date(2015, 1, 5)) -> PriceSeries:
    """Build a `rows`-day synthetic PriceSeries of the given kind."""
    if rows < 2:
        raise ConfigError(f"need at least 2 rows, got {rows}")
    rng = RngStream(seed, ("synth", kind))
    closes = _close_path(kind, rows, rng)
    if closes.min() <= 0:
        # sine/ar1 levels sit far from zero; the walk is positive by construction
        raise ConfigError(f"synthetic {kind} path went non-positive; choose another seed")

    spread = np.abs(rng.normal((rows,), scale=0.002)) + 1e-4
    volume = np.exp(rng.normal((rows,), loc=13.0, scale=0.3)).round()

    opens = np.concatenate([[closes[0] * (1.0 - 0.001)], closes[:-1]])
    highs = np.maximum(opens, closes) * (1.0 + spread)
    lows = np.minimum(opens, closes) * (1.0 - spread)
    dates = []
    date = start
    while len(dates) < rows:
        if date.weekday() < 5:
            dates.append(date)
        date += dt.timedelta(days=1)
    # columns in RAW_COLUMNS order; the adjusted close equals the close
    values = np.column_stack([opens, highs, lows, closes, closes, volume])
    return PriceSeries(dates, values, provenance="repaired")
