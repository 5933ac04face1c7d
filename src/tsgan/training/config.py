"""Training configuration shared by all four training loops, and the key table check."""

from __future__ import annotations

import sys
from typing import NamedTuple

import numpy as np

from ..artifacts import is_a
from ..errors import ConfigError
from ..numcore.optim import OPTIMIZERS
from .losses import GENERATOR_LOSS_MODES


class Key(NamedTuple):
    """One config key's row: its default, its type and its bound.

    `type` is int (an int or numpy integer, never a bool; stored as int),
    float (a finite int or float, not a bool; stored as given) or a tuple of
    the allowed strings. `bound` names an entry of BOUNDS, or is None.
    """
    default: object
    type: object
    bound: str | None = None


BOUNDS = {">= 1": lambda v: v >= 1, "> 0": lambda v: v > 0, "in (0, 1)": lambda v: 0 < v < 1}


def check_keys(values: dict, table: dict[str, Key], error: type) -> dict:
    """`values` checked against `table`'s rows, each stored as its row says.

    Raises `error` naming the first unknown key or bad value, so the caller
    decides what a bad value is: a usage error or corrupt input.
    """
    checked = {}
    for key, value in values.items():
        row = table.get(key)
        if row is None:
            raise error(f"unknown config key: {key!r}")
        if isinstance(value, np.integer):
            value = int(value)
        number = is_a(value, (int, float))
        if isinstance(row.type, tuple):
            ok, want = isinstance(value, str) and value in row.type, f"one of {row.type}"
        elif row.type is int:
            ok, want = number and isinstance(value, int), "an integer"
        else:  # abs() of nan, inf or an int past float range fails the comparison
            ok, want = number and abs(value) <= sys.float_info.max, "a finite number"
        if not ok:
            raise error(f"{key} must be {want}, got {value!r}")
        if row.bound is not None and not BOUNDS[row.bound](value):
            raise error(f"{key} must be {row.bound}, got {value!r}")
        checked[key] = value
    return checked


class KeyedConfig:
    """Settings checked against a key table: one attribute per row of KEYS.

    A subclass sets KEYS; DEFAULTS (key -> default) is derived from it.
    """

    KEYS: dict[str, Key] = {}

    def __init_subclass__(cls):
        cls.DEFAULTS = {key: row.default for key, row in cls.KEYS.items()}

    def __init__(self, **kwargs):
        values = {**self.DEFAULTS, **check_keys(kwargs, self.KEYS, ConfigError)}
        for key, value in values.items():
            setattr(self, key, value)

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in self.KEYS}


class TrainConfig(KeyedConfig):
    """Every knob a loop reads, with explicit defaults.

    Unused fields are harmless (a forecaster ignores n_critic), so one type
    serves gru/lstm/gan/wgan/timegan alike and manifests can echo the full
    resolved configuration.
    """

    KEYS = {
        "lr_g": Key(1e-5, float, "> 0"),
        "lr_d": Key(1e-5, float, "> 0"),
        "batch_size": Key(128, int, ">= 1"),
        "epochs": Key(250, int, ">= 1"),
        "optimizer": Key("adam", OPTIMIZERS),
        "n_critic": Key(5, int, ">= 1"),
        "clip_c": Key(0.01, float, "> 0"),
        "seed": Key(0, int),
        "width_mult": Key(1.0, float, "> 0"),
        "loss_mode": Key("nonsaturating", GENERATOR_LOSS_MODES),
        "latent_dim": Key(8, int),
        "hidden_layers": Key(6, int),
        "hidden_units": Key(64, int, ">= 1"),
        "timegan_hidden": Key(24, int),
        "sup_weight": Key(1.0, float),
        "recon_weight": Key(10.0, float),
    }

    def replace(self, **kwargs) -> "TrainConfig":
        merged = self.as_dict()
        merged.update(kwargs)
        return TrainConfig(**merged)
