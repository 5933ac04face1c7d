"""Run configuration: the one key table, JSON loading and named presets.

A run is configured by one flat JSON document, checked against TrainConfig's
key table. Unknown keys are rejected by name so typos cannot silently fall
back to defaults. Presets bundle the full-scale hyperparameters for each
model family; everything a preset sets can still be overridden per run.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..artifacts import is_a, read_json
from ..errors import ConfigError, DataError
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


class TrainConfig:
    """Every setting a run reads, one attribute per row of KEYS.

    Unused fields are harmless (a forecaster ignores n_critic, synth-data
    ignores seq_len), so one type serves every subcommand and training loop
    alike and manifests can echo the full resolved configuration.
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
        # dataset preparation: windowing, calendar repair, train/test split
        "seq_len": Key(30, int, ">= 1"),
        "horizon": Key(10, int, ">= 1"),
        "sma_window": Key(10, int, ">= 1"),
        "knn_k": Key(5, int, ">= 1"),
        "train_fraction": Key(0.7, float, "in (0, 1)"),
    }
    DEFAULTS = {key: row.default for key, row in KEYS.items()}

    def __init__(self, **kwargs):
        values = {**self.DEFAULTS, **check_keys(kwargs, self.KEYS, ConfigError)}
        for key, value in values.items():
            setattr(self, key, value)

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in self.KEYS}

    def replace(self, **kwargs) -> "TrainConfig":
        merged = self.as_dict()
        merged.update(kwargs)
        return TrainConfig(**merged)


# Full-scale training recipes, one per model family. The plain defaults are
# already full scale (full-gan and full-timegan equal them); full-gru and
# full-lstm change the epochs, full-wgan the learning rates and optimizer.
# Desk-scale runs lower epochs, widths and batch size by flag or config file.
PRESETS = {
    "full-gan": {
        "epochs": 250, "batch_size": 128, "lr_g": 1e-5, "lr_d": 1e-5,
        "optimizer": "adam", "width_mult": 1.0,
    },
    "full-wgan": {
        "epochs": 250, "batch_size": 128, "lr_g": 5e-5, "lr_d": 5e-5,
        "optimizer": "rmsprop", "n_critic": 5, "clip_c": 0.01, "width_mult": 1.0,
    },
    "full-gru": {
        "epochs": 50, "optimizer": "adam", "width_mult": 1.0,
    },
    "full-lstm": {
        "epochs": 150, "optimizer": "adam", "width_mult": 1.0,
    },
    "full-timegan": {
        "epochs": 250, "batch_size": 128, "lr_g": 1e-5, "lr_d": 1e-5,
        "optimizer": "adam", "timegan_hidden": 24, "width_mult": 1.0,
    },
}


def preset_overrides(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return dict(PRESETS[name])


def load_config(path: str | Path | None = None, preset: str | None = None,
                overrides: dict | None = None) -> TrainConfig:
    """Resolve file < preset < explicit overrides into one full config.

    Each layer is checked against TrainConfig.KEYS before the merge, so a bad
    value is a ConfigError even where a later layer would have replaced it.
    """
    layers = []
    if path is not None:
        try:
            layers.append(read_json(path, "config file"))
        except DataError as e:  # a bad config file is a usage error, exit 1
            raise ConfigError(str(e)) from None
    if preset is not None:
        layers.append(preset_overrides(preset))
    if overrides:
        layers.append({k: v for k, v in overrides.items() if v is not None})
    doc: dict = {}
    for layer in layers:
        doc.update(check_keys(layer, TrainConfig.KEYS, ConfigError))
    return TrainConfig(**doc)
