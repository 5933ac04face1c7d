"""Run configuration: pipeline settings, JSON loading, named presets.

A run is configured by one flat JSON document whose keys split into training
keys (tsgan.training.TrainConfig) and pipeline keys (PipelineConfig below).
Unknown keys are rejected by name so typos cannot silently fall back to
defaults. Presets bundle the full-scale hyperparameters for each model
family; everything a preset sets can still be overridden per run.
"""

from __future__ import annotations

from pathlib import Path

from .artifacts import read_json
from .errors import ConfigError, DataError
from .training.config import Key, KeyedConfig, TrainConfig, check_keys


class PipelineConfig(KeyedConfig):
    """Dataset preparation settings (windowing, repair, split)."""

    KEYS = {
        "seq_len": Key(30, int, ">= 1"),
        "horizon": Key(10, int, ">= 1"),
        "sma_window": Key(10, int, ">= 1"),
        "knn_k": Key(5, int, ">= 1"),
        "train_fraction": Key(0.7, float, "in (0, 1)"),
    }


PIPELINE_DEFAULTS = PipelineConfig.DEFAULTS
# Every config key's row, training keys first.
CONFIG_KEYS = {**TrainConfig.KEYS, **PipelineConfig.KEYS}


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
                overrides: dict | None = None) -> tuple[TrainConfig, PipelineConfig]:
    """Resolve file < preset < explicit overrides into full config objects.

    Each layer is checked against CONFIG_KEYS before the merge, so a bad value
    is a ConfigError even where a later layer would have replaced it.
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
        doc.update(check_keys(layer, CONFIG_KEYS, ConfigError))
    return (TrainConfig(**{k: v for k, v in doc.items() if k in TrainConfig.KEYS}),
            PipelineConfig(**{k: v for k, v in doc.items() if k in PipelineConfig.KEYS}))


def resolved_config_dict(train_cfg: TrainConfig, pipe_cfg: PipelineConfig) -> dict:
    """Every setting made explicit, for manifests."""
    return {**train_cfg.as_dict(), **pipe_cfg.as_dict()}
