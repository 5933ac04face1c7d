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
from .training.config import TrainConfig

PIPELINE_DEFAULTS = {
    "seq_len": 30,
    "horizon": 10,
    "sma_window": 10,
    "knn_k": 5,
    "train_fraction": 0.7,
}


class PipelineConfig:
    """Dataset preparation settings (windowing, repair, split)."""

    def __init__(self, **kwargs):
        unknown = sorted(set(kwargs) - set(PIPELINE_DEFAULTS))
        if unknown:
            raise ConfigError(f"unknown pipeline config key: {unknown[0]!r}")
        merged = {**PIPELINE_DEFAULTS, **kwargs}
        self.seq_len = int(merged["seq_len"])
        self.horizon = int(merged["horizon"])
        self.sma_window = int(merged["sma_window"])
        self.knn_k = int(merged["knn_k"])
        self.train_fraction = float(merged["train_fraction"])
        if self.seq_len < 1 or self.horizon < 1:
            raise ConfigError(
                f"seq_len and horizon must be >= 1, got ({self.seq_len}, {self.horizon})"
            )
        if self.sma_window < 1:
            raise ConfigError(f"sma_window must be >= 1, got {self.sma_window}")
        if self.knn_k < 1:
            raise ConfigError(f"knn_k must be >= 1, got {self.knn_k}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in PIPELINE_DEFAULTS}


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


def split_config_keys(doc: dict) -> tuple[dict, dict]:
    """Split a flat config document into (train keys, pipeline keys)."""
    train_keys = set(TrainConfig.DEFAULTS)
    pipe_keys = set(PIPELINE_DEFAULTS)
    train, pipe = {}, {}
    for key, value in doc.items():
        if key in train_keys:
            train[key] = value
        elif key in pipe_keys:
            pipe[key] = value
        else:
            raise ConfigError(f"unknown config key: {key!r}")
    return train, pipe


def load_config(path: str | Path | None = None, preset: str | None = None,
                overrides: dict | None = None) -> tuple[TrainConfig, PipelineConfig]:
    """Resolve file < preset < explicit overrides into full config objects."""
    doc: dict = {}
    if path is not None:
        try:
            doc.update(read_json(path, "config file"))
        except DataError as e:  # a bad config file is a usage error, exit 1
            raise ConfigError(str(e)) from None
    if preset is not None:
        doc.update(preset_overrides(preset))
    if overrides:
        doc.update({k: v for k, v in overrides.items() if v is not None})
    train_kw, pipe_kw = split_config_keys(doc)
    return TrainConfig(**train_kw), PipelineConfig(**pipe_kw)


def resolved_config_dict(train_cfg: TrainConfig, pipe_cfg: PipelineConfig) -> dict:
    """Every setting made explicit, for manifests."""
    merged = dict(train_cfg.as_dict())
    merged.update(pipe_cfg.as_dict())
    return merged
