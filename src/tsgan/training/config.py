"""Training configuration shared by all four training loops."""

from __future__ import annotations

from ..errors import ConfigError
from ..numcore.optim import OPTIMIZERS
from .losses import GENERATOR_LOSS_MODES


class TrainConfig:
    """Every knob a loop reads, with explicit defaults.

    Unused fields are harmless (a forecaster ignores n_critic), so one type
    serves gru/lstm/gan/wgan/timegan alike and manifests can echo the full
    resolved configuration.
    """

    DEFAULTS = {
        "lr_g": 1e-5,
        "lr_d": 1e-5,
        "batch_size": 128,
        "epochs": 250,
        "optimizer": "adam",
        "n_critic": 5,
        "clip_c": 0.01,
        "seed": 0,
        "width_mult": 1.0,
        "loss_mode": "nonsaturating",
        "latent_dim": 8,
        "hidden_layers": 6,
        "hidden_units": 64,
        "timegan_hidden": 24,
        "sup_weight": 1.0,
        "recon_weight": 10.0,
    }

    def __init__(self, **kwargs):
        unknown = sorted(set(kwargs) - set(self.DEFAULTS))
        if unknown:
            raise ConfigError(f"unknown TrainConfig keys: {unknown}")
        for key, default in self.DEFAULTS.items():
            setattr(self, key, kwargs.get(key, default))
        self.batch_size = int(self.batch_size)
        self.epochs = int(self.epochs)
        self.n_critic = int(self.n_critic)
        self.seed = int(self.seed)
        self.hidden_layers = int(self.hidden_layers)
        self.hidden_units = int(self.hidden_units)
        self.latent_dim = int(self.latent_dim)
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.n_critic < 1:
            raise ConfigError(f"n_critic must be >= 1, got {self.n_critic}")
        if not self.clip_c > 0:
            raise ConfigError(f"clip_c must be > 0, got {self.clip_c}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.loss_mode not in GENERATOR_LOSS_MODES:
            raise ConfigError(f"unknown loss_mode {self.loss_mode!r}")
        if not self.lr_g > 0 or not self.lr_d > 0:
            raise ConfigError("learning rates must be positive")
        if not self.width_mult > 0:
            raise ConfigError(f"width_mult must be > 0, got {self.width_mult}")

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in self.DEFAULTS}

    def replace(self, **kwargs) -> "TrainConfig":
        merged = self.as_dict()
        merged.update(kwargs)
        return TrainConfig(**merged)
