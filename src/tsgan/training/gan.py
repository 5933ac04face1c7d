"""The adversarial training loop for the conditional GAN.

Conditioning scheme: the generator reads each window's scaled feature
history with latent noise concatenated per step, and emits the next-horizon
scaled closes. The discriminator reads a single-channel sequence: the
window's close history followed by a (real or generated) close path.

Per minibatch the discriminator takes one ascent step on
(1/m) sum[log D(x) + log(1 - D(G(z)))], then the generator takes one step
(nonsaturating by default; minimax and zero_sum by flag).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, DataError
from ..models.network import Network
from ..numcore import OptimizerState, RngStream, Tensor, concat, reshape
from .config import TrainConfig
from .losses import discriminator_cost, gan_value, generator_cost
from .step import train_step
from .trace import LossTrace


def minibatches(count: int, batch_size: int, perm: np.ndarray) -> list[np.ndarray]:
    """Consecutive chunks of a shuffled index permutation (last may be short)."""
    return [perm[i : i + batch_size] for i in range(0, count, batch_size)]


def gen_latent_dim(gen: Network, n_features: int) -> int:
    latent = gen.spec.input_dim - n_features
    if latent < 1:
        raise ConfigError(
            f"generator input width {gen.spec.input_dim} leaves no room for latent "
            f"noise after {n_features} conditioning features"
        )
    return latent


def gen_output_dim(gen: Network) -> int:
    return gen.spec.layers[-1]["units"]


def disc_sequence(history: np.ndarray, path) -> Tensor:
    """(batch, L) close history + (batch, H) close path -> (batch, L+H, 1) input."""
    if isinstance(path, Tensor):
        b = history.shape[0]
        h = path.shape[1]
        hist = Tensor(history[:, :, None])
        return concat([hist, reshape(path, (b, h, 1))], axis=1)
    return Tensor(np.concatenate([history, path], axis=1)[:, :, None])


def _check_gan_shapes(gen: Network, disc: Network, windows) -> int:
    if windows.count == 0:
        raise DataError("empty training set")
    n_features = windows.inputs.shape[2]
    latent = gen_latent_dim(gen, n_features)
    if gen_output_dim(gen) != windows.horizon:
        raise ConfigError(
            f"generator head width {gen_output_dim(gen)} does not match "
            f"window horizon {windows.horizon}"
        )
    if disc.spec.input_dim != 1:
        raise ConfigError("discriminator expects a single-channel close sequence")
    return latent


def train_gan(gen: Network, disc: Network, windows, cfg: TrainConfig,
              rng: RngStream | None = None, hook=None) -> LossTrace:
    """Alternating minimax training; updates gen/disc parameters in place."""
    latent = _check_gan_shapes(gen, disc, windows)
    if rng is None:
        rng = RngStream(cfg.seed, ("gan",))
    opt_d = OptimizerState(cfg.optimizer, cfg.lr_d, direction="ascend")
    opt_g = OptimizerState(cfg.optimizer, cfg.lr_g, direction="descend")
    history = windows.history_paths()
    trace = LossTrace()
    for epoch in range(cfg.epochs):
        perm = rng.child("shuffle", epoch).permutation(windows.count)
        g_sum = d_sum = v_sum = 0.0
        n_batches = 0
        for bi, idx in enumerate(minibatches(windows.count, cfg.batch_size, perm)):
            feats = windows.inputs[idx]
            hist = history[idx]
            real = windows.targets[idx]
            m = idx.size
            z = rng.child("z", epoch, bi).normal((m, windows.seq_len, latent))
            gen_in = Tensor(np.concatenate([feats, z], axis=2))

            # discriminator ascent on V, generator frozen (fake detached)
            fake = gen.forward(gen_in, mode="train",
                               rng=rng.child("gdrop", epoch, bi)).detach()

            def value_fn():
                d_real = disc.forward(disc_sequence(hist, real.copy()))
                d_fake = disc.forward(disc_sequence(hist, fake.data))
                return gan_value(d_real, d_fake)

            v = train_step(opt_d, disc.params, value_fn, "discriminator step", epoch, bi)
            if hook is not None:
                hook({"event": "disc_step", "epoch": epoch, "batch": bi, "value": v})

            # generator step against the updated discriminator
            def g_loss_fn():
                fake2 = gen.forward(gen_in, mode="train",
                                    rng=rng.child("gdrop2", epoch, bi))
                d_fake2 = disc.forward(disc_sequence(hist, fake2))
                if cfg.loss_mode == "zero_sum":
                    d_real2 = disc.forward(disc_sequence(hist, real.copy()))
                    return generator_cost(d_fake2, "zero_sum", d_real=d_real2)
                return generator_cost(d_fake2, cfg.loss_mode)

            g_loss = train_step(opt_g, gen.params, g_loss_fn, "generator step", epoch, bi)
            if hook is not None:
                hook({"event": "gen_step", "epoch": epoch, "batch": bi, "g_loss": g_loss})

            v_sum += v
            d_sum += -0.5 * v
            g_sum += g_loss
            n_batches += 1
        trace.add(epoch, g_sum / n_batches, d_sum / n_batches, v_sum / n_batches, "gan")
    return trace


__all__ = [
    "train_gan",
    "minibatches",
    "disc_sequence",
    "gen_latent_dim",
    "gen_output_dim",
    "gan_value",
    "discriminator_cost",
    "generator_cost",
]
