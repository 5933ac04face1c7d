"""The adversarial training loop for the conditional GAN.

Conditioning scheme: the generator reads each window's scaled feature
history with latent noise concatenated per step, and emits the next-horizon
scaled closes. The discriminator reads a single-channel sequence: the
window's close history followed by a (real or generated) close path.

Per minibatch the discriminator takes one ascent step on
(1/m) sum[log D(x) + log(1 - D(G(z)))], then the generator takes one step
(nonsaturating by default; minimax and zero_sum by flag). The generator's
layers before its first dropout run once per minibatch: both steps apply
their own dropout head to that one trunk. Wherever a step reads D on both
the real and the fake paths (the discriminator step, the zero_sum generator
step), one forward runs over the two batches stacked and each mean reads its
half; losses and gradients match two separate forwards within 1e-12.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, DataError
from ..models.network import Network, forward_stacked, trunk_end
from ..numcore import OptimizerState, RngStream, Tape, Tensor, concat, reshape
from .config import TrainConfig
from .losses import gan_value, generator_cost
from .step import run_epochs, train_step
from .trace import LossTrace


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
    """(batch, L) close history + (batch, H) close path -> (batch, L+H, 1) input.

    `path` is a Tensor or an array; the concat records no tape node unless the
    path requires a gradient.
    """
    b, h = path.shape
    return concat([history[:, :, None], reshape(path, (b, h, 1))], axis=1)


def disc_real_fake(disc: Network, history: np.ndarray, real, fake) -> tuple[Tensor, Tensor]:
    """disc on the real and the fake paths after one history, from one stacked forward."""
    return forward_stacked(disc, disc_sequence(history, real), disc_sequence(history, fake))


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
              hook=None) -> LossTrace:
    """Alternating minimax training; updates gen/disc parameters in place."""
    latent = _check_gan_shapes(gen, disc, windows)
    rng = RngStream(cfg.seed, ("gan",))
    opt_d = OptimizerState(cfg.optimizer, cfg.lr_d, direction="ascend")
    opt_g = OptimizerState(cfg.optimizer, cfg.lr_g, direction="descend")
    history = windows.history_paths()

    cut = trunk_end(gen.spec)

    def batch_fn(epoch, bi, idx):
        feats = windows.inputs[idx]
        hist = history[idx]
        real = windows.targets[idx]
        m = idx.size
        z = rng.child("z", epoch, bi).normal((m, windows.seq_len, latent))
        gen_in = Tensor(np.concatenate([feats, z], axis=2))

        # the generator's dropout-free trunk runs once, on the generator step's
        # tape; the discriminator step sees its values only
        g_tape = Tape()
        with g_tape:
            trunk = gen.forward(gen_in, stop=cut)

        # discriminator ascent on V, generator frozen (fake off every tape)
        fake = gen.forward(trunk.detach(), rng=rng.child("gdrop", epoch, bi), start=cut)

        def value_fn():
            return gan_value(*disc_real_fake(disc, hist, real, fake.data))

        v = train_step(opt_d, disc.params, value_fn, "discriminator step", epoch, bi)
        if hook is not None:
            hook({"event": "disc_step", "epoch": epoch, "batch": bi, "value": v})

        # generator step against the updated discriminator, finishing g_tape
        def g_loss_fn():
            fake2 = gen.forward(trunk, rng=rng.child("gdrop2", epoch, bi), start=cut)
            if cfg.loss_mode == "zero_sum":
                d_real2, d_fake2 = disc_real_fake(disc, hist, real, fake2)
                return generator_cost(d_fake2, "zero_sum", d_real=d_real2)
            return generator_cost(disc.forward(disc_sequence(hist, fake2)), cfg.loss_mode)

        g_loss = train_step(opt_g, gen.params, g_loss_fn, "generator step", epoch, bi,
                            tape=g_tape)
        if hook is not None:
            hook({"event": "gen_step", "epoch": epoch, "batch": bi, "g_loss": g_loss})
        return g_loss, -0.5 * v, v

    trace = LossTrace()
    for row in run_epochs(rng, range(cfg.epochs), windows.count, cfg.batch_size, batch_fn):
        trace.add(*row, "gan")
    return trace
