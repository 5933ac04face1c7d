"""The weight-clipped critic training loop.

Epoch structure: walk the shuffled batch list in groups of n_critic. Each
group drives n_critic critic updates (ascent on mean f(x) - mean f(g(z)),
RMSProp, clip to [-c, c] after every update), then one generator update
(descent on -mean f(g(z))). A trailing partial group is dropped so every
generator step follows a fully refreshed critic. A critic step runs one
critic forward over the real and fake batches stacked and takes each mean
over its half; the estimate and its gradient match two separate forwards
within 1e-12.

The optional hook receives one event per update (critic_step, clip,
generator_step) so the realized schedule is auditable.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..models.network import Network
from ..numcore import OptimizerState, RngStream, Tensor, clip_weights
from .config import TrainConfig
from .gan import _check_gan_shapes, disc_real_fake, disc_sequence
from .losses import critic_estimate, critic_generator_cost
from .step import run_epochs, train_step
from .trace import LossTrace

# Critic and generator both step with RMSProp, as in Arjovsky et al.; the
# `optimizer` config key does not apply to the WGAN.
WGAN_OPTIMIZER = "rmsprop"


def train_wgan(gen: Network, critic: Network, windows, cfg: TrainConfig,
               hook=None) -> LossTrace:
    """Critic/generator alternation with weight clipping; updates params in place."""
    latent = _check_gan_shapes(gen, critic, windows)
    if critic.spec.layers[-1].get("activation") != "linear":
        raise ConfigError("the critic must have a linear (unbounded) head")
    rng = RngStream(cfg.seed, ("wgan",))
    n_batches = -(-windows.count // cfg.batch_size)  # minibatches per epoch
    n_groups = n_batches // cfg.n_critic
    if n_groups == 0:
        raise ConfigError(
            f"epoch has {n_batches} minibatches but n_critic={cfg.n_critic}; "
            "reduce batch_size or n_critic"
        )
    opt_c = OptimizerState(WGAN_OPTIMIZER, cfg.lr_d, direction="ascend")
    opt_g = OptimizerState(WGAN_OPTIMIZER, cfg.lr_g, direction="descend")
    history = windows.history_paths()

    def batch_fn(epoch, bi, idx):
        group, t = divmod(bi, cfg.n_critic)
        if group == n_groups:  # the trailing partial group is dropped
            return None, None, None
        feats, hist, real = windows.inputs[idx], history[idx], windows.targets[idx]
        z = rng.child("z", epoch, group, t).normal((idx.size, windows.seq_len, latent))
        gen_in = Tensor(np.concatenate([feats, z], axis=2))
        fake = gen.forward(gen_in, rng=rng.child("gdrop", epoch, group, t)).detach()

        def estimate_fn():
            return critic_estimate(*disc_real_fake(critic, hist, real, fake.data))

        w_est = train_step(opt_c, critic.params, estimate_fn, "critic step", epoch, bi)
        if hook is not None:
            hook({"event": "critic_step", "epoch": epoch, "group": group,
                  "iteration": t, "estimate": w_est})
        clip_weights(critic.params, cfg.clip_c)
        if hook is not None:
            max_w = float(np.abs(critic.params.flat).max())
            hook({"event": "clip", "epoch": epoch, "group": group,
                  "iteration": t, "max_abs_w": max_w})
        if t < cfg.n_critic - 1:
            return None, w_est, w_est

        # one generator step per completed critic group, on its last minibatch
        z = rng.child("zg", epoch, group).normal((idx.size, windows.seq_len, latent))
        gen_in = Tensor(np.concatenate([feats, z], axis=2))

        def g_loss_fn():
            fake = gen.forward(gen_in, rng=rng.child("gdropg", epoch, group))
            return critic_generator_cost(critic.forward(disc_sequence(hist, fake)))

        g_loss = train_step(opt_g, gen.params, g_loss_fn, "generator step", epoch, group)
        if hook is not None:
            hook({"event": "generator_step", "epoch": epoch, "group": group,
                  "g_loss": g_loss})
        return g_loss, w_est, w_est

    trace = LossTrace()
    for row in run_epochs(rng, range(cfg.epochs), windows.count, cfg.batch_size, batch_fn):
        trace.add(*row, "wgan")
    return trace
