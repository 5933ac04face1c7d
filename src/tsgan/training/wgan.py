"""The weight-clipped critic training loop.

Epoch structure: walk the shuffled batch list in groups of n_critic. Each
group drives n_critic critic updates (ascent on mean f(x) - mean f(g(z)),
RMSProp, clip to [-c, c] after every update), then one generator update
(descent on -mean f(g(z))). A trailing partial group is dropped so every
generator step follows a fully refreshed critic.

The optional hook receives one event per update (critic_step, clip,
generator_step) so the realized schedule is auditable.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..models.network import Network
from ..numcore import OptimizerState, RngStream, Tensor, clip_weights, mean
from .config import TrainConfig
from .gan import _check_gan_shapes, disc_sequence, minibatches
from .step import train_step
from .trace import LossTrace

WGAN_DEFAULT_LR = 5e-5


def critic_estimate(f_real: Tensor, f_fake: Tensor) -> Tensor:
    """(1/m) sum f(x) - (1/m) sum f(g(z)), the quantity the critic ascends."""
    return mean(f_real) - mean(f_fake)


def train_wgan(gen: Network, critic: Network, windows, cfg: TrainConfig,
               rng: RngStream | None = None, hook=None) -> LossTrace:
    """Critic/generator alternation with weight clipping; updates params in place."""
    latent = _check_gan_shapes(gen, critic, windows)
    if critic.spec.layers[-1].get("activation") != "linear":
        raise ConfigError("the critic must have a linear (unbounded) head")
    if rng is None:
        rng = RngStream(cfg.seed, ("wgan",))
    opt_c = OptimizerState("rmsprop", cfg.lr_d, direction="ascend")
    opt_g = OptimizerState("rmsprop", cfg.lr_g, direction="descend")
    history = windows.history_paths()
    trace = LossTrace()
    for epoch in range(cfg.epochs):
        perm = rng.child("shuffle", epoch).permutation(windows.count)
        batches = minibatches(windows.count, cfg.batch_size, perm)
        n_groups = len(batches) // cfg.n_critic
        if n_groups == 0:
            raise ConfigError(
                f"epoch has {len(batches)} minibatches but n_critic={cfg.n_critic}; "
                "reduce batch_size or n_critic"
            )
        w_sum = g_sum = 0.0
        for group in range(n_groups):
            for t in range(cfg.n_critic):
                idx = batches[group * cfg.n_critic + t]
                feats, hist, real = windows.inputs[idx], history[idx], windows.targets[idx]
                z = rng.child("z", epoch, group, t).normal(
                    (idx.size, windows.seq_len, latent))
                gen_in = Tensor(np.concatenate([feats, z], axis=2))
                fake = gen.forward(gen_in, mode="train",
                                   rng=rng.child("gdrop", epoch, group, t)).detach()

                def estimate_fn():
                    f_real = critic.forward(disc_sequence(hist, real.copy()))
                    f_fake = critic.forward(disc_sequence(hist, fake.data))
                    return critic_estimate(f_real, f_fake)

                w_est = train_step(opt_c, critic.params, estimate_fn, "critic step",
                                   epoch, group * cfg.n_critic + t)
                if hook is not None:
                    hook({"event": "critic_step", "epoch": epoch, "group": group,
                          "iteration": t, "estimate": w_est})
                clip_weights(critic.params, cfg.clip_c)
                if hook is not None:
                    max_w = max(float(np.abs(p.data).max()) for p in critic.params.values())
                    hook({"event": "clip", "epoch": epoch, "group": group,
                          "iteration": t, "max_abs_w": max_w})
                w_sum += w_est

            # one generator step per completed critic group
            idx = batches[group * cfg.n_critic + cfg.n_critic - 1]
            feats, hist = windows.inputs[idx], history[idx]
            z = rng.child("zg", epoch, group).normal((idx.size, windows.seq_len, latent))
            gen_in = Tensor(np.concatenate([feats, z], axis=2))

            def g_loss_fn():
                fake = gen.forward(gen_in, mode="train",
                                   rng=rng.child("gdropg", epoch, group))
                return -mean(critic.forward(disc_sequence(hist, fake)))

            g_loss = train_step(opt_g, gen.params, g_loss_fn, "generator step", epoch, group)
            if hook is not None:
                hook({"event": "generator_step", "epoch": epoch, "group": group,
                      "g_loss": g_loss})
            g_sum += g_loss

        steps = n_groups * cfg.n_critic
        trace.add(epoch, g_sum / n_groups, w_sum / steps, w_sum / steps, "wgan")
    return trace
