"""Three-phase TimeGAN training schedule.

Phase 1 (reconstruction): embedder + recovery minimize autoencoding MSE.
Phase 2 (supervised): the supervisor learns one-step-ahead prediction in
latent space on embedded real sequences.
Phase 3 (joint): discriminator BCE steps alternate with a combined update
of generator + supervisor + embedder + recovery minimizing
adversarial + sup_weight * supervised + recon_weight * reconstruction.

Phases run strictly in order 1, 2, 3 and the trace tags each epoch with its
phase name.
"""

from __future__ import annotations

from ..errors import ConfigError, DataError
from ..numcore import OptimizerState, RngStream, Tensor, slice_tensor
from .config import TrainConfig
from .gan import minibatches
from .losses import bce, mse
from .step import train_step
from .trace import LossTrace

TIMEGAN_NET_NAMES = ("embedder", "recovery", "generator", "supervisor", "discriminator")


def phase_budgets(epochs: int) -> tuple[int, int, int]:
    """40/40/20 split of the epoch budget across the three phases."""
    e1 = round(0.4 * epochs)
    e2 = round(0.4 * epochs)
    e3 = epochs - e1 - e2
    return e1, e2, max(0, e3)


def _merged(nets: dict, names: tuple) -> dict:
    out = {}
    for net_name in names:
        for k, p in nets[net_name].params.items():
            out[f"{net_name}.{k}"] = p
    return out


def _one_step_shift_loss(sup_out: Tensor, h: Tensor) -> Tensor:
    ahead = slice_tensor(sup_out, (slice(None), slice(None, -1), slice(None)))
    target = slice_tensor(h, (slice(None), slice(1, None), slice(None)))
    return mse(ahead, target)


def train_timegan(nets: dict, windows, cfg: TrainConfig,
                  rng: RngStream | None = None, hook=None) -> LossTrace:
    """Run all three phases; updates every sub-network's parameters in place."""
    missing = [n for n in TIMEGAN_NET_NAMES if n not in nets]
    if missing:
        raise ConfigError(f"timegan nets missing sub-networks: {missing}")
    if windows.count == 0:
        raise DataError("empty training set")
    if rng is None:
        rng = RngStream(cfg.seed, ("timegan",))
    x_all = windows.inputs
    n, seq_len, _ = x_all.shape
    noise_dim = nets["generator"].spec.input_dim
    if seq_len < 2:
        raise ConfigError("timegan needs seq_len >= 2 for the supervised objective")
    e1, e2, e3 = phase_budgets(cfg.epochs)
    trace = LossTrace()
    epoch = 0

    # Phase 1: reconstruction
    if hook is not None:
        hook({"event": "phase", "phase": "recon", "epochs": e1})
    opt_ae = OptimizerState(cfg.optimizer, cfg.lr_g)
    ae_params = _merged(nets, ("embedder", "recovery"))
    for _ in range(e1):
        perm = rng.child("shuffle", epoch).permutation(n)
        loss_sum, nb = 0.0, 0
        for bi, idx in enumerate(minibatches(n, cfg.batch_size, perm)):
            x = Tensor(x_all[idx])

            def recon_fn():
                return mse(nets["recovery"].forward(nets["embedder"].forward(x)), x)

            loss_sum += train_step(opt_ae, ae_params, recon_fn, "reconstruction step",
                                   epoch, bi)
            nb += 1
        trace.add(epoch, loss_sum / nb, 0.0, 0.0, "recon")
        epoch += 1

    # Phase 2: supervised one-step-ahead in latent space
    if hook is not None:
        hook({"event": "phase", "phase": "supervised", "epochs": e2})
    opt_sup = OptimizerState(cfg.optimizer, cfg.lr_g)
    sup_params = _merged(nets, ("supervisor",))
    for _ in range(e2):
        perm = rng.child("shuffle", epoch).permutation(n)
        loss_sum, nb = 0.0, 0
        for bi, idx in enumerate(minibatches(n, cfg.batch_size, perm)):
            h_real = nets["embedder"].forward(Tensor(x_all[idx])).detach()

            def sup_fn():
                return _one_step_shift_loss(nets["supervisor"].forward(h_real), h_real)

            loss_sum += train_step(opt_sup, sup_params, sup_fn, "supervised step", epoch, bi)
            nb += 1
        trace.add(epoch, loss_sum / nb, 0.0, 0.0, "supervised")
        epoch += 1

    # Phase 3: joint adversarial training
    if hook is not None:
        hook({"event": "phase", "phase": "joint", "epochs": e3})
    opt_disc = OptimizerState(cfg.optimizer, cfg.lr_d)
    opt_joint = OptimizerState(cfg.optimizer, cfg.lr_g)
    disc_params = _merged(nets, ("discriminator",))
    joint_params = _merged(nets, ("embedder", "recovery", "generator", "supervisor"))
    for _ in range(e3):
        perm = rng.child("shuffle", epoch).permutation(n)
        g_sum = d_sum = a_sum = 0.0
        nb = 0
        for bi, idx in enumerate(minibatches(n, cfg.batch_size, perm)):
            x = Tensor(x_all[idx])
            z = rng.child("z", epoch, bi).uniform(0.0, 1.0, (idx.size, seq_len, noise_dim))

            # discriminator: real embeddings vs supervised generator latents
            h_real = nets["embedder"].forward(x).detach()
            h_fake = nets["supervisor"].forward(
                nets["generator"].forward(Tensor(z))).detach()

            def d_loss_fn():
                return (bce(nets["discriminator"].forward(h_real), 1.0)
                        + bce(nets["discriminator"].forward(h_fake), 0.0))

            d_sum += train_step(opt_disc, disc_params, d_loss_fn,
                                "joint discriminator step", epoch, bi)

            # combined generator-side update; the adversarial term is reported alone
            terms = {}

            def g_loss_fn():
                h = nets["embedder"].forward(x)
                h_hat = nets["supervisor"].forward(nets["generator"].forward(Tensor(z)))
                terms["adv"] = bce(nets["discriminator"].forward(h_hat), 1.0)
                sup = _one_step_shift_loss(nets["supervisor"].forward(h), h)
                recon = mse(nets["recovery"].forward(h), x)
                return terms["adv"] + cfg.sup_weight * sup + cfg.recon_weight * recon

            g_sum += train_step(opt_joint, joint_params, g_loss_fn,
                                "joint generator step", epoch, bi)
            a_sum += terms["adv"].item()
            nb += 1
        trace.add(epoch, g_sum / nb, d_sum / nb, a_sum / nb, "joint")
        epoch += 1
    return trace
