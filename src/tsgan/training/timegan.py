"""Three-phase TimeGAN training schedule.

Phase 1 (reconstruction): embedder + recovery minimize autoencoding MSE.
Phase 2 (supervised): the supervisor learns one-step-ahead prediction in
latent space on embedded real sequences.
Phase 3 (joint): discriminator BCE steps alternate with a combined update
of generator + supervisor + embedder + recovery minimizing
adversarial + sup_weight * supervised + recon_weight * reconstruction.
The embedder and generator-supervisor forwards of a joint batch run once, on
the combined update's tape, and the discriminator step reads their values.
The supervisor runs once per joint batch, on the generator's latents and the
real embeddings stacked, and the discriminator step runs one forward over the
real and fake latents stacked; losses and gradients match separate forwards
within 1e-12.

Phases run strictly in order 1, 2, 3 and the trace tags each epoch with its
phase name.
"""

from __future__ import annotations

from ..errors import ConfigError, DataError
from ..models.network import forward_stacked, require_finite_params
from ..numcore import OptimizerState, RngStream, Tape, Tensor, slice_tensor
from ..numcore.tensor import ParamGroup
from .config import TrainConfig
from .losses import bce, mse, weighted_sum
from .step import run_epochs, train_step
from .trace import LossTrace

TIMEGAN_NET_NAMES = ("embedder", "recovery", "generator", "supervisor", "discriminator")


def require_timegan_nets(nets: dict, finite: tuple) -> None:
    """Every TimeGAN sub-network is present; those named in `finite` have finite parameters."""
    missing = [n for n in TIMEGAN_NET_NAMES if n not in nets]
    if missing:
        raise ConfigError(f"timegan model lacks sub-networks: {missing}")
    for name in finite:
        require_finite_params(nets[name])


def phase_budgets(epochs: int) -> tuple[int, int, int]:
    """40/40/20 split of the epoch budget across the three phases."""
    e1 = round(0.4 * epochs)
    e2 = round(0.4 * epochs)
    e3 = epochs - e1 - e2
    return e1, e2, max(0, e3)


def _merged(nets: dict, names: tuple) -> ParamGroup:
    return ParamGroup({name: nets[name].params for name in names})


def _one_step_shift_loss(sup_out: Tensor, h: Tensor) -> Tensor:
    ahead = slice_tensor(sup_out, (slice(None), slice(None, -1), slice(None)))
    target = slice_tensor(h, (slice(None), slice(1, None), slice(None)))
    return mse(ahead, target)


def joint_disc_loss(disc, h_real: Tensor, h_fake: Tensor) -> Tensor:
    """BCE of disc on real (target 1) and fake (target 0) latents, one stacked forward."""
    d_real, d_fake = forward_stacked(disc, h_real, h_fake)
    return weighted_sum([bce(d_real, 1.0), bce(d_fake, 0.0)], [1.0, 1.0])


def train_timegan(nets: dict, windows, cfg: TrainConfig, hook=None) -> LossTrace:
    """Run all three phases; updates every sub-network's parameters in place."""
    require_timegan_nets(nets, finite=())
    if windows.count == 0:
        raise DataError("empty training set")
    rng = RngStream(cfg.seed, ("timegan",))
    x_all = windows.inputs
    n, seq_len, _ = x_all.shape
    noise_dim = nets["generator"].spec.input_dim
    if seq_len < 2:
        raise ConfigError("timegan needs seq_len >= 2 for the supervised objective")
    e1, e2, e3 = phase_budgets(cfg.epochs)
    trace = LossTrace()

    def run_phase(phase, epochs, batch_fn):
        if hook is not None:
            hook({"event": "phase", "phase": phase, "epochs": len(epochs)})
        for row in run_epochs(rng, epochs, n, cfg.batch_size, batch_fn):
            trace.add(*row, phase)

    # Phase 1: reconstruction
    opt_ae = OptimizerState(cfg.optimizer, cfg.lr_g)
    ae_params = _merged(nets, ("embedder", "recovery"))

    def recon_batch(epoch, bi, idx):
        x = Tensor(x_all[idx])

        def recon_fn():
            return mse(nets["recovery"].forward(nets["embedder"].forward(x)), x)

        return train_step(opt_ae, ae_params, recon_fn, "reconstruction step",
                          epoch, bi), None, None

    run_phase("recon", range(e1), recon_batch)

    # Phase 2: supervised one-step-ahead in latent space
    opt_sup = OptimizerState(cfg.optimizer, cfg.lr_g)
    sup_params = _merged(nets, ("supervisor",))

    def sup_batch(epoch, bi, idx):
        h_real = nets["embedder"].forward(Tensor(x_all[idx])).detach()

        def sup_fn():
            return _one_step_shift_loss(nets["supervisor"].forward(h_real), h_real)

        return train_step(opt_sup, sup_params, sup_fn, "supervised step", epoch, bi), None, None

    run_phase("supervised", range(e1, e1 + e2), sup_batch)

    # Phase 3: joint adversarial training
    opt_disc = OptimizerState(cfg.optimizer, cfg.lr_d)
    opt_joint = OptimizerState(cfg.optimizer, cfg.lr_g)
    disc_params = _merged(nets, ("discriminator",))
    joint_params = _merged(nets, ("embedder", "recovery", "generator", "supervisor"))

    def joint_batch(epoch, bi, idx):
        x = Tensor(x_all[idx])
        z = rng.child("z", epoch, bi).uniform(0.0, 1.0, (idx.size, seq_len, noise_dim))

        # h, h_hat and the supervised term's supervisor(h), recorded once on the
        # joint generator tape; recording supervisor(h) ahead of the
        # discriminator step changes no value, since that step leaves the
        # supervisor as it is. The discriminator step sees h and h_hat's values
        joint_tape = Tape()
        with joint_tape:
            h = nets["embedder"].forward(x)
            h_hat, sup_h = forward_stacked(nets["supervisor"],
                                           nets["generator"].forward(Tensor(z)), h)
        h_real, h_fake = h.detach(), h_hat.detach()

        def d_loss_fn():
            return joint_disc_loss(nets["discriminator"], h_real, h_fake)

        d_loss = train_step(opt_disc, disc_params, d_loss_fn, "joint discriminator step",
                            epoch, bi)

        # combined generator-side update; the adversarial term is reported alone
        terms = {}

        def g_loss_fn():
            terms["adv"] = bce(nets["discriminator"].forward(h_hat), 1.0)
            sup = _one_step_shift_loss(sup_h, h)
            recon = mse(nets["recovery"].forward(h), x)
            return weighted_sum([terms["adv"], sup, recon],
                                [1.0, cfg.sup_weight, cfg.recon_weight])

        g_loss = train_step(opt_joint, joint_params, g_loss_fn, "joint generator step",
                            epoch, bi, tape=joint_tape)
        return g_loss, d_loss, terms["adv"].item()

    run_phase("joint", range(e1 + e2, e1 + e2 + e3), joint_batch)
    return trace
