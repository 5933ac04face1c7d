"""Reference GAN and TimeGAN loops, and the two-forward step objectives.

tsgan.training records the generator's dropout-free trunk (and TimeGAN's
joint embedder and generator-supervisor latents) once per minibatch and
shares it between the discriminator and generator steps. The loops here
keep the two-forward batch bodies that sharing replaced; the tests hold the
shared-trunk loops to them for trace rows, hook events and parameter bytes.
They take the same stacked real|fake discriminator, critic and supervisor
calls as tsgan.training, so that comparison stays exact.

Each step objective tsgan.training now computes from one forward over a
stacked real|fake batch is kept below as its separate-forward original; the
tests hold the stacked objectives to these within a stated tolerance.
"""

import numpy as np

from tsgan.models.network import forward_stacked
from tsgan.numcore import OptimizerState, RngStream, Tensor
from tsgan.training import LossTrace, critic_estimate
from tsgan.training.gan import _check_gan_shapes, disc_real_fake, disc_sequence
from tsgan.training.losses import bce, gan_value, generator_cost, mse, weighted_sum
from tsgan.training.step import run_epochs, train_step
from tsgan.training.timegan import (_merged, _one_step_shift_loss, joint_disc_loss,
                                    phase_budgets, require_timegan_nets)


def critic_estimate_two_forward(critic, hist, real, fake):
    return critic_estimate(critic.forward(disc_sequence(hist, real.copy())),
                           critic.forward(disc_sequence(hist, fake)))


def gan_value_two_forward(disc, hist, real, fake):
    d_real = disc.forward(disc_sequence(hist, real.copy()))
    d_fake = disc.forward(disc_sequence(hist, fake))
    return gan_value(d_real, d_fake)


def zero_sum_cost_two_forward(disc, hist, real, fake):
    d_fake = disc.forward(disc_sequence(hist, fake))
    d_real = disc.forward(disc_sequence(hist, real.copy()))
    return generator_cost(d_fake, "zero_sum", d_real=d_real)


def timegan_disc_bce_two_forward(disc, h_real, h_fake):
    return weighted_sum([bce(disc.forward(h_real), 1.0), bce(disc.forward(h_fake), 0.0)],
                        [1.0, 1.0])


def supervisor_two_forward(supervisor, e_hat, h):
    """h_hat = supervisor(generator latents) and the supervised term's supervisor(h)."""
    return supervisor.forward(e_hat), supervisor.forward(h)


def train_gan(gen, disc, windows, cfg, hook=None) -> LossTrace:
    latent = _check_gan_shapes(gen, disc, windows)
    rng = RngStream(cfg.seed, ("gan",))
    opt_d = OptimizerState(cfg.optimizer, cfg.lr_d, direction="ascend")
    opt_g = OptimizerState(cfg.optimizer, cfg.lr_g, direction="descend")
    history = windows.history_paths()

    def batch_fn(epoch, bi, idx):
        feats = windows.inputs[idx]
        hist = history[idx]
        real = windows.targets[idx]
        z = rng.child("z", epoch, bi).normal((idx.size, windows.seq_len, latent))
        gen_in = Tensor(np.concatenate([feats, z], axis=2))

        fake = gen.forward(gen_in, rng=rng.child("gdrop", epoch, bi)).detach()

        def value_fn():
            return gan_value(*disc_real_fake(disc, hist, real, fake.data))

        v = train_step(opt_d, disc.params, value_fn, "discriminator step", epoch, bi)
        if hook is not None:
            hook({"event": "disc_step", "epoch": epoch, "batch": bi, "value": v})

        def g_loss_fn():
            fake2 = gen.forward(gen_in, rng=rng.child("gdrop2", epoch, bi))
            if cfg.loss_mode == "zero_sum":
                d_real2, d_fake2 = disc_real_fake(disc, hist, real, fake2)
                return generator_cost(d_fake2, "zero_sum", d_real=d_real2)
            return generator_cost(disc.forward(disc_sequence(hist, fake2)), cfg.loss_mode)

        g_loss = train_step(opt_g, gen.params, g_loss_fn, "generator step", epoch, bi)
        if hook is not None:
            hook({"event": "gen_step", "epoch": epoch, "batch": bi, "g_loss": g_loss})
        return g_loss, -0.5 * v, v

    trace = LossTrace()
    for row in run_epochs(rng, range(cfg.epochs), windows.count, cfg.batch_size, batch_fn):
        trace.add(*row, "gan")
    return trace


def train_timegan(nets, windows, cfg, hook=None) -> LossTrace:
    require_timegan_nets(nets, finite=())
    rng = RngStream(cfg.seed, ("timegan",))
    x_all = windows.inputs
    n, seq_len, _ = x_all.shape
    noise_dim = nets["generator"].spec.input_dim
    e1, e2, e3 = phase_budgets(cfg.epochs)
    trace = LossTrace()

    def run_phase(phase, epochs, batch_fn):
        if hook is not None:
            hook({"event": "phase", "phase": phase, "epochs": len(epochs)})
        for row in run_epochs(rng, epochs, n, cfg.batch_size, batch_fn):
            trace.add(*row, phase)

    opt_ae = OptimizerState(cfg.optimizer, cfg.lr_g)
    ae_params = _merged(nets, ("embedder", "recovery"))

    def recon_batch(epoch, bi, idx):
        x = Tensor(x_all[idx])

        def recon_fn():
            return mse(nets["recovery"].forward(nets["embedder"].forward(x)), x)

        return train_step(opt_ae, ae_params, recon_fn, "reconstruction step",
                          epoch, bi), None, None

    run_phase("recon", range(e1), recon_batch)

    opt_sup = OptimizerState(cfg.optimizer, cfg.lr_g)
    sup_params = _merged(nets, ("supervisor",))

    def sup_batch(epoch, bi, idx):
        h_real = nets["embedder"].forward(Tensor(x_all[idx])).detach()

        def sup_fn():
            return _one_step_shift_loss(nets["supervisor"].forward(h_real), h_real)

        return train_step(opt_sup, sup_params, sup_fn, "supervised step", epoch, bi), None, None

    run_phase("supervised", range(e1, e1 + e2), sup_batch)

    opt_disc = OptimizerState(cfg.optimizer, cfg.lr_d)
    opt_joint = OptimizerState(cfg.optimizer, cfg.lr_g)
    disc_params = _merged(nets, ("discriminator",))
    joint_params = _merged(nets, ("embedder", "recovery", "generator", "supervisor"))

    def joint_batch(epoch, bi, idx):
        x = Tensor(x_all[idx])
        z = rng.child("z", epoch, bi).uniform(0.0, 1.0, (idx.size, seq_len, noise_dim))

        h = nets["embedder"].forward(x)
        h_hat, _ = forward_stacked(nets["supervisor"], nets["generator"].forward(Tensor(z)), h)
        h_real, h_fake = h.detach(), h_hat.detach()

        def d_loss_fn():
            return joint_disc_loss(nets["discriminator"], h_real, h_fake)

        d_loss = train_step(opt_disc, disc_params, d_loss_fn, "joint discriminator step",
                            epoch, bi)
        terms = {}

        def g_loss_fn():
            h = nets["embedder"].forward(x)
            h_hat, sup_h = forward_stacked(nets["supervisor"],
                                           nets["generator"].forward(Tensor(z)), h)
            terms["adv"] = bce(nets["discriminator"].forward(h_hat), 1.0)
            sup = _one_step_shift_loss(sup_h, h)
            recon = mse(nets["recovery"].forward(h), x)
            return weighted_sum([terms["adv"], sup, recon],
                                [1.0, cfg.sup_weight, cfg.recon_weight])

        g_loss = train_step(opt_joint, joint_params, g_loss_fn, "joint generator step",
                            epoch, bi)
        return g_loss, d_loss, terms["adv"].item()

    run_phase("joint", range(e1 + e2, e1 + e2 + e3), joint_batch)
    return trace
