"""Stacked real|fake forwards agree with two separate forwards within 1e-12.

Each adversarial step runs its discriminator, critic or supervisor once over
two batches stacked on axis 0 and reads each half with a slice. The
separate-forward originals live in tests/gan_oracle.py. On the same
parameters and inputs, losses must agree within 1e-12 relative, and every
gradient entry within 1e-12 times the largest |gradient| of its network (or
input). Gradients are not checked elementwise-relative: an entry that is
exactly 0 one way (the critic's output bias) can read about 1e-17 the other.
"""

import gan_oracle
import numpy as np
import pytest

from tape_oracle import add
from test_training import tiny_disc
from tsgan.models import build_discriminator, build_timegan, min_discriminator_len
from tsgan.models.network import forward_stacked
from tsgan.numcore import RngStream, Tape, Tensor, backward
from tsgan.training import critic_estimate, gan_value, generator_cost
from tsgan.training.gan import disc_real_fake
from tsgan.training.losses import mse
from tsgan.training.timegan import _one_step_shift_loss, joint_disc_loss

TOL = 1e-12
BATCH = 16


def _loss_and_grads(loss_fn, leaves: dict):
    """The loss value and name -> gradient for every leaf, from one fresh tape."""
    with Tape() as tape:
        loss = loss_fn()
    gmap = backward(tape, loss)
    return loss.item(), {k: gmap[t.tape_id] for k, t in leaves.items()}


def _assert_close(stacked_fn, oracle_fn, groups: dict):
    """`groups` maps a network or input name to its {name: leaf Tensor}."""
    leaves = {(g, k): t for g, ts in groups.items() for k, t in ts.items()}
    got, got_g = _loss_and_grads(stacked_fn, leaves)
    want, want_g = _loss_and_grads(oracle_fn, leaves)
    assert abs(got - want) <= TOL * abs(want)
    for group in groups:
        keys = [key for key in leaves if key[0] == group]
        scale = max(np.abs(want_g[key]).max() for key in keys)
        assert scale > 0.0
        for key in keys:
            assert np.abs(got_g[key] - want_g[key]).max() <= TOL * scale, key


def _disc(kind: str, head: str, length: int, in_dim: int = 1):
    """A desk-width GRU critic or a full-width conv discriminator."""
    if kind == "gru":
        return tiny_disc(head=head, units=6, seed=7)
    return build_discriminator(length, in_dim, RngStream(8, ("disc", kind)), head=head)


def _paths(kind: str):
    """Close histories plus real and fake paths long enough for the net kind."""
    horizon = 3
    seq = 6 if kind == "gru" else min_discriminator_len() - horizon
    rs = np.random.default_rng(11)
    return (rs.uniform(size=(BATCH, seq)), rs.uniform(size=(BATCH, horizon)),
            rs.uniform(size=(BATCH, horizon)))


NETS = ["gru", "conv"]


@pytest.mark.parametrize("kind", NETS)
def test_critic_estimate_matches_two_forwards(kind):
    hist, real, fake = _paths(kind)
    critic = _disc(kind, "linear", hist.shape[1] + real.shape[1])
    _assert_close(
        lambda: critic_estimate(*disc_real_fake(critic, hist, real, fake)),
        lambda: gan_oracle.critic_estimate_two_forward(critic, hist, real, fake),
        {"critic": critic.params})


@pytest.mark.parametrize("kind", NETS)
def test_gan_value_matches_two_forwards(kind):
    hist, real, fake = _paths(kind)
    disc = _disc(kind, "sigmoid", hist.shape[1] + real.shape[1])
    _assert_close(
        lambda: gan_value(*disc_real_fake(disc, hist, real, fake)),
        lambda: gan_oracle.gan_value_two_forward(disc, hist, real, fake),
        {"disc": disc.params})


@pytest.mark.parametrize("kind", NETS)
def test_zero_sum_generator_cost_matches_two_forwards(kind):
    hist, real, fake = _paths(kind)
    disc = _disc(kind, "sigmoid", hist.shape[1] + real.shape[1])
    fake = Tensor(fake, requires_grad=True)  # the generator's output

    def stacked():
        d_real, d_fake = disc_real_fake(disc, hist, real, fake)
        return generator_cost(d_fake, "zero_sum", d_real=d_real)

    _assert_close(stacked,
                  lambda: gan_oracle.zero_sum_cost_two_forward(disc, hist, real, fake),
                  {"disc": disc.params, "fake": {"fake": fake}})


def _latents(seq: int, hidden: int):
    rs = np.random.default_rng(12)
    return rs.uniform(size=(BATCH, seq, hidden)), rs.uniform(size=(BATCH, seq, hidden))


@pytest.mark.parametrize("kind", NETS)
def test_timegan_discriminator_bce_matches_two_forwards(kind):
    hidden = 24
    if kind == "gru":
        seq = 6
        disc = build_timegan(4, hidden, rng=RngStream(9, ("tg",)))["discriminator"]
    else:
        seq = min_discriminator_len()
        disc = _disc(kind, "sigmoid", seq, in_dim=hidden)
    h_real, h_fake = (Tensor(a) for a in _latents(seq, hidden))
    _assert_close(lambda: joint_disc_loss(disc, h_real, h_fake),
                  lambda: gan_oracle.timegan_disc_bce_two_forward(disc, h_real, h_fake),
                  {"disc": disc.params})


def test_timegan_supervisor_forwards_match_two_forwards():
    hidden = 24
    sup = build_timegan(4, hidden, rng=RngStream(9, ("tg",)))["supervisor"]
    e_hat, h = (Tensor(a, requires_grad=True) for a in _latents(6, hidden))
    target = np.random.default_rng(13).uniform(size=h.shape)

    def loss(forwards):
        def fn():
            # a stand-in term on h_hat plus the supervised term on supervisor(h)
            h_hat, sup_h = forwards(sup, e_hat, h)
            return add(mse(h_hat, target), _one_step_shift_loss(sup_h, h))
        return fn

    _assert_close(loss(forward_stacked), loss(gan_oracle.supervisor_two_forward),
                  {"supervisor": sup.params, "e_hat": {"e_hat": e_hat}, "h": {"h": h}})
