"""Adversarial objectives: values, identities, gradients, and divergence bounds."""

import numpy as np
import pytest

from tsgan.errors import DataError, DomainError
from tsgan.numcore import Tape, Tensor, backward
from tsgan.training import (PROB_FLOOR, bce, discriminator_cost,
                            gan_value, generator_cost, jensen_shannon_divergence,
                            mse, optimal_discriminator)

from gradtools import check_gradients


def test_gan_value_hand_oracle():
    d_real = np.array([0.8, 0.6])
    d_fake = np.array([0.3, 0.4])
    want = np.mean(np.log(d_real)) + np.mean(np.log(1.0 - d_fake))
    assert gan_value(d_real, d_fake).item() == pytest.approx(want, rel=1e-15)


def test_indifferent_discriminator_value():
    half = np.full(64, 0.5)
    assert gan_value(half, half).item() == pytest.approx(-2.0 * np.log(2.0), abs=1e-12)


def test_clamp_probs_floors_and_ceilings():
    """Every probability loss clamps into [PROB_FLOOR, 1 - PROB_FLOOR] before its log and
    refuses an empty batch."""
    p = np.array([0.0, 0.5, 1.0])
    c = np.array([PROB_FLOOR, 0.5, 1.0 - PROB_FLOOR])
    assert bce(p, 1.0).item() == -np.log(c).mean()
    assert bce(p, 0.0).item() == -np.log(1.0 - c).mean()
    assert gan_value(p, p).item() == np.log(c).mean() + np.log(1.0 - c).mean()
    empty = np.array([])
    for loss in (lambda: bce(empty, 1.0), lambda: gan_value(empty, p),
                 lambda: gan_value(p, empty), lambda: discriminator_cost(p, empty),
                 lambda: generator_cost(empty), lambda: generator_cost(empty, "minimax"),
                 lambda: generator_cost(p, "zero_sum", d_real=empty)):
        with pytest.raises(DataError):
            loss()


def test_discriminator_cost_is_half_the_negated_value():
    rng = np.random.default_rng(0)
    for _ in range(20):
        dr = rng.uniform(0.01, 0.99, 32)
        df = rng.uniform(0.01, 0.99, 32)
        v = gan_value(dr, df).item()
        assert discriminator_cost(dr, df).item() == pytest.approx(-0.5 * v, abs=1e-15)


def test_generator_cost_modes():
    rng = np.random.default_rng(1)
    df = rng.uniform(0.05, 0.95, 16)
    dr = rng.uniform(0.05, 0.95, 16)
    assert generator_cost(df).item() == pytest.approx(-np.mean(np.log(df)), rel=1e-14)
    assert generator_cost(df, mode="minimax").item() == pytest.approx(
        np.mean(np.log(1.0 - df)), rel=1e-14)
    jg = generator_cost(df, mode="zero_sum", d_real=dr).item()
    jd = discriminator_cost(dr, df).item()
    assert jg + jd == pytest.approx(0.0, abs=1e-16)
    with pytest.raises(DomainError):
        generator_cost(df, mode="wasserstein")
    with pytest.raises(DomainError):
        generator_cost(df, mode="zero_sum")


def test_bce_targets():
    p = np.array([0.5, 0.25])
    assert bce(p, 1.0).item() == pytest.approx(-np.mean(np.log(p)), rel=1e-15)
    assert bce(p, 0.0).item() == pytest.approx(-np.mean(np.log(1 - p)), rel=1e-15)
    assert bce(np.array([0.5]), 1.0).item() == pytest.approx(np.log(2.0), rel=1e-15)
    with pytest.raises(DomainError):
        bce(p, 0.5)


def test_mse_hand_oracle():
    assert mse(np.array([1.0, 2.0]), np.array([3.0, 5.0])).item() == 6.5
    assert mse(np.zeros(4), np.zeros(4)).item() == 0.0


def test_gan_value_gradients_are_exact():
    pr = np.array([0.8, 0.6, 0.55])
    pf = np.array([0.3, 0.4, 0.25])
    tr = Tensor(pr.copy(), requires_grad=True)
    tf = Tensor(pf.copy(), requires_grad=True)
    with Tape() as rec:
        v = gan_value(tr, tf)
    grads = backward(rec, v)
    np.testing.assert_allclose(grads[tr.tape_id], 1.0 / (3.0 * pr), rtol=1e-14)
    np.testing.assert_allclose(grads[tf.tape_id], -1.0 / (3.0 * (1.0 - pf)),
                               rtol=1e-14)


def test_loss_pipeline_gradchecks():
    rng = np.random.default_rng(2)
    dr = Tensor(rng.uniform(0.1, 0.9, 8), requires_grad=True)
    df = Tensor(rng.uniform(0.1, 0.9, 8), requires_grad=True)
    check_gradients(lambda: discriminator_cost(dr, df), [dr, df])
    check_gradients(lambda: generator_cost(df, mode="nonsaturating"), [df])
    check_gradients(lambda: generator_cost(df, mode="minimax"), [df])
    a = Tensor(rng.normal(size=6), requires_grad=True)
    check_gradients(lambda: mse(a, np.arange(6.0)), [a])


def test_optimal_discriminator_is_the_density_ratio():
    def p(x):
        return np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi)

    def q(x):
        return np.exp(-0.5 * (x - 1.0) ** 2) / np.sqrt(2 * np.pi)

    d_star = optimal_discriminator(p, q)
    xs = np.linspace(-3, 3, 41)
    np.testing.assert_allclose(d_star(xs), p(xs) / (p(xs) + q(xs)), rtol=1e-15)
    assert d_star(np.array([0.5]))[0] == pytest.approx(0.5, abs=1e-12)

    left = optimal_discriminator(lambda x: (x < 0).astype(float),
                                 lambda x: (x > 1).astype(float))
    with pytest.raises(DomainError):
        left(np.array([0.5]))
    with pytest.raises(DomainError):
        optimal_discriminator(lambda x: -np.ones_like(x), p)(xs)


def test_jsd_identities_and_bounds():
    p = np.array([1.0, 0.0])
    q = np.array([0.0, 1.0])
    assert jensen_shannon_divergence(p, p) == 0.0
    assert jensen_shannon_divergence(p, q) == pytest.approx(np.log(2.0), abs=1e-12)

    rng = np.random.default_rng(3)
    for _ in range(300):
        a = rng.uniform(0, 1, 8)
        b = rng.uniform(0, 1, 8)
        a /= a.sum()
        b /= b.sum()
        d_ab = jensen_shannon_divergence(a, b)
        d_ba = jensen_shannon_divergence(b, a)
        assert d_ab == pytest.approx(d_ba, abs=1e-12)
        assert -1e-15 <= d_ab <= np.log(2.0) + 1e-15


def test_jsd_rejects_bad_distributions():
    ok = np.array([0.5, 0.5])
    with pytest.raises(DomainError):
        jensen_shannon_divergence(ok, np.array([0.5, 0.6]))
    with pytest.raises(DomainError):
        jensen_shannon_divergence(ok, np.array([1.5, -0.5]))
    with pytest.raises(DomainError):
        jensen_shannon_divergence(ok, np.array([0.25, 0.25, 0.5]))
