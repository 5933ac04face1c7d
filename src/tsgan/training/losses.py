"""Training objectives and exact adversarial identities.

All losses take Tensors (or arrays) and return scalar Tensors, each recorded as
one tape node whose values and gradients are those of the unfused chain of
primitives (clamp, log, mean, sub, add, mul, neg) it replaces, bit for bit; a
weighted sum of losses is one node too.
Discriminator probabilities are clamped into [PROB_FLOOR, 1 - PROB_FLOOR]
before any log, making saturation a bounded value instead of a NaN.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError, DomainError, ShapeError
from ..numcore import Tensor, as_tensor
from ..numcore.tensor import _record

PROB_FLOOR = 1e-7

GENERATOR_LOSS_MODES = ("nonsaturating", "minimax", "zero_sum")


def _mean_of(d: np.ndarray) -> tuple:
    """(mean d, the map from the mean's output gradient to d's), for a non-empty d.
    Both are ndarray.mean's arithmetic, the sum of all entries over their count, made
    with numpy calls that run no Python code."""
    shape, n = d.shape, d.size

    def grad(g):
        gd = np.empty(shape)
        gd[...] = np.add.reduce(g, axis=None) / n
        return gd

    return np.add.reduce(d, axis=None) / n, grad


def _mean_term(x) -> tuple:
    """(x, mean x, the map from the mean's output gradient to x's)."""
    x = x if isinstance(x, Tensor) else as_tensor(x)
    if x.data.size == 0:
        raise ShapeError("mean: empty tensor")
    return (x, *_mean_of(x.data))


def _log_term(p, complement: bool) -> tuple:
    """(p, mean log q, the map from that mean's output gradient to p's), where q is c, or
    1 - c when `complement`, and c is p clamped into [PROB_FLOOR, 1 - PROB_FLOOR]."""
    p = p if isinstance(p, Tensor) else as_tensor(p)
    d = p.data
    if d.size == 0:
        raise DataError("empty probability batch")
    c = np.clip(d, PROB_FLOOR, 1.0 - PROB_FLOOR)
    kept = (d >= PROB_FLOOR) & (d <= 1.0 - PROB_FLOOR)
    q = 1.0 - c if complement else c
    value, mean_grad = _mean_of(np.log(q))

    def grad(g):
        gq = mean_grad(g) / q
        return (-gq if complement else gq) * kept

    return p, value, grad


def _loss(op: str, terms: list, combine, spread) -> Tensor:
    """combine(term values) recorded as one node over the terms' inputs; spread(g) gives
    each term's output gradient from the loss's, which its map carries to its input."""
    inputs, values, grads = zip(*terms)
    out = Tensor(combine(*values))

    def bw(g):
        return [grad(gt) for grad, gt in zip(grads, spread(g))]

    return _record(op, out, inputs, bw)


def gan_value(d_real, d_fake) -> Tensor:
    """V = mean log D(x) + mean log(1 - D(G(z))), the minimax game value."""
    return _loss("gan_value", [_log_term(d_real, False), _log_term(d_fake, True)],
                 lambda r, f: r + f, lambda g: (g, g))


def discriminator_cost(d_real, d_fake) -> Tensor:
    """J_D = -V/2, the cost the discriminator minimizes."""
    return _loss("discriminator_cost", [_log_term(d_real, False), _log_term(d_fake, True)],
                 lambda r, f: (r + f) * -0.5, lambda g: (g * -0.5,) * 2)


def generator_cost(d_fake, mode: str = "nonsaturating", d_real=None) -> Tensor:
    """The quantity the generator descends.

    nonsaturating: -mean log D(G(z))       (default; gradient alive early)
    minimax:        mean log(1 - D(G(z)))  (the printed two-player form)
    zero_sum:       J_G = -J_D = V/2       (needs d_real as well)
    """
    if mode not in GENERATOR_LOSS_MODES:
        raise DomainError(f"unknown generator loss mode {mode!r}; "
                          f"expected one of {GENERATOR_LOSS_MODES}")
    if mode == "nonsaturating":
        return _loss("generator_cost", [_log_term(d_fake, False)],
                     lambda f: -f, lambda g: (-g,))
    if mode == "minimax":
        return _loss("generator_cost", [_log_term(d_fake, True)], lambda f: f, lambda g: (g,))
    if d_real is None:
        raise DomainError("zero_sum generator cost needs the real-batch probabilities")
    return _loss("generator_cost", [_log_term(d_real, False), _log_term(d_fake, True)],
                 lambda r, f: -((r + f) * -0.5), lambda g: (-g * -0.5,) * 2)


def bce(p, target: float) -> Tensor:
    """Binary cross-entropy of probabilities against a constant 0/1 target."""
    if target not in (0.0, 1.0):
        raise DomainError(f"bce target must be 0 or 1, got {target}")
    return _loss("bce", [_log_term(p, target == 0.0)], lambda m: -m, lambda g: (-g,))


def mse(a, b) -> Tensor:
    """mean (a - b)^2 over two arrays of one shape; unequal shapes are a ShapeError."""
    a = a if isinstance(a, Tensor) else as_tensor(a)
    b = b if isinstance(b, Tensor) else as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mse: shapes {a.data.shape} and {b.data.shape} differ")
    diff = a.data - b.data
    value, mean_grad = _mean_of(diff * diff)

    def bw(g):
        half = mean_grad(g) * diff
        gd = half + half
        return gd, -gd

    return _record("mse", Tensor(value), (a, b), bw)


def critic_estimate(f_real, f_fake) -> Tensor:
    """(1/m) sum f(x) - (1/m) sum f(g(z)), the quantity the WGAN critic ascends."""
    return _loss("critic_estimate", [_mean_term(f_real), _mean_term(f_fake)],
                 lambda r, f: r - f, lambda g: (g, -g))


def critic_generator_cost(f_fake) -> Tensor:
    """-(1/m) sum f(g(z)), the quantity the WGAN generator descends."""
    return _loss("critic_generator_cost", [_mean_term(f_fake)], lambda f: -f, lambda g: (-g,))


def weighted_sum(losses, weights) -> Tensor:
    """w1*l1 + w2*l2 + ..., added left to right, over scalar losses and float weights."""
    losses = [t if isinstance(t, Tensor) else as_tensor(t) for t in losses]
    weights = [float(w) for w in weights]
    shapes = [t.data.shape for t in losses]
    if not losses or len(losses) != len(weights) or shapes != [()] * len(shapes):
        raise ShapeError(f"weighted_sum: {len(weights)} weights for losses of shapes "
                         f"{shapes}")
    total = weights[0] * losses[0].data
    for w, t in zip(weights[1:], losses[1:]):
        total = total + w * t.data

    def bw(g):
        return [g * w for w in weights]

    return _record("weighted_sum", Tensor(total), tuple(losses), bw)


def optimal_discriminator(p_density, q_density):
    """D*(x) = p(x) / (p(x) + q(x)); defined wherever the densities aren't both zero."""

    def d_star(x):
        x = np.asarray(x, dtype=np.float64)
        p = np.asarray(p_density(x), dtype=np.float64)
        q = np.asarray(q_density(x), dtype=np.float64)
        if np.any(p < 0) or np.any(q < 0):
            raise DomainError("densities must be non-negative")
        total = p + q
        if np.any(total == 0.0):
            raise DomainError("both densities are zero at a requested point")
        return p / total

    return d_star


def jensen_shannon_divergence(p, q) -> float:
    """JSD(p, q) on a shared discrete support, natural log, in [0, log 2]."""
    p = np.asarray(p, dtype=np.float64).ravel()
    q = np.asarray(q, dtype=np.float64).ravel()
    if p.shape != q.shape:
        raise DomainError(f"JSD supports differ: {p.shape} vs {q.shape}")
    if np.any(p < 0) or np.any(q < 0):
        raise DomainError("JSD requires non-negative mass")
    if abs(p.sum() - 1.0) > 1e-9 or abs(q.sum() - 1.0) > 1e-9:
        raise DomainError(
            f"JSD requires normalized distributions (sums {p.sum()!r}, {q.sum()!r})"
        )
    m = 0.5 * (p + q)

    def kl(a, mm):
        mask = a > 0.0
        return float(np.sum(a[mask] * np.log(a[mask] / mm[mask])))

    return 0.5 * kl(p, m) + 0.5 * kl(q, m)
