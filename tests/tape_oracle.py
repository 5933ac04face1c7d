"""Tape primitives that tsgan's own code no longer records, and the unfused chains
that its one-node ops replace.

Every layer is one node (`dense`, `conv1d`, the recurrent kernels) and every
loss one node, a weighted sum of losses included. The chains below record each
step as its own primitive, as the layer executor and the losses did before they
were fused; the tests hold the fused ops to them bit for bit, in values and in
gradients. The primitives also serve the tests as building blocks for gradient
checks and probe losses, in place of arithmetic on Tensors.
"""

import numpy as np

from tsgan.errors import DataError, DomainError, ShapeError
from tsgan.numcore import Tensor, as_tensor
from tsgan.numcore.tensor import ACTIVATION_RULES, _record
from tsgan.training import GENERATOR_LOSS_MODES, PROB_FLOOR

# --- primitives --------------------------------------------------------------


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to `shape` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} are not broadcastable") from None
    a_shape, b_shape = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _record("add", out, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = Tensor(a.data * b.data)
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} are not broadcastable") from None
    a_data, b_data = a.data, b.data

    def bw(g):
        return _unbroadcast(g * b_data, a_data.shape), _unbroadcast(g * a_data, b_data.shape)

    return _record("mul", out, (a, b), bw)


def _activate(kind: str, x) -> Tensor:
    x = as_tensor(x)
    forward, gradient = ACTIVATION_RULES[kind]
    y, kept = forward(x.data)

    def bw(g):
        return (gradient(g, kept),)

    return _record(kind, Tensor(y), (x,), bw)


def sigmoid(x) -> Tensor:
    return _activate("sigmoid", x)


def tanh(x) -> Tensor:
    return _activate("tanh", x)


def relu(x) -> Tensor:
    return _activate("relu", x)


def conv(x, w, stride: int = 1) -> Tensor:
    """Valid 1-D convolution over (batch, length, in_ch) with kernel (k, in_ch, out_ch),
    no bias and no activation."""
    x, w = as_tensor(x), as_tensor(w)
    out_len = (x.shape[1] - w.shape[0]) // stride + 1
    x_data, w_data = x.data, w.data
    y = np.zeros((x.shape[0], out_len, w.shape[2]))
    spans = [slice(i, i + stride * (out_len - 1) + 1, stride) for i in range(w.shape[0])]
    for i, span in enumerate(spans):
        y += x_data[:, span, :] @ w_data[i]

    def bw(g):
        gx = np.zeros_like(x_data)
        gw = np.zeros_like(w_data)
        for i, span in enumerate(spans):
            gw[i] = np.tensordot(x_data[:, span, :], g, axes=([0, 1], [0, 1]))
            gx[:, span, :] += g @ w_data[i].T
        return gx, gw

    return _record("conv", Tensor(y), (x, w), bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = Tensor(a.data - b.data)
    except ValueError:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} are not broadcastable") from None
    a_shape, b_shape = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g, a_shape), -_unbroadcast(g, b_shape)

    return _record("sub", out, (a, b), bw)


def neg(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(-a.data)

    def bw(g):
        return (-g,)

    return _record("neg", out, (a,), bw)


def matmul(a, b) -> Tensor:
    """2-D @ 2-D, or batched 3-D @ 2-D (shared right operand)."""
    a, b = as_tensor(a), as_tensor(b)
    if b.ndim != 2 or a.ndim not in (2, 3):
        raise ShapeError(f"matmul: unsupported ranks for shapes {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ for shapes {a.shape} and {b.shape}")
    out = Tensor(a.data @ b.data)
    a_data, b_data = a.data, b.data

    def bw(g):
        # b's gradient over a's leading axes flattened into rows, as dense takes it: numpy's
        # dot (under tensordot) multiplies a one-element operand as a scalar, which keeps
        # a -0.0 product that the GEMM of two one-row operands sums to +0.0
        rows = a_data.reshape(-1, a_data.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        return g @ b_data.T, rows

    return _record("matmul", out, (a, b), bw)


def log(x) -> Tensor:
    """Natural log; non-positive input is a diagnosed error, never a silent NaN."""
    x = as_tensor(x)
    lo = x.data.min() if x.size else 1.0
    if lo <= 0.0:
        raise DomainError(f"log: non-positive input (min value {lo!r})")
    x_data = x.data
    out = Tensor(np.log(x_data))

    def bw(g):
        return (g / x_data,)

    return _record("log", out, (x,), bw)


def mean(x) -> Tensor:
    x = as_tensor(x)
    if x.size == 0:
        raise ShapeError("mean: empty tensor")
    x_shape, n = x.shape, x.size
    out = Tensor(x.data.mean())

    def bw(g):
        return (np.full(x_shape, np.asarray(g).sum() / n),)

    return _record("mean", out, (x,), bw)


def tsum(x) -> Tensor:
    x = as_tensor(x)
    x_shape = x.shape
    out = Tensor(x.data.sum())

    def bw(g):
        return (np.full(x_shape, np.asarray(g).sum()),)

    return _record("sum", out, (x,), bw)


def clamp(x, lo: float, hi: float) -> Tensor:
    """Clip values into [lo, hi]; gradient passes only where the value was kept."""
    x = as_tensor(x)
    out = Tensor(np.clip(x.data, lo, hi))
    mask = (x.data >= lo) & (x.data <= hi)

    def bw(g):
        return (g * mask,)

    return _record("clamp", out, (x,), bw)


# --- the unfused chains --------------------------------------------------------

_ACTIVATIONS = {"sigmoid": sigmoid, "tanh": tanh, "relu": relu, "linear": lambda x: x}


def dense(x, w, b, activation: str) -> Tensor:
    """A dense layer as three nodes: matmul, add and activation."""
    return _ACTIVATIONS[activation](add(matmul(x, w), b))


def conv1d(x, w, b, activation: str, stride: int) -> Tensor:
    """A conv layer as three nodes: convolution, add and activation."""
    return _ACTIVATIONS[activation](add(conv(x, w, stride), b))


def weighted_sum(losses, weights) -> Tensor:
    """w1*l1 + w2*l2 + ... as a mul node per term and an add node per term after the first."""
    terms = [mul(t, w) for t, w in zip(losses, weights)]
    total = terms[0]
    for t in terms[1:]:
        total = add(total, t)
    return total


def clamp_probs(p) -> Tensor:
    p = as_tensor(p)
    if p.size == 0:
        raise DataError("empty probability batch")
    return clamp(p, PROB_FLOOR, 1.0 - PROB_FLOOR)


def gan_value(d_real, d_fake) -> Tensor:
    pr = clamp_probs(d_real)
    pf = clamp_probs(d_fake)
    return add(mean(log(pr)), mean(log(sub(1.0, pf))))


def discriminator_cost(d_real, d_fake) -> Tensor:
    return mul(gan_value(d_real, d_fake), -0.5)


def generator_cost(d_fake, mode: str = "nonsaturating", d_real=None) -> Tensor:
    assert mode in GENERATOR_LOSS_MODES
    pf = clamp_probs(d_fake)
    if mode == "nonsaturating":
        return neg(mean(log(pf)))
    if mode == "minimax":
        return mean(log(sub(1.0, pf)))
    return neg(discriminator_cost(d_real, d_fake))


def bce(p, target: float) -> Tensor:
    pc = clamp_probs(p)
    return neg(mean(log(pc if target == 1.0 else sub(1.0, pc))))


def mse(a, b) -> Tensor:
    diff = sub(a, b)
    return mean(mul(diff, diff))


def critic_estimate(f_real, f_fake) -> Tensor:
    return sub(mean(f_real), mean(f_fake))


def critic_generator_cost(f_fake) -> Tensor:
    return neg(mean(f_fake))
