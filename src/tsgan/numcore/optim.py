"""First-order optimizers over flat parameter vectors.

A network's parameters live in one float64 vector (a ParamVector), each named
Tensor's data a view into it. leaf_grads() returns the gradients as one
float64 vector in the parameters' order, and that vector is the only gradient
layout an update takes: its length is checked once, then it is read as it is
with one finite check. The update writes the new values into a fresh vector
BLOCK elements at a time and rebinds the views: backward closures capture the
arrays live at op time, so the old vector is never written, and neither is
the caller's gradient vector. The flat moments advance in place in a second
blockwise pass, only once every new value is known to be finite, so an update
that aborts changes nothing.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, GraphError, NumericAbort
from .tensor import ParamGroup, ParamVector

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
RMSPROP_DECAY = 0.9
RMSPROP_EPS = 1e-8

OPTIMIZERS = ("sgd", "adam", "rmsprop")
_DIRECTIONS = ("descend", "ascend")
# Each moment: its name, decay, and whether it averages the gradient or its square.
_MOMENTS = {"sgd": (), "adam": (("m", ADAM_BETA1, False), ("v", ADAM_BETA2, True)),
            "rmsprop": (("sq", RMSPROP_DECAY, True),)}
BLOCK = 1 << 16  # elements per blockwise pass: a 6.2M-value update makes no whole-vector temporary


def _vectors(params: ParamVector | ParamGroup) -> list[ParamVector]:
    """The vectors under params, in params' order."""
    return params.vectors if isinstance(params, ParamGroup) else [params]


def require_finite(params: dict, values: np.ndarray, message: str, offset: int = 0) -> None:
    """NumericAbort(message naming the parameter) at the first non-finite entry of `values`,
    which lies over params' values in their order from `offset` entries in."""
    finite = np.isfinite(values)
    if not finite.all():
        ends = np.cumsum([t.size for t in params.values()])
        i = int(np.searchsorted(ends, offset + int(finite.argmin()), side="right"))
        raise NumericAbort(message.format(list(params)[i]))


class OptimizerState:
    """Flat moment vectors over one parameter mapping, plus a shared step counter."""

    def __init__(self, algo: str, lr: float, direction: str = "descend"):
        if algo not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {algo!r}; expected one of {OPTIMIZERS}")
        if direction not in _DIRECTIONS:
            raise ConfigError(f"unknown direction {direction!r}; expected one of {_DIRECTIONS}")
        if not (lr > 0.0):
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.algo = algo
        self.lr = float(lr)
        self.direction = direction
        self.step_count = 0
        self.moments: dict[str, np.ndarray] = {}


def _advance(algo: str, old: dict, g: np.ndarray, out: dict, tmp: np.ndarray) -> None:
    """Write the moments after gradient g, from their values `old`, into `out` (may be `old`)."""
    for k, decay, squared in _MOMENTS[algo]:
        np.multiply(np.multiply(g, g, out=tmp) if squared else g, 1.0 - decay, out=tmp)
        np.add(np.multiply(old[k], decay, out=out[k]), tmp, out=out[k])


def _descend(state: OptimizerState, t: int, p, g, moments: dict, out, tmp) -> None:
    """Write p moved one step down along g into out; the new moments and tmp are scratch."""
    if state.algo == "adam":  # lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(moments["v"], 1.0 - ADAM_BETA2 ** t, out=tmp)
        np.add(np.sqrt(tmp, out=tmp), ADAM_EPS, out=tmp)
        np.multiply(np.divide(moments["m"], 1.0 - ADAM_BETA1 ** t, out=out), state.lr, out=out)
    else:  # lr * g, over sqrt(sq) + eps for rmsprop
        np.multiply(g, state.lr, out=out)
        if state.algo == "rmsprop":
            np.add(np.sqrt(moments["sq"], out=tmp), RMSPROP_EPS, out=tmp)
    if state.algo != "sgd":
        np.divide(out, tmp, out=out)
    np.subtract(p, out, out=out)


def optimizer_step(state: OptimizerState, params: ParamVector | ParamGroup,
                   g: np.ndarray) -> None:
    """Apply one update to every parameter along g, the gradient vector leaf_grads() lays
    in params' order. Ascent on L is exactly descent on -L.

    A gradient vector of the wrong length is a GraphError. An update that raises leaves
    the parameters, the moments and the step count as they were.
    """
    vectors = _vectors(params)
    size = sum(vec.bounds[-1] for vec in vectors)
    if np.shape(g) != (size,):
        raise GraphError(f"gradient vector has shape {np.shape(g)}; the parameters "
                         f"need ({size},)")
    require_finite(params, g, "non-finite gradient for parameter {!r}")
    if state.direction == "ascend":  # a fresh vector: the caller's gradients are never written
        g = np.negative(g)
    moments = state.moments or {k: np.zeros(g.size) for k, _, _ in _MOMENTS[state.algo]}
    scratch = {k: np.empty(min(g.size, BLOCK)) for k in [*moments, "tmp"]}
    t, fresh, lo = state.step_count + 1, [], 0
    for vec in vectors:
        flat = vec.flat
        new = np.empty_like(flat)
        for a in range(0, new.size, BLOCK):
            b = min(a + BLOCK, new.size)
            gb, part = g[lo + a : lo + b], {k: buf[: b - a] for k, buf in scratch.items()}
            _advance(state.algo, {k: m[lo + a : lo + b] for k, m in moments.items()}, gb, part,
                     part["tmp"])
            _descend(state, t, flat[a:b], gb, part, new[a:b], part["tmp"])
        require_finite(params, new, "non-finite value for parameter {!r} after update", lo)
        fresh.append(new)
        lo += new.size
    state.step_count = t
    for a in range(0, g.size if moments else 0, BLOCK):
        gb, block = g[a : a + BLOCK], {k: m[a : a + BLOCK] for k, m in moments.items()}
        _advance(state.algo, block, gb, block, scratch["tmp"][: gb.size])
    state.moments = moments
    for vec, new in zip(vectors, fresh):
        vec.bind(new)


def clip_weights(params: ParamVector | ParamGroup, c: float) -> None:
    """Clip every parameter into [-c, c], writing a fresh vector."""
    if not (c > 0.0):
        raise ConfigError(f"clip bound must be positive, got {c}")
    for vec in _vectors(params):
        vec.bind(np.clip(vec.flat, -c, c))
