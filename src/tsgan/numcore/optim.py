"""First-order optimizers over flat parameter vectors.

A network's parameters live in one float64 vector (a ParamVector), each named
Tensor's data a view into it, and the network keeps that vector for its whole
life. leaf_grads() returns the gradients as one float64 vector in the
parameters' order, and that vector is the only gradient layout an update takes:
its length is checked once, then it is read as it is with one finite check and
never written. An update runs two blockwise passes of BLOCK elements over it.
The first computes each block's new moments and values into BLOCK-sized
scratch and checks both for non-finite values (a finite gradient whose square
overflows leaves an infinite moment but a finite value), writing nothing, so
an update that aborts changes nothing. The second writes them in place: the
blocks whose results the scratch still holds (all of them when the parameters
fit in one block, else the last) are copied, and every other block repeats the
same arithmetic straight into the moments and the parameter vector. A backward
closure reads the parameter arrays live at op time, so a parameter whose tape
backward has not consumed yet is a GraphError before anything is written, for
an update and for a clip alike. The check sees only the tape each parameter
was last recorded on: a parameter recorded on tape A and then on tape B passes
once B is consumed, and a later backward over A would read the new values.
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


def _step(state: OptimizerState, t: int, g, moments: dict, out, tmp) -> None:
    """Write into out the step down along g that the parameters take (the new value is
    p - out), from the new moments; tmp is scratch."""
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


def _require_consumed(params: dict) -> None:
    """GraphError naming the first parameter whose last tape backward has not consumed:
    its backward closures still read the values an update would overwrite. An earlier
    tape the parameter joined is not seen."""
    for name, p in params.items():
        if p._tape is not None and not p._tape.consumed:
            raise GraphError(f"parameter {name!r} is on a tape that backward has not "
                             "consumed; run backward before updating it")


def optimizer_step(state: OptimizerState, params: ParamVector | ParamGroup,
                   g: np.ndarray) -> None:
    """Apply one update to every parameter along g, the gradient vector leaf_grads() lays
    in params' order, writing the parameters and the moments in place. Ascent on L is
    exactly descent on -L.

    A gradient vector of the wrong length, or a parameter on a tape backward has not
    consumed, is a GraphError. An update that raises leaves the parameters, the moments
    and the step count as they were.
    """
    vectors = _vectors(params)
    size = sum(vec.bounds[-1] for vec in vectors)
    if np.shape(g) != (size,):
        raise GraphError(f"gradient vector has shape {np.shape(g)}; the parameters "
                         f"need ({size},)")
    _require_consumed(params)
    require_finite(params, g, "non-finite gradient for parameter {!r}")
    if state.direction == "ascend":  # a fresh vector: the caller's gradients are never written
        g = np.negative(g)
    moments = state.moments or {k: np.zeros(size) for k, _, _ in _MOMENTS[state.algo]}
    room = min(size, BLOCK)
    scratch = {k: np.empty(room) for k in [*moments, "step", "tmp"]}
    t, blocks, lo = state.step_count + 1, [], 0
    for vec in vectors:  # (values, offset in g) of each block
        flat = vec.flat
        blocks += [(flat[a : a + BLOCK], lo + a) for a in range(0, flat.size, BLOCK)]
        lo += flat.size
    # pass 1: new moments and values into the scratch, checked; nothing written. Blocks
    # lie side by side from g offset `base`, which moves up to a block that does not fit
    base = 0
    for p, lo in blocks:
        if lo + p.size - base > room:
            base = lo
        at = slice(lo - base, lo - base + p.size)
        gb, part = g[lo : lo + p.size], {k: buf[at] for k, buf in scratch.items()}
        _advance(state.algo, {k: m[lo : lo + p.size] for k, m in moments.items()}, gb, part,
                 part["tmp"])
        for k in moments:  # a finite g whose square overflows leaves an infinite moment
            require_finite(params, part[k], f"non-finite moment {k!r} for parameter {{!r}} "
                           "after update", lo)
        _step(state, t, gb, part, part["step"], part["tmp"])
        require_finite(params, np.subtract(p, part["step"], out=part["step"]),
                       "non-finite value for parameter {!r} after update", lo)
    # pass 2, last block first: the blocks from base on are copied from the scratch before
    # any earlier one repeats the same arithmetic in place, over the scratch
    for k, m in moments.items():
        m[base:] = scratch[k][: size - base]
    for p, lo in reversed(blocks):
        if lo >= base:
            p[...] = scratch["step"][lo - base : lo - base + p.size]
            continue
        gb, block = g[lo : lo + p.size], {k: m[lo : lo + p.size] for k, m in moments.items()}
        step, tmp = scratch["step"][: p.size], scratch["tmp"][: p.size]
        _advance(state.algo, block, gb, block, tmp)
        _step(state, t, gb, block, step, tmp)
        np.subtract(p, step, out=p)
    state.step_count = t
    state.moments = moments


def clip_weights(params: ParamVector | ParamGroup, c: float) -> None:
    """Clip every parameter into [-c, c] in place; a parameter on a tape backward has not
    consumed is a GraphError, and nothing is clipped."""
    if not (c > 0.0):
        raise ConfigError(f"clip bound must be positive, got {c}")
    _require_consumed(params)
    for vec in _vectors(params):
        flat = vec.flat
        np.clip(flat, -c, c, out=flat)
