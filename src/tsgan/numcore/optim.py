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


def require_finite(params: dict, values: np.ndarray, message: str, offset: int = 0) -> None:
    """NumericAbort(message naming the parameter) at the first non-finite entry of `values`,
    which lies over params' values in their order from `offset` entries in."""
    finite = np.isfinite(values)
    if np.count_nonzero(finite) != finite.size:  # a count costs less than a reduction
        ends = np.cumsum([t.data.size for t in params.values()])
        i = int(np.searchsorted(ends, offset + int(finite.argmin()), side="right"))
        raise NumericAbort(message.format(list(params)[i]))


def _writable(params: ParamVector | ParamGroup) -> list[np.ndarray]:
    """The vectors under params, in params' order, for an update or a clip to write.

    A GraphError names the first parameter whose last tape backward has not consumed: its
    backward closures still read the values a write would change. An earlier tape the
    parameter joined is not seen. Then reading each vector names a parameter whose data
    was rebound off it (ParamVector.flat)."""
    for name, p in params.items():
        if p._tape is not None and not p._tape.consumed:
            raise GraphError(f"parameter {name!r} is on a tape that backward has not "
                             "consumed; run backward before updating it")
    if isinstance(params, ParamGroup):
        return [vec.flat for vec in params.vectors]
    return [params.flat]


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


def _advance(moments: tuple, old, g: np.ndarray, out, tmp: np.ndarray) -> None:
    """Write the moments after gradient g, from their values `old`, into `out` (may be
    `old`); `moments` is the algorithm's entry of _MOMENTS, and `old` and `out` hold one
    array per moment in its order."""
    for (_, decay, squared), m, m_out in zip(moments, old, out):
        np.multiply(np.multiply(g, g, tmp) if squared else g, 1.0 - decay, tmp)
        np.add(np.multiply(m, decay, m_out), tmp, m_out)


def _step(state: OptimizerState, t: int, g, moments, out, tmp) -> None:
    """Write into out the step down along g that the parameters take (the new value is
    p - out), from the new moments, one array each in _MOMENTS' order; tmp is scratch."""
    if state.algo == "adam":  # lr * m_hat / (sqrt(v_hat) + eps)
        m, v = moments
        np.divide(v, 1.0 - ADAM_BETA2 ** t, tmp)
        np.add(np.sqrt(tmp, tmp), ADAM_EPS, tmp)
        np.multiply(np.divide(m, 1.0 - ADAM_BETA1 ** t, out), state.lr, out)
    else:  # lr * g, over sqrt(sq) + eps for rmsprop
        np.multiply(g, state.lr, out)
        if state.algo == "rmsprop":
            np.add(np.sqrt(moments[0], tmp), RMSPROP_EPS, tmp)
    if state.algo != "sgd":
        np.divide(out, tmp, out)


def optimizer_step(state: OptimizerState, params: ParamVector | ParamGroup,
                   g: np.ndarray) -> None:
    """Apply one update to every parameter along g, the gradient vector leaf_grads() lays
    in params' order, writing the parameters and the moments in place. Ascent on L is
    exactly descent on -L.

    A gradient vector of the wrong length, or a parameter on a tape backward has not
    consumed, is a GraphError. An update that raises leaves the parameters, the moments
    and the step count as they were.
    """
    vectors = params.vectors if isinstance(params, ParamGroup) else [params]
    size = 0
    for vec in vectors:
        size += vec.bounds[-1]
    if np.shape(g) != (size,):
        raise GraphError(f"gradient vector has shape {np.shape(g)}; the parameters "
                         f"need ({size},)")
    flats = _writable(params)
    require_finite(params, g, "non-finite gradient for parameter {!r}")
    if state.direction == "ascend":  # a fresh vector: the caller's gradients are never written
        g = np.negative(g)
    spec = _MOMENTS[state.algo]
    moments = state.moments or {k: np.zeros(size) for k, _, _ in spec}
    olds = list(moments.values())
    # rows: each new moment, then the step (then the new values), then scratch
    room = min(size, BLOCK)
    scratch = np.empty((len(olds) + 2, room))
    t, blocks, lo = state.step_count + 1, [], 0
    for flat in flats:  # (values, offset in g) of each block
        blocks += [(flat[a : a + BLOCK], lo + a) for a in range(0, flat.size, BLOCK)]
        lo += flat.size
    # pass 1: new moments and values into the scratch, checked; nothing written. Blocks
    # lie side by side from g offset `base`, which moves up to a block that does not fit
    base = 0
    for p, lo in blocks:
        n = p.size
        if lo + n - base > room:
            base = lo
        part = scratch[:, lo - base : lo - base + n]
        *news, step, tmp = part
        gb = g[lo : lo + n]
        _advance(spec, [m[lo : lo + n] for m in olds], gb, news, tmp)
        _step(state, t, gb, news, step, tmp)
        np.subtract(p, step, step)
        # one check of the new moments and values: a finite g whose square overflows
        # leaves an infinite moment but a finite value, so the moments are named first
        checked = part[:-1]
        if np.count_nonzero(np.isfinite(checked)) != checked.size:
            for (k, _, _), m in zip(spec, news):
                require_finite(params, m, f"non-finite moment {k!r} for parameter {{!r}} "
                               "after update", lo)
            require_finite(params, step, "non-finite value for parameter {!r} after update",
                           lo)
    # pass 2, last block first: the blocks from base on are copied from the scratch before
    # any earlier one repeats the same arithmetic in place, over the scratch
    for m, new in zip(olds, scratch):
        m[base:] = new[: size - base]
    steps, tmps = scratch[-2], scratch[-1]
    for p, lo in reversed(blocks):
        n = p.size
        if lo >= base:
            p[...] = steps[lo - base : lo - base + n]
            continue
        gb, block = g[lo : lo + n], [m[lo : lo + n] for m in olds]
        step, tmp = steps[:n], tmps[:n]
        _advance(spec, block, gb, block, tmp)
        _step(state, t, gb, block, step, tmp)
        np.subtract(p, step, p)
    state.step_count = t
    state.moments = moments


def clip_weights(params: ParamVector | ParamGroup, c: float) -> None:
    """Clip every parameter into [-c, c] in place; a parameter on a tape backward has not
    consumed is a GraphError, and nothing is clipped."""
    if not (c > 0.0):
        raise ConfigError(f"clip bound must be positive, got {c}")
    for flat in _writable(params):
        # np.clip's own arithmetic, max then min, without its Python wrappers
        np.maximum(flat, -c, out=flat)
        np.minimum(flat, c, out=flat)
