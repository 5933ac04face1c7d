"""Dense float64 tensors with single-use reverse-mode differentiation.

Values are numpy arrays in row-major order. Gradient tracking is explicit:
while a Tape is active, every op with an input that requires a gradient records
one backward closure onto it, and only such inputs join the tape. Every layer is
one node that applies its own activation (dense and conv1d here, the recurrent
kernels in recurrent.py), and every loss in tsgan.training is one node; the
unfused primitives they replace (add, mul, the activations) are kept as oracles
in the tests' tape_oracle.py. One training step builds one tape and consumes it
with a single backward() call, which returns plain gradient arrays; tapes are
never reused.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from ..errors import DomainError, GraphError, ShapeError

_ACTIVE: list["Tape"] = []


class Tensor:
    """A dense float64 array, optionally tracked on the active tape."""

    __slots__ = ("data", "requires_grad", "tape_id", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.tape_id = None
        self._tape = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Value-only copy, dropped from any record."""
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class ParamVector(dict):
    """name -> Tensor, each Tensor's data a view, in this order, into one float64 vector `flat`.

    Fresh parameter Tensors, named and shaped by (name, shape) pairs, are laid over `flat`
    as it is, once, at construction; a `flat` that is not one vector of exactly their size
    is a ShapeError. The ParamVector owns `flat` from then on: updates and clips write it
    in place, so its owner passes a vector that nothing else holds. They refuse while the
    tape a parameter was last recorded on is unconsumed; an earlier unconsumed tape is
    not checked, and its backward would read the written values. Reading `flat` checks
    that every Tensor's data is still the view laid at construction.
    """

    def __init__(self, shapes, flat: np.ndarray):
        super().__init__((name, Tensor(np.empty(shape), requires_grad=True))
                         for name, shape in shapes)
        self.bounds = list(accumulate([t.data.size for t in self.values()], initial=0))
        if np.shape(flat) != (self.bounds[-1],):
            raise ShapeError(f"parameter vector of shape {np.shape(flat)} does not hold "
                             f"{self.bounds[-1]} values")
        self._flat = flat
        for t, lo, hi in zip(self.values(), self.bounds, self.bounds[1:]):
            t.data = flat[lo:hi].reshape(t.data.shape)
        self._views = [t.data for t in self.values()]

    @property
    def flat(self) -> np.ndarray:
        """The vector; a GraphError names a parameter whose data was rebound off it."""
        for (name, t), view in zip(self.items(), self._views):
            if t.data is not view:
                raise GraphError(f"parameter {name!r} no longer views its network's vector: "
                                 "its data was rebound")
        return self._flat


class ParamGroup(dict):
    """Several ParamVectors as one name -> Tensor mapping, keyed '<part>.<name>'."""

    def __init__(self, parts: dict[str, ParamVector]):
        super().__init__((f"{part}.{k}", t) for part, vec in parts.items() for k, t in vec.items())
        self.vectors = list(parts.values())


class Tape:
    """Ordered single-use record of primitive ops (a valid topological order by construction)."""

    def __init__(self):
        self.nodes = []  # (op_kind, out_id, in_ids, backward_fn, out_shape)
        self.consumed = False
        self._next_id = 0
        self._leaves = {}  # tape_id -> Tensor, differentiable leaves seen as op inputs

    def __enter__(self) -> "Tape":
        _ACTIVE.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE.pop()
        return False


def active_tape() -> Tape | None:
    return _ACTIVE[-1] if _ACTIVE else None


def as_tensor(x) -> Tensor:
    """x itself when it is a Tensor, else a Tensor of its values. The ops take arrays as
    well as Tensors, but test an input with isinstance before calling this: a Tensor,
    what they are given on every training path, then costs no Python call."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _record(op: str, out: Tensor, inputs: tuple, backward_fn) -> Tensor:
    """Record an op on the active tape if an input requires a gradient. Only such inputs
    join it (as leaves if new, ids in input order before the output's); others get None
    in in_ids and keep tape_id and _tape. Every op calls it, so it returns before any
    other work when no tape is active or no input needs a gradient."""
    if not _ACTIVE:
        return out
    for t in inputs:
        if t.requires_grad:
            break
    else:
        return out
    tape = _ACTIVE[-1]
    if tape.consumed:
        raise GraphError("computation record already consumed; build a fresh Tape per step")
    in_ids = []
    tid = tape._next_id
    for t in inputs:
        if not t.requires_grad:
            in_ids.append(None)
            continue
        if t._tape is not tape:
            t.tape_id, t._tape = tid, tape
            tape._leaves[tid] = t
            tid += 1
        in_ids.append(t.tape_id)
    out.tape_id, out._tape, out.requires_grad = tid, tape, True
    tape._next_id = tid + 1
    tape.nodes.append((op, tid, tuple(in_ids), backward_fn, out.data.shape))
    return out


def backward(record: Tape, loss: Tensor) -> dict[int, np.ndarray]:
    """Reverse pass from a scalar loss on the record (a constant never is); returns
    {tape_id: np.ndarray} for every leaf, zeros for one the loss does not reach.

    The record is consumed; a second backward on it is rejected. Each node is
    taken off the record before its closure runs, so the arrays it holds are
    freed at their last use, even while a parameter's `_tape` points here. A
    closure is called with its output gradient as the only reference to it, so
    one that deletes its argument frees the gradient before it returns.
    """
    if record.consumed:
        raise GraphError("double backward: this computation record was already consumed")
    if not isinstance(loss, Tensor) or loss._tape is not record:
        raise GraphError("loss tensor is not on this computation record")
    if loss.data.size != 1:
        raise GraphError(f"loss must be scalar, got shape {loss.data.shape}")

    record.consumed = True
    grads: dict[int, np.ndarray] = {loss.tape_id: np.ones_like(loss.data)}
    while record.nodes:
        _, out_id, in_ids, backward_fn, _ = record.nodes.pop()
        if out_id not in grads:
            continue
        # no loop name keeps an output gradient (the names are cleared after each node)
        contribs = backward_fn(grads.pop(out_id))
        for in_id, contrib in zip(in_ids, contribs):
            if in_id is None or contrib is None:
                continue
            held = grads.get(in_id)
            grads[in_id] = contrib if held is None else held + contrib
        contribs = contrib = held = None

    return {tid: grads[tid] if tid in grads else np.zeros_like(leaf.data)
            for tid, leaf in record._leaves.items()}


def leaf_grads(record: Tape, params: dict, gmap: dict) -> np.ndarray:
    """The gradients of params from backward()'s map as one float64 vector, laid in
    params' order the way their values lie in a ParamVector: what an update reads.

    Only tensors that actually joined `record` are looked up; a stale
    tape_id from an earlier record never aliases into the wrong gradient.
    """
    missing = [name for name, p in params.items()
               if p._tape is not record or p.tape_id not in gmap]
    if missing:
        raise GraphError(f"no gradients on this record for parameters: {sorted(missing)}")
    return np.concatenate([np.zeros(0), *[gmap[p.tape_id] for p in params.values()]],
                          axis=None)


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def _sigmoid(d: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5*(1 + tanh(x/2)): no overflow at any input, one allocation."""
    t = 0.5 * d
    np.tanh(t, out=t)
    t += 1.0
    t *= 0.5
    return t


def _sigmoid_rule(d):
    y = _sigmoid(d)
    return y, y


def _tanh_rule(d):
    y = np.tanh(d)
    return y, y


def _relu_rule(d):
    mask = d > 0
    return np.where(mask, d, 0.0), mask


# Each activation: forward(input) -> (output, what its gradient keeps), and
# gradient(output gradient, kept) -> input gradient. dense and conv1d apply them, so a
# layer rounds as its unfused product, add and activation primitives would.
ACTIVATION_RULES = {
    "sigmoid": (_sigmoid_rule, lambda g, y: g * y * (1.0 - y)),
    "tanh": (_tanh_rule, lambda g, y: g * (1.0 - y * y)),
    "relu": (_relu_rule, lambda g, mask: g * mask),
    "linear": (lambda d: (d, None), lambda g, _: g),
}


def _activation_rule(op: str, activation: str) -> tuple:
    if activation not in ACTIVATION_RULES:
        raise DomainError(f"{op}: unknown activation {activation!r}")
    return ACTIVATION_RULES[activation]


def dense(x, w, b, activation: str) -> Tensor:
    """activation(x @ w + b) as one node, x of shape (batch, in) or (batch, seq, in), w
    (in, out), b (out,), activation a key of ACTIVATION_RULES. Values and gradients equal
    those of a matmul, an add and the activation recorded in turn, bit for bit; the
    backward flattens x's and the gradient's leading axes into rows, so w's and b's
    gradients are one product and one sum at either rank. x's gradient is not computed
    when x needs none."""
    x = x if isinstance(x, Tensor) else as_tensor(x)
    w = w if isinstance(w, Tensor) else as_tensor(w)
    b = b if isinstance(b, Tensor) else as_tensor(b)
    x_data, w_data, x_grad = x.data, w.data, x.requires_grad
    if w_data.ndim != 2 or x_data.ndim not in (2, 3) or b.data.shape != w_data.shape[1:]:
        raise ShapeError(f"dense: unsupported shapes {x_data.shape}, {w_data.shape} and "
                         f"{b.data.shape}")
    if x_data.shape[-1] != w_data.shape[0]:
        raise ShapeError(f"dense: inner dimensions differ for shapes {x_data.shape} and "
                         f"{w_data.shape}")
    forward, gradient = _activation_rule("dense", activation)
    z = x_data @ w_data
    z += b.data
    y, kept = forward(z)

    def bw(g):
        g = gradient(g, kept)
        rows = g.reshape(-1, g.shape[-1])
        gw = x_data.reshape(-1, x_data.shape[-1]).T @ rows
        return (g @ w_data.T if x_grad else None), gw, rows.sum(axis=0)

    return _record("dense", Tensor(y), (x, w, b), bw)


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [t if isinstance(t, Tensor) else as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat: no inputs")
    arrays = [t.data for t in ts]
    try:
        out = Tensor(np.concatenate(arrays, axis=axis))
    except ValueError:
        raise ShapeError(
            f"concat: shapes {[a.shape for a in arrays]} do not align on axis {axis}"
        ) from None
    offsets = list(accumulate([a.shape[axis] for a in arrays[:-1]]))

    def bw(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, offsets, axis=axis))

    return _record("concat", out, tuple(ts), bw)


def slice_tensor(x, index) -> Tensor:
    """Basic indexing (ints and slices only); gradient scatters back into place."""
    x = x if isinstance(x, Tensor) else as_tensor(x)
    if not isinstance(index, tuple):
        index = (index,)
    for part in index:
        if not isinstance(part, (int, np.integer, slice)):
            raise ShapeError(f"slice: only ints and slices supported, got {type(part).__name__}")
    out = Tensor(np.ascontiguousarray(x.data[index]))
    x_shape = x.data.shape

    def bw(g):
        gx = np.zeros(x_shape)
        gx[index] += g
        return (gx,)

    return _record("slice", out, (x,), bw)


def reshape(x, shape) -> Tensor:
    x = x if isinstance(x, Tensor) else as_tensor(x)
    shape, x_shape = tuple(shape), x.data.shape
    try:
        out = Tensor(x.data.reshape(shape))
    except ValueError:
        raise ShapeError(f"reshape: cannot view shape {x_shape} as {shape}") from None

    def bw(g):
        return (g.reshape(x_shape),)

    return _record("reshape", out, (x,), bw)


def conv1d(x, w, b, activation: str, stride: int) -> Tensor:
    """activation(valid 1-D convolution of x + b) as one node, x of shape (batch, length,
    in_ch), kernel w (k, in_ch, out_ch), b (out_ch,), activation a key of
    ACTIVATION_RULES. Values and gradients equal those of a bias-free convolution, an add
    and the activation recorded in turn, bit for bit; x's gradient is not computed when x
    needs none."""
    x = x if isinstance(x, Tensor) else as_tensor(x)
    w = w if isinstance(w, Tensor) else as_tensor(w)
    b = b if isinstance(b, Tensor) else as_tensor(b)
    x_data, w_data, x_grad = x.data, w.data, x.requires_grad
    if x_data.ndim != 3 or w_data.ndim != 3:
        raise ShapeError(f"conv1d: expected 3-D input and kernel, got {x_data.shape} and "
                         f"{w_data.shape}")
    if stride < 1:
        raise ShapeError(f"conv1d: stride must be >= 1, got {stride}")
    batch, length, in_ch = x_data.shape
    k, kc_in, out_ch = w_data.shape
    if kc_in != in_ch:
        raise ShapeError(f"conv1d: channel mismatch between input {x_data.shape} and kernel "
                         f"{w_data.shape}")
    if b.data.shape != (out_ch,):
        raise ShapeError(f"conv1d: bias of shape {b.data.shape} does not fit kernel "
                         f"{w_data.shape}")
    if length < k:
        raise ShapeError(f"conv1d: input length {length} shorter than kernel {k}")
    forward, gradient = _activation_rule("conv1d", activation)
    out_len = (length - k) // stride + 1
    z = np.zeros((batch, out_len, out_ch))
    spans = [slice(i, i + stride * (out_len - 1) + 1, stride) for i in range(k)]
    for i, span in enumerate(spans):
        z += x_data[:, span, :] @ w_data[i]
    z += b.data
    y, kept = forward(z)

    def bw(g):
        g = gradient(g, kept)
        gb = g.sum(axis=(0, 1))
        gw = np.zeros_like(w_data)
        gx = np.zeros_like(x_data) if x_grad else None
        for i, span in enumerate(spans):
            gw[i] = np.tensordot(x_data[:, span, :], g, axes=([0, 1], [0, 1]))
            if x_grad:
                gx[:, span, :] += g @ w_data[i].T
        return gx, gw, gb

    return _record("conv1d", Tensor(y), (x, w, b), bw)


def dropout(x, rate: float, rng=None) -> Tensor:
    """Inverted dropout with a mask drawn from `rng`; without an rng the op is the identity."""
    x = x if isinstance(x, Tensor) else as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise DomainError(f"dropout: rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return x
    keep = rng.uniform(0.0, 1.0, x.data.shape) >= rate
    scale = keep / (1.0 - rate)
    out = Tensor(x.data * scale)

    def bw(g):
        return (g * scale,)

    return _record("dropout", out, (x,), bw)

