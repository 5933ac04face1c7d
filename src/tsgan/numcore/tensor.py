"""Dense float64 tensors with single-use reverse-mode differentiation.

Values are numpy arrays in row-major order. Gradient tracking is explicit:
while a Tape is active, every primitive op whose inputs require gradients
records a backward closure onto it. One training step builds one tape and
consumes it with a single backward() call; tapes are never reused.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError, GraphError, ShapeError

_ACTIVE: list["Tape"] = []


class Tensor:
    """A dense float64 array, optionally tracked on the active tape."""

    __slots__ = ("data", "requires_grad", "tape_id", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
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
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; every arm routes through the recorded primitives below.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, index):
        return slice_tensor(self, index)


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

    def _assign(self, t: Tensor) -> int:
        tid = self._next_id
        self._next_id += 1
        t.tape_id = tid
        t._tape = self
        return tid

    def _input_id(self, t: Tensor) -> int:
        if t._tape is not self:
            tid = self._assign(t)
            if t.requires_grad:
                self._leaves[tid] = t
        return t.tape_id


def active_tape() -> Tape | None:
    return _ACTIVE[-1] if _ACTIVE else None


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _record(op: str, out: Tensor, inputs: tuple, backward_fn) -> Tensor:
    tape = active_tape()
    if tape is None:
        return out
    if not any(isinstance(t, Tensor) and t.requires_grad for t in inputs):
        return out
    if tape.consumed:
        raise GraphError("computation record already consumed; build a fresh Tape per step")
    in_ids = tuple(tape._input_id(t) if isinstance(t, Tensor) else None for t in inputs)
    out_id = tape._assign(out)
    out.requires_grad = True
    tape.nodes.append((op, out_id, in_ids, backward_fn, out.shape))
    return out


def backward(record: Tape, loss: Tensor) -> dict[int, Tensor]:
    """Reverse pass from a scalar loss; returns {tape_id: gradient} for every leaf.

    Leaves on the record that the loss does not reach get zero gradients.
    The record is consumed; a second backward on it is rejected.
    """
    if record.consumed:
        raise GraphError("double backward: this computation record was already consumed")
    if not isinstance(loss, Tensor) or loss._tape is not record or loss.tape_id is None:
        raise GraphError("loss tensor is not on this computation record")
    if loss.size != 1:
        raise GraphError(f"loss must be scalar, got shape {loss.shape}")

    grads: dict[int, np.ndarray] = {loss.tape_id: np.ones_like(loss.data)}
    for op, out_id, in_ids, backward_fn, _ in reversed(record.nodes):
        g = grads.pop(out_id, None)
        if g is None:
            continue
        for in_id, contrib in zip(in_ids, backward_fn(g)):
            if in_id is None or contrib is None:
                continue
            held = grads.get(in_id)
            grads[in_id] = contrib if held is None else held + contrib
    record.consumed = True

    result: dict[int, Tensor] = {}
    for tid, leaf in record._leaves.items():
        g = grads.get(tid)
        if g is None:
            g = np.zeros_like(leaf.data)
        result[tid] = Tensor(g)
    return result


def leaf_grads(record: Tape, params: dict, gmap: dict) -> dict:
    """Map parameter names to gradients from a backward() result.

    Only tensors that actually joined `record` are looked up; a stale
    tape_id from an earlier record never aliases into the wrong gradient.
    """
    out = {}
    missing = []
    for name, p in params.items():
        if p._tape is record and p.tape_id in gmap:
            out[name] = gmap[p.tape_id]
        else:
            missing.append(name)
    if missing:
        raise GraphError(f"no gradients on this record for parameters: {sorted(missing)}")
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to `shape` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

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

    if a.ndim == 2:
        def bw(g):
            return g @ b_data.T, a_data.T @ g
    else:
        def bw(g):
            return g @ b_data.T, np.tensordot(a_data, g, axes=([0, 1], [0, 1]))

    return _record("matmul", out, (a, b), bw)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    d = x.data
    y = np.empty_like(d)
    pos = d >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    y[~pos] = ex / (1.0 + ex)
    out = Tensor(y)

    def bw(g):
        return (g * y * (1.0 - y),)

    return _record("sigmoid", out, (x,), bw)


def tanh(x) -> Tensor:
    x = as_tensor(x)
    y = np.tanh(x.data)
    out = Tensor(y)

    def bw(g):
        return (g * (1.0 - y * y),)

    return _record("tanh", out, (x,), bw)


def relu(x) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0
    out = Tensor(np.where(mask, x.data, 0.0))

    def bw(g):
        return (g * mask,)

    return _record("relu", out, (x,), bw)


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


def mean(x, axis: int | None = None) -> Tensor:
    x = as_tensor(x)
    if x.size == 0:
        raise ShapeError("mean: empty tensor")
    x_shape = x.shape
    if axis is None:
        out = Tensor(x.data.mean())
        n = x.size

        def bw(g):
            return (np.full(x_shape, np.asarray(g).sum() / n),)
    else:
        out = Tensor(x.data.mean(axis=axis))
        n = x_shape[axis]

        def bw(g):
            return (np.broadcast_to(np.expand_dims(g, axis), x_shape) / n,)

    return _record("mean", out, (x,), bw)


def tsum(x, axis: int | None = None) -> Tensor:
    x = as_tensor(x)
    x_shape = x.shape
    if axis is None:
        out = Tensor(x.data.sum())

        def bw(g):
            return (np.full(x_shape, np.asarray(g).sum()),)
    else:
        out = Tensor(x.data.sum(axis=axis))

        def bw(g):
            return (np.broadcast_to(np.expand_dims(g, axis), x_shape).copy(),)

    return _record("sum", out, (x,), bw)


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat: no inputs")
    try:
        out = Tensor(np.concatenate([t.data for t in ts], axis=axis))
    except ValueError:
        raise ShapeError(
            f"concat: shapes {[t.shape for t in ts]} do not align on axis {axis}"
        ) from None
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, offsets, axis=axis))

    return _record("concat", out, tuple(ts), bw)


def slice_tensor(x, index) -> Tensor:
    """Basic indexing (ints and slices only); gradient scatters back into place."""
    x = as_tensor(x)
    if not isinstance(index, tuple):
        index = (index,)
    for part in index:
        if not isinstance(part, (int, np.integer, slice)):
            raise ShapeError(f"slice: only ints and slices supported, got {type(part).__name__}")
    out = Tensor(np.ascontiguousarray(x.data[index]))
    x_shape = x.shape

    def bw(g):
        gx = np.zeros(x_shape)
        gx[index] += g
        return (gx,)

    return _record("slice", out, (x,), bw)


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape)
    try:
        out = Tensor(x.data.reshape(shape))
    except ValueError:
        raise ShapeError(f"reshape: cannot view shape {x.shape} as {shape}") from None
    x_shape = x.shape

    def bw(g):
        return (g.reshape(x_shape),)

    return _record("reshape", out, (x,), bw)


def clamp(x, lo: float, hi: float) -> Tensor:
    """Clip values into [lo, hi]; gradient passes only where the value was kept."""
    x = as_tensor(x)
    out = Tensor(np.clip(x.data, lo, hi))
    mask = (x.data >= lo) & (x.data <= hi)

    def bw(g):
        return (g * mask,)

    return _record("clamp", out, (x,), bw)


def conv1d(x, w, stride: int = 1) -> Tensor:
    """Valid 1-D convolution over (batch, length, in_ch) with kernel (k, in_ch, out_ch)."""
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim != 3 or w.ndim != 3:
        raise ShapeError(f"conv1d: expected 3-D input and kernel, got {x.shape} and {w.shape}")
    if stride < 1:
        raise ShapeError(f"conv1d: stride must be >= 1, got {stride}")
    batch, length, in_ch = x.shape
    k, kc_in, out_ch = w.shape
    if kc_in != in_ch:
        raise ShapeError(f"conv1d: channel mismatch between input {x.shape} and kernel {w.shape}")
    if length < k:
        raise ShapeError(f"conv1d: input length {length} shorter than kernel {k}")
    out_len = (length - k) // stride + 1
    x_data, w_data = x.data, w.data
    y = np.zeros((batch, out_len, out_ch))
    spans = [slice(i, i + stride * (out_len - 1) + 1, stride) for i in range(k)]
    for i, span in enumerate(spans):
        y += x_data[:, span, :] @ w_data[i]
    out = Tensor(y)

    def bw(g):
        gx = np.zeros_like(x_data)
        gw = np.zeros_like(w_data)
        for i, span in enumerate(spans):
            gw[i] = np.tensordot(x_data[:, span, :], g, axes=([0, 1], [0, 1]))
            gx[:, span, :] += g @ w_data[i].T
        return gx, gw

    return _record("conv1d", out, (x, w), bw)


def dropout(x, rate: float, mode: str = "train", rng=None) -> Tensor:
    """Inverted dropout; in eval mode the op is the identity."""
    x = as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise DomainError(f"dropout: rate must be in [0, 1), got {rate}")
    if mode == "eval" or rate == 0.0:
        return x
    if mode != "train":
        raise DomainError(f"dropout: mode must be 'train' or 'eval', got {mode!r}")
    if rng is None:
        raise DomainError("dropout: train mode requires an RngStream for the mask")
    keep = rng.uniform(0.0, 1.0, x.shape) >= rate
    scale = keep / (1.0 - rate)
    out = Tensor(x.data * scale)

    def bw(g):
        return (g * scale,)

    return _record("dropout", out, (x,), bw)

