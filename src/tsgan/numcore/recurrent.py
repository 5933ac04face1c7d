"""Fused GRU and LSTM sequence kernels: one tape node per recurrent layer.

Each kernel runs a whole (batch, seq, feat) sequence and records a single
node whose backward is hand-written backpropagation through time. The
layout follows the cuDNN RNN design (Appleyard et al., arXiv:1604.01946):

- every stored gate kernel W* is (feat + units, units); its first `feat`
  rows act on the input and the rest on the hidden state, so the kernels
  split by rows and checkpoints keep their parameter names and shapes;
- the input side works on time-major rows only: the (seq*batch, 1+feat)
  operand [1 | x] times each gate's packed [b; W_in], one GEMM per gate, is
  written gate-major, then moved by one copy of contiguous (batch, units)
  blocks into the (seq, k, batch, units) buffer of the time loop;
- the time loop multiplies only the hidden state by the stacked hidden rows;
- the gate sigmoid is 0.5*(1 + tanh(a/2)); its a/2 is folded once into the
  halved packed weights and hidden rows of the sigmoid gates, which is exact;
- the hidden states live in a private (seq+1, batch, units) buffer whose
  row 0 is the initial state, zero unless the call passes one (as cuDNN's RNN
  API takes hx/cx); the output is a batch-major copy.

A call given an initial state also hands back every step's state, so a caller
can carry a sequence on from any step (the staged iterative forecast in
training/synthesis does). The state is plain arrays and stays off the tape: the
backward returns no gradient for it.

The packed weights, each gate's [b; W_in] and the stacked hidden rows, with the
sigmoid gates halved, come from one pack function per cell kind (gru_pack,
lstm_pack). A kernel packs them itself unless the call passes `packed`. Packing
copies every weight (the hidden rows of a 1024-unit layer are 16 MB), so a caller
that makes many calls over unchanged weights, as the staged forecast does, packs
once and passes the pack to each call; cuDNN likewise transforms its weights once
and reuses them at every step. A pack is a copy that later writes to the weights
never reach, so a call that records on a tape refuses one with a GraphError.

At desk scale a kernel's time is Python dispatch, about a dozen numpy calls
per timestep on tiny blocks, so each call is made cheap: every timestep's views
come from one `zip` over the time-major buffers (reversed for BPTT); every ufunc
is bound to a local name and given its output positionally (no `out=` keyword to
parse) and the sigmoid's 1 and 0.5 as 0-d arrays (no Python float to convert);
the products call `np.ndarray.dot` and the copies are slice assignments, the C
routines that `np.dot` and `np.copyto` reach only through numpy's
`__array_function__` dispatch, a Python call each. The loops use no augmented
operator, so each op is one counted call (see test_recurrent). The set-up
makes no generator expression, which resumes a Python frame per item.

A tape is single-use, so the backward works inside the forward's private
buffers. It turns the stored gates and states into the loop-invariant BPTT
factors, mostly in the gates' own slots, and the time loop, which reads a
time-major copy of the output gradient (the closure deletes its argument once
copied, so the output gradient is freed there unless a sibling shares it),
overwrites each factor with its gate's gradient. Each gate's gradient is then
a time-major (seq*batch, units) slab (the LSTM copies its slabs out of the gate
buffer, three into spent buffers). A gate's bias and kernel gradients land in
one (1+feat+units, units) array [db; dW] whose slices are returned: h_in^T @ slab
gives its hidden rows, [1|x]^T @ slab its bias and input rows; dx is summed from
time-major products and transposed once. When [1|x] fits the gate buffer
(1+feat <= k*units), the forward builds it there and the backward rebuilds it
in the spent gates, where dx is summed too; otherwise the forward's fresh [1|x]
is the one array kept for the backward, which frees it once read.

The output array, x.data and the output gradient are never written, and the
backward closure holds arrays only: a Tensor in it would tie the tape into a
reference cycle that only the cycle collector frees.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import GraphError, ShapeError
from .tensor import Tensor, _record, active_tape, as_tensor

# the sigmoid's 1 + tanh(a/2) and its halving: a Python float operand would be
# converted to an array at every call. Read-only, as every kernel shares them.
_ONE = np.array(1.0)
_HALF = np.array(0.5)
_ONE.flags.writeable = _HALF.flags.writeable = False


def _tensors(*items) -> tuple:
    """(the items as Tensors, their arrays); only an item that is not a Tensor is converted."""
    tensors, arrays = [], []
    for t in items:
        if not isinstance(t, Tensor):
            t = as_tensor(t)
        tensors.append(t)
        arrays.append(t.data)
    return tensors, arrays


def _check(op: str, xd: np.ndarray, ws: list, bs: list) -> tuple:
    """Validate the shapes of x and of the gates' kernels and biases; returns
    (batch, seq, feat, units)."""
    if xd.ndim != 3 or min(xd.shape[:2]) < 1:
        raise ShapeError(f"{op}: needs a non-empty (batch, seq, feat) input, got {xd.shape}")
    batch, seq, feat = xd.shape
    units = ws[0].shape[-1]
    for w, b in zip(ws, bs):
        if w.shape != (feat + units, units) or b.shape != (units,):
            raise ShapeError(f"{op}: input width {feat} does not fit kernel {w.shape} "
                             f"and bias {b.shape}")
    return batch, seq, feat, units


def _initial(op: str, state: tuple, parts: int, batch: int, units: int) -> None:
    """Validate an initial state: `parts` arrays of shape (batch, units)."""
    got = [np.shape(s) for s in state]
    if got != [(batch, units)] * parts:
        raise ShapeError(f"{op}: needs an initial state of {parts} (batch, units) = "
                         f"{(batch, units)} arrays, got {got}")


def _scratch(spent: np.ndarray, shape: tuple) -> np.ndarray:
    """An array of `shape` laid over the start of a spent buffer when it fits, else fresh."""
    size = math.prod(shape)
    return spent.reshape(-1)[:size].reshape(shape) if size <= spent.size else np.empty(shape)


def _ones_x(xd: np.ndarray, spent: np.ndarray) -> np.ndarray:
    """[1 | x] of every timestep, time-major (seq*batch, 1+feat), in `spent` if it fits."""
    batch, seq, feat = xd.shape
    ones_x = _scratch(spent, (seq, batch, 1 + feat))
    ones_x[..., 0] = 1.0
    ones_x[..., 1:] = xd.transpose(1, 0, 2)
    return ones_x.reshape(seq * batch, 1 + feat)


def _hidden_rows(ws: list, feat: int) -> np.ndarray:
    """The stacked hidden rows of the gate kernels, (units, k*units)."""
    units = ws[0].shape[1]
    rows = np.empty((units, len(ws) * units))
    for j, w in enumerate(ws):
        rows[:, j * units:(j + 1) * units] = w[feat:]
    return rows


def _input_rows(ws: list, biases: list, halved: int) -> np.ndarray:
    """Each gate's [b; W_in], (k, 1+feat, units); the first `halved` gates are scaled
    by 0.5 (the sigmoid's a/2), which is exact."""
    k, units = len(ws), ws[0].shape[1]
    feat = ws[0].shape[0] - units
    packed = np.empty((k, 1 + feat, units))
    for p, w, b in zip(packed, ws, biases):
        p[0], p[1:] = b, w[:feat]
    packed[:halved] *= 0.5
    return packed


def gru_pack(Wz, bz, Wr, br, Wh, bh) -> tuple:
    """The GRU's packed weights (w_zr, w_in): the z and r gates' stacked hidden rows,
    halved, (units, 2*units), and each gate's [b; W_in] with z and r halved,
    (3, 1+feat, units). Both are copies, blind to later writes to the weights."""
    arrays = _tensors(Wz, bz, Wr, br, Wh, bh)[1]
    ws, bs = arrays[0::2], arrays[1::2]
    w_zr = _hidden_rows(ws[:2], ws[0].shape[0] - ws[0].shape[1])
    w_zr *= 0.5
    return w_zr, _input_rows(ws, bs, halved=2)


def lstm_pack(Wf, bf, Wi, bi, Wo, bo, Wg, bg) -> tuple:
    """The LSTM's packed weights (w_h, w_in): all four gates' stacked hidden rows with
    f, i and o halved, (units, 4*units), and each gate's [b; W_in] with f, i and o
    halved, (4, 1+feat, units). Both are copies, blind to later writes to the weights."""
    arrays = _tensors(Wf, bf, Wi, bi, Wo, bo, Wg, bg)[1]
    ws, bs = arrays[0::2], arrays[1::2]
    units = ws[0].shape[1]
    w_h = _hidden_rows(ws, ws[0].shape[0] - units)
    w_h[:, :3 * units] *= 0.5
    return w_h, _input_rows(ws, bs, halved=3)


def _given_pack(op: str, packed: tuple, inputs: list, feat: int, units: int,
                hidden_gates: int) -> None:
    """Validate packed weights handed to a kernel: only a call that records no tape
    node may take them, and they must have the pack function's shapes."""
    if active_tape() is not None:
        for t in inputs:
            if t.requires_grad:
                raise GraphError(f"{op}: packed weights are for calls off the tape, but "
                                 f"this call records on one")
    want = [(units, hidden_gates * units), ((len(inputs) - 1) // 2, 1 + feat, units)]
    got = [np.shape(p) for p in packed]
    if got != want:
        raise ShapeError(f"{op}: needs packed weights of shapes {want}, got {got}")


def _input_gates(xd: np.ndarray, w_in: np.ndarray) -> tuple:
    """Each gate's pre-activation from x and its bias at every timestep, as the time
    loop's (seq, k, batch, units) buffer, from each gate's packed [b; W_in] in `w_in`.
    Also returns a list holding [1|x] when it did not fit the buffer, for the backward
    to pop, else empty."""
    batch, seq, feat = xd.shape
    k, _, units = w_in.shape
    # the temporary before the buffer that outlives it: the reverse raised peak RSS
    gate_major = np.empty((k, seq * batch, units))
    gates = np.empty((seq, k, batch, units))  # holds [1|x] until the copy overwrites it
    ones_x = _ones_x(xd, gates)
    np.matmul(ones_x, w_in, out=gate_major)  # one GEMM per gate
    gates[...] = gate_major.reshape(k, seq, batch, units).transpose(1, 0, 2, 3)
    return gates, [ones_x] if 1 + feat > k * units else []


def _sig_factor(s: np.ndarray, other: np.ndarray, out: np.ndarray) -> None:
    """out = (1-s) s other, in that order: a sigmoid gate's derivative times `other`."""
    np.subtract(1.0, s, out=out)
    out *= s
    out *= other


def _input_grads(xd: np.ndarray, x_grad: bool, ws: list, slabs: list, grads: list,
                 spent: np.ndarray, kept: list) -> list:
    """(dx, dW0, db0, dW1, db1, ...) from each gate's time-major (seq*batch, units)
    pre-activation gradient in `slabs`. `grads` holds each gate's [db; dW] with its
    hidden rows written; [1|x]^T @ slab writes its bias and input rows, with [1|x] popped
    from `kept` (the forward's, see _input_gates) or rebuilt in `spent`. dx (None when
    x needs no gradient) is summed time-major, in the spent buffer with [1|x] when
    they fit, and transposed once; the returned dx holds each later share until
    then. The last slab is popped once read: a fresh one held nowhere else is freed
    before dx is made.
    """
    batch, seq, feat = xd.shape
    ones_x = kept.pop() if kept else _ones_x(xd, spent)
    for j, g in enumerate(grads):
        np.matmul(ones_x.T, slabs[j], out=g[:1 + feat])
    del ones_x  # freed here when it did not fit the spent buffer
    dx = None
    if x_grad:
        acc = _scratch(spent, (seq * batch, feat))
        np.matmul(slabs.pop(), ws[-1][:feat].T, out=acc)
        dx = np.empty((batch, seq, feat))
        for dg, w in zip(slabs, ws):
            acc += np.matmul(dg, w[:feat].T, out=dx.reshape(-1, feat))
        dx[...] = acc.reshape(seq, batch, feat).transpose(1, 0, 2)
    out = [dx]
    for g in grads:
        out += g[1:], g[0]
    return out


def gru_sequence(x, Wz, bz, Wr, br, Wh, bh, state: tuple | None = None,
                 packed: tuple | None = None):
    """GRU over a (batch, seq, feat) input; returns every hidden state, (batch, seq, units).

    z = sigmoid([x,h] Wz + bz); r = sigmoid([x,h] Wr + br)
    hhat = tanh([x, r*h] Wh + bh); h' = (1-z)*hhat + z*h

    Given `state`, a tuple (h0,) of one (batch, units) array, the loop starts from
    h0 and the call returns (output, (h,)): h is every step's state, which for a
    GRU is the output's own array.
    """
    inputs, arrays = _tensors(x, Wz, bz, Wr, br, Wh, bh)
    # the backward holds arrays only: a Tensor would tie its tape into a reference cycle
    xd, x_grad, ws = arrays[0], inputs[0].requires_grad, arrays[1::2]
    batch, seq, feat, units = _check("gru_sequence", xd, ws, arrays[2::2])
    if state is not None:
        _initial("gru_sequence", state, 1, batch, units)
    if packed is None:
        packed = gru_pack(*inputs[1:])
    else:
        _given_pack("gru_sequence", packed, inputs, feat, units, 2)
    w_zr, w_hh = packed[0], ws[2][feat:]
    # pre-activations z | r (halved) | hhat, overwritten step by step with the gate values
    gates, kept = _input_gates(xd, packed[1])
    del packed  # a pack built here is freed before the time loop
    z, r, hhat = gates.transpose(1, 0, 2, 3)
    hs = np.empty((seq + 1, batch, units))
    hs[0] = 0.0 if state is None else state[0]
    s2 = np.empty((batch, 2 * units))
    s2_gates = s2.reshape(batch, 2, units).transpose(1, 0, 2)
    s1 = np.empty((batch, units))
    rh = np.empty((batch, units))
    add, mul, sub, tanh, dot = np.add, np.multiply, np.subtract, np.tanh, np.ndarray.dot
    for zr_t, z_t, r_t, hhat_t, h, h_new in zip(gates[:, :2], z, r, hhat, hs[:-1], hs[1:]):
        dot(h, w_zr, s2)
        add(zr_t, s2_gates, zr_t)
        tanh(zr_t, zr_t)
        add(zr_t, _ONE, zr_t)
        mul(zr_t, _HALF, zr_t)
        mul(r_t, h, rh)
        dot(rh, w_hh, s1)
        add(hhat_t, s1, hhat_t)
        tanh(hhat_t, hhat_t)
        sub(h, hhat_t, h_new)
        mul(h_new, z_t, h_new)
        add(h_new, hhat_t, h_new)
    out = Tensor(hs[1:].transpose(1, 0, 2).copy())  # a view when batch == 1

    def bw(g):
        # a private copy: at batch 1 ascontiguousarray would hand back the output gradient
        # itself, which a sibling's gradient may share, and this copy is written after the
        # loop. Deleted, the output gradient is freed here unless a sibling shares it.
        g_seq = g.transpose(1, 0, 2).copy()
        del g
        h_prev = hs[:-1]
        # loop-invariant factors, each overwritten in the loop by its gate's gradient;
        # the candidate's factor takes the candidate's own slot
        d = np.empty((2, seq, batch, units))
        dz, dr = d
        np.subtract(1.0, z, out=dr)
        np.subtract(h_prev, hhat, out=dz)
        dz *= z
        dz *= dr  # (h_prev - hhat) z(1-z)
        np.multiply(hhat, hhat, out=hhat)
        np.subtract(1.0, hhat, out=hhat)
        np.multiply(hhat, dr, out=hhat)  # (1-hhat^2)(1-z)
        _sig_factor(r, h_prev, dr)  # h_prev r(1-r)
        w_hh_t = np.ascontiguousarray(w_hh.T)
        w_zr_t = np.ascontiguousarray(_hidden_rows(ws[:2], feat).T)
        dh = np.zeros((batch, units))
        d_rh = np.empty((batch, units))
        add, mul, dot = np.add, np.multiply, np.ndarray.dot
        steps = zip(z[::-1], r[::-1], hhat[::-1], dz[::-1], dr[::-1],
                    d.transpose(1, 0, 2, 3)[::-1], g_seq[::-1])
        for z_t, r_t, da_t, dz_t, dr_t, d_t, g_t in steps:
            add(dh, g_t, dh)
            mul(da_t, dh, da_t)
            dot(da_t, w_hh_t, d_rh)
            mul(dz_t, dh, dz_t)
            mul(dr_t, d_rh, dr_t)
            mul(dh, z_t, dh)
            mul(d_rh, r_t, d_rh)
            add(dh, d_rh, dh)
            s2_gates[...] = d_t
            dot(s2, w_zr_t, s1)
            add(dh, s1, dh)
        g_seq[...] = hhat  # the candidate's gradient
        slabs = [dz.reshape(-1, units), dr.reshape(-1, units), g_seq.reshape(-1, units)]
        del g_seq  # its slab is the last: _input_grads frees it once read
        h_in = h_prev.reshape(-1, units).T
        grads = [np.empty((1 + feat + units, units)) for _ in ws]
        np.matmul(h_in, slabs[0], out=grads[0][1 + feat:])
        np.matmul(h_in, slabs[1], out=grads[1][1 + feat:])
        np.multiply(r, h_prev, out=h_prev)  # what the candidate's hidden rows saw: r*h
        np.matmul(h_in, slabs[2], out=grads[2][1 + feat:])
        return _input_grads(xd, x_grad, ws, slabs, grads, gates, kept)  # r: gates' last use

    out = _record("gru_sequence", out, inputs, bw)
    return out if state is None else (out, (out.data,))


def lstm_sequence(x, Wf, bf, Wi, bi, Wo, bo, Wg, bg, state: tuple | None = None,
                  packed: tuple | None = None):
    """LSTM over a (batch, seq, feat) input; returns every hidden state, (batch, seq, units).

    f, i, o = sigmoid(gate affines on [x,h]); g = tanh(candidate affine on [x,h])
    c' = f*c + i*g; h' = o*tanh(c')

    Given `state`, a tuple (h0, c0) of (batch, units) arrays, the loop starts from
    them and the call returns (output, (h, c)): every step's hidden state (the
    output's own array) and cell state, each (batch, seq, units).
    """
    inputs, arrays = _tensors(x, Wf, bf, Wi, bi, Wo, bo, Wg, bg)
    xd, x_grad, ws = arrays[0], inputs[0].requires_grad, arrays[1::2]
    batch, seq, feat, units = _check("lstm_sequence", xd, ws, arrays[2::2])
    if state is not None:
        _initial("lstm_sequence", state, 2, batch, units)
    if packed is None:
        packed = lstm_pack(*inputs[1:])
    else:
        _given_pack("lstm_sequence", packed, inputs, feat, units, 4)
    w_h = packed[0]
    # pre-activations f | i | o (halved) | g, overwritten step by step with the gate values
    gates, kept = _input_gates(xd, packed[1])
    del packed  # a pack built here is freed before the time loop
    f, i, o, cand = gates.transpose(1, 0, 2, 3)
    hs = np.empty((seq + 1, batch, units))
    cs = np.empty((seq + 1, batch, units))
    if state is None:
        hs[0] = cs[0] = 0.0
    else:
        hs[0], cs[0] = state
    s4 = np.empty((batch, 4 * units))
    s4_gates = s4.reshape(batch, 4, units).transpose(1, 0, 2)
    s1 = np.empty((batch, units))
    add, mul, tanh, dot = np.add, np.multiply, np.tanh, np.ndarray.dot
    steps = zip(gates, gates[:, :3], f, i, o, cand, hs[:-1], hs[1:], cs[:-1], cs[1:])
    for g_t, sig_t, f_t, i_t, o_t, cand_t, h, h_new, c, c_new in steps:
        dot(h, w_h, s4)
        add(g_t, s4_gates, g_t)
        tanh(g_t, g_t)
        add(sig_t, _ONE, sig_t)
        mul(sig_t, _HALF, sig_t)
        mul(f_t, c, c_new)
        mul(i_t, cand_t, s1)
        add(c_new, s1, c_new)
        tanh(c_new, s1)
        mul(o_t, s1, h_new)
    out = Tensor(hs[1:].transpose(1, 0, 2).copy())  # a view when batch == 1
    # copied before a backward turns the cell states into tanh(c)
    cells = None if state is None else cs[1:].transpose(1, 0, 2).copy()

    def bw(g):
        c_prev, tc = cs[:-1], cs[1:]
        # loop-invariant factors in the gates' own slots, each overwritten in the loop by
        # its gate's gradient; the forget gate's values move to f_val, tc takes o(1-tanh^2 c)
        f_val, spare = np.empty((2, seq, batch, units))
        f_val[...] = f
        _sig_factor(f_val, c_prev, f)  # c_prev f(1-f)
        np.tanh(tc, out=tc)  # c_prev has been read; the cell states become tanh(c)
        _sig_factor(o, tc, spare)  # tanh(c) o(1-o)
        np.multiply(tc, tc, out=tc)
        np.subtract(1.0, tc, out=tc)
        np.multiply(o, tc, out=tc)  # o(1-tanh^2 c)
        o[...] = spare
        _sig_factor(i, cand, spare)  # g i(1-i)
        np.multiply(cand, cand, out=cand)
        np.subtract(1.0, cand, out=cand)
        np.multiply(cand, i, out=cand)  # i(1-g^2)
        i[...] = spare
        spare[...] = g.transpose(1, 0, 2)  # the output gradient, time-major
        del g
        w_h_t = np.ascontiguousarray(_hidden_rows(ws, feat).T)
        dh = np.zeros((batch, units))
        dc = np.zeros((batch, units))
        add, mul, dot = np.add, np.multiply, np.ndarray.dot
        steps = zip(gates[::-1], f[::-1], i[::-1], o[::-1], cand[::-1], tc[::-1],
                    spare[::-1], f_val[::-1])
        for d_t, df_t, di_t, do_t, dg_t, fo_t, g_t, f_t in steps:
            add(dh, g_t, dh)
            mul(fo_t, dh, fo_t)
            add(dc, fo_t, dc)
            mul(df_t, dc, df_t)
            mul(di_t, dc, di_t)
            mul(do_t, dh, do_t)
            mul(dg_t, dc, dg_t)
            mul(dc, f_t, dc)
            s4_gates[...] = d_t
            dot(s4, w_h_t, dh)
        # each gate's gradient, copied out time-major into a spent buffer but the last
        slabs = [tc.reshape(-1, units), f_val.reshape(-1, units), spare.reshape(-1, units),
                 np.empty((seq * batch, units))]
        h_in = hs[:-1].reshape(-1, units).T
        grads = [np.empty((1 + feat + units, units)) for _ in ws]
        for j, g in enumerate(grads):
            slabs[j].reshape(seq, batch, units)[...] = gates[:, j]
            np.matmul(h_in, slabs[j], out=g[1 + feat:])
        return _input_grads(xd, x_grad, ws, slabs, grads, gates, kept)

    out = _record("lstm_sequence", out, inputs, bw)
    return out if state is None else (out, (out.data, cells))
