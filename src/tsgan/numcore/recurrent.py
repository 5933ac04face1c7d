"""Fused GRU and LSTM sequence kernels: one tape node per recurrent layer.

Each kernel runs a whole (batch, seq, feat) sequence and records a single
node whose backward is hand-written backpropagation through time. The
layout follows the cuDNN RNN design (Appleyard et al., arXiv:1604.01946):

- every stored gate kernel W* is (feat + units, units); its first `feat`
  rows act on the input and the rest on the hidden state, so the kernels
  split by rows and checkpoints keep their parameter names and shapes;
- the input rows of all gates project every timestep in one matmul, which
  is then copied into a time-major, gate-contiguous (seq, k, batch, units)
  buffer, so every per-step operand is one contiguous (batch, units) block;
- the time loop multiplies only the hidden state by the stacked hidden rows,
  and works with `out=` and in-place ufuncs on those blocks;
- the gate sigmoid is 0.5*(1 + tanh(a/2)); its a/2 is folded once into
  halved sigmoid-gate columns of the projection and of the hidden rows.
  Halving is exact, so the forward matches the plain formula bit for bit;
- the hidden states live in a private (seq+1, batch, units) buffer whose
  row 0 is the zero initial state; the output is a batch-major copy.

A tape is single-use, so the backward works inside the forward's private
buffers: it turns the stored gates and states into the loop-invariant BPTT
factors, mostly in the gates' own slots (the GRU takes a fresh buffer for
z|r only, the LSTM one for its forget gate's values), and the time loop,
which reads the output gradient from one time-major copy, overwrites each
factor with its gate's pre-activation gradient. Each kernel gradient is then
written in place: its hidden rows from the time-major gate gradients, its
input rows, bias and share of dx from a batch-major copy in the spent state
buffer, all matmuls over every (batch, time) row at once.

Spent buffers hold the rest of the GRU's scratch. Its time-major copy of the
output gradient is made first and the output gradient dropped at once (the
closure pops it from the list backward() hands it, see takes_gradient, so
nothing else holds it), so the two are never both held once the z|r buffer
exists. After the loop that copy holds the candidate gate's gradient,
contiguous for its kernel gradient, and the spent z|r buffer holds every
later gate's share of dx when the input is no wider than 2*units.

The output array, x.data and the output gradient are never written (the GRU's
time-major copy is a private .copy(): at batch 1 a contiguous view would be
the output gradient itself), and the backward closure holds arrays only: a
Tensor in it would tie the tape into a reference cycle that only the cycle
collector frees.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .tensor import Tensor, _record, as_tensor, takes_gradient


def _check(op: str, x: Tensor, kernels: tuple, biases: tuple) -> tuple:
    """Validate shapes; returns (batch, seq, feat, units)."""
    if x.ndim != 3 or x.shape[1] < 1:
        raise ShapeError(f"{op}: needs a non-empty (batch, seq, feat) input, got {x.shape}")
    batch, seq, feat = x.shape
    units = kernels[0].shape[-1]
    for w, b in zip(kernels, biases):
        if w.shape != (feat + units, units) or b.shape != (units,):
            raise ShapeError(
                f"{op}: input width {feat} does not fit kernel {w.shape} and bias {b.shape}"
            )
    return batch, seq, feat, units


def _project(xd: np.ndarray, ws: tuple, biases: tuple, feat: int, halved: int) -> np.ndarray:
    """Input projection of every timestep as a (seq, k, batch, units) buffer.

    The first `halved` gates are scaled by 0.5 (the sigmoid's a/2).
    """
    wx = np.concatenate([w[:feat] for w in ws], axis=1)
    b = np.concatenate([bias.data for bias in biases])
    batch, seq = xd.shape[:2]
    k = len(ws)
    proj = xd.reshape(batch * seq, feat) @ wx
    proj += b
    view = proj.reshape(batch, seq, k, -1).transpose(1, 2, 0, 3)
    gates = np.empty(view.shape)
    np.multiply(view[:, :halved], 0.5, out=gates[:, :halved])
    gates[:, halved:] = view[:, halved:]
    return gates


def _hidden_rows(ws: tuple, feat: int) -> np.ndarray:
    """The stacked hidden rows of the gate kernels, (units, k*units)."""
    return np.concatenate([w[feat:] for w in ws], axis=1)


def _sig_factor(s: np.ndarray, other: np.ndarray, out: np.ndarray) -> None:
    """out = (1-s) s other, in that order: a sigmoid gate's derivative times `other`."""
    np.subtract(1.0, s, out=out)
    out *= s
    out *= other


def _kernel_grads(h_in: np.ndarray, dgates: list, feat: int) -> list:
    """Each gate's kernel gradient, (feat + units, units), with its hidden rows written: the
    sum over (time, batch) of h_in[t]^T @ dgate[t]. _gradients writes the input rows."""
    rows = h_in.reshape(-1, h_in.shape[-1]).T
    gws = [np.empty((feat + len(rows), len(rows))) for _ in dgates]
    for dg, gw in zip(dgates, gws):  # a strided operand would change BLAS's rounding
        np.matmul(rows, np.ascontiguousarray(dg).reshape(rows.shape[1], -1), out=gw[feat:])
    return gws


def _gradients(xd: np.ndarray, x_grad: bool, ws: tuple, dgates: list, gws: list,
               spent: np.ndarray, spare: np.ndarray | None = None) -> tuple:
    """(dx, dW0, db0, dW1, db1, ...) from each gate's (seq, batch, units) pre-activation
    gradient and its kernel gradient `gws` from _kernel_grads.

    Each gate's gradient is copied batch-major into the spent state buffer,
    so its input-row and bias gradients and its share of dx are matmuls over
    the (batch*seq) rows of x. dx is None when x needs no gradient. Every later
    gate's share of dx goes into `spare` when one is given: a buffer of at
    least batch*seq*feat values that may hold the first two gates' gradients,
    since both are copied out before the first share is written.
    """
    seq, batch, units = dgates[0].shape
    rows, feat = batch * seq, xd.shape[2]
    xf = xd.reshape(rows, feat)
    flat = spent.reshape(-1)[:rows * units].reshape(rows, units)
    dx = part = None
    if spare is not None:
        part = spare.reshape(-1)[:rows * feat].reshape(rows, feat)
    grads = []
    for w, dg, gw in zip(ws, dgates, gws):
        np.copyto(flat.reshape(batch, seq, units), dg.transpose(1, 0, 2))
        np.matmul(xf.T, flat, out=gw[:feat])
        grads += [gw, flat.sum(axis=0)]
        if x_grad and dx is None:
            dx = flat @ w[:feat].T
        elif x_grad:  # one scratch buffer takes every later gate's share
            part = np.matmul(flat, w[:feat].T, out=part)
            dx += part
    return (None if dx is None else dx.reshape(xd.shape), *grads)


def gru_sequence(x, Wz, bz, Wr, br, Wh, bh) -> Tensor:
    """GRU over a (batch, seq, feat) input; returns every hidden state, (batch, seq, units).

    z = sigmoid([x,h] Wz + bz); r = sigmoid([x,h] Wr + br)
    hhat = tanh([x, r*h] Wh + bh); h' = (1-z)*hhat + z*h
    """
    x = as_tensor(x)
    params = tuple(as_tensor(p) for p in (Wz, bz, Wr, br, Wh, bh))
    kernels, biases = params[0::2], params[1::2]
    batch, seq, feat, units = _check("gru_sequence", x, kernels, biases)
    # the backward holds arrays only: a Tensor would tie its tape into a reference cycle
    xd, x_grad, ws = x.data, x.requires_grad, tuple(w.data for w in kernels)
    w_zr = _hidden_rows(ws[:2], feat)
    w_zr *= 0.5
    w_hh = ws[2][feat:]
    # pre-activations z | r (halved) | hhat, overwritten step by step with the gate values
    gates = _project(xd, ws, biases, feat, halved=2)
    hs = np.empty((seq + 1, batch, units))
    hs[0] = 0.0
    s2 = np.empty((batch, 2 * units))
    s2_gates = s2.reshape(batch, 2, units).transpose(1, 0, 2)
    s1 = np.empty((batch, units))
    rh = np.empty((batch, units))
    for t in range(seq):
        g = gates[t]
        zr, hhat = g[:2], g[2]
        h, h_new = hs[t], hs[t + 1]
        np.dot(h, w_zr, out=s2)
        zr += s2_gates
        np.tanh(zr, out=zr)
        zr += 1.0
        zr *= 0.5
        np.multiply(g[1], h, out=rh)
        np.dot(rh, w_hh, out=s1)
        hhat += s1
        np.tanh(hhat, out=hhat)
        np.subtract(h, hhat, out=h_new)
        h_new *= g[0]
        h_new += hhat
    out = Tensor(hs[1:].transpose(1, 0, 2).copy())  # a view when batch == 1

    @takes_gradient
    def bw(box):
        # a private copy: at batch 1 ascontiguousarray would hand back the output gradient
        # itself, which a sibling's gradient may share, and this copy is written after the
        # loop. Popped, the output gradient is freed here unless a sibling shares it.
        g_seq = box.pop().transpose(1, 0, 2).copy()
        z, r, hhat = gates.transpose(1, 0, 2, 3)
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
        hhat *= dr  # (1-hhat^2)(1-z)
        _sig_factor(r, h_prev, dr)  # h_prev r(1-r)
        w_hh_t = np.ascontiguousarray(w_hh.T)
        w_zr_t = np.ascontiguousarray(_hidden_rows(ws[:2], feat).T)
        dh = np.zeros((batch, units))
        d_rh = np.empty((batch, units))
        for t in range(seq - 1, -1, -1):
            z_t, r_t, da_t = gates[t]
            d_t = d[:, t]
            dz_t, dr_t = d_t
            dh += g_seq[t]
            da_t *= dh
            np.dot(da_t, w_hh_t, out=d_rh)
            dz_t *= dh
            dr_t *= d_rh
            dh *= z_t
            d_rh *= r_t
            dh += d_rh
            np.copyto(s2_gates, d_t)
            np.dot(s2, w_zr_t, out=s1)
            dh += s1
        dhhat = g_seq  # the candidate's gradient, contiguous: _kernel_grads copies nothing
        np.copyto(dhhat, hhat)
        gws = _kernel_grads(h_prev, [dz, dr], feat)
        np.multiply(r, h_prev, out=h_prev)  # what the candidate's hidden rows saw: r*h
        gws += _kernel_grads(h_prev, [dhhat], feat)
        # d is spent once dz and dr are copied out; it holds dx's later shares if they fit
        return _gradients(xd, x_grad, ws, [dz, dr, dhhat], gws, hs,
                          d if feat <= 2 * units else None)

    return _record("gru_sequence", out, (x, *params), bw)


def lstm_sequence(x, Wf, bf, Wi, bi, Wo, bo, Wg, bg) -> Tensor:
    """LSTM over a (batch, seq, feat) input; returns every hidden state, (batch, seq, units).

    f, i, o = sigmoid(gate affines on [x,h]); g = tanh(candidate affine on [x,h])
    c' = f*c + i*g; h' = o*tanh(c')
    """
    x = as_tensor(x)
    params = tuple(as_tensor(p) for p in (Wf, bf, Wi, bi, Wo, bo, Wg, bg))
    kernels, biases = params[0::2], params[1::2]
    batch, seq, feat, units = _check("lstm_sequence", x, kernels, biases)
    xd, x_grad, ws = x.data, x.requires_grad, tuple(w.data for w in kernels)
    w_h = _hidden_rows(ws, feat)
    w_h[:, :3 * units] *= 0.5
    # pre-activations f | i | o (halved) | g, overwritten step by step with the gate values
    gates = _project(xd, ws, biases, feat, halved=3)
    hs = np.empty((seq + 1, batch, units))
    cs = np.empty((seq + 1, batch, units))
    hs[0] = cs[0] = 0.0
    s4 = np.empty((batch, 4 * units))
    s4_gates = s4.reshape(batch, 4, units).transpose(1, 0, 2)
    s1 = np.empty((batch, units))
    for t in range(seq):
        g = gates[t]
        sig = g[:3]
        f, i, o, cand = g
        c = cs[t + 1]
        np.dot(hs[t], w_h, out=s4)
        g += s4_gates
        np.tanh(g, out=g)
        sig += 1.0
        sig *= 0.5
        np.multiply(f, cs[t], out=c)
        np.multiply(i, cand, out=s1)
        c += s1
        np.tanh(c, out=s1)
        np.multiply(o, s1, out=hs[t + 1])
    out = Tensor(hs[1:].transpose(1, 0, 2).copy())  # a view when batch == 1

    def bw(g_out):
        f, i, o, cand = gates.transpose(1, 0, 2, 3)
        c_prev, tc = cs[:-1], cs[1:]
        # loop-invariant factors in the gates' own slots, each overwritten in the loop by
        # its gate's gradient; the forget gate's values move to f_val, tc takes o(1-tanh^2 c)
        f_val, spare = f.copy(), np.empty((seq, batch, units))
        _sig_factor(f_val, c_prev, f)  # c_prev f(1-f)
        np.tanh(tc, out=tc)  # c_prev has been read; the cell states become tanh(c)
        _sig_factor(o, tc, spare)  # tanh(c) o(1-o)
        np.multiply(tc, tc, out=tc)
        np.subtract(1.0, tc, out=tc)
        np.multiply(o, tc, out=tc)  # o(1-tanh^2 c)
        np.copyto(o, spare)
        _sig_factor(i, cand, spare)  # g i(1-i)
        np.multiply(cand, cand, out=cand)
        np.subtract(1.0, cand, out=cand)
        cand *= i  # i(1-g^2)
        np.copyto(i, spare)
        np.copyto(spare, g_out.transpose(1, 0, 2))  # the output gradient, time-major
        w_h_t = np.ascontiguousarray(_hidden_rows(ws, feat).T)
        dh = np.zeros((batch, units))
        dc = np.zeros((batch, units))
        for t in range(seq - 1, -1, -1):
            d_t = gates[t]
            df_t, di_t, do_t, dg_t = d_t
            fo_t = tc[t]
            dh += spare[t]
            fo_t *= dh
            dc += fo_t
            df_t *= dc
            di_t *= dc
            do_t *= dh
            dg_t *= dc
            dc *= f_val[t]
            np.copyto(s4_gates, d_t)
            np.dot(s4, w_h_t, out=dh)
        del f_val, spare
        dgates = [f, i, o, cand]
        return _gradients(xd, x_grad, ws, dgates, _kernel_grads(hs[:-1], dgates, feat), hs)

    return _record("lstm_sequence", out, (x, *params), bw)
