"""Fused GRU and LSTM sequence kernels: one tape node per recurrent layer.

Each kernel runs a whole (batch, seq, feat) sequence and records a single
node whose backward is hand-written backpropagation through time. The
layout follows the cuDNN RNN design (Appleyard et al., arXiv:1604.01946):

- every stored gate kernel W* is (feat + units, units); its first `feat`
  rows act on the input and the rest on the hidden state, so the kernels
  split by rows and checkpoints keep their parameter names and shapes;
- the input rows of all gates project every timestep in one matmul;
- the time loop multiplies only the hidden state by the stacked hidden rows;
- the backward collects the gate pre-activation gradients of all timesteps
  in one (batch, seq, k*units) buffer, so the input, weight and bias
  gradients each come from one matmul over (batch, time).

Forward intermediates live in preallocated (batch, seq, .) arrays. The
initial hidden (and cell) state is zero.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .tensor import Tensor, _record, _sigmoid, as_tensor


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


def _project(xd: np.ndarray, kernels: tuple, biases: tuple, feat: int) -> tuple:
    """Input projection of every timestep: (batch, seq, k*units), plus the stacked x-rows."""
    wx = np.concatenate([w.data[:feat] for w in kernels], axis=1)
    b = np.concatenate([bias.data for bias in biases])
    batch, seq = xd.shape[:2]
    gates = xd.reshape(batch * seq, feat) @ wx
    gates += b
    return gates.reshape(batch, seq, -1), wx


def _gradients(xd, dgates, wx, dw_h_parts) -> tuple:
    """(dx, dW0, db0, dW1, db1, ...) from the pre-activation gradients of all timesteps.

    dw_h_parts holds each gate's hidden-row gradient.
    """
    batch, seq, feat = xd.shape
    width = dgates.shape[-1]
    flat = dgates.reshape(batch * seq, width)
    dwx = xd.reshape(batch * seq, feat).T @ flat
    db = flat.sum(axis=0)
    dx = (flat @ wx.T).reshape(xd.shape)
    units = width // len(dw_h_parts)
    grads = [dx]
    for k, dw_h in enumerate(dw_h_parts):
        cols = slice(k * units, (k + 1) * units)
        grads += [np.concatenate([dwx[:, cols], dw_h]), db[cols].copy()]
    return tuple(grads)


def _hidden_grad(h_in: np.ndarray, dgates: np.ndarray) -> np.ndarray:
    """Sum over (batch, time) of h_in[t]^T @ dgates[t], skipping the zero initial state."""
    return np.tensordot(h_in[:, :-1], dgates[:, 1:], axes=([0, 1], [0, 1]))


def gru_sequence(x, Wz, bz, Wr, br, Wh, bh) -> Tensor:
    """GRU over a (batch, seq, feat) input; returns every hidden state, (batch, seq, units).

    z = sigmoid([x,h] Wz + bz); r = sigmoid([x,h] Wr + br)
    hhat = tanh([x, r*h] Wh + bh); h' = (1-z)*hhat + z*h
    """
    x = as_tensor(x)
    params = tuple(as_tensor(p) for p in (Wz, bz, Wr, br, Wh, bh))
    kernels, biases = params[0::2], params[1::2]
    batch, seq, feat, units = _check("gru_sequence", x, kernels, biases)
    xd = x.data
    u2 = 2 * units
    w_zr = np.concatenate([w.data[feat:] for w in kernels[:2]], axis=1)
    w_hh = kernels[2].data[feat:]
    # pre-activations, overwritten step by step with the gate values z | r | hhat
    gates, wx = _project(xd, kernels, biases, feat)
    hs = np.empty((batch, seq, units))
    rhs = np.empty((batch, seq, units))
    h = np.zeros((batch, units))
    for t in range(seq):
        g = gates[:, t]
        zr = _sigmoid(g[:, :u2] + h @ w_zr)
        rh = zr[:, units:] * h
        hhat = np.tanh(g[:, u2:] + rh @ w_hh)
        g[:, :u2] = zr
        g[:, u2:] = hhat
        rhs[:, t] = rh
        h = hhat + zr[:, :units] * (h - hhat)
        hs[:, t] = h
    out = Tensor(hs)

    def bw(g_out):
        dgates = np.empty_like(gates)
        zero = np.zeros((batch, units))
        dh = zero
        for t in range(seq - 1, -1, -1):
            g = gates[:, t]
            z, r, hhat = g[:, :units], g[:, units:u2], g[:, u2:]
            h_prev = hs[:, t - 1] if t else zero
            dh = dh + g_out[:, t]
            da_h = dh * (1.0 - z) * (1.0 - hhat * hhat)
            d_rh = da_h @ w_hh.T
            dg = dgates[:, t]
            dg[:, :units] = dh * (h_prev - hhat) * z * (1.0 - z)
            dg[:, units:u2] = d_rh * h_prev * r * (1.0 - r)
            dg[:, u2:] = da_h
            dh = dh * z + d_rh * r + dg[:, :u2] @ w_zr.T
        dw_zr = _hidden_grad(hs, dgates[:, :, :u2])
        dw_hh = np.tensordot(rhs, dgates[:, :, u2:], axes=([0, 1], [0, 1]))
        dw_h_parts = (dw_zr[:, :units], dw_zr[:, units:], dw_hh)
        return _gradients(xd, dgates, wx, dw_h_parts)

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
    xd = x.data
    u2, u3 = 2 * units, 3 * units
    w_h = np.concatenate([w.data[feat:] for w in kernels], axis=1)
    # pre-activations, overwritten step by step with the gate values f | i | o | g
    gates, wx = _project(xd, kernels, biases, feat)
    hs = np.empty((batch, seq, units))
    cs = np.empty((batch, seq, units))
    tcs = np.empty((batch, seq, units))
    h = np.zeros((batch, units))
    c = h
    for t in range(seq):
        g = gates[:, t]
        a = g + h @ w_h
        g[:, :u3] = _sigmoid(a[:, :u3])
        g[:, u3:] = np.tanh(a[:, u3:])
        c = g[:, :units] * c + g[:, units:u2] * g[:, u3:]
        tc = np.tanh(c)
        h = g[:, u2:u3] * tc
        cs[:, t] = c
        tcs[:, t] = tc
        hs[:, t] = h
    out = Tensor(hs)

    def bw(g_out):
        dgates = np.empty_like(gates)
        zero = np.zeros((batch, units))
        dh = dc = zero
        for t in range(seq - 1, -1, -1):
            g = gates[:, t]
            f, i, o, cand = g[:, :units], g[:, units:u2], g[:, u2:u3], g[:, u3:]
            tc = tcs[:, t]
            c_prev = cs[:, t - 1] if t else zero
            dh = dh + g_out[:, t]
            dc = dc + dh * o * (1.0 - tc * tc)
            dg = dgates[:, t]
            dg[:, :units] = dc * c_prev * f * (1.0 - f)
            dg[:, units:u2] = dc * cand * i * (1.0 - i)
            dg[:, u2:u3] = dh * tc * o * (1.0 - o)
            dg[:, u3:] = dc * i * (1.0 - cand * cand)
            dc = dc * f
            dh = dg @ w_h.T
        dw_h = _hidden_grad(hs, dgates)
        dw_h_parts = tuple(dw_h[:, k * units:(k + 1) * units] for k in range(4))
        return _gradients(xd, dgates, wx, dw_h_parts)

    return _record("lstm_sequence", out, (x, *params), bw)
