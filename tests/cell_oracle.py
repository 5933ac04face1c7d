"""Reference GRU/LSTM cells composed from tape primitives, one timestep at a time.

The fused kernels in tsgan.numcore.recurrent replaced this per-step path in
the networks; the tests keep it as the oracle those kernels are checked
against. A cell is a dict of named Tensors keyed like a layer's parameters
without the layer prefix (Wz, bz, ... or Wf, bf, ...).
"""

import numpy as np

from tsgan.errors import ShapeError
from tape_oracle import add, matmul, mul, sigmoid, sub, tanh
from tsgan.numcore import Tensor, concat, reshape, slice_tensor


def gru_cell_forward(cell: dict, x: Tensor, h: Tensor) -> Tensor:
    """One GRU step: returns the new hidden state.

    z = sigmoid([x,h] Wz + bz)
    r = sigmoid([x,h] Wr + br)
    hhat = tanh([x, r*h] Wh + bh)
    h' = (1-z)*hhat + z*h
    """
    if x.ndim != 2 or h.ndim != 2 or x.shape[0] != h.shape[0]:
        raise ShapeError(f"gru step: batch shapes disagree, x {x.shape} vs h {h.shape}")
    xh = concat([x, h], axis=1)
    z = sigmoid(add(matmul(xh, cell["Wz"]), cell["bz"]))
    r = sigmoid(add(matmul(xh, cell["Wr"]), cell["br"]))
    xrh = concat([x, mul(r, h)], axis=1)
    hhat = tanh(add(matmul(xrh, cell["Wh"]), cell["bh"]))
    return add(mul(sub(1.0, z), hhat), mul(z, h))


def lstm_cell_forward(cell: dict, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step: returns (new hidden state, new cell state).

    f,i,o = sigmoid(gate affines on [x,h]); g = tanh(candidate affine)
    c' = f*c + i*g
    h' = o*tanh(c')
    """
    if x.ndim != 2 or h.ndim != 2 or x.shape[0] != h.shape[0]:
        raise ShapeError(f"lstm step: batch shapes disagree, x {x.shape} vs h {h.shape}")
    xh = concat([x, h], axis=1)
    f = sigmoid(add(matmul(xh, cell["Wf"]), cell["bf"]))
    i = sigmoid(add(matmul(xh, cell["Wi"]), cell["bi"]))
    o = sigmoid(add(matmul(xh, cell["Wo"]), cell["bo"]))
    g = tanh(add(matmul(xh, cell["Wg"]), cell["bg"]))
    c_new = add(mul(f, c), mul(i, g))
    h_new = mul(o, tanh(c_new))
    return h_new, c_new


def unroll(kind: str, cell: dict, x: Tensor) -> Tensor:
    """Run a cell over (batch, seq, feat) from a zero state; returns (batch, seq, units)."""
    batch, seq = x.shape[0], x.shape[1]
    units = cell["bz" if kind == "gru" else "bf"].shape[0]
    h = Tensor(np.zeros((batch, units)))
    c = Tensor(np.zeros((batch, units)))
    steps = []
    for t in range(seq):
        xt = slice_tensor(x, (slice(None), t, slice(None)))
        if kind == "gru":
            h = gru_cell_forward(cell, xt, h)
        else:
            h, c = lstm_cell_forward(cell, xt, h, c)
        steps.append(reshape(h, (batch, 1, units)))
    return concat(steps, axis=1)
