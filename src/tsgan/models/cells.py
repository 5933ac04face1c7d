"""Gated recurrent cells (GRU and LSTM) as parameter dicts plus step functions.

A cell is a plain dict of named Tensors so that networks can keep one flat
parameter registry for optimizers and checkpoints. Gate equations are the
standard formulations.
"""

from __future__ import annotations

from ..errors import ShapeError
from ..numcore import Tensor, concat, matmul, sigmoid, tanh


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
    z = sigmoid(matmul(xh, cell["Wz"]) + cell["bz"])
    r = sigmoid(matmul(xh, cell["Wr"]) + cell["br"])
    xrh = concat([x, r * h], axis=1)
    hhat = tanh(matmul(xrh, cell["Wh"]) + cell["bh"])
    return (1.0 - z) * hhat + z * h


def lstm_cell_forward(cell: dict, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step: returns (new hidden state, new cell state).

    f,i,o = sigmoid(gate affines on [x,h]); g = tanh(candidate affine)
    c' = f*c + i*g
    h' = o*tanh(c')
    """
    if x.ndim != 2 or h.ndim != 2 or x.shape[0] != h.shape[0]:
        raise ShapeError(f"lstm step: batch shapes disagree, x {x.shape} vs h {h.shape}")
    xh = concat([x, h], axis=1)
    f = sigmoid(matmul(xh, cell["Wf"]) + cell["bf"])
    i = sigmoid(matmul(xh, cell["Wi"]) + cell["bi"])
    o = sigmoid(matmul(xh, cell["Wo"]) + cell["bo"])
    g = tanh(matmul(xh, cell["Wg"]) + cell["bg"])
    c_new = f * c + i * g
    h_new = o * tanh(c_new)
    return h_new, c_new
