"""Numeric core: tensors, the op tape, fused recurrent kernels, optimizers,
and seeded RNG streams."""

from .optim import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    RMSPROP_DECAY,
    RMSPROP_EPS,
    OptimizerState,
    clip_weights,
    optimizer_step,
)
from .recurrent import gru_pack, gru_sequence, lstm_pack, lstm_sequence
from .rng import RngStream
from .tensor import (
    Tape,
    Tensor,
    active_tape,
    as_tensor,
    backward,
    concat,
    conv1d,
    dense,
    dropout,
    leaf_grads,
    reshape,
    slice_tensor,
)
