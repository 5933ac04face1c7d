"""First-order optimizers over named parameter dicts.

Every update writes a brand-new array into the parameter Tensor (rebinding
.data) instead of mutating the old one. Backward closures capture the array
objects that were live at op time, so in-place writes would corrupt any
record still waiting for its backward pass.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, GraphError, NumericAbort
from .tensor import Tensor

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
RMSPROP_DECAY = 0.9
RMSPROP_EPS = 1e-8

OPTIMIZERS = ("sgd", "adam", "rmsprop")
_DIRECTIONS = ("descend", "ascend")


class OptimizerState:
    """Per-parameter moment buffers plus a shared step counter."""

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
        self.slots: dict[str, dict[str, np.ndarray]] = {}


def optimizer_step(state: OptimizerState, params: dict[str, Tensor], grads: dict) -> None:
    """Apply one update to every parameter. Ascent on L is exactly descent on -L.

    Every gradient is checked and every new value and moment computed before
    any is written, so an update that aborts leaves the parameters, the
    moments and the step count as they were.
    """
    missing = sorted(set(params) - set(grads))
    if missing:
        raise GraphError(f"gradients missing for parameters: {missing}")
    t = state.step_count + 1
    sign = 1.0 if state.direction == "descend" else -1.0
    staged = []
    for name, p in params.items():
        g = grads[name]
        g = g.data if isinstance(g, Tensor) else np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise GraphError(
                f"gradient shape {g.shape} does not match parameter {name!r} shape {p.data.shape}"
            )
        if not np.all(np.isfinite(g)):
            raise NumericAbort(f"non-finite gradient for parameter {name!r}")
        g = sign * g
        if state.algo == "sgd":
            moments = {}
            new = p.data - state.lr * g
        elif state.algo == "adam":
            s = state.slots.get(name) or {"m": np.zeros(g.shape), "v": np.zeros(g.shape)}
            moments = {"m": ADAM_BETA1 * s["m"] + (1.0 - ADAM_BETA1) * g,
                       "v": ADAM_BETA2 * s["v"] + (1.0 - ADAM_BETA2) * (g * g)}
            m_hat = moments["m"] / (1.0 - ADAM_BETA1 ** t)
            v_hat = moments["v"] / (1.0 - ADAM_BETA2 ** t)
            new = p.data - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        else:
            s = state.slots.get(name) or {"sq": np.zeros(g.shape)}
            moments = {"sq": RMSPROP_DECAY * s["sq"] + (1.0 - RMSPROP_DECAY) * (g * g)}
            new = p.data - state.lr * g / (np.sqrt(moments["sq"]) + RMSPROP_EPS)
        if not np.all(np.isfinite(new)):
            raise NumericAbort(f"non-finite value for parameter {name!r} after update")
        staged.append((name, p, new, moments))
    state.step_count = t
    for name, p, new, moments in staged:
        p.data = new
        state.slots[name] = moments


def clip_weights(params: dict[str, Tensor], c: float) -> None:
    """Clip every parameter into [-c, c], writing fresh arrays."""
    if not (c > 0.0):
        raise ConfigError(f"clip bound must be positive, got {c}")
    for p in params.values():
        p.data = np.clip(p.data, -c, c)
