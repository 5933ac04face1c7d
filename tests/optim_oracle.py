"""Reference per-parameter optimizer update and weight clip.

tsgan.numcore.optim updates one flat vector per network in blocks. The
bodies here keep the update it replaced: one pass per named array, every new
value and moment staged until the whole update has been checked. The tests
hold the flat update to them bit for bit.
"""

import numpy as np

from tsgan.errors import ConfigError, GraphError, NumericAbort
from tsgan.numcore import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, RMSPROP_DECAY, RMSPROP_EPS, Tensor


class OracleState:
    """Per-parameter moment buffers plus a shared step counter."""

    def __init__(self, algo: str, lr: float, direction: str = "descend"):
        self.algo = algo
        self.lr = float(lr)
        self.direction = direction
        self.step_count = 0
        self.slots: dict[str, dict[str, np.ndarray]] = {}


def oracle_step(state: OracleState, params: dict, grads: dict) -> None:
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


def oracle_clip(params: dict, c: float) -> None:
    if not (c > 0.0):
        raise ConfigError(f"clip bound must be positive, got {c}")
    for p in params.values():
        p.data = np.clip(p.data, -c, c)
