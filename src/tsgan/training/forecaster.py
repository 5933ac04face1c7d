"""Supervised training for the recurrent forecasters (MSE on scaled closes)."""

from __future__ import annotations

from ..errors import ConfigError, DataError
from ..models.network import Network
from ..numcore import OptimizerState, RngStream, Tensor
from .config import TrainConfig
from .losses import mse
from .step import run_epochs, train_step
from .trace import LossTrace


def train_forecaster(net: Network, windows, cfg: TrainConfig, hook=None) -> LossTrace:
    """Minimize MSE of the direct multi-step head against scaled targets."""
    if windows.count == 0:
        raise DataError("empty training set")
    head = net.spec.layers[-1]["units"]
    if head != windows.horizon:
        raise ConfigError(
            f"forecaster head width {head} does not match window horizon {windows.horizon}"
        )
    if net.spec.input_dim != windows.inputs.shape[2]:
        raise ConfigError(
            f"forecaster input width {net.spec.input_dim} does not match "
            f"{windows.inputs.shape[2]} features"
        )
    rng = RngStream(cfg.seed, ("forecaster",))
    opt = OptimizerState(cfg.optimizer, cfg.lr_g)

    def batch_fn(epoch, bi, idx):
        x = Tensor(windows.inputs[idx])
        y = Tensor(windows.targets[idx])

        def loss_fn():
            pred = net.forward(x, rng=rng.child("drop", epoch, bi))
            return mse(pred, y)

        return train_step(opt, net.params, loss_fn, "forecaster step", epoch, bi), None, None

    trace = LossTrace()
    for epoch, loss, _, _ in run_epochs(rng, range(cfg.epochs), windows.count,
                                        cfg.batch_size, batch_fn):
        if hook is not None:
            hook({"event": "epoch", "epoch": epoch, "loss": loss})
        trace.add(epoch, loss, 0.0, 0.0, "supervised")
    return trace
