"""Supervised training for the recurrent forecasters (MSE on scaled closes)."""

from __future__ import annotations

from ..errors import ConfigError, DataError
from ..models.network import Network
from ..numcore import OptimizerState, RngStream, Tensor
from .config import TrainConfig
from .gan import minibatches
from .losses import mse
from .step import train_step
from .trace import LossTrace


def train_forecaster(net: Network, windows, cfg: TrainConfig,
                     rng: RngStream | None = None, hook=None) -> LossTrace:
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
    if rng is None:
        rng = RngStream(cfg.seed, ("forecaster",))
    opt = OptimizerState(cfg.optimizer, cfg.lr_g)
    trace = LossTrace()
    for epoch in range(cfg.epochs):
        perm = rng.child("shuffle", epoch).permutation(windows.count)
        loss_sum, nb = 0.0, 0
        for bi, idx in enumerate(minibatches(windows.count, cfg.batch_size, perm)):
            x = Tensor(windows.inputs[idx])
            y = Tensor(windows.targets[idx])

            def loss_fn():
                pred = net.forward(x, mode="train", rng=rng.child("drop", epoch, bi))
                return mse(pred, y)

            loss_sum += train_step(opt, net.params, loss_fn, "forecaster step", epoch, bi)
            nb += 1
        if hook is not None:
            hook({"event": "epoch", "epoch": epoch, "loss": loss_sum / nb})
        trace.add(epoch, loss_sum / nb, 0.0, 0.0, "supervised")
    return trace
