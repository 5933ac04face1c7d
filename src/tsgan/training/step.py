"""The one parameter update every training loop takes."""

from __future__ import annotations

from ..errors import NumericAbort
from ..numcore import OptimizerState, Tape, backward, leaf_grads, optimizer_step


def train_step(opt: OptimizerState, params: dict, loss_fn, stage: str,
               epoch: int, batch: int) -> float:
    """Record loss_fn() on a fresh tape, step `params` along its gradient.

    A NumericAbort from the backward pass or the update is re-raised with
    the stage, epoch and batch that produced it. Returns the loss value.
    """
    with Tape() as tape:
        loss = loss_fn()
    try:
        optimizer_step(opt, params, leaf_grads(tape, params, backward(tape, loss)))
    except NumericAbort as e:
        raise NumericAbort(f"{stage} failed at epoch {epoch}, batch {batch}: {e}") from None
    return loss.item()
