"""The one parameter update and the one epoch loop every trainer uses."""

from __future__ import annotations

import numpy as np

from ..errors import NumericAbort
from ..numcore import OptimizerState, RngStream, Tape, backward, leaf_grads, optimizer_step


def train_step(opt: OptimizerState, params: dict, loss_fn, stage: str,
               epoch: int, batch: int, tape: Tape | None = None) -> float:
    """Record loss_fn() on a tape, step `params` along its gradient.

    The tape is a fresh one unless the caller passes a tape it opened and
    already recorded part of the loss on (a shared trunk); either way the
    backward pass consumes it. A NumericAbort from the backward pass or the
    update is re-raised with the stage, epoch and batch that produced it.
    Returns the loss value.
    """
    tape = Tape() if tape is None else tape
    with tape:
        loss = loss_fn()
    try:
        optimizer_step(opt, params, leaf_grads(tape, params, backward(tape, loss)))
    except NumericAbort as e:
        raise NumericAbort(f"{stage} failed at epoch {epoch}, batch {batch}: {e}") from None
    return loss.item()


def minibatches(count: int, batch_size: int, perm: np.ndarray) -> list[np.ndarray]:
    """Consecutive chunks of a shuffled index permutation (last may be short)."""
    return [perm[i : i + batch_size] for i in range(0, count, batch_size)]


def epoch_batches(rng: RngStream, epoch: int, count: int, batch_size: int) -> list[np.ndarray]:
    """The minibatches of `epoch`: its ("shuffle", epoch) permutation, chunked."""
    return minibatches(count, batch_size, rng.child("shuffle", epoch).permutation(count))


def run_epochs(rng: RngStream, epochs, count: int, batch_size: int, batch_fn):
    """Yield (epoch, g_loss, d_loss, value), each the epoch's mean batch reading.

    batch_fn(epoch, bi, idx) runs one minibatch and returns its three readings,
    None for one it did not take; a column with none has mean 0.0. Readings are
    added with `+=` in batch order (Python 3.12's sum() of floats is compensated).
    """
    for epoch in epochs:
        sums, counts = [0.0, 0.0, 0.0], [0, 0, 0]
        for bi, idx in enumerate(epoch_batches(rng, epoch, count, batch_size)):
            for col, reading in enumerate(batch_fn(epoch, bi, idx)):
                if reading is not None:
                    sums[col] += reading
                    counts[col] += 1
        yield (epoch, *(s / n if n else 0.0 for s, n in zip(sums, counts)))
