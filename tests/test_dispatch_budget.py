"""Python-level calls per training update, pinned.

At desk scale an update's time is Python dispatch, not arithmetic, so the number of
Python frames one update enters is a cost of its own. sys.setprofile sees a `call`
event for every Python function entered, and for every resumption of a generator, so
these tests count them while a fixed desk loop trains and divide by its updates.

The ceilings are the counts on CPython 3.11 plus a few percent. CPython 3.12 inlines
comprehensions (PEP 709), so it counts fewer calls there and passes with more room.
"""

import sys

import numpy as np

from tsgan import data, models, training
from tsgan.numcore import RngStream

# Calls per update on CPython 3.11.7 with numpy 2.4.6, set-up included: 165.5 for the
# WGAN loop and 78.1 for the forecaster (439.3 and 342.8 before the update path dropped
# numpy's dispatch wrappers, generator expressions and Tensor property reads)
WGAN_CEILING = 170
FORECASTER_CEILING = 80


def _calls(fn) -> int:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def _windows(kind: str, rows: int, sma: int, seq_len: int, horizon: int):
    fm = data.build_features(data.make_synthetic_series(kind, rows, seed=7), sma_window=sma)
    return data.make_windows(data.apply_scaler(fm, data.fit_scaler(fm)), seq_len, horizon)


def test_a_wgan_update_stays_under_its_call_budget():
    """The wgan-critic benchmark's shapes: GRU generator and critic of 6 units, seq_len 6,
    horizon 3, batch 20, n_critic 2."""
    windows = _windows("sine", 90, 3, 6, 3)
    width = windows.inputs.shape[2]
    gen = models.build_network(models.NetSpec("generator", width + 4, [
        {"kind": "gru", "units": 6}, {"kind": "last_step"},
        {"kind": "dense", "units": 3, "activation": "sigmoid"}]), RngStream(1, ()))
    critic = models.build_network(models.NetSpec("critic", 1, [
        {"kind": "gru", "units": 6}, {"kind": "last_step"},
        {"kind": "dense", "units": 1, "activation": "linear"}]), RngStream(2, ()))
    cfg = training.TrainConfig(epochs=4, batch_size=20, n_critic=2, clip_c=0.2, lr_g=5e-3,
                               lr_d=5e-3, seed=3)
    groups = -(-windows.count // cfg.batch_size) // cfg.n_critic
    updates = cfg.epochs * groups * (cfg.n_critic + 1)
    calls = _calls(lambda: training.train_wgan(gen, critic, windows, cfg))
    assert calls / updates <= WGAN_CEILING, calls / updates


def test_a_forecaster_update_stays_under_its_call_budget():
    """A desk GRU forecaster: one layer of 2 units over 30-row windows, batch 64."""
    windows = _windows("ar1", 300, 10, 30, 10)
    net = models.build_forecaster("gru", 1, 2, 30, 10, windows.inputs.shape[2],
                                  RngStream(4, ("init",)))
    cfg = training.TrainConfig(epochs=3, batch_size=64, lr_g=3e-3, seed=5)
    updates = cfg.epochs * -(-windows.count // cfg.batch_size)
    calls = _calls(lambda: training.train_forecaster(net, windows, cfg))
    assert calls / updates <= FORECASTER_CEILING, calls / updates
