"""The GAN and TimeGAN loops share one recorded generator trunk per minibatch.

They are held to tests/gan_oracle.py, which runs every generator forward in
full: trace rows, hook events, every recorded tape node and every parameter
byte must match. The GRU forward counts show the trunk really runs once.
"""

from collections import Counter

import gan_oracle
import numpy as np
import pytest

from test_training import small_windows, tiny_disc, tiny_gen
from tsgan.models import build_generator, build_timegan, network, trunk_end
from tsgan.numcore import RngStream, Tensor
from tsgan.training import TrainConfig, step, train_gan, train_timegan


def three_gru_gen():
    """A desk-width paper generator: GRU x3, dense, dropout, dense, dense.

    At 1/16 width its dropout masks change the output (at 1/64 the one-unit
    relu after the dropout is dead), so a swapped mask shows in the oracle test.
    """
    return build_generator(2, 6, 3, RngStream(1, ("gen",)), feature_dim=18, width_mult=1 / 16)


def test_three_gru_gen_output_depends_on_its_dropout_mask():
    ds, _ = small_windows()
    x = Tensor(np.concatenate([ds.inputs, np.zeros((ds.count, 6, 2))], axis=2))
    gen = three_gru_gen()
    a, b = (gen.forward(x, rng=RngStream(0, (k,))).data for k in "ab")
    assert not np.array_equal(a, b)


def _params(nets) -> dict:
    return {(net.name, k): p.data.tobytes() for net in nets for k, p in net.params.items()}


def _run(monkeypatch, train, nets, *args):
    """Trace rows, hook events, tape node rows per update and parameter bytes."""
    tapes = []
    backward = step.backward

    def spy(record, loss):
        tapes.append([(op, out, ins, shape) for op, out, ins, _, shape in record.nodes])
        return backward(record, loss)

    monkeypatch.setattr(step, "backward", spy)
    events = []
    trace = train(*args, hook=events.append)
    monkeypatch.setattr(step, "backward", backward)
    return trace.records, events, tapes, _params(nets)


@pytest.mark.parametrize("make_gen, loss_mode, cut", [
    (three_gru_gen, "nonsaturating", 5),
    (three_gru_gen, "minimax", 5),
    (three_gru_gen, "zero_sum", 5),
    (lambda: tiny_gen(18, 2, 3), "nonsaturating", 3),  # no dropout: the trunk is the whole net
], ids=["nonsaturating", "minimax", "zero_sum", "no-dropout"])
def test_train_gan_matches_the_two_forward_oracle(monkeypatch, make_gen, loss_mode, cut):
    ds, _ = small_windows()
    cfg = TrainConfig(epochs=2, batch_size=16, lr_g=1e-2, lr_d=1e-2, seed=4,
                      loss_mode=loss_mode)
    gen, disc = make_gen(), tiny_disc()
    assert trunk_end(gen.spec) == cut
    gen_o, disc_o = gen.clone(), disc.clone()
    got = _run(monkeypatch, train_gan, (gen, disc), gen, disc, ds, cfg)
    want = _run(monkeypatch, gan_oracle.train_gan, (gen_o, disc_o), gen_o, disc_o, ds, cfg)
    assert len(got[2]) == 2 * 2 * 4  # two updates per batch, 4 batches per epoch
    assert got == want
    assert _params([gen]) != _params([make_gen()])


def test_train_timegan_matches_the_two_forward_oracle(monkeypatch):
    ds, _ = small_windows()
    cfg = TrainConfig(epochs=5, batch_size=32, lr_g=1e-2, lr_d=1e-2, seed=5)
    nets = build_timegan(feature_dim=18, hidden_dim=3, rng=RngStream(5, ("tg",)))
    nets_o = {k: v.clone() for k, v in nets.items()}
    got = _run(monkeypatch, train_timegan, nets.values(), nets, ds, cfg)
    want = _run(monkeypatch, gan_oracle.train_timegan, nets_o.values(), nets_o, ds, cfg)
    assert [r["phase"] for r in got[0]] == ["recon"] * 2 + ["supervised"] * 2 + ["joint"]
    assert got == want


def _count_gru_forwards(monkeypatch, nets):
    """Count each network's forwards through the fused GRU kernel.

    network._SEQUENCE_KERNELS holds the kernel captured at import, so the
    dict entry is what must be wrapped. A stack of k GRU layers makes k
    kernel calls per forward. Returns a function giving name -> forwards.
    """
    owner, depth = {}, Counter()
    for net in nets:
        for i, layer in enumerate(net.spec.layers):
            if layer["kind"] == "gru":
                owner[id(net.params[f"L{i}.Wz"])] = net.name
                depth[net.name] += 1
    calls = Counter()
    kernel = network._SEQUENCE_KERNELS["gru"]

    def counting(x, wz, *rest):
        calls[owner[id(wz)]] += 1
        return kernel(x, wz, *rest)

    monkeypatch.setitem(network._SEQUENCE_KERNELS, "gru", counting)

    def forwards():
        assert all(calls[name] % depth[name] == 0 for name in calls)
        return {name: calls[name] // depth[name] for name in calls}

    return forwards


@pytest.mark.parametrize("train, expected", [(train_gan, 1), (gan_oracle.train_gan, 2)],
                         ids=["shared", "oracle"])
def test_gan_minibatch_runs_the_gru_tower_once(monkeypatch, train, expected):
    ds, _ = small_windows()
    gen, disc = three_gru_gen(), tiny_disc()
    forwards = _count_gru_forwards(monkeypatch, [gen, disc])
    # one batch covers every window; the 3-GRU tower makes 3 kernel calls a forward
    train(gen, disc, ds, TrainConfig(epochs=1, batch_size=ds.count, seed=2))
    assert forwards()["generator"] == expected


@pytest.mark.parametrize("train, expected", [
    (train_timegan, {"embedder": 1, "generator": 1, "supervisor": 1}),
    (gan_oracle.train_timegan, {"embedder": 2, "generator": 2, "supervisor": 2}),
], ids=["shared", "oracle"])
def test_timegan_joint_batch_embeds_and_generates_once(monkeypatch, train, expected):
    ds, _ = small_windows()
    nets = build_timegan(feature_dim=18, hidden_dim=3, rng=RngStream(5, ("tg",)))
    forwards = _count_gru_forwards(monkeypatch, nets.values())
    # one epoch is all joint phase; one batch covers every window
    train(nets, ds, TrainConfig(epochs=1, batch_size=ds.count, seed=5))
    got = forwards()
    assert {k: got[k] for k in expected} == expected
    # the discriminator step's real|fake forward is one stacked call in both
    assert got["discriminator"] == 2 and got["recovery"] == 1
