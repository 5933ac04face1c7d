"""Training loops: batching, schedules, hooks, traces, and forecasting paths."""

import numpy as np
import pytest

from tsgan.data import (apply_scaler, build_features, fit_scaler,
                        make_synthetic_series, make_windows)
from tsgan.errors import ConfigError, DataError, NumericAbort
from tsgan.models import NetSpec, build_forecaster, build_network, build_timegan
from tsgan.numcore import RngStream, Tensor
from tsgan.training import (LossTrace, PersistencePredictor, TrainConfig,
                            as_predictor, critic_estimate, disc_sequence,
                            forecast, gen_latent_dim, gen_output_dim,
                            generate_synthetic, minibatches, phase_budgets,
                            train_forecaster, train_gan, train_timegan,
                            train_wgan)


def small_windows(rows=60, seq_len=6, horizon=3, seed=0):
    series = make_synthetic_series("sine", rows, seed=seed)
    fm = build_features(series, sma_window=3)
    scaler = fit_scaler(fm)
    return make_windows(apply_scaler(fm, scaler), seq_len, horizon), scaler


def tiny_gen(n_features, latent, horizon, units=4, seed=1):
    spec = NetSpec("gen", n_features + latent, [
        {"kind": "gru", "units": units},
        {"kind": "last_step"},
        {"kind": "dense", "units": horizon, "activation": "sigmoid"},
    ])
    return build_network(spec, RngStream(seed, ("tinygen",)))


def tiny_disc(head="sigmoid", units=4, seed=2):
    spec = NetSpec("disc", 1, [
        {"kind": "gru", "units": units},
        {"kind": "last_step"},
        {"kind": "dense", "units": 1, "activation": head},
    ])
    return build_network(spec, RngStream(seed, ("tinydisc",)))


def test_minibatches_chunk_a_permutation():
    perm = np.array([3, 1, 4, 0, 2, 7, 5, 6, 9, 8])
    chunks = minibatches(10, 4, perm)
    assert [c.tolist() for c in chunks] == [[3, 1, 4, 0], [2, 7, 5, 6], [9, 8]]
    assert sorted(np.concatenate(chunks).tolist()) == list(range(10))


def test_disc_sequence_concatenates_history_and_path():
    hist = np.arange(6.0).reshape(2, 3)
    path = np.array([[10.0, 11.0], [12.0, 13.0]])
    seq = disc_sequence(hist, path)
    assert seq.data.shape == (2, 5, 1)
    np.testing.assert_array_equal(seq.data[0, :, 0], [0, 1, 2, 10, 11])
    seq_t = disc_sequence(hist, Tensor(path))
    np.testing.assert_array_equal(seq_t.data, seq.data)


def test_generator_dimension_helpers():
    gen = tiny_gen(18, 2, 3)
    assert gen_latent_dim(gen, 18) == 2
    assert gen_output_dim(gen) == 3
    with pytest.raises(ConfigError):
        gen_latent_dim(gen, 20)


def test_train_gan_trace_identity_and_determinism():
    ds, _ = small_windows()
    cfg = TrainConfig(epochs=2, batch_size=16, lr_g=1e-3, lr_d=1e-3, seed=3)

    gen_a, disc_a = tiny_gen(18, 2, 3), tiny_disc()
    gen_b, disc_b = gen_a.clone(), disc_a.clone()
    before = gen_a.params["L0.Wz"].data.copy()

    trace_a = train_gan(gen_a, disc_a, ds, cfg)
    trace_b = train_gan(gen_b, disc_b, ds, cfg)

    assert len(trace_a) == 2
    assert all(r["phase"] == "gan" for r in trace_a.records)
    for r in trace_a.records:
        assert r["d_loss"] == pytest.approx(-0.5 * r["value"], rel=1e-12)
    assert trace_a.to_csv() == trace_b.to_csv()
    for name in gen_a.params:
        np.testing.assert_array_equal(gen_a.params[name].data, gen_b.params[name].data)
    assert not np.array_equal(gen_a.params["L0.Wz"].data, before)


def test_train_gan_hook_event_order():
    ds, _ = small_windows()
    events = []
    train_gan(tiny_gen(18, 2, 3), tiny_disc(), ds,
              TrainConfig(epochs=1, batch_size=25, lr_g=1e-3, lr_d=1e-3),
              hook=events.append)
    kinds = [e["event"] for e in events]
    assert kinds == ["disc_step", "gen_step"] * 2  # 50 windows / 25 per batch


def test_train_gan_validates_shapes():
    ds, _ = small_windows()
    with pytest.raises(ConfigError, match="head width"):
        train_gan(tiny_gen(18, 2, 5), tiny_disc(), ds, TrainConfig(epochs=1))
    wide_disc = build_network(
        NetSpec("disc", 2, [{"kind": "gru", "units": 3}, {"kind": "last_step"},
                            {"kind": "dense", "units": 1, "activation": "sigmoid"}]),
        RngStream(0, ("d",)))
    with pytest.raises(ConfigError, match="single-channel"):
        train_gan(tiny_gen(18, 2, 3), wide_disc, ds, TrainConfig(epochs=1))
    empty = ds.take(np.zeros(0, dtype=np.int64), split="train")
    with pytest.raises(DataError):
        train_gan(tiny_gen(18, 2, 3), tiny_disc(), empty, TrainConfig(epochs=1))


def test_critic_estimate_value():
    est = critic_estimate(Tensor(np.array([1.0, 3.0])), Tensor(np.array([0.5, 1.5])))
    assert est.item() == pytest.approx(1.0)


def test_train_wgan_schedule_and_clipping():
    ds, _ = small_windows()
    cfg = TrainConfig(epochs=2, batch_size=16, lr_g=1e-3, lr_d=1e-3,
                      n_critic=2, clip_c=0.05, seed=4)
    events = []
    trace = train_wgan(tiny_gen(18, 2, 3), tiny_disc(head="linear"), ds, cfg,
                       hook=events.append)

    assert len(trace) == 2
    assert all(r["phase"] == "wgan" for r in trace.records)

    # 50 windows / 16 -> 4 batches -> 2 groups of n_critic=2 per epoch
    per_epoch = ["critic_step", "clip"] * 2 + ["generator_step"]
    assert [e["event"] for e in events] == (per_epoch * 2) * 2
    for e in events:
        if e["event"] == "clip":
            assert e["max_abs_w"] <= 0.05 + 1e-15


def test_train_wgan_requires_a_linear_head():
    ds, _ = small_windows()
    with pytest.raises(ConfigError, match="linear"):
        train_wgan(tiny_gen(18, 2, 3), tiny_disc(head="sigmoid"), ds,
                   TrainConfig(epochs=1))


def test_train_wgan_needs_enough_batches_per_group():
    ds, _ = small_windows()  # 50 windows, batch 128 -> 1 batch < n_critic
    with pytest.raises(ConfigError, match="n_critic"):
        train_wgan(tiny_gen(18, 2, 3), tiny_disc(head="linear"), ds,
                   TrainConfig(epochs=1, n_critic=5, batch_size=128))


def test_phase_budgets_split_40_40_20():
    assert phase_budgets(10) == (4, 4, 2)
    assert phase_budgets(5) == (2, 2, 1)
    assert phase_budgets(1) == (0, 0, 1)
    for total in range(1, 30):
        e1, e2, e3 = phase_budgets(total)
        assert e1 + e2 + e3 == total
        assert min(e1, e2, e3) >= 0


def test_train_timegan_phases_in_order_and_recon_improves():
    ds, _ = small_windows()
    nets = build_timegan(feature_dim=18, hidden_dim=3, rng=RngStream(5, ("tg",)))
    cfg = TrainConfig(epochs=10, batch_size=32, lr_g=1e-2, lr_d=1e-2, seed=5)
    trace = train_timegan(nets, ds, cfg)

    phases = [r["phase"] for r in trace.records]
    assert phases == ["recon"] * 4 + ["supervised"] * 4 + ["joint"] * 2
    assert [r["epoch"] for r in trace.records] == list(range(10))
    recon = [r["g_loss"] for r in trace.records if r["phase"] == "recon"]
    assert recon[-1] < recon[0]


def test_train_timegan_validates_inputs():
    ds, _ = small_windows()
    nets = build_timegan(feature_dim=18, hidden_dim=3, rng=RngStream(6, ("tg",)))
    incomplete = {k: v for k, v in nets.items() if k != "supervisor"}
    with pytest.raises(ConfigError, match="supervisor"):
        train_timegan(incomplete, ds, TrainConfig(epochs=5))
    short, _ = small_windows(seq_len=1)
    with pytest.raises(ConfigError, match="seq_len"):
        train_timegan(nets, short, TrainConfig(epochs=5))


def _linear_windows(count=200, seq_len=4, seed=7):
    from tsgan.data import WindowDataset
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (count, seq_len))
    return WindowDataset(x[:, :, None], 2.0 * x[:, -1:], seq_len, 1,
                         ["Close"], 0, np.arange(count) + seq_len, [])


def test_forecaster_learns_a_linear_map():
    ds = _linear_windows()
    net = build_network(
        NetSpec("lin", 1, [{"kind": "last_step"},
                           {"kind": "dense", "units": 1, "activation": "linear"}]),
        RngStream(8, ("lin",)))
    cfg = TrainConfig(epochs=300, batch_size=32, lr_g=1e-2, optimizer="adam", seed=8)
    trace = train_forecaster(net, ds, cfg)
    assert net.params["L1.W"].data[0, 0] == pytest.approx(2.0, abs=1e-3)
    assert net.params["L1.b"].data[0] == pytest.approx(0.0, abs=1e-3)
    assert trace.records[-1]["g_loss"] < trace.records[0]["g_loss"]
    assert trace.records[-1]["g_loss"] < 1e-6


def test_forecaster_epoch_hook_and_validation():
    ds, _ = small_windows()
    net = build_forecaster("gru", layers=1, units=3, seq_len=6, horizon=3,
                           input_dim=18, rng=RngStream(9, ("f",)))
    events = []
    train_forecaster(net, ds, TrainConfig(epochs=2, batch_size=32, lr_g=1e-3),
                     hook=events.append)
    assert [e["event"] for e in events] == ["epoch", "epoch"]

    bad_head = build_forecaster("gru", layers=1, units=3, seq_len=6, horizon=5,
                                input_dim=18, rng=RngStream(9, ("f",)))
    with pytest.raises(ConfigError, match="head width"):
        train_forecaster(bad_head, ds, TrainConfig(epochs=1))
    bad_width = build_forecaster("gru", layers=1, units=3, seq_len=6, horizon=3,
                                 input_dim=4, rng=RngStream(9, ("f",)))
    with pytest.raises(ConfigError, match="input width"):
        train_forecaster(bad_width, ds, TrainConfig(epochs=1))


def test_persistence_forecast_is_flat():
    ds, scaler = small_windows()
    res = forecast(PersistencePredictor(ds.target_index, ds.horizon), ds, 3,
                   scaler=scaler)
    last = ds.inputs[:, -1, ds.target_index]
    for k in range(3):
        np.testing.assert_array_equal(res.scaled[:, k], last)
    from tsgan.data import inverse_scaler
    np.testing.assert_allclose(res.original, inverse_scaler(res.scaled, scaler, "Close"))
    assert res.model == "persistence" and res.mode == "direct"
    assert all(len(d) == 3 for d in res.dates)


def test_direct_equals_iterative_at_horizon_one():
    ds, scaler = small_windows()
    net = build_forecaster("gru", layers=1, units=3, seq_len=6, horizon=1,
                           input_dim=18, rng=RngStream(10, ("f",)))
    direct = forecast(net, ds, 1, mode="direct", scaler=scaler)
    iterative = forecast(net, ds, 1, mode="iterative", scaler=scaler)
    np.testing.assert_allclose(iterative.scaled, direct.scaled, atol=1e-12)


class _HalvingStub:
    """predict() returns half the window's last scaled close."""

    name = "halver"
    head_width = 1

    def __init__(self, close_index):
        self.close_index = close_index

    def predict(self, inputs):
        return 0.5 * inputs[:, -1:, self.close_index]


def test_iterative_forecast_follows_the_recurrence():
    ds, scaler = small_windows()
    res = forecast(_HalvingStub(ds.target_index), ds, 3, mode="iterative",
                   scaler=scaler)
    start = ds.inputs[:, -1, ds.target_index]
    expect = np.column_stack([start * 0.5, start * 0.25, start * 0.125])
    np.testing.assert_allclose(res.scaled, expect, atol=1e-10)


def test_forecast_validation():
    ds, scaler = small_windows()
    net = build_forecaster("gru", layers=1, units=3, seq_len=6, horizon=3,
                           input_dim=18, rng=RngStream(11, ("f",)))
    with pytest.raises(ConfigError):
        forecast(net, ds, 3, mode="sideways")
    with pytest.raises(ConfigError):
        forecast(net, ds, 0)
    with pytest.raises(ConfigError, match="head width"):
        forecast(net, ds, 5, mode="direct")
    with pytest.raises(ConfigError, match="scaler"):
        forecast(net, ds, 2, mode="iterative")


def test_as_predictor_dispatch():
    ds, _ = small_windows()
    fore = build_forecaster("gru", layers=1, units=3, seq_len=6, horizon=3,
                            input_dim=18, rng=RngStream(12, ("f",)))
    assert as_predictor(fore, ds).name == "gru_forecaster"
    gen = tiny_gen(18, 2, 3)
    assert type(as_predictor(gen, ds)).__name__ == "GanPredictor"
    nets = build_timegan(feature_dim=18, hidden_dim=3, rng=RngStream(13, ("tg",)))
    assert as_predictor(nets, ds).name == "timegan"
    with pytest.raises(ConfigError):
        as_predictor(42, ds)


def test_generate_synthetic_timegan_and_gan_paths():
    ds, scaler = small_windows()
    nets = build_timegan(feature_dim=18, hidden_dim=3, rng=RngStream(14, ("tg",)))
    x = generate_synthetic(nets, count=4, seq_len=5, seed=9, scaler=scaler)
    assert x.shape == (4, 5, 18)
    assert np.all(np.isfinite(x))
    again = generate_synthetic(nets, count=4, seq_len=5, seed=9, scaler=scaler)
    np.testing.assert_array_equal(x, again)

    gen = tiny_gen(18, 2, 3)
    paths = generate_synthetic(gen, count=6, seq_len=6, seed=9,
                               scaler=scaler, windows=ds)
    assert paths.shape == (6, 3, 1)

    with pytest.raises(ConfigError):
        generate_synthetic(nets, count=0, seq_len=5, seed=9, scaler=scaler)
    with pytest.raises(ConfigError):
        generate_synthetic(nets, count=2, seq_len=5, seed=9)
    with pytest.raises(ConfigError):
        generate_synthetic(gen, count=2, seq_len=6, seed=9, scaler=scaler)


def test_non_finite_parameters_are_rejected():
    ds, scaler = small_windows()
    gen = tiny_gen(18, 2, 3)
    gen.params["L2.W"].data[0, 0] = np.nan
    with pytest.raises(NumericAbort, match="L2.W"):
        generate_synthetic(gen, count=2, seq_len=6, seed=9,
                           scaler=scaler, windows=ds)


def test_training_abort_names_stage_epoch_and_batch():
    ds, _ = small_windows()
    net = build_forecaster("gru", 1, 3, 6, 3, 18, RngStream(0, ("f",)))
    net.params["L0.Wz"].data[0, 0] = np.nan
    with pytest.raises(NumericAbort, match="forecaster step failed at epoch 0, batch 0"):
        train_forecaster(net, ds, TrainConfig(epochs=1, batch_size=16))


def test_loss_trace_contract():
    trace = LossTrace()
    trace.add(0, 1.5, 0.5, -1.0, "gan")
    trace.add(1, 1.25, 0.25, -1.1, "gan")
    lines = trace.to_csv().splitlines()
    assert lines[0] == "epoch,g_loss,d_loss,value,phase"
    assert lines[1] == "0,1.5,0.5,-1.0,gan"
    assert trace.last()["epoch"] == 1
    assert trace.last("gan")["g_loss"] == 1.25
    with pytest.raises(IndexError):
        trace.last("wgan")
    with pytest.raises(NumericAbort):
        trace.add(2, float("nan"), 0.0, 0.0, "gan")


def test_train_config_contract():
    cfg = TrainConfig(epochs=3, lr_g=0.5)
    assert cfg.epochs == 3 and cfg.lr_g == 0.5 and cfg.optimizer == "adam"
    assert cfg.replace(epochs=7).epochs == 7
    assert cfg.as_dict()["recon_weight"] == 10.0
    with pytest.raises(ConfigError, match="learning_rte"):
        TrainConfig(learning_rte=0.1)
    with pytest.raises(ConfigError):
        TrainConfig(optimizer="lion")
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
