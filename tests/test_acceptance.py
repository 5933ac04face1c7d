"""Acceptance gate: eleven end-to-end checks, one verdict line per criterion.

Every test prints a single "[criterion NN] PASS/FAIL" line with the measured
numbers (printed straight to the real stdout so a full run doubles as an
audit report), then asserts. Criteria with runtime budgets measure and
enforce them. Tolerances are stated inline next to each check.
"""

import datetime as dt
import json
import math
import time

import numpy as np
import pytest

from gradtools import analytic_grads, numeric_grads
from test_training import small_windows, tiny_disc, tiny_gen
from tsgan.cli import main
from tsgan.data import (apply_scaler, build_features, fit_scaler,
                        inverse_scale_matrix, inverse_scaler,
                        make_synthetic_series, make_windows, parse_ohlcv_csv,
                        repair_calendar, split_train_test)
from tsgan.evaluate import horizon_sweep, mape, persistence_report, rmse
from tsgan.manifest import load_manifest, rerun
from tsgan.models import (NetSpec, build_forecaster, build_network,
                          build_timegan, scale_width)
from tsgan.numcore import (OptimizerState, RngStream, Tape, Tensor, backward,
                           clip_weights, leaf_grads, mean, optimizer_step)
from tsgan.stats import ks_statistic
from tsgan.training import (TrainConfig, critic_estimate, disc_sequence,
                            discriminator_cost, gan_value, generate_synthetic,
                            generator_cost, jensen_shannon_divergence,
                            minibatches, train_forecaster, train_timegan,
                            train_wgan)

ATOL = 1e-7
RTOL = 1e-4

_CAPSYS = None


@pytest.fixture(autouse=True)
def _verdict_stream(capsys):
    """Let verdict lines bypass output capture so every run shows them."""
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}: {detail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


# --------------------------------------------------------------------------
# 1. autodiff gradients vs central differences on 20 random small networks


def _random_net(i: int):
    """One of five architecture templates, dimensions jittered per index."""
    r = np.random.default_rng(100 + i)
    u, u2 = int(r.integers(2, 5)), int(r.integers(2, 5))
    f = int(r.integers(2, 4))
    head = int(r.integers(1, 3))
    seq = int(r.integers(3, 6))
    fdim = int(r.integers(2, 4))
    template = i % 5
    if template == 0:
        layers = [{"kind": "gru", "units": u},
                  {"kind": "last_step"},
                  {"kind": "dense", "units": head, "activation": "linear"}]
    elif template == 1:
        layers = [{"kind": "lstm", "units": u},
                  {"kind": "last_step"},
                  {"kind": "dense", "units": head, "activation": "tanh"}]
    elif template == 2:
        flat = (seq - 2 + 1) * f  # kernel 2, stride 1
        layers = [{"kind": "conv1d", "filters": f, "kernel": 2, "stride": 1,
                   "activation": "relu"},
                  {"kind": "flatten", "flat_width": flat},
                  {"kind": "dense", "units": head, "activation": "sigmoid"}]
    elif template == 3:
        layers = [{"kind": "gru", "units": u},
                  {"kind": "dropout", "rate": 0.5},
                  {"kind": "lstm", "units": u2},
                  {"kind": "last_step"},
                  {"kind": "dense", "units": head, "activation": "relu"}]
    else:
        layers = [{"kind": "conv1d", "filters": f, "kernel": 2, "stride": 2,
                   "activation": "tanh"},
                  {"kind": "gru", "units": u},
                  {"kind": "last_step"},
                  {"kind": "dense", "units": head, "activation": "linear"}]
    net = build_network(NetSpec(f"acc1_{i}", fdim, layers),
                        RngStream(200 + i, ("acc1",)))
    x = Tensor(r.normal(size=(2, seq, fdim)))
    y = r.normal(size=(2, head))
    return net, x, y


def test_criterion_01_gradients_match_finite_differences():
    from tsgan.training import mse as mse_loss

    t0 = time.monotonic()
    worst = 0.0
    kinds_seen = set()
    for i in range(20):
        net, x, y = _random_net(i)
        kinds_seen |= {l["kind"] for l in net.spec.layers}
        leaves = list(net.params.values())

        def build_loss():
            return mse_loss(net.forward(x), Tensor(y))

        analytic = analytic_grads(build_loss, leaves)
        numeric = numeric_grads(
            lambda: float(build_loss().data.reshape(())),
            [t.data for t in leaves], h=1e-5)
        for a, n in zip(analytic, numeric):
            ratio = np.abs(a - n) / (ATOL + RTOL * np.abs(n))
            worst = max(worst, float(ratio.max()))
    elapsed = time.monotonic() - t0
    expected_kinds = {"gru", "lstm", "dense", "conv1d", "dropout", "flatten",
                      "last_step"}
    ok = worst <= 1.0 and kinds_seen == expected_kinds and elapsed < 60.0
    _verdict(1, "gradient check, 20 random networks", ok,
             f"worst |analytic-numeric|/(1e-7+1e-4*|g|) = {worst:.4f} "
             f"(<=1), kinds {sorted(kinds_seen)}, {elapsed:.1f}s (<60s)")


# --------------------------------------------------------------------------
# 2. a discriminator trained alone recovers the density ratio p/(p+q)


def test_criterion_02_trained_discriminator_recovers_density_ratio():
    t0 = time.monotonic()
    n = 5000
    real = RngStream(11, ("acc2",)).normal((n, 1), loc=-1.0, scale=1.0)
    fake = RngStream(12, ("acc2",)).normal((n, 1), loc=+1.0, scale=1.0)
    spec = NetSpec("ratio_disc", 1, [
        {"kind": "dense", "units": 16, "activation": "tanh"},
        {"kind": "dense", "units": 1, "activation": "sigmoid"},
    ], input_rank=2)
    net = build_network(spec, RngStream(7, ("acc2_init",)))

    opt = OptimizerState("adam", 1e-2, direction="ascend")
    shuffle = RngStream(13, ("acc2_shuffle",))
    for epoch in range(40):
        perm = shuffle.child("e", epoch).permutation(n)
        for idx in minibatches(n, 250, perm):
            with Tape() as tape:
                value = gan_value(net.forward(Tensor(real[idx])),
                                  net.forward(Tensor(fake[idx])))
            gmap = backward(tape, value)
            optimizer_step(opt, net.params, leaf_grads(tape, net.params, gmap))

    grid = np.linspace(-3.0, 3.0, 121)
    p = np.exp(-0.5 * (grid + 1.0) ** 2)
    q = np.exp(-0.5 * (grid - 1.0) ** 2)
    target = p / (p + q)
    learned = net.forward(Tensor(grid[:, None])).data.ravel()
    mad = float(np.mean(np.abs(learned - target)))
    elapsed = time.monotonic() - t0
    ok = mad < 0.05 and elapsed < 300.0
    _verdict(2, "optimal-discriminator recovery", ok,
             f"mean |D - p/(p+q)| over 121-point grid = {mad:.4f} (<0.05), "
             f"{elapsed:.1f}s (<300s)")


# --------------------------------------------------------------------------
# 3. value/cost identities across 1000 random probability batches


def test_criterion_03_loss_identities():
    rs = RngStream(33, ("acc3",))
    worst_half = 0.0
    worst_zero_sum = 0.0
    for i in range(1000):
        m = int(rs.child("m", i).integers(1, 65, (1,))[0])
        d_real = Tensor(rs.child("pr", i).uniform(1e-6, 1 - 1e-6, (m, 1)))
        d_fake = Tensor(rs.child("pf", i).uniform(1e-6, 1 - 1e-6, (m, 1)))
        value = gan_value(d_real, d_fake).item()
        j_d = discriminator_cost(d_real, d_fake).item()
        j_g = generator_cost(d_fake, mode="zero_sum", d_real=d_real).item()
        worst_half = max(worst_half, abs(j_d + 0.5 * value))
        worst_zero_sum = max(worst_zero_sum, abs(j_g + j_d))
    half = Tensor(np.full((8, 1), 0.5))
    indifferent = abs(gan_value(half, half).item() + 2.0 * math.log(2.0))
    ok = worst_half <= 1e-12 and worst_zero_sum <= 1e-12 and indifferent <= 1e-12
    _verdict(3, "loss identities over 1000 batches", ok,
             f"max |J_D + V/2| = {worst_half:.2e}, max |J_G + J_D| = "
             f"{worst_zero_sum:.2e}, |V(1/2) + 2 log 2| = {indifferent:.2e} "
             f"(all <=1e-12)")


# --------------------------------------------------------------------------
# 4. Jensen-Shannon divergence: identity, symmetry, range, disjoint limit


def test_criterion_04_jsd_properties():
    rs = np.random.default_rng(44)
    log2 = math.log(2.0)
    lo, hi, worst_sym = math.inf, -math.inf, 0.0
    for _ in range(10_000):
        k = int(rs.integers(2, 17))
        p = rs.uniform(0.05, 1.0, k)
        q = rs.uniform(0.05, 1.0, k)
        p /= p.sum()
        q /= q.sum()
        a = jensen_shannon_divergence(p, q)
        b = jensen_shannon_divergence(q, p)
        worst_sym = max(worst_sym, abs(a - b))
        lo = min(lo, a, b)
        hi = max(hi, a, b)
    identity_exact = True
    for _ in range(100):
        k = int(rs.integers(2, 17))
        p = rs.uniform(0.05, 1.0, k)
        p /= p.sum()
        identity_exact &= jensen_shannon_divergence(p, p) == 0.0
    worst_disjoint = 0.0
    for k in (2, 6, 16):
        p = np.zeros(k)
        q = np.zeros(k)
        p[: k // 2] = 1.0 / (k // 2)
        q[k // 2:] = 1.0 / (k - k // 2)
        worst_disjoint = max(worst_disjoint,
                             abs(jensen_shannon_divergence(p, q) - log2))
    ok = (identity_exact and worst_sym <= 1e-12 and worst_disjoint <= 1e-9
          and lo >= 0.0 and hi <= log2)
    _verdict(4, "JSD properties over 10^4 pairs", ok,
             f"JSD(p,p)=0 exact: {identity_exact}, max asym = {worst_sym:.2e} "
             f"(<=1e-12), disjoint dev = {worst_disjoint:.2e} (<=1e-9), "
             f"range [{lo:.3e}, {hi:.6f}] within [0, {log2:.6f}]")


# --------------------------------------------------------------------------
# 5. weight-clipped critic loop: schedule, clip bound, and update directions


def test_criterion_05_wgan_schedule_and_update_signs():
    ds, _ = small_windows()

    # (a) 50-epoch run with a recording hook: exact event order and clip bound
    cfg = TrainConfig(epochs=50, batch_size=16, n_critic=3, clip_c=0.05,
                      lr_g=1e-3, lr_d=1e-3, seed=21)
    gen, critic = tiny_gen(18, 2, 3, seed=51), tiny_disc(head="linear", seed=52)
    events = []
    train_wgan(gen, critic, ds, cfg, hook=events.append)

    n_groups = (math.ceil(ds.count / cfg.batch_size)) // cfg.n_critic
    per_epoch = (["critic_step", "clip"] * cfg.n_critic
                 + ["generator_step"]) * n_groups
    order_ok = True
    for epoch in range(cfg.epochs):
        got = [e["event"] for e in events if e["epoch"] == epoch]
        order_ok &= got == per_epoch
    clips = [e["max_abs_w"] for e in events if e["event"] == "clip"]
    clip_ok = len(clips) == cfg.epochs * n_groups * cfg.n_critic and \
        all(c <= cfg.clip_c for c in clips)

    # (b) update signs: one full group replayed manually with the same seeds
    # (critic ascends the estimate, generator descends -mean f) must land on
    # byte-identical parameters. A flipped direction would diverge here.
    cfg1 = TrainConfig(epochs=1, batch_size=64, n_critic=1, clip_c=0.05,
                       lr_g=1e-3, lr_d=1e-3, seed=22)
    gen_a, critic_a = tiny_gen(18, 2, 3, seed=53), tiny_disc(head="linear", seed=54)
    gen_b, critic_b = gen_a.clone(), critic_a.clone()
    train_wgan(gen_a, critic_a, ds, cfg1)

    rng = RngStream(cfg1.seed, ("wgan",))
    perm = rng.child("shuffle", 0).permutation(ds.count)
    idx = minibatches(ds.count, cfg1.batch_size, perm)[0]
    history = ds.history_paths()
    feats, hist, real = ds.inputs[idx], history[idx], ds.targets[idx]
    latent = gen_b.spec.input_dim - ds.inputs.shape[2]

    z = rng.child("z", 0, 0, 0).normal((idx.size, ds.seq_len, latent))
    fake = gen_b.forward(Tensor(np.concatenate([feats, z], axis=2)),
                         mode="train", rng=rng.child("gdrop", 0, 0, 0)).detach()
    opt_c = OptimizerState("rmsprop", cfg1.lr_d, direction="ascend")
    with Tape() as tape:
        estimate = critic_estimate(critic_b.forward(disc_sequence(hist, real.copy())),
                                   critic_b.forward(disc_sequence(hist, fake.data)))
    gmap = backward(tape, estimate)
    optimizer_step(opt_c, critic_b.params, leaf_grads(tape, critic_b.params, gmap))
    clip_weights(critic_b.params, cfg1.clip_c)

    z = rng.child("zg", 0, 0).normal((idx.size, ds.seq_len, latent))
    opt_g = OptimizerState("rmsprop", cfg1.lr_g, direction="descend")
    with Tape() as tape:
        fake = gen_b.forward(Tensor(np.concatenate([feats, z], axis=2)),
                             mode="train", rng=rng.child("gdropg", 0, 0))
        g_loss = -mean(critic_b.forward(disc_sequence(hist, fake)))
    gmap = backward(tape, g_loss)
    optimizer_step(opt_g, gen_b.params, leaf_grads(tape, gen_b.params, gmap))

    signs_ok = all(np.array_equal(critic_a.params[k].data, critic_b.params[k].data)
                   for k in critic_a.params) and \
        all(np.array_equal(gen_a.params[k].data, gen_b.params[k].data)
            for k in gen_a.params)

    ok = order_ok and clip_ok and signs_ok
    _verdict(5, "critic loop fidelity over 50 epochs", ok,
             f"event order exact: {order_ok}, {len(clips)} clips all "
             f"max|w| <= {cfg.clip_c}: {clip_ok}, ascent/descent replay "
             f"byte-identical: {signs_ok}")


# --------------------------------------------------------------------------
# 6. calendar repair + features + scaling + split on a hand-computed fixture


def _fixture_grid() -> list:
    days = []
    d = dt.date(2015, 2, 2)
    while d <= dt.date(2015, 3, 30):
        if d.weekday() < 5:
            days.append(d)
        d += dt.timedelta(days=1)
    return days


def _fixture_row(i: int) -> list:
    close = 100.0 + i
    return [close - 1.0, close + 2.0, close - 3.0, close, close - 0.5,
            1000.0 + 10.0 * i]


def test_criterion_06_pipeline_reproduces_hand_oracle():
    grid = _fixture_grid()
    assert len(grid) == 41
    hole_knn = dt.date(2015, 2, 18)    # mid-week hole, KNN-imputed
    hole_monday = dt.date(2015, 3, 2)  # missing Monday, Friday-copied
    lines = ["Date,Open,High,Low,Close,Adj Close,Volume"]
    for i, day in enumerate(grid):
        if day in (hole_knn, hole_monday):
            continue
        lines.append(",".join([day.isoformat()]
                              + [repr(v) for v in _fixture_row(i)]))
    lines.append("2015-02-07,998.0,1001.0,996.0,999.0,998.5,7.0")  # Saturday
    csv_text = "\n".join(lines) + "\n"

    series = parse_ohlcv_csv(csv_text)
    assert len(series) == 40
    repaired = repair_calendar(series, knn_k=5)

    dates_ok = repaired.dates == grid and repaired.imputation_count == 2
    rows = repaired.values

    # Monday 2015-03-02 inherits Friday 2015-02-27 (grid index 19).
    monday_dev = float(np.abs(rows[20] - np.array(_fixture_row(19))).max())
    # The 2015-02-18 hole averages the six rows within 5 calendar days:
    # indices 9, 10, 11, 13, 14, 15 (means are exact in float64).
    knn_expected = np.mean([_fixture_row(j) for j in (9, 10, 11, 13, 14, 15)],
                           axis=0)
    knn_dev = float(np.abs(rows[12] - knn_expected).max())
    untouched_dev = max(
        float(np.abs(rows[0] - np.array(_fixture_row(0))).max()),
        float(np.abs(rows[40] - np.array(_fixture_row(40))).max()))

    # All 12 derived columns recomputed independently.
    fm = build_features(repaired, sma_window=5)
    diffs = (rows[1:] - rows[:-1]) / rows[:-1]
    smas = np.stack([rows[t - 4:t + 1].mean(axis=0) for t in range(4, 41)])
    expected = np.hstack([rows[4:], diffs[3:], smas])
    derived_dev = float(np.abs(fm.values - expected).max())

    scaler = fit_scaler(fm, train_fraction=0.7)
    scaled = apply_scaler(fm, scaler)
    recon = inverse_scale_matrix(scaled.values, scaler)
    roundtrip_dev = float(np.max(np.abs(recon - fm.values)
                                 / np.maximum(1.0, np.abs(fm.values))))

    ds = make_windows(scaled, seq_len=10, horizon=3)
    train, test = split_train_test(ds, 0.7)
    split_ok = (ds.count == 25 and train.count == 17 and test.count == 8
                and np.array_equal(np.concatenate([train.inputs, test.inputs]),
                                   ds.inputs)
                and np.array_equal(np.concatenate([train.targets, test.targets]),
                                   ds.targets))

    ok = (dates_ok and monday_dev <= 1e-12 and knn_dev <= 1e-12
          and untouched_dev == 0.0 and derived_dev <= 1e-12
          and roundtrip_dev <= 1e-12 and split_ok)
    _verdict(6, "40-row pipeline oracle", ok,
             f"grid+2 imputations: {dates_ok}, Monday copy dev {monday_dev:.1e}, "
             f"KNN dev {knn_dev:.1e}, 12 derived cols dev {derived_dev:.1e}, "
             f"scaler round-trip rel dev {roundtrip_dev:.1e} (all <=1e-12), "
             f"split 17/8 exact: {split_ok}")


# --------------------------------------------------------------------------
# 7. rmse/mape against brute-force loops and the worked example


def test_criterion_07_metric_oracles():
    rs = np.random.default_rng(77)
    actual = rs.uniform(0.5, 2.0, 100_000)
    pred = actual + rs.uniform(-0.5, 0.5, 100_000)
    brute_rmse = math.sqrt(math.fsum((a - p) ** 2 for a, p in
                                     zip(actual, pred)) / actual.size)
    brute_mape = math.fsum(abs(a - p) / abs(a) for a, p in
                           zip(actual, pred)) / actual.size
    dev_rmse = abs(rmse(actual, pred) - brute_rmse)
    dev_mape = abs(mape(actual, pred) - brute_mape)

    worked_rmse = rmse(np.array([1.0, 2.0, 3.0]), np.array([2.0, 2.0, 2.0]))
    worked_mape = mape(np.array([1.0, 2.0, 3.0]), np.array([2.0, 2.0, 2.0]))
    worked_ok = (abs(worked_rmse - 0.81650) <= 5e-6
                 and abs(worked_mape - 0.44444) <= 5e-6)

    ok = dev_rmse <= 1e-12 and dev_mape <= 1e-12 and worked_ok
    _verdict(7, "metric oracles on 10^5 pairs", ok,
             f"|rmse-brute| = {dev_rmse:.2e}, |mape-brute| = {dev_mape:.2e} "
             f"(<=1e-12); worked example ({worked_rmse:.5f}, {worked_mape:.5f}) "
             f"vs (0.81650, 0.44444) within 5e-6: {worked_ok}")


# --------------------------------------------------------------------------
# 8. desk-scale learning on the AR(1) fixture


def test_criterion_08_desk_scale_learning():
    t0 = time.monotonic()
    series = make_synthetic_series("ar1", 2000, seed=202)
    fm = build_features(series, sma_window=10)
    scaler = fit_scaler(fm, 0.7)
    ds = make_windows(apply_scaler(fm, scaler), seq_len=30, horizon=10)
    train, test = split_train_test(ds, 0.7)

    units = scale_width(64, 1.0 / 32.0)
    net = build_forecaster("gru", 1, units, 30, 10, fm.values.shape[1],
                           RngStream(9, ("acc8",)))
    cfg = TrainConfig(epochs=30, batch_size=64, lr_g=3e-3, seed=9,
                      width_mult=1.0 / 32.0, hidden_layers=1)
    train_forecaster(net, train, cfg)
    gru_rmse = horizon_sweep(net, test, [10], scaler=scaler,
                             epochs=cfg.epochs, seed=9).per_horizon[10]["rmse"]
    base_rmse = persistence_report(test, [10], scaler=scaler).per_horizon[10]["rmse"]
    improvement = 1.0 - gru_rmse / base_rmse

    sub = train.take(np.arange(256), split="recon")
    nets = build_timegan(fm.values.shape[1], hidden_dim=12, seq_len=30,
                         rng=RngStream(10, ("acc8t",)))
    tcfg = TrainConfig(epochs=40, batch_size=16, lr_g=1e-2, lr_d=1e-2, seed=10)
    trace = train_timegan(nets, sub, tcfg)
    recon_final = trace.last("recon")["g_loss"]

    elapsed = time.monotonic() - t0
    ok = improvement >= 0.10 and recon_final < 1e-2 and elapsed < 900.0
    _verdict(8, "desk-scale learning on AR(1)", ok,
             f"GRU rmse@10 {gru_rmse:.4f} vs persistence {base_rmse:.4f} "
             f"(+{improvement:.1%}, needs >=10%), reconstruction loss "
             f"{recon_final:.2e} (<1e-2), {elapsed:.0f}s (<900s)")


# --------------------------------------------------------------------------
# 9. 200 desk-scale critic-loop epochs shrink the KS distance in >=8/10 seeds


def test_criterion_09_wgan_improves_close_marginals():
    series = make_synthetic_series("sine", 90, seed=40)
    fm = build_features(series, sma_window=3)
    scaler = fit_scaler(fm)
    ds = make_windows(apply_scaler(fm, scaler), seq_len=6, horizon=3)
    real = inverse_scaler(ds.targets, scaler, "Close").ravel()

    wins = 0
    pairs = []
    for s in range(10):
        gen = tiny_gen(18, 4, 3, units=6, seed=300 + s)
        critic = tiny_disc(head="linear", units=6, seed=400 + s)
        before = ks_statistic(real, generate_synthetic(
            gen, ds.count, 6, 1000 + s, scaler=scaler, windows=ds).ravel())
        cfg = TrainConfig(epochs=200, batch_size=20, n_critic=2, clip_c=0.2,
                          lr_g=5e-3, lr_d=5e-3, seed=s)
        train_wgan(gen, critic, ds, cfg)
        after = ks_statistic(real, generate_synthetic(
            gen, ds.count, 6, 1000 + s, scaler=scaler, windows=ds).ravel())
        wins += after < before
        pairs.append((before, after))

    ok = wins >= 8
    summary = ", ".join(f"{b:.2f}->{a:.2f}" for b, a in pairs)
    _verdict(9, "KS improvement after 200 critic-loop epochs", ok,
             f"{wins}/10 seeds improved (needs >=8): {summary}")


# --------------------------------------------------------------------------
# 10. manifest re-runs reproduce numeric outputs byte for byte


def _byte_identical(dir_a, dir_b, names) -> list:
    differing = []
    for name in names:
        if (dir_a / name).read_bytes() != (dir_b / name).read_bytes():
            differing.append(name)
    return differing


def test_criterion_10_manifest_reruns_are_byte_identical(tmp_path):
    pipe = ["--seq-len", "6", "--horizon", "3", "--sma-window", "3"]
    data_dir = tmp_path / "data"
    assert main(["synth-data", "--kind", "sine", "--rows", "150", "--seed", "4",
                 "--out-dir", str(data_dir)]) == 0
    csv_path = data_dir / "synthetic_sine.csv"

    train_a = tmp_path / "train_a"
    assert main(["train", "--input", str(csv_path), "--model", "gru",
                 "--epochs", "2", "--hidden-layers", "1", "--hidden-units", "3",
                 "--batch-size", "32", "--seed", "5", *pipe,
                 "--out-dir", str(train_a)]) == 0
    train_b = tmp_path / "train_b"
    assert rerun(train_a / "train_manifest.json", str(train_b), main) == 0
    train_names = [p.rsplit("/", 1)[-1]
                   for p in load_manifest(train_a / "train_manifest.json").outputs]
    train_diff = _byte_identical(train_a, train_b, train_names)

    fc_a = tmp_path / "fc_a"
    assert main(["forecast", "--input", str(csv_path), "--model-dir",
                 str(train_a), "--steps", "3", *pipe,
                 "--out-dir", str(fc_a)]) == 0
    fc_b = tmp_path / "fc_b"
    assert rerun(fc_a / "forecast_manifest.json", str(fc_b), main) == 0
    fc_names = [p.rsplit("/", 1)[-1]
                for p in load_manifest(fc_a / "forecast_manifest.json").outputs]
    fc_diff = _byte_identical(fc_a, fc_b, fc_names)

    ok = not train_diff and not fc_diff
    _verdict(10, "manifest re-run determinism", ok,
             f"train outputs identical: {len(train_names) - len(train_diff)}"
             f"/{len(train_names)}, forecast outputs identical: "
             f"{len(fc_names) - len(fc_diff)}/{len(fc_names)}"
             + (f", differing: {train_diff + fc_diff}" if train_diff or fc_diff
                else ""))


# --------------------------------------------------------------------------
# 11. the comparison table over all four model families plus the baseline


def test_criterion_11_comparison_table_shape(tmp_path):
    pipe = ["--seq-len", "5", "--horizon", "80", "--sma-window", "5"]
    data_dir = tmp_path / "data"
    assert main(["synth-data", "--kind", "sine", "--rows", "170", "--seed", "11",
                 "--out-dir", str(data_dir)]) == 0
    csv_path = data_dir / "synthetic_sine.csv"

    runs = {}
    for kind, seed in (("gru", "1"), ("lstm", "2")):
        out = tmp_path / f"train_{kind}"
        assert main(["train", "--input", str(csv_path), "--model", kind,
                     "--epochs", "3", "--hidden-layers", "1",
                     "--hidden-units", "4", "--batch-size", "32",
                     "--seed", seed, *pipe, "--out-dir", str(out)]) == 0
        runs[kind] = out
    out = tmp_path / "train_gan"
    assert main(["train", "--input", str(csv_path), "--model", "gan",
                 "--epochs", "2", "--width-mult", "0.03125",
                 "--latent-dim", "4", "--batch-size", "32", "--seed", "3",
                 *pipe, "--out-dir", str(out)]) == 0
    runs["gan"] = out
    tg_cfg = tmp_path / "timegan.json"
    tg_cfg.write_text(json.dumps({"timegan_hidden": 3, "epochs": 5,
                                  "lr_g": 1e-2, "lr_d": 1e-2,
                                  "batch_size": 64}))
    out = tmp_path / "train_timegan"
    assert main(["train", "--input", str(csv_path), "--model", "timegan",
                 "--config", str(tg_cfg), "--seed", "4", *pipe,
                 "--out-dir", str(out)]) == 0
    runs["timegan"] = out

    reports = []
    for kind, run_dir in runs.items():
        out = tmp_path / f"eval_{kind}"
        assert main(["evaluate", "--input", str(csv_path), "--model-dir",
                     str(run_dir), "--horizons", "10,40,80",
                     "--weights", "1,1,2", "--name", kind, *pipe,
                     "--out-dir", str(out)]) == 0
        reports += ["--report", str(out / "metrics_report.json")]

    cmp_dir = tmp_path / "cmp"
    assert main(["compare", *reports, "--input", str(csv_path), *pipe,
                 "--out-dir", str(cmp_dir)]) == 0

    lines = (cmp_dir / "comparison.csv").read_text().splitlines()
    header_ok = lines[0] == ("MODEL,RMSE,MAPE,Number of Hidden Layers,"
                             "EPOCH Number,RMSE@10,MAPE@10,RMSE@40,MAPE@40,"
                             "RMSE@80,MAPE@80")
    cells = [line.split(",") for line in lines[1:]]
    names = [row[0] for row in cells]
    models_ok = sorted(names[:4]) == ["gan", "gru", "lstm", "timegan"] and \
        names[4] == "persistence" and len(lines) == 6
    weighted = [float(row[1]) for row in cells[:4]]
    sorted_ok = weighted == sorted(weighted)
    metrics_ok = all(float(row[c]) >= 0.0 for row in cells
                     for c in (1, 2, 5, 6, 7, 8, 9, 10))
    baseline_ok = cells[4][3] == "0" and cells[4][4] == "0"

    report = json.loads((tmp_path / "eval_gru" / "metrics_report.json")
                        .read_text())
    per_h = report["per_horizon"]
    expected_weighted = (per_h["10"]["rmse"] + per_h["40"]["rmse"]
                         + 2.0 * per_h["80"]["rmse"]) / 4.0
    weighted_ok = abs(report["weighted"]["rmse"] - expected_weighted) <= 1e-12

    ok = (header_ok and models_ok and sorted_ok and metrics_ok
          and baseline_ok and weighted_ok)
    _verdict(11, "comparison table over four model families", ok,
             f"header exact: {header_ok}, rows gan/gru/lstm/timegan+persistence: "
             f"{models_ok}, sorted by weighted rmse: {sorted_ok}, all metric "
             f"cells numeric: {metrics_ok}, baseline hidden/epochs 0: "
             f"{baseline_ok}, weighted avg (1,1,2)/4 exact: {weighted_ok}")
