"""The four benchmark workloads.

Each workload is a closed loop with one caller. `setup` prepares inputs and
models; the harness runs it several times and reports the median. Then the
harness calls `round` again and again until the time budget is spent. A round
is a fixed unit of work, so its counts repeat exactly. After each round the
library workloads run one timed, checked `forecast --mode iterative` through
the library. The samples spread over the run, and the forecast stays outside
the round's `wall_s`. In `cli-chain` the forecast is one of the chain's
processes.

Every call into tsgan goes through a module attribute (`training.train_gan`,
not a name imported once), so the tracer's rebinding reaches it.

All inputs come from the benchmark seed through `derive`; nothing else varies
between runs of one seed.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tsgan import data, evaluate, models, pipeline, stats, training
from tsgan.numcore import RngStream, Tensor


class CheckFailed(Exception):
    """A workload output that is wrong."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def derive(seed: int, *labels) -> int:
    """A six-digit seed for one consumer, fixed by (benchmark seed, labels).

    Six digits always, so files that record a seed have the same size for
    every benchmark seed and byte counts repeat exactly.
    """
    digest = hashlib.sha256(repr((seed, labels)).encode()).digest()
    return 100000 + int.from_bytes(digest[:4], "little") % 900000


class Ops:
    """Operations attempted and failed; a failed operation never stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def run(self, name: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as e:  # counted as a failure; the run carries on
            self.failed += 1
            self.notes.append(f"FAIL {name}: {type(e).__name__}: {e}")
            return None

    def note(self, text: str) -> None:
        self.notes.append(text)


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _param_sums(net) -> list[float]:
    return [float(p.data.sum()) for p in net.params.values()]


def _iterative(model, windows, steps: int, scaler, seed: int):
    """One timed iterative forecast, checked: (forecast, windows x steps, seconds)."""
    res, dt = _timed(training.forecast, model, windows, steps, mode="iterative",
                     scaler=scaler, seed=seed)
    check(res.scaled.shape == (windows.count, steps), "forecast has the wrong shape")
    check(_finite(res.scaled), "forecast is not finite")
    if isinstance(model, models.Network) and model.spec.input_dim == windows.inputs.shape[2]:
        direct = model.forward(Tensor(windows.inputs)).data[:, 0]
        check(np.allclose(res.scaled[:, 0], direct, rtol=0.0, atol=1e-9),
              "first iterative step disagrees with the direct head")
    return res.scaled, windows.count * steps, dt


class RecurrentDesk:
    """Acceptance criterion 08's shape on AR(1): 2000 rows, seq_len 30, horizon 10.

    The rounds take turns at three kinds of fit, each from the same seeded
    initial weights every time: a GRU forecaster (1 layer of 2 units, batch
    64, 10 epochs), an LSTM forecaster (2 layers of 8 units, 2 epochs) and
    TimeGAN (hidden 12, batch 16, one epoch per phase on 64 of criterion
    08's 256 windows). Each fit takes 1 to 3 s, so a run holds several of
    each kind. The evaluation forecast, after each GRU round, rolls that GRU
    over 32 test windows.

    Why: every step is a long unroll of tiny cells (516, 1177 and 1599 to
    9710 tape nodes per step), so forward and backward dispatch take nearly
    all the time and the optimizer very little. Fused recurrent kernels and
    fewer tape nodes show here first.
    """

    name = "recurrent-desk"
    ROWS, SEQ_LEN, HORIZON, SMA = 2000, 30, 10, 10
    GRU = dict(layers=1, units=2, epochs=10)
    LSTM = dict(layers=2, units=8, epochs=2)
    TIMEGAN_WINDOWS, TIMEGAN_EPOCHS = 64, 3
    FORECAST_WINDOWS = 32
    ROUND_KINDS = ("gru", "lstm", "timegan")
    HOST_SCALED = True

    def __init__(self, seed: int):
        self.seed = seed
        self.first_round = {}   # kind -> outputs of its first round
        self.first_forecast = None
        self.last_gru = None

    def setup(self) -> None:
        series = data.make_synthetic_series("ar1", self.ROWS, seed=derive(self.seed, "ar1"))
        self.bundle = pipeline.prepare_dataset(series, self.SEQ_LEN, self.HORIZON,
                                               sma_window=self.SMA)
        train = self.bundle.train
        self.features = train.inputs.shape[2]
        self.tg_windows = train.take(np.arange(self.TIMEGAN_WINDOWS), split="timegan")
        self.base_rmse = evaluate.persistence_report(
            self.bundle.test, [self.HORIZON], scaler=self.bundle.scaler
        ).per_horizon[self.HORIZON]["rmse"]
        # warm-up: one update of each forecaster, one of each TimeGAN stage
        for kind in ("gru", "lstm"):
            training.train_forecaster(self._forecaster(kind),
                                      train.take(np.arange(64), split="warm"),
                                      self._fcfg(kind, epochs=1))
        training.train_timegan(self._timegan(), self.tg_windows.take(np.arange(16), "warm"),
                               self._tcfg())

    def _forecaster(self, kind: str):
        spec = self.GRU if kind == "gru" else self.LSTM
        return models.build_forecaster(kind, spec["layers"], spec["units"], self.SEQ_LEN,
                                       self.HORIZON, self.features,
                                       RngStream(derive(self.seed, kind), ("init",)))

    def _fcfg(self, kind: str, epochs: int):
        return training.TrainConfig(epochs=epochs, batch_size=64, lr_g=3e-3,
                                    seed=derive(self.seed, kind, "train"))

    def _timegan(self):
        return models.build_timegan(self.features, hidden_dim=12, seq_len=self.SEQ_LEN,
                                    rng=RngStream(derive(self.seed, "timegan"), ("init",)))

    def _tcfg(self):
        return training.TrainConfig(epochs=self.TIMEGAN_EPOCHS, batch_size=16, lr_g=1e-2,
                                    lr_d=1e-2, seed=derive(self.seed, "timegan", "train"))

    def _fit_forecaster(self, kind: str, out: dict) -> None:
        net = self._forecaster(kind)
        epochs = (self.GRU if kind == "gru" else self.LSTM)["epochs"]
        trace, dt = _timed(training.train_forecaster, net, self.bundle.train,
                           self._fcfg(kind, epochs))
        out["train_s"] += dt
        out["train_rows"] += epochs * self.bundle.train.count
        losses = [r["g_loss"] for r in trace.records]
        check(_finite(losses), f"{kind}: non-finite loss")
        check(losses[-1] < losses[0], f"{kind}: loss did not decrease {losses[0]} -> {losses[-1]}")
        out["signature"].append(losses)
        if kind == "gru":
            rmse = evaluate.horizon_sweep(net, self.bundle.test, [self.HORIZON],
                                          scaler=self.bundle.scaler
                                          ).per_horizon[self.HORIZON]["rmse"]
            out["signature"].append(rmse)
            out["note"] = (f"gru rmse@{self.HORIZON} {rmse:.5f} vs persistence "
                           f"{self.base_rmse:.5f} (base), {1.0 - rmse / self.base_rmse:+.1%}")
            check(rmse < self.base_rmse,
                  f"gru rmse@{self.HORIZON} {rmse} does not beat persistence {self.base_rmse}")
            self.last_gru = net

    def _recon_loss(self, nets) -> float:
        x = self.tg_windows.inputs
        x_tilde = nets["recovery"].forward(nets["embedder"].forward(Tensor(x))).data
        return float(np.mean((x_tilde - x) ** 2))

    def _fit_timegan(self, out: dict) -> None:
        nets = self._timegan()
        before = self._recon_loss(nets)
        trace, dt = _timed(training.train_timegan, nets, self.tg_windows, self._tcfg())
        out["train_s"] += dt
        e1, e2, e3 = training.phase_budgets(self.TIMEGAN_EPOCHS)
        # recon and supervised epochs update once per batch; joint epochs twice
        out["train_rows"] += (e1 + e2 + 2 * e3) * self.tg_windows.count
        rows = [[r["g_loss"], r["d_loss"], r["value"]] for r in trace.records]
        check(_finite(rows), "timegan: non-finite loss")
        after = self._recon_loss(nets)
        check(after < before, f"timegan: reconstruction loss did not fall {before} -> {after}")
        out["signature"].append(rows)

    def round(self, ops: Ops, index: int) -> dict:
        kind = self.ROUND_KINDS[index % len(self.ROUND_KINDS)]
        self.last_gru = None
        out = {"kind": kind, "train_s": 0.0, "train_rows": 0, "signature": [],
               "forecast_after": kind == "gru"}
        if kind == "timegan":
            ops.run("timegan fit", self._fit_timegan, out)
        else:
            ops.run(f"{kind} fit", self._fit_forecaster, kind, out)
        if "note" in out:
            ops.note(f"round {index}: {out['note']}")
        if kind not in self.first_round:
            self.first_round[kind] = out["signature"]
        else:
            ops.run("round repeats its kind's first", lambda: check(
                out["signature"] == self.first_round[kind],
                f"{kind} outputs differ from its first round for identical inputs"))
        return out

    def forecast(self) -> tuple[int, float]:
        check(self.last_gru is not None, "no trained gru to forecast with")
        windows = self.bundle.test.take(np.arange(self.FORECAST_WINDOWS), split="forecast")
        scaled, units, dt = _iterative(self.last_gru, windows, self.HORIZON,
                                       self.bundle.scaler, seed=0)
        if self.first_forecast is None:
            self.first_forecast = scaled
        check(np.array_equal(scaled, self.first_forecast),
              "forecast differs from the first one for an identical model")
        return units, dt


class WganCritic:
    """Acceptance criterion 09's shape: the clipped-critic loop on a 90-row sine.

    seq_len 6, horizon 3, GRU generator and critic of 6 units, batch 20,
    n_critic 2, clip 0.2. A round is one loop seed of 50 epochs (300
    updates, about 2 s), with the close-marginal KS distance before and
    after; criterion 09 runs 200 epochs per seed, but shorter rounds give a
    run more of them to time. The evaluation forecast rolls the trained
    generator over all 80 windows.

    Why: many short updates of about 300 nodes, so per-update fixed costs
    weigh most: tape set-up, the optimizer and clip over the parameter dict,
    RNG child streams and the hook events telemetry will attach to.
    """

    name = "wgan-critic"
    ROWS, SEQ_LEN, HORIZON, SMA = 90, 6, 3, 3
    UNITS, LATENT, EPOCHS, CLIP = 6, 4, 50, 0.2
    HOST_SCALED = True

    def __init__(self, seed: int):
        self.seed = seed
        self.last_gen = None

    def setup(self) -> None:
        series = data.make_synthetic_series("sine", self.ROWS, seed=derive(self.seed, "sine"))
        fm = data.build_features(series, sma_window=self.SMA)
        self.scaler = data.fit_scaler(fm)
        self.windows = data.make_windows(data.apply_scaler(fm, self.scaler),
                                         seq_len=self.SEQ_LEN, horizon=self.HORIZON)
        self.real = data.inverse_scaler(self.windows.targets, self.scaler, "Close").ravel()
        gen, critic = self._nets(-1)
        training.train_wgan(gen, critic, self.windows, self._cfg(-1, epochs=1))

    def _nets(self, index: int):
        width = self.windows.inputs.shape[2]
        gen = models.NetSpec("generator", width + self.LATENT, [
            {"kind": "gru", "units": self.UNITS},
            {"kind": "last_step"},
            {"kind": "dense", "units": self.HORIZON, "activation": "sigmoid"},
        ])
        critic = models.NetSpec("critic", 1, [
            {"kind": "gru", "units": self.UNITS},
            {"kind": "last_step"},
            {"kind": "dense", "units": 1, "activation": "linear"},
        ])
        return (models.build_network(gen, RngStream(derive(self.seed, "gen", index), ())),
                models.build_network(critic, RngStream(derive(self.seed, "critic", index), ())))

    def _cfg(self, index: int, epochs: int):
        return training.TrainConfig(epochs=epochs, batch_size=20, n_critic=2,
                                    clip_c=self.CLIP, lr_g=5e-3, lr_d=5e-3,
                                    seed=derive(self.seed, "loop", index))

    def _rows_per_epoch(self, cfg) -> int:
        """Rows in every critic and generator update of one epoch."""
        n = self.windows.count
        sizes = [min(cfg.batch_size, n - i) for i in range(0, n, cfg.batch_size)]
        groups = len(sizes) // cfg.n_critic
        critic = sum(sizes[: groups * cfg.n_critic])
        gen = sum(sizes[g * cfg.n_critic + cfg.n_critic - 1] for g in range(groups))
        return critic + gen

    def _ks(self, gen, index: int) -> float:
        fake = training.generate_synthetic(gen, self.windows.count, self.SEQ_LEN,
                                           derive(self.seed, "sample", index),
                                           scaler=self.scaler, windows=self.windows)
        return stats.ks_statistic(self.real, fake.ravel())

    def _loop(self, index: int, out: dict) -> None:
        gen, critic = self._nets(index)
        cfg = self._cfg(index, self.EPOCHS)
        before = self._ks(gen, index)
        trace, dt = _timed(training.train_wgan, gen, critic, self.windows, cfg)
        out["train_s"] += dt
        out["train_rows"] += self.EPOCHS * self._rows_per_epoch(cfg)
        after = self._ks(gen, index)
        out["note"] = f"loop seed {cfg.seed}: KS {before:.4f} -> {after:.4f}"
        check(len(trace) == self.EPOCHS, "wgan trace is missing epochs")
        check(0.0 <= before <= 1.0 and 0.0 <= after <= 1.0, "KS outside [0, 1]")
        max_w = max(float(np.abs(p.data).max()) for p in critic.params.values())
        check(max_w <= self.CLIP, f"critic weight {max_w} exceeds the clip bound")
        check(all(_finite(p.data) for p in gen.params.values()), "generator not finite")
        self.last_gen = gen

    def round(self, ops: Ops, index: int) -> dict:
        self.last_gen = None
        out = {"train_s": 0.0, "train_rows": 0}
        ops.run("wgan loop", self._loop, index, out)
        if "note" in out:
            ops.note(f"round {index}: {out['note']}")
        return out

    def forecast(self) -> tuple[int, float]:
        check(self.last_gen is not None, "no trained generator to forecast with")
        _, units, dt = _iterative(self.last_gen, self.windows, self.HORIZON, self.scaler,
                                  seed=derive(self.seed, "forecast"))
        return units, dt


class GeneratorFull:
    """The conditional GAN at width_mult 1.0: a 6.2M-parameter GRU 1024/512/256
    generator against the conv discriminator, seq_len 80 + horizon 5, batch 32.

    A round is one discriminator + generator update pair on the next 32
    training windows; training continues across rounds. The evaluation
    forecast rolls the generator over one test window.

    Why: it is BLAS-bound. It records about as many nodes per step as the
    desk models, but a step takes seconds, so dispatch is under 1% of the
    time. It is the bypass for dispatch work, the exerciser for GEMM shape and
    fusion changes, and where `peak_rss_mb` matters.
    """

    name = "generator-full"
    ROWS, SEQ_LEN, HORIZON, SMA = 400, 80, 5, 5
    BATCH, LATENT = 32, 8
    FORECAST_WINDOWS = 1
    SETUP_REPEATS = 3  # a set-up builds the 6.2M-parameter models: 2 to 3 s
    # BLAS-bound: the host-speed probe, which is dispatch-bound, does not
    # track its slow phases, and scaling by it widened the spread
    HOST_SCALED = False

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.gen = self.disc = None  # free the previous set-up's models first
        series = data.make_synthetic_series("sine", self.ROWS, seed=derive(self.seed, "sine"))
        self.bundle = pipeline.prepare_dataset(series, self.SEQ_LEN, self.HORIZON,
                                               sma_window=self.SMA)
        features = self.bundle.train.inputs.shape[2]
        rng = RngStream(derive(self.seed, "init"), ())
        self.gen = models.build_generator(self.LATENT, self.SEQ_LEN, self.HORIZON,
                                          rng.child("generator"), feature_dim=features,
                                          width_mult=1.0)
        self.disc = models.build_discriminator(self.SEQ_LEN + self.HORIZON, 1,
                                               rng.child("discriminator"), width_mult=1.0)
        # warm-up pair on two windows: allocates gradients and optimizer slots
        training.train_gan(self.gen, self.disc,
                           self.bundle.train.take(np.arange(2), split="warm"),
                           self._cfg(-1, batch=2))

    def _cfg(self, index: int, batch: int):
        return training.TrainConfig(epochs=1, batch_size=batch, lr_g=1e-4, lr_d=1e-4,
                                    width_mult=1.0, seed=derive(self.seed, "pair", index))

    def _pair(self, index: int, out: dict) -> None:
        n = self.bundle.train.count
        start = (index * self.BATCH) % (n - self.BATCH + 1)
        batch = self.bundle.train.take(np.arange(start, start + self.BATCH), split="pair")
        gen_before, disc_before = _param_sums(self.gen), _param_sums(self.disc)
        trace, dt = _timed(training.train_gan, self.gen, self.disc, batch,
                           self._cfg(index, self.BATCH))
        out["train_s"] += dt
        out["train_rows"] += 2 * self.BATCH
        rec = trace.last()
        check(_finite([rec["g_loss"], rec["d_loss"], rec["value"]]), "non-finite GAN loss")
        check(_param_sums(self.gen) != gen_before, "generator parameters did not move")
        check(_param_sums(self.disc) != disc_before, "discriminator parameters did not move")
        out["note"] = f"g_loss {rec['g_loss']:.6f} d_loss {rec['d_loss']:.6f}"

    def round(self, ops: Ops, index: int) -> dict:
        out = {"train_s": 0.0, "train_rows": 0}
        ops.run("gan pair", self._pair, index, out)
        if "note" in out:
            ops.note(f"round {index}: {out['note']}")
        return out

    def forecast(self) -> tuple[int, float]:
        windows = self.bundle.test.take(np.arange(self.FORECAST_WINDOWS), split="forecast")
        _, units, dt = _iterative(self.gen, windows, self.HORIZON, self.bundle.scaler,
                                  seed=derive(self.seed, "forecast"))
        return units, dt


class CliChain:
    """The CLI chain a user runs, each subcommand a fresh process:
    synth-data -> ingest -> stats -> train --model gru -> forecast --mode
    iterative -> evaluate -> manifest rerun of the train run, on 250 rows of
    AR(1) with seq_len 30 and horizon 10: a chain of about 3 s, so that a
    run holds several.

    Why: the only workload that runs the data/pipeline, checkpoint, manifest
    and cli layers and tape-free inference. Iterative forecasting takes most
    of a chain, as it makes one batch-1 predict call per window per step, so
    training-only speedups should barely move it.
    """

    name = "cli-chain"
    ROWS, STEPS, EPOCHS = 250, 10, 3
    PIPE = ["--seq-len", "30", "--horizon", "10", "--sma-window", "10"]
    TIMEOUT_S = 120
    # The subcommands run on whichever core is free, so a probe in this
    # process does not see their host speed. The two commands whose own
    # calls give the rates probe around those calls in their own process;
    # the chain's wall time is left as measured.
    HOST_SCALED = False
    PROBED = ("train", "forecast")

    def __init__(self, seed: int, work: Path, here: Path):
        self.seed = seed
        self.work = work
        self.proc = here / "cli_proc.py"

    def _run(self, cwd: Path, out: Path, args: list[str], trace: bool = False,
             probe: bool = False):
        """One process: (exit code, the process's report, stderr tail)."""
        flags = (["--trace"] if trace else []) + (["--probe"] if probe else [])
        cmd = [sys.executable, str(self.proc), *flags, str(out), *args]
        try:
            done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                                  timeout=self.TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return -1, None, f"killed after {self.TIMEOUT_S} s"
        report = json.loads(out.read_text()) if out.is_file() else None
        return done.returncode, report, done.stderr.strip()[-300:]

    def setup(self) -> None:
        """Cold start of one subcommand process: interpreter, imports, parser."""
        self.work.mkdir(parents=True, exist_ok=True)
        code, _, err = self._run(self.work, self.work / "version.json", ["--version"])
        check(code == 0, f"tsgan --version exited {code}: {err}")

    def _argv(self) -> dict[str, list[str]]:
        csv = "data/synthetic_ar1.csv"
        return {
            "synth-data": ["synth-data", "--kind", "ar1", "--rows", str(self.ROWS),
                           "--seed", str(derive(self.seed, "ar1")), "--out-dir", "data"],
            "ingest": ["ingest", "--input", csv, "--out-dir", "ingest"],
            "stats": ["stats", "--input", csv, "--out-dir", "stats"],
            "train": ["train", "--model", "gru", "--input", csv, "--epochs", str(self.EPOCHS),
                      "--hidden-layers", "1", "--hidden-units", "8", "--batch-size", "32",
                      "--seed", str(derive(self.seed, "train")), *self.PIPE,
                      "--out-dir", "train"],
            "forecast": ["forecast", "--mode", "iterative", "--input", csv, "--model-dir",
                         "train", "--steps", str(self.STEPS), *self.PIPE,
                         "--out-dir", "forecast"],
            "evaluate": ["evaluate", "--input", csv, "--model-dir", "train",
                         "--horizons", "1,5,10", *self.PIPE, "--out-dir", "evaluate"],
            "rerun": ["rerun", "train/train_manifest.json", "train_rerun"],
        }

    def round(self, ops: Ops, index: int, trace: bool = False) -> dict:
        """One chain in a fresh directory; with `trace`, each process records spans."""
        cwd = self.work / f"chain{index}"
        shutil.rmtree(cwd, ignore_errors=True)
        (cwd / "reports").mkdir(parents=True)
        out = {"train_s": 0.0, "train_rows": 0, "forecast_s": 0.0, "forecast_units": 0,
               "traces": [], "probe_s": 0.0}
        seconds = {}   # each command's own call, scaled where it was probed
        for command, args in self._argv().items():
            code, report, err = self._run(cwd, cwd / "reports" / f"{command}.json",
                                          args, trace,
                                          probe=command in self.PROBED and not trace)
            ops.run(command, lambda: check(code == 0, f"{command} exited {code}: {err}"))
            if report is not None:
                seconds[command] = report["cli"][command] * report.get("scale", 1.0)
                out["probe_s"] += report.get("probe_s", 0.0)
                if trace:
                    out["traces"].append(report)

        def verify_train():
            manifest = json.loads((cwd / "train" / "dataset_manifest.json").read_text())
            out["train_rows"] = self.EPOCHS * manifest["train_windows"]
            out["train_s"] = seconds["train"]
            return manifest

        def verify_rerun():
            names = [Path(p).name for p in
                     json.loads((cwd / "train" / "train_manifest.json").read_text())["outputs"]]
            differ = [n for n in names
                      if (cwd / "train" / n).read_bytes() != (cwd / "train_rerun" / n).read_bytes()]
            check(not differ, f"rerun outputs differ from the train run: {differ}")

        def verify_forecast(manifest):
            rows = (cwd / "forecast" / "forecast_scaled.csv").read_text().splitlines()[1:]
            values = np.array([[float(v) for v in r.split(",")[1:]] for r in rows])
            check(values.shape == (manifest["test_windows"], self.STEPS),
                  f"forecast shape {values.shape}")
            check(_finite(values), "forecast is not finite")
            out["forecast_units"] = values.size
            out["forecast_s"] = seconds["forecast"]

        def verify_evaluate():
            report = json.loads((cwd / "evaluate" / "metrics_report.json").read_text())
            check(_finite([report["weighted"]["rmse"], report["weighted"]["mape"]]),
                  "evaluation metrics are not finite")

        manifest = ops.run("train outputs", verify_train)
        ops.run("rerun byte-identical", verify_rerun)
        if manifest is not None:
            ops.run("forecast outputs", verify_forecast, manifest)
        ops.run("evaluate outputs", verify_evaluate)
        shutil.rmtree(cwd, ignore_errors=True)
        return out
