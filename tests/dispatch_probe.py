"""Python and C calls per update, for each update stage at desk shapes.

    PYTHONPATH=src python tests/dispatch_probe.py

Trains a GRU forecaster, the conditional GAN (discriminator and generator), the
clipped-critic WGAN (critic and generator) and TimeGAN (its reconstruction,
supervised and joint stages) for a few desk-sized epochs under sys.setprofile. Each
call counted between two updates belongs to the stage of the later one, named by the
networks it updates. Python calls are `call` events: every Python function entered and
every resumption of a generator. C calls are `c_call` events: builtins and C methods
called from Python (a ufunc call is neither). pytest does not collect this file.
"""

import sys
from collections import defaultdict

from tsgan import data, models, training
from tsgan.numcore import RngStream, optim

DESK = 0.03125  # the CLI's smallest width_mult


def _windows(rows: int, seq_len: int, horizon: int, sma: int = 3):
    fm = data.build_features(data.make_synthetic_series("sine", rows, seed=1), sma_window=sma)
    return data.make_windows(data.apply_scaler(fm, data.fit_scaler(fm)), seq_len, horizon)


def _probe(names: dict, run) -> dict:
    """stage -> [updates, Python calls, C calls] while run() trains."""
    totals = defaultdict(lambda: [0, 0, 0])
    pending = [0, 0]
    step_code = optim.optimizer_step.__code__

    def count(frame, event, arg):
        if event == "call":
            pending[0] += 1
        elif event == "c_call":
            pending[1] += 1
        elif event == "return" and frame.f_code is step_code:
            params = frame.f_locals["params"]
            vectors = getattr(params, "vectors", [params])
            row = totals["-".join(sorted(names[id(v)] for v in vectors))]
            row[0] += 1
            row[1] += pending[0]
            row[2] += pending[1]
            pending[:] = [0, 0]

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return totals


def main() -> None:
    rng = RngStream(0, ("probe",))
    cfg = training.TrainConfig(epochs=2, batch_size=16, n_critic=2, seed=2)
    short = _windows(120, 6, 3)
    forecaster = models.build_forecaster("gru", 1, 3, 6, 3, short.inputs.shape[2],
                                         rng.child("forecaster"))
    long = _windows(200, 80, 5)
    width = long.inputs.shape[2]
    gan = {"generator": models.build_generator(2, 80, 5, rng.child("g"), width, DESK),
           "discriminator": models.build_discriminator(85, 1, rng.child("d"), DESK)}
    wgan = {"generator": models.build_generator(2, 80, 5, rng.child("wg"), width, DESK),
            "critic": models.build_critic(85, 1, rng.child("c"), DESK)}
    timegan = models.build_timegan(short.inputs.shape[2], hidden_dim=4, seq_len=6,
                                   rng=rng.child("t"))
    three = training.TrainConfig(epochs=3, batch_size=16, seed=2)  # one epoch per phase
    runs = [
        ("gru", {id(forecaster.params): "forecaster"},
         lambda: training.train_forecaster(forecaster, short, cfg)),
        ("gan", {id(n.params): k for k, n in gan.items()},
         lambda: training.train_gan(gan["generator"], gan["discriminator"], long, cfg)),
        ("wgan", {id(n.params): k for k, n in wgan.items()},
         lambda: training.train_wgan(wgan["generator"], wgan["critic"], long, cfg)),
        ("timegan", {id(n.params): k for k, n in timegan.items()},
         lambda: training.train_timegan(timegan, short, three)),
    ]
    print(f"CPython {sys.version.split()[0]}")
    print(f"{'stage':<48} {'updates':>7} {'python/update':>14} {'c/update':>9}")
    for model, names, run in runs:
        for stage, (updates, py, c) in _probe(names, run).items():
            print(f"{model + ': ' + stage:<48} {updates:>7} {py / updates:>14.1f} "
                  f"{c / updates:>9.1f}")


if __name__ == "__main__":
    main()
