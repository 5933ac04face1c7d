"""Batch command line for the toolkit.

Every subcommand reads only the paths named in its arguments, writes its
artifacts plus a run manifest into --out-dir, and exits 0 on success, 1 on
usage/config errors, 2 on data errors, 3 on numeric aborts and graph
errors. All numeric output files are deterministic for a fixed seed;
timestamps appear only in manifests.
"""

from __future__ import annotations

import argparse
import sys
from itertools import zip_longest
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .artifacts import read_json, write_csv, write_json, write_text
from .data.features import FeatureMatrix, build_features, features_to_csv
from .data.ohlcv import (RAW_COLUMNS, TARGET_COLUMN, PriceSeries, repair_calendar,
                         series_to_csv)
from .data.scaling import apply_scaler, fit_scaler, inverse_scaler
from .data.synth import SYNTH_KINDS, make_synthetic_series
from .errors import (ConfigError, DataError, DomainError, GraphError,
                     NumericAbort, ShapeError, ToolkitError)
from .evaluate import (METRIC_BASES, MetricsReport, compare_models, horizon_sweep,
                       perturbation_study, persistence_report)
from .manifest import (RunManifest, file_digest, load_manifest, utc_now,
                       write_manifest)
from .models.builders import (FORECASTER_KINDS, build_critic, build_discriminator,
                              build_forecaster, build_generator,
                              build_timegan, scale_width)
from .models.checkpoint import load_checkpoint, save_checkpoint
from .numcore import RngStream
from .pipeline import DatasetBundle, load_series, prepare_dataset
from .stats import (correlation_cluster, correlation_matrix, describe, monthly_aggregate,
                    monthly_aggregate_csv)
from .training.config import PRESETS, TrainConfig, check_keys, load_config
from .training.forecaster import train_forecaster
from .training.gan import train_gan
from .training.timegan import TIMEGAN_NET_NAMES, train_timegan
from .training.synthesis import FORECAST_MODES, forecast, generate_synthetic
from .training.wgan import WGAN_OPTIMIZER, train_wgan

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# Exit code for every ToolkitError subclass; a missing entry is a bug.
EXIT_CODES = {
    ConfigError: EXIT_USAGE,
    DataError: EXIT_DATA,
    ShapeError: EXIT_DATA,
    DomainError: EXIT_DATA,
    NumericAbort: EXIT_NUMERIC,
    GraphError: EXIT_NUMERIC,
}

# The checkpoint stems each model kind's train run loads for inference.
_INFERENCE_STEMS = {
    **dict.fromkeys(FORECASTER_KINDS, ("model",)),
    "gan": ("generator",),
    "wgan": ("generator",),
    "timegan": TIMEGAN_NET_NAMES,
}
MODEL_KINDS = tuple(_INFERENCE_STEMS)


class TrainRun(NamedTuple):
    """A loaded train run; `model` is one Network, or TimeGAN's dict of sub-networks."""
    kind: str
    model: object
    config: dict
    paths: list[Path]


def _list_of(cast, what: str):
    """An argparse type: one or more comma-separated values, each read by `cast`."""
    def parse(text: str) -> list:
        try:
            values = [cast(x) for x in text.split(",") if x.strip() != ""]
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}")
        return values
    return parse


_int_list, _float_list = _list_of(int, "integers"), _list_of(float, "numbers")


def _write_matrix_csv(path: Path, matrix: np.ndarray) -> Path:
    header = ["window"] + [f"step_{j + 1}" for j in range(matrix.shape[1])]
    return write_csv(path, header, ([i, *row] for i, row in enumerate(matrix)))


def _resolve_config(args, base: dict | None) -> TrainConfig:
    """Config file < preset < a train run's config (`base`) < explicit flags."""
    overrides = {k: base[k] for k in TrainConfig.KEYS if base and k in base}
    overrides.update({k: getattr(args, k) for k in TrainConfig.KEYS
                      if getattr(args, k, None) is not None})
    return load_config(args.config, args.preset, overrides)


def _load_train_run(model_dir: Path) -> TrainRun:
    manifest_path = model_dir / "train_manifest.json"
    config = load_manifest(manifest_path).config
    kind = config.get("model")
    if kind not in MODEL_KINDS:
        raise DataError(f"train manifest in {model_dir} names no valid model kind")
    # the run's config is a layer of the user's config, but a bad value in it is corrupt input
    check_keys({k: v for k, v in config.items() if k in TrainConfig.KEYS}, TrainConfig.KEYS,
               DataError)
    nets = {stem: load_checkpoint(model_dir / stem)[0] for stem in _INFERENCE_STEMS[kind]}
    paths = [manifest_path, *(model_dir / f"{stem}{ext}" for stem in nets
                              for ext in (".json", ".bin"))]
    model = next(iter(nets.values())) if len(nets) == 1 else nets
    return TrainRun(kind, model, config, paths)


def _prepare(args, cfg: TrainConfig) -> DatasetBundle:
    return prepare_dataset(load_series(args.input), cfg.seq_len, cfg.horizon,
                           cfg.sma_window, cfg.knn_k, cfg.train_fraction)


def _load_repaired(args, cfg: TrainConfig) -> tuple[PriceSeries, PriceSeries]:
    series = load_series(args.input)
    return series, repair_calendar(series, cfg.knn_k)


# --- subcommand handlers ------------------------------------------------
# Each takes (args, out_dir, cfg, run), `run` being the train
# run loaded from --model-dir or None, and returns (its own manifest config
# entries, inputs besides --input and the run's files, output paths).

def _cmd_ingest(args, out_dir: Path, cfg, run):
    series, repaired = _load_repaired(args, cfg)
    out = write_text(out_dir / "repaired.csv", series_to_csv(repaired))
    report = {
        "input_rows": len(series),
        "repaired_rows": len(repaired),
        "imputed_rows": repaired.imputation_count,
        "date_range": [str(repaired.dates[0]), str(repaired.dates[-1])],
    }
    return {}, [], [out, write_json(out_dir / "ingest_report.json", report)]


def _cmd_stats(args, out_dir: Path, cfg, run):
    _, repaired = _load_repaired(args, cfg)
    matrix = FeatureMatrix(list(RAW_COLUMNS), repaired.values, repaired.dates, sma_window=1)

    stats = [describe(matrix.column(name)) for name in RAW_COLUMNS]
    describe_path = write_csv(out_dir / "describe.csv", ["column", *stats[0]],
                              ([name, *d.values()] for name, d in zip(RAW_COLUMNS, stats)))

    cm = correlation_matrix(matrix)
    corr_path = write_text(out_dir / "correlation.csv", cm.to_csv())
    tree = correlation_cluster(cm)
    cluster_path = write_json(out_dir / "clusters.json", tree.to_nested())
    monthly_path = write_text(out_dir / "monthly.csv",
                              monthly_aggregate_csv(monthly_aggregate(repaired)))
    return {}, [], [describe_path, corr_path, cluster_path, monthly_path]


def _cmd_features(args, out_dir: Path, cfg, run):
    _, repaired = _load_repaired(args, cfg)
    features = build_features(repaired, cfg.sma_window)
    scaler = fit_scaler(features, cfg.train_fraction)
    scaled = apply_scaler(features, scaler)
    features_path = write_text(out_dir / "features.csv", features_to_csv(features))
    scaled_path = write_text(out_dir / "scaled.csv", features_to_csv(scaled))
    scaler_path = write_json(out_dir / "scaler.json", scaler.to_dict())
    own = {"trimmed_rows": features.trimmed_rows,
           "zero_div_warnings": features.zero_div_warnings}
    return own, [], [features_path, scaled_path, scaler_path]


def _build_and_train(kind: str, bundle: DatasetBundle, cfg: TrainConfig):
    """Build the requested model family and run its training loop."""
    n_features = bundle.train.inputs.shape[2]
    seq_len = bundle.train.seq_len
    horizon = bundle.train.horizon
    build_rng = RngStream(cfg.seed, ("build", kind))
    if kind in FORECASTER_KINDS:
        units = scale_width(cfg.hidden_units, cfg.width_mult)
        net = build_forecaster(kind, cfg.hidden_layers, units, seq_len, horizon,
                               n_features, build_rng)
        return {"model": net}, train_forecaster(net, bundle.train, cfg)
    if kind in ("gan", "wgan"):
        gen = build_generator(cfg.latent_dim, seq_len, horizon,
                              build_rng.child("generator"), feature_dim=n_features,
                              width_mult=cfg.width_mult)
        if kind == "gan":
            disc = build_discriminator(seq_len + horizon, 1,
                                       build_rng.child("discriminator"),
                                       width_mult=cfg.width_mult)
            trace = train_gan(gen, disc, bundle.train, cfg)
            return {"generator": gen, "discriminator": disc}, trace
        critic = build_critic(seq_len + horizon, 1, build_rng.child("critic"),
                              width_mult=cfg.width_mult)
        trace = train_wgan(gen, critic, bundle.train, cfg)
        return {"generator": gen, "critic": critic}, trace
    nets = build_timegan(n_features, cfg.timegan_hidden, seq_len=seq_len, rng=build_rng)
    return nets, train_timegan(nets, bundle.train, cfg)


def _cmd_train(args, out_dir: Path, cfg, run):
    bundle = _prepare(args, cfg)
    nets, trace = _build_and_train(args.model, bundle, cfg)

    outputs = [write_text(out_dir / "loss_trace.csv", trace.to_csv())]
    for name, net in nets.items():
        save_checkpoint(out_dir / name, net, seed=cfg.seed, step=cfg.epochs)
        outputs += [out_dir / f"{name}.json", out_dir / f"{name}.bin"]
    outputs.append(write_json(out_dir / "scaler.json", bundle.scaler.to_dict()))
    outputs.append(write_json(out_dir / "dataset_manifest.json", bundle.manifest))
    own = {"model": args.model}
    if args.model == "wgan":  # the WGAN steps with its own optimizer, whatever the config says
        own["optimizer"] = WGAN_OPTIMIZER
    return own, [], outputs


def _cmd_forecast(args, out_dir: Path, cfg, run):
    bundle = _prepare(args, cfg)
    horizon = args.steps if args.steps is not None else cfg.horizon
    result = forecast(run.model, bundle.test, horizon, mode=args.mode,
                      scaler=bundle.scaler, seed=cfg.seed)

    outputs = [_write_matrix_csv(out_dir / "forecast_scaled.csv", result.scaled),
               _write_matrix_csv(out_dir / "forecast_original.csv", result.original)]
    actual = inverse_scaler(bundle.test.targets[0, :horizon], bundle.scaler, TARGET_COLUMN)
    predicted = result.original[0]
    dates = (bundle.test.target_dates(0)[:horizon] if bundle.test.dates
             else list(range(1, horizon + 1)))
    # one row per predicted step; past window 0's targets, date and actual are empty
    outputs.append(write_csv(out_dir / "forecast_plot.csv", ["date", "actual", "predicted"],
                             zip_longest(dates, actual, predicted)))
    return {"mode": args.mode, "forecast_horizon": horizon}, [], outputs


def _cmd_generate(args, out_dir: Path, cfg, run):
    if run.kind in FORECASTER_KINDS:
        raise ConfigError(f"model kind {run.kind!r} is a forecaster; "
                          "generate needs gan, wgan, or timegan")
    if args.seq_len_sample is not None and run.kind != "timegan":
        raise ConfigError(f"--seq-len-sample applies to timegan runs; a {run.kind} generator "
                          "samples its window horizon")
    bundle = _prepare(args, cfg)
    seq_len = (args.seq_len_sample if args.seq_len_sample is not None
               else cfg.seq_len)
    samples = generate_synthetic(run.model, args.count, seq_len, cfg.seed,
                                 scaler=bundle.scaler, windows=bundle.train)

    names = bundle.scaled.names if samples.shape[2] > 1 else [TARGET_COLUMN]
    rows = ([i, t, *step] for i, sample in enumerate(samples) for t, step in enumerate(sample))
    outputs = [write_csv(out_dir / "synthetic.csv", ["sample", "step", *names], rows)]
    return {"count": args.count, "sample_seq_len": samples.shape[1]}, [], outputs


def _cmd_evaluate(args, out_dir: Path, cfg, run):
    bundle = _prepare(args, cfg)
    horizons = args.horizons if args.horizons else [cfg.horizon]
    report = horizon_sweep(run.model, bundle.test, horizons, args.weights,
                           scaler=bundle.scaler, epochs=run.config.get("epochs"),
                           name=args.name or run.kind, seed=cfg.seed)
    report = report.with_basis(args.basis)

    report_path = write_json(out_dir / "metrics_report.json", report.as_dict())
    rows = [[h, report.per_horizon[h]["rmse"], report.per_horizon[h]["mape"]]
            for h in report.horizons]
    rows.append(["weighted", report.weighted["rmse"], report.weighted["mape"]])
    csv_path = write_csv(out_dir / "metrics.csv", ["horizon", "rmse", "mape"], rows)
    return {"basis": args.basis, "horizons": horizons}, [], [report_path, csv_path]


def _cmd_compare(args, out_dir: Path, cfg, run):
    if not args.report:
        raise ConfigError("compare needs at least one --report file")
    paths = [Path(p) for p in args.report]
    keys = ("model", "horizons", "per_horizon", "weights", "basis")
    reports = [MetricsReport.from_dict(read_json(p, "metrics report", keys=keys)) for p in paths]

    baseline = None
    if args.input is not None:
        bundle = _prepare(args, cfg)
        baseline = persistence_report(bundle.test, reports[0].horizons, reports[0].weights,
                                      scaler=bundle.scaler).with_basis(reports[0].basis)

    table = compare_models(reports, baseline)
    csv_path = write_text(out_dir / "comparison.csv", table.to_csv())
    json_path = write_json(out_dir / "comparison.json", table.as_dict())
    return {"reports": args.report}, paths, [csv_path, json_path]


def _cmd_perturb(args, out_dir: Path, cfg, run):
    bundle = _prepare(args, cfg)
    grid = perturbation_study(args.model, args.layers, args.epoch_grid, bundle.train,
                              bundle.test, bundle.scaler, cfg, horizons=args.horizons)

    json_path = write_json(out_dir / "perturb.json", grid)
    columns = ["layers", "epochs", "status", "rmse", "mape", "error"]
    csv_path = write_csv(out_dir / "perturb.csv", columns,
                         ([cell.get(c) for c in columns] for cell in grid["cells"]))
    own = {"model": args.model, "layer_grid": args.layers, "epoch_grid": args.epoch_grid}
    return own, [], [json_path, csv_path]


def _cmd_synth_data(args, out_dir: Path, cfg, run):
    series = make_synthetic_series(args.kind, args.rows, cfg.seed)
    out = write_text(out_dir / f"synthetic_{args.kind}.csv", series_to_csv(series))
    return {"kind": args.kind, "rows": args.rows}, [], [out]


_HANDLERS = {
    "ingest": _cmd_ingest,
    "stats": _cmd_stats,
    "features": _cmd_features,
    "train": _cmd_train,
    "forecast": _cmd_forecast,
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
    "perturb": _cmd_perturb,
    "synth-data": _cmd_synth_data,
}


def _config_flag(parser: argparse.ArgumentParser, key: str, **kwargs) -> None:
    """--key-name for config key `key`, typed (or given its choices) by the key's row."""
    row = TrainConfig.KEYS[key]
    kind = {"choices": row.type} if isinstance(row.type, tuple) else {"type": row.type}
    parser.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                        **kind, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default="out", help="artifact directory")
    _config_flag(common, "seed", help="run seed")
    common.add_argument("--preset", choices=sorted(PRESETS), default=None,
                        help="named full-scale training recipe")
    common.add_argument("--config", default=None, help="JSON config file")

    pipe = argparse.ArgumentParser(add_help=False)
    for key in ("seq_len", "horizon", "sma_window", "knn_k", "train_fraction"):
        _config_flag(pipe, key)
    data = argparse.ArgumentParser(add_help=False, parents=[pipe])
    data.add_argument("--input", required=True)
    run = argparse.ArgumentParser(add_help=False, parents=[data])
    run.add_argument("--model-dir", required=True, dest="model_dir")

    train_flags = argparse.ArgumentParser(add_help=False)
    for key in ("epochs", "batch_size", "width_mult", "hidden_layers", "hidden_units",
                "latent_dim", "loss_mode", "n_critic"):
        _config_flag(train_flags, key)

    parser = argparse.ArgumentParser(
        prog="tsgan",
        description="Train and evaluate recurrent forecasters and GANs on OHLCV series.",
    )
    parser.add_argument("--version", action="version", version=f"tsgan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("ingest", parents=[common, data],
                   help="parse and calendar-repair one OHLCV CSV")
    sub.add_parser("stats", parents=[common, data],
                   help="descriptive statistics, correlations, monthly aggregates")
    sub.add_parser("features", parents=[common, data],
                   help="derived feature matrix and fitted scaler")

    p = sub.add_parser("train", parents=[common, data, train_flags],
                       help="train one model and write its checkpoint")
    p.add_argument("--model", required=True, choices=MODEL_KINDS)

    p = sub.add_parser("forecast", parents=[common, run],
                       help="predict future closes from a trained model")
    p.add_argument("--mode", choices=FORECAST_MODES, default="direct")
    p.add_argument("--steps", type=int, default=None,
                   help="forecast length (default: the window horizon)")

    p = sub.add_parser("generate", parents=[common, run],
                       help="sample synthetic sequences from a trained generator")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--seq-len-sample", type=int, default=None, dest="seq_len_sample")

    p = sub.add_parser("evaluate", parents=[common, run],
                       help="RMSE/MAPE report over forecast horizons")
    p.add_argument("--horizons", type=_int_list, default=None)
    p.add_argument("--weights", type=_float_list, default=None)
    p.add_argument("--basis", choices=METRIC_BASES, default="scaled")
    p.add_argument("--name", default=None)

    p = sub.add_parser("compare", parents=[common, pipe],
                       help="combine metric reports into one ranked table")
    p.add_argument("--report", action="append", default=[])
    p.add_argument("--input", default=None,
                   help="OHLCV CSV for the persistence baseline row")

    p = sub.add_parser("perturb", parents=[common, data, train_flags],
                       help="layer/epoch sensitivity grid for a forecaster")
    p.add_argument("--model", required=True, choices=FORECASTER_KINDS)
    p.add_argument("--layers", type=_int_list, required=True)
    p.add_argument("--epoch-grid", type=_int_list, required=True, dest="epoch_grid")
    p.add_argument("--horizons", type=_int_list, default=None)

    p = sub.add_parser("synth-data", parents=[common],
                       help="write a seeded synthetic OHLCV fixture")
    p.add_argument("--kind", required=True, choices=SYNTH_KINDS)
    p.add_argument("--rows", type=int, default=500)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE

    started = utc_now()
    out_dir = Path(args.out_dir)
    model_dir = getattr(args, "model_dir", None)
    try:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot use --out-dir {out_dir}: {e.strerror}") from None
        run = _load_train_run(Path(model_dir)) if model_dir is not None else None
        cfg = _resolve_config(args, run.config if run else None)
        own, inputs, outputs = _HANDLERS[args.command](args, out_dir, cfg, run)
        resolved = cfg.as_dict()
        if getattr(args, "input", None) is not None:
            resolved["input"] = args.input
            inputs.append(Path(args.input))
        if run is not None:
            resolved.update({"model": run.kind, "model_dir": model_dir})
            inputs += run.paths
        resolved.update(own)
        digests = {str(p): file_digest(p) for p in inputs}
        manifest = RunManifest(args.command, argv, resolved, cfg.seed, digests,
                               [str(p) for p in outputs], started=started,
                               finished=utc_now())
        write_manifest(manifest, out_dir / f"{args.command}_manifest.json")
    except ToolkitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CODES[type(e)]
    for path in outputs:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
