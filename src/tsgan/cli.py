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
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import read_json, write_csv, write_json, write_text
from .config import (PIPELINE_DEFAULTS, PRESETS, PipelineConfig, load_config,
                     resolved_config_dict)
from .data.features import FeatureMatrix, build_features, features_to_csv
from .data.ohlcv import RAW_COLUMNS, repair_calendar, series_to_csv
from .data.scaling import apply_scaler, fit_scaler, inverse_scaler
from .data.synth import SYNTH_KINDS, make_synthetic_series
from .errors import (ConfigError, DataError, DomainError, GraphError,
                     NumericAbort, ShapeError, ToolkitError)
from .evaluate import (MetricsReport, compare_models, horizon_sweep,
                       perturbation_study, persistence_report)
from .manifest import (RunManifest, file_digest, load_manifest, utc_now,
                       write_manifest)
from .models.builders import (build_critic, build_discriminator,
                              build_forecaster, build_generator,
                              build_timegan, scale_width)
from .models.checkpoint import load_checkpoint, save_checkpoint
from .numcore import RngStream
from .pipeline import DatasetBundle, load_series, prepare_dataset
from .stats import (DescriptiveStats, correlation_cluster, correlation_matrix,
                    describe, monthly_aggregate, monthly_aggregate_csv)
from .training.config import TrainConfig
from .training.forecaster import train_forecaster
from .training.gan import train_gan
from .training.timegan import TIMEGAN_NET_NAMES, train_timegan
from .training.synthesis import forecast, generate_synthetic
from .training.wgan import train_wgan

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

MODEL_KINDS = ("gru", "lstm", "gan", "wgan", "timegan")


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


def _float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None


def _write_matrix_csv(path: Path, matrix: np.ndarray, prefix: str = "step") -> Path:
    header = ["window"] + [f"{prefix}_{j + 1}" for j in range(matrix.shape[1])]
    return write_csv(path, header, ([i, *row] for i, row in enumerate(matrix)))


def _resolve_config(args, base: dict | None = None) -> tuple[TrainConfig, PipelineConfig]:
    """Config file < preset < a train run's config (`base`) < explicit flags."""
    keys = [*TrainConfig.DEFAULTS, *PIPELINE_DEFAULTS]
    overrides = {k: base[k] for k in keys if base and k in base}
    overrides.update({k: getattr(args, k) for k in keys if getattr(args, k, None) is not None})
    return load_config(getattr(args, "config", None), getattr(args, "preset", None),
                       overrides)


def _prepare(args, train_cfg: TrainConfig, pipe_cfg: PipelineConfig) -> DatasetBundle:
    series = load_series(args.input)
    return prepare_dataset(series, pipe_cfg.seq_len, pipe_cfg.horizon,
                           pipe_cfg.sma_window, pipe_cfg.knn_k,
                           pipe_cfg.train_fraction, pipe_cfg.target_column)


# --- subcommand handlers ------------------------------------------------
# Each returns (config_dict, seed, input_paths, output_paths).

def _cmd_ingest(args, out_dir: Path):
    train_cfg, pipe_cfg = _resolve_config(args)
    series = load_series(args.input)
    repaired = repair_calendar(series, pipe_cfg.knn_k)
    out = write_text(out_dir / "repaired.csv", series_to_csv(repaired))
    report = {
        "input_rows": len(series),
        "repaired_rows": len(repaired),
        "imputed_rows": repaired.imputation_count,
        "date_range": [str(repaired.dates[0]), str(repaired.dates[-1])],
    }
    report_path = write_json(out_dir / "ingest_report.json", report)
    cfg = resolved_config_dict(train_cfg, pipe_cfg)
    return cfg, train_cfg.seed, [Path(args.input)], [out, report_path]


def _cmd_stats(args, out_dir: Path):
    train_cfg, pipe_cfg = _resolve_config(args)
    series = load_series(args.input)
    repaired = repair_calendar(series, pipe_cfg.knn_k)
    matrix = FeatureMatrix(list(RAW_COLUMNS), repaired.values, repaired.dates, sma_window=1)

    rows = []
    for name in RAW_COLUMNS:
        stats = describe(matrix.column(name))
        rows.append([name] + [stats.as_dict()[f] for f in DescriptiveStats.FIELD_NAMES])
    describe_path = write_csv(out_dir / "describe.csv",
                              ["column", *DescriptiveStats.FIELD_NAMES], rows)

    cm = correlation_matrix(matrix)
    corr_path = write_text(out_dir / "correlation.csv", cm.to_csv())
    tree = correlation_cluster(cm)
    cluster_path = write_json(out_dir / "clusters.json", tree.to_nested())
    monthly_path = write_text(out_dir / "monthly.csv",
                              monthly_aggregate_csv(monthly_aggregate(repaired)))

    cfg = resolved_config_dict(train_cfg, pipe_cfg)
    outputs = [describe_path, corr_path, cluster_path, monthly_path]
    return cfg, train_cfg.seed, [Path(args.input)], outputs


def _cmd_features(args, out_dir: Path):
    train_cfg, pipe_cfg = _resolve_config(args)
    series = load_series(args.input)
    repaired = repair_calendar(series, pipe_cfg.knn_k)
    features = build_features(repaired, pipe_cfg.sma_window)
    scaler = fit_scaler(features, pipe_cfg.train_fraction)
    scaled = apply_scaler(features, scaler)
    features_path = write_text(out_dir / "features.csv", features_to_csv(features))
    scaled_path = write_text(out_dir / "scaled.csv", features_to_csv(scaled))
    scaler_path = write_json(out_dir / "scaler.json", scaler.to_dict())
    cfg = resolved_config_dict(train_cfg, pipe_cfg)
    cfg["trimmed_rows"] = features.trimmed_rows
    cfg["zero_div_warnings"] = features.zero_div_warnings
    return cfg, train_cfg.seed, [Path(args.input)], [features_path, scaled_path, scaler_path]


def _build_and_train(kind: str, bundle: DatasetBundle, cfg: TrainConfig):
    """Build the requested model family and run its training loop."""
    n_features = bundle.train.inputs.shape[2]
    seq_len = bundle.train.seq_len
    horizon = bundle.train.horizon
    build_rng = RngStream(cfg.seed, ("build", kind))
    if kind in ("gru", "lstm"):
        units = scale_width(cfg.hidden_units, cfg.width_mult)
        net = build_forecaster(kind, cfg.hidden_layers, units, seq_len, horizon,
                               n_features, build_rng)
        trace = train_forecaster(net, bundle.train, cfg)
        return {"model": net}, trace
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
    if kind == "timegan":
        nets = build_timegan(n_features, cfg.timegan_hidden, seq_len=seq_len,
                             rng=build_rng)
        trace = train_timegan(nets, bundle.train, cfg)
        return nets, trace
    raise ConfigError(f"unknown model kind {kind!r}")


def _cmd_train(args, out_dir: Path):
    train_cfg, pipe_cfg = _resolve_config(args)
    bundle = _prepare(args, train_cfg, pipe_cfg)
    nets, trace = _build_and_train(args.model, bundle, train_cfg)

    outputs = [write_text(out_dir / "loss_trace.csv", trace.to_csv())]
    for name, net in nets.items():
        save_checkpoint(out_dir / name, net, seed=train_cfg.seed,
                        step=train_cfg.epochs)
        outputs += [out_dir / f"{name}.json", out_dir / f"{name}.bin"]
    outputs.append(write_json(out_dir / "scaler.json", bundle.scaler.to_dict()))
    outputs.append(write_json(out_dir / "dataset_manifest.json", bundle.manifest))

    cfg = resolved_config_dict(train_cfg, pipe_cfg)
    cfg["model"] = args.model
    cfg["input"] = str(args.input)
    return cfg, train_cfg.seed, [Path(args.input)], outputs


def _load_train_run(model_dir: Path):
    """Recover model kind, nets, and resolved config from a train run."""
    manifest_path = model_dir / "train_manifest.json"
    config = load_manifest(manifest_path).config
    kind = config.get("model")
    if kind not in MODEL_KINDS:
        raise DataError(f"train manifest in {model_dir} names no valid model kind")
    read_paths = [manifest_path]
    if kind in ("gru", "lstm"):
        net, _ = load_checkpoint(model_dir / "model")
        model = net
        stems = ["model"]
    elif kind in ("gan", "wgan"):
        net, _ = load_checkpoint(model_dir / "generator")
        model = net
        stems = ["generator"]
    else:
        model = {}
        stems = list(TIMEGAN_NET_NAMES)
        for name in stems:
            model[name], _ = load_checkpoint(model_dir / name)
    for stem in stems:
        read_paths += [model_dir / f"{stem}.json", model_dir / f"{stem}.bin"]
    return kind, model, config, read_paths


def _cmd_forecast(args, out_dir: Path):
    model_dir = Path(args.model_dir)
    kind, model, base_cfg, read_paths = _load_train_run(model_dir)
    train_cfg, pipe_cfg = _resolve_config(args, base=base_cfg)
    bundle = _prepare(args, train_cfg, pipe_cfg)
    horizon = args.steps if args.steps is not None else pipe_cfg.horizon
    result = forecast(model, bundle.test, horizon, mode=args.mode,
                      scaler=bundle.scaler, seed=train_cfg.seed)

    outputs = [_write_matrix_csv(out_dir / "forecast_scaled.csv", result.scaled)]
    if result.original is not None:
        outputs.append(_write_matrix_csv(out_dir / "forecast_original.csv",
                                         result.original))
    actual = inverse_scaler(bundle.test.targets[0, :horizon], bundle.scaler, "Close")
    predicted = result.original[0]
    dates = result.dates[0] if result.dates else list(range(1, horizon + 1))
    outputs.append(write_csv(out_dir / "forecast_plot.csv", ["date", "actual", "predicted"],
                             zip(dates, actual, predicted)))

    cfg = resolved_config_dict(train_cfg, pipe_cfg)
    cfg.update({"model": kind, "model_dir": str(model_dir), "mode": args.mode,
                "forecast_horizon": horizon, "input": str(args.input)})
    return cfg, train_cfg.seed, [Path(args.input), *read_paths], outputs


def _cmd_generate(args, out_dir: Path):
    model_dir = Path(args.model_dir)
    kind, model, base_cfg, read_paths = _load_train_run(model_dir)
    if kind in ("gru", "lstm"):
        raise ConfigError(f"model kind {kind!r} is a forecaster; "
                          "generate needs gan, wgan, or timegan")
    train_cfg, pipe_cfg = _resolve_config(args, base=base_cfg)
    bundle = _prepare(args, train_cfg, pipe_cfg)
    seq_len = (args.seq_len_sample if args.seq_len_sample is not None
               else pipe_cfg.seq_len)
    samples = generate_synthetic(model, args.count, seq_len, train_cfg.seed,
                                 scaler=bundle.scaler, windows=bundle.train)

    names = bundle.scaled.names if samples.shape[2] > 1 else ["Close"]
    rows = ([i, t, *step] for i, sample in enumerate(samples) for t, step in enumerate(sample))
    outputs = [write_csv(out_dir / "synthetic.csv", ["sample", "step", *names], rows)]

    cfg = resolved_config_dict(train_cfg, pipe_cfg)
    cfg.update({"model": kind, "model_dir": str(model_dir), "count": args.count,
                "sample_seq_len": seq_len, "input": str(args.input)})
    return cfg, train_cfg.seed, [Path(args.input), *read_paths], outputs


def _cmd_evaluate(args, out_dir: Path):
    model_dir = Path(args.model_dir)
    kind, model, base_cfg, read_paths = _load_train_run(model_dir)
    train_cfg, pipe_cfg = _resolve_config(args, base=base_cfg)
    bundle = _prepare(args, train_cfg, pipe_cfg)
    horizons = args.horizons if args.horizons else [pipe_cfg.horizon]
    weights = args.weights
    report = horizon_sweep(model, bundle.test, horizons, weights,
                           scaler=bundle.scaler, epochs=base_cfg.get("epochs"),
                           name=args.name or kind, seed=train_cfg.seed)
    report = report.with_basis(args.basis)

    report_path = write_json(out_dir / "metrics_report.json", report.as_dict())
    rows = [[h, report.per_horizon[h]["rmse"], report.per_horizon[h]["mape"]]
            for h in report.horizons]
    rows.append(["weighted", report.weighted["rmse"], report.weighted["mape"]])
    csv_path = write_csv(out_dir / "metrics.csv", ["horizon", "rmse", "mape"], rows)

    cfg = resolved_config_dict(train_cfg, pipe_cfg)
    cfg.update({"model": kind, "model_dir": str(model_dir), "basis": args.basis,
                "horizons": horizons, "input": str(args.input)})
    return cfg, train_cfg.seed, [Path(args.input), *read_paths], [report_path, csv_path]


def _cmd_compare(args, out_dir: Path):
    if not args.report:
        raise ConfigError("compare needs at least one --report file")
    reports = []
    inputs = []
    for path in map(Path, args.report):
        doc = read_json(path, "metrics report",
                        keys=("model", "horizons", "per_horizon", "weights", "basis"))
        reports.append(MetricsReport.from_dict(doc))
        inputs.append(path)

    baseline = None
    train_cfg, pipe_cfg = _resolve_config(args)
    if args.input is not None:
        bundle = _prepare(args, train_cfg, pipe_cfg)
        baseline = persistence_report(bundle.test, reports[0].horizons,
                                      reports[0].weights, scaler=bundle.scaler)
        baseline = baseline.with_basis(reports[0].basis)
        inputs.append(Path(args.input))

    table = compare_models(reports, baseline)
    csv_path = write_text(out_dir / "comparison.csv", table.to_csv())
    json_path = write_json(out_dir / "comparison.json", table.as_dict())
    cfg = resolved_config_dict(train_cfg, pipe_cfg)
    cfg["reports"] = [str(p) for p in args.report]
    return cfg, train_cfg.seed, inputs, [csv_path, json_path]


def _cmd_perturb(args, out_dir: Path):
    if args.model not in ("gru", "lstm"):
        raise ConfigError("perturb sweeps forecasters; --model must be gru or lstm")
    train_cfg, pipe_cfg = _resolve_config(args)
    bundle = _prepare(args, train_cfg, pipe_cfg)
    data = {"train": bundle.train, "test": bundle.test, "scaler": bundle.scaler}
    grid = perturbation_study(args.model, args.layers, args.epoch_grid, data,
                              train_cfg, horizons=args.horizons)

    json_path = write_json(out_dir / "perturb.json", grid.as_dict())
    columns = ["layers", "epochs", "status", "rmse", "mape", "error"]
    csv_path = write_csv(out_dir / "perturb.csv", columns,
                         ([cell.get(c) for c in columns] for cell in grid.cells))
    cfg = resolved_config_dict(train_cfg, pipe_cfg)
    cfg.update({"model": args.model, "layer_grid": args.layers,
                "epoch_grid": args.epoch_grid, "input": str(args.input)})
    return cfg, train_cfg.seed, [Path(args.input)], [json_path, csv_path]


def _cmd_synth_data(args, out_dir: Path):
    train_cfg, pipe_cfg = _resolve_config(args)
    series = make_synthetic_series(args.kind, args.rows, train_cfg.seed)
    out = write_text(out_dir / f"synthetic_{args.kind}.csv", series_to_csv(series))
    cfg = resolved_config_dict(train_cfg, pipe_cfg)
    cfg.update({"kind": args.kind, "rows": args.rows})
    return cfg, train_cfg.seed, [], [out]


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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default="out", help="artifact directory")
    common.add_argument("--seed", type=int, default=None, help="run seed")
    common.add_argument("--preset", choices=sorted(PRESETS), default=None,
                        help="named full-scale training recipe")
    common.add_argument("--config", default=None, help="JSON config file")

    pipe = argparse.ArgumentParser(add_help=False)
    pipe.add_argument("--seq-len", type=int, default=None, dest="seq_len")
    pipe.add_argument("--horizon", type=int, default=None)
    pipe.add_argument("--sma-window", type=int, default=None, dest="sma_window")
    pipe.add_argument("--knn-k", type=int, default=None, dest="knn_k")
    pipe.add_argument("--train-fraction", type=float, default=None,
                      dest="train_fraction")

    train_flags = argparse.ArgumentParser(add_help=False)
    train_flags.add_argument("--epochs", type=int, default=None)
    train_flags.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    train_flags.add_argument("--width-mult", type=float, default=None, dest="width_mult")
    train_flags.add_argument("--hidden-layers", type=int, default=None,
                             dest="hidden_layers")
    train_flags.add_argument("--hidden-units", type=int, default=None,
                             dest="hidden_units")
    train_flags.add_argument("--latent-dim", type=int, default=None, dest="latent_dim")
    train_flags.add_argument("--loss-mode", default=None, dest="loss_mode",
                             choices=("nonsaturating", "minimax", "zero_sum"))
    train_flags.add_argument("--n-critic", type=int, default=None, dest="n_critic")

    parser = argparse.ArgumentParser(
        prog="tsgan",
        description="Train and evaluate recurrent forecasters and GANs on OHLCV series.",
    )
    parser.add_argument("--version", action="version", version=f"tsgan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common, pipe],
                       help="parse and calendar-repair one OHLCV CSV")
    p.add_argument("--input", required=True)

    p = sub.add_parser("stats", parents=[common, pipe],
                       help="descriptive statistics, correlations, monthly aggregates")
    p.add_argument("--input", required=True)

    p = sub.add_parser("features", parents=[common, pipe],
                       help="derived feature matrix and fitted scaler")
    p.add_argument("--input", required=True)

    p = sub.add_parser("train", parents=[common, pipe, train_flags],
                       help="train one model and write its checkpoint")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True, choices=MODEL_KINDS)

    p = sub.add_parser("forecast", parents=[common, pipe],
                       help="predict future closes from a trained model")
    p.add_argument("--input", required=True)
    p.add_argument("--model-dir", required=True, dest="model_dir")
    p.add_argument("--mode", choices=("direct", "iterative"), default="direct")
    p.add_argument("--steps", type=int, default=None,
                   help="forecast length (default: the window horizon)")

    p = sub.add_parser("generate", parents=[common, pipe],
                       help="sample synthetic sequences from a trained generator")
    p.add_argument("--input", required=True)
    p.add_argument("--model-dir", required=True, dest="model_dir")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--seq-len-sample", type=int, default=None, dest="seq_len_sample")

    p = sub.add_parser("evaluate", parents=[common, pipe],
                       help="RMSE/MAPE report over forecast horizons")
    p.add_argument("--input", required=True)
    p.add_argument("--model-dir", required=True, dest="model_dir")
    p.add_argument("--horizons", type=_int_list, default=None)
    p.add_argument("--weights", type=_float_list, default=None)
    p.add_argument("--basis", choices=("scaled", "original"), default="scaled")
    p.add_argument("--name", default=None)

    p = sub.add_parser("compare", parents=[common, pipe],
                       help="combine metric reports into one ranked table")
    p.add_argument("--report", action="append", default=[])
    p.add_argument("--input", default=None,
                   help="OHLCV CSV for the persistence baseline row")

    p = sub.add_parser("perturb", parents=[common, pipe, train_flags],
                       help="layer/epoch sensitivity grid for a forecaster")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True, choices=("gru", "lstm"))
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
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        cfg, seed, inputs, outputs = _HANDLERS[args.command](args, out_dir)
        digests = {str(p): file_digest(p) for p in inputs}
        manifest = RunManifest(args.command, argv, cfg, seed, digests,
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
