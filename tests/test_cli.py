"""End-to-end command-line runs: artifacts, exit codes, manifests, reruns."""

import csv
import hashlib
import json
import shutil

import numpy as np
import pytest

from tsgan import cli
from tsgan.cli import main
from tsgan.config import (PIPELINE_DEFAULTS, PRESETS, PipelineConfig, load_config,
                          preset_overrides, split_config_keys)
from tsgan.errors import (ConfigError, DataError, DomainError, GraphError,
                          NumericAbort, ShapeError, ToolkitError)
from tsgan.manifest import (RunManifest, file_digest, load_manifest,
                            replace_out_dir, rerun, write_manifest)

PIPE = ["--seq-len", "6", "--horizon", "3", "--sma-window", "3"]

# sha256 of synth-data --kind sine --rows 120 --seed 7, frozen from the first
# build to pin generator output bytes.
SINE_120_SEED7_SHA256 = (
    "sha256:b47b61dfdc1f224cfbbbc07c49dc8de77771374a8d110e5e61d6cc4505a6a61d"
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def data_csv(workdir):
    out = workdir / "data"
    assert main(["synth-data", "--kind", "sine", "--rows", "150", "--seed", "4",
                 "--out-dir", str(out)]) == 0
    return out / "synthetic_sine.csv"


@pytest.fixture(scope="module")
def gru_run(workdir, data_csv):
    out = workdir / "gru_run"
    rc = main(["train", "--input", str(data_csv), "--model", "gru",
               "--epochs", "2", "--hidden-layers", "1", "--hidden-units", "3",
               "--batch-size", "32", "--seed", "5", *PIPE,
               "--out-dir", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def timegan_run(workdir, data_csv):
    cfg = workdir / "timegan.json"
    cfg.write_text(json.dumps({"timegan_hidden": 3, "epochs": 5,
                               "lr_g": 1e-2, "lr_d": 1e-2, "batch_size": 64}))
    out = workdir / "timegan_run"
    rc = main(["train", "--input", str(data_csv), "--model", "timegan",
               "--config", str(cfg), "--seed", "6", *PIPE,
               "--out-dir", str(out)])
    assert rc == 0
    return out


def test_synth_data_digest_is_stable(tmp_path):
    out = tmp_path / "a"
    assert main(["synth-data", "--kind", "sine", "--rows", "120", "--seed", "7",
                 "--out-dir", str(out)]) == 0
    assert file_digest(out / "synthetic_sine.csv") == SINE_120_SEED7_SHA256
    manifest = load_manifest(out / "synth-data_manifest.json")
    assert manifest.command == "synth-data"
    assert manifest.inputs == {}
    assert str(out / "synthetic_sine.csv") in manifest.outputs


def test_usage_and_data_exit_codes(tmp_path, capsys):
    assert main(["--version"]) == 0
    assert main(["synth-data", "--kind", "sine", "--frobnicate"]) == 1
    assert main(["synth-data", "--kind", "triangle", "--out-dir", str(tmp_path)]) == 1
    assert main(["ingest", "--input", str(tmp_path / "absent.csv"),
                 "--out-dir", str(tmp_path)]) == 2
    capsys.readouterr()


def test_every_toolkit_error_has_an_exit_code():
    pending, seen = list(ToolkitError.__subclasses__()), set()
    while pending:
        cls = pending.pop()
        seen.add(cls)
        pending.extend(cls.__subclasses__())
    assert seen <= set(cli.EXIT_CODES)
    assert cli.EXIT_CODES == {ConfigError: 1, DataError: 2, ShapeError: 2,
                              DomainError: 2, NumericAbort: 3, GraphError: 3}


@pytest.mark.parametrize("exc", [GraphError, NumericAbort])
def test_numeric_and_graph_errors_exit_3(tmp_path, capsys, monkeypatch, exc):
    def failing(args, out_dir):
        raise exc("step went wrong")

    monkeypatch.setitem(cli._HANDLERS, "synth-data", failing)
    rc = main(["synth-data", "--kind", "sine", "--out-dir", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == "error: step went wrong\n"


def test_unknown_config_key_is_named(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"learning_rte": 0.1}))
    rc = main(["synth-data", "--kind", "sine", "--rows", "10",
               "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "learning_rte" in capsys.readouterr().err


@pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"])
def test_bad_config_file_exits_1(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    rc = main(["synth-data", "--kind", "sine", "--rows", "10",
               "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config file")


_DROP = object()


def _edit(text, *path, value=_DROP):
    """JSON text with the item at `path` set to `value`, or dropped without one."""
    doc = json.loads(text)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is _DROP:
        del node[last]
    else:
        node[last] = value
    return json.dumps(doc)


REPORT = {"model": "gru", "horizons": [1], "weights": [1.0], "basis": "scaled",
          "per_horizon": {"1": {"rmse": 0.5, "mape": 0.05}}}


@pytest.mark.parametrize("target, corrupt", [
    ("train_manifest.json", lambda text: "{not json"),
    ("report.json", lambda text: "{not json"),
    ("report.json", lambda text: "[1, 2]"),
    ("report.json", lambda text: _edit(text, "horizons")),
    ("model.json", lambda text: _edit(text, "blob")),
    ("report.json", lambda text: _edit(text, "per_horizon", value=[1])),
    ("report.json", lambda text: _edit(text, "weights", value=[1.0, 2.0])),
    ("train_manifest.json", lambda text: _edit(text, "config", value="abc")),
    ("model.json", lambda text: _edit(text, "spec", "name")),
    ("model.json", lambda text: _edit(text, "params", 0, "shape", value="abc")),
    ("model.json", lambda text: _edit(text, "spec", "layers", 0, value=3)),
], ids=["train-manifest-not-json", "report-not-json", "report-is-a-list",
        "report-lacks-horizons", "checkpoint-lacks-blob", "report-wrong-types",
        "report-weights-mismatch", "train-manifest-config-not-object",
        "checkpoint-spec-lacks-name", "checkpoint-shape-is-a-string",
        "checkpoint-layer-is-an-int"])
def test_corrupt_inputs_exit_2(tmp_path, capsys, data_csv, gru_run, target, corrupt):
    run = tmp_path / "run"
    shutil.copytree(gru_run, run)
    (run / "report.json").write_text(json.dumps(REPORT))
    path = run / target
    path.write_text(corrupt(path.read_text()))
    if target == "report.json":
        argv = ["compare", "--report", str(path)]
    else:
        argv = ["forecast", "--input", str(data_csv), "--model-dir", str(run), *PIPE]
    capsys.readouterr()
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def _assert_numeric_cells(path):
    rows = list(csv.reader(path.read_text().splitlines()))
    for row in rows[1:]:
        for cell in row[1:]:
            float(cell)  # raises on cells like "np.float64(1.5)"


def test_ingest_artifacts(tmp_path, data_csv):
    out = tmp_path / "ingest"
    assert main(["ingest", "--input", str(data_csv), *PIPE,
                 "--out-dir", str(out)]) == 0
    assert (out / "repaired.csv").exists()
    report = json.loads((out / "ingest_report.json").read_text())
    assert report["input_rows"] == 150
    assert report["repaired_rows"] >= 150
    assert "date_range" in report
    manifest = load_manifest(out / "ingest_manifest.json")
    assert manifest.inputs[str(data_csv)].startswith("sha256:")


# sha256 of the ingest and features outputs for _damaged_csv, recorded when
# PriceSeries still held one Python object per day: the columnar data layer
# must reproduce them byte for byte.
DAMAGED_DIGESTS = {
    "repaired.csv":
        "sha256:dbdbf86b4e2a4029acd6d0290c6551ec78084ad200178506eb222deea3479beb",
    "ingest_report.json":
        "sha256:2bec21f623a21185ec729d82bad338f1d362d26893ae39a4890ed1e57b9a97ca",
    "features.csv":
        "sha256:f5a1dc3c4fe04079dac8d61a983db1cb82b17e66a187ccd42caaf038df6e7d35",
    "scaled.csv":
        "sha256:183793b840e53ade3a97c221b82452f89aeaa0bbc22411109374365e07e9d139",
    "scaler.json":
        "sha256:1416d7417518915b721eb918ab522d68b15f3599eb0d48eb644697b3f7aa5723",
}


def _damaged_csv(out):
    """A 60-day jump fixture with a Saturday row, a missing Monday and a two-day hole."""
    assert main(["synth-data", "--kind", "jump", "--rows", "60", "--seed", "3",
                 "--out-dir", str(out)]) == 0
    drop = ("2015-01-19", "2015-02-04", "2015-02-05")  # Monday; Wednesday + Thursday
    lines = [line for line in (out / "synthetic_jump.csv").read_text().splitlines()
             if line[:10] not in drop]
    lines.append("2015-02-14,1.0,3.0,0.5,2.0,2.0,7.0")  # a Saturday, out of order
    path = out / "damaged.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_data_layer_outputs_are_byte_identical(tmp_path):
    damaged = _damaged_csv(tmp_path / "data")
    out = tmp_path / "out"
    for command in ("ingest", "features"):
        assert main([command, "--input", str(damaged), *PIPE, "--out-dir", str(out)]) == 0
    report = json.loads((out / "ingest_report.json").read_text())
    assert (report["input_rows"], report["repaired_rows"], report["imputed_rows"]) == (58, 60, 3)
    assert {name: file_digest(out / name) for name in DAMAGED_DIGESTS} == DAMAGED_DIGESTS


def test_stats_artifacts(tmp_path, data_csv):
    out = tmp_path / "stats"
    assert main(["stats", "--input", str(data_csv), *PIPE,
                 "--out-dir", str(out)]) == 0
    describe = (out / "describe.csv").read_text().splitlines()
    assert describe[0].startswith("column,mean,standard_error,median")
    assert len(describe) == 7  # header + six raw columns
    corr = (out / "correlation.csv").read_text().splitlines()
    assert corr[0] == ",Open,High,Low,Close,Adj Close,Volume"
    _assert_numeric_cells(out / "correlation.csv")
    clusters = json.loads((out / "clusters.json").read_text())
    assert isinstance(clusters, list) and len(clusters) == 3
    monthly = (out / "monthly.csv").read_text().splitlines()
    assert monthly[0] == "month,column,mean,max,min"


def test_features_artifacts(tmp_path, data_csv):
    out = tmp_path / "features"
    assert main(["features", "--input", str(data_csv), *PIPE,
                 "--out-dir", str(out)]) == 0
    header = (out / "features.csv").read_text().splitlines()[0].split(",")
    assert len(header) == 19 and header[0] == "Date"
    assert "Close_Diff" in header and "Volume_SMA" in header
    scaler = json.loads((out / "scaler.json").read_text())
    assert len(scaler["names"]) == 18
    _assert_numeric_cells(out / "features.csv")
    _assert_numeric_cells(out / "scaled.csv")


def test_train_gru_artifacts_and_manifest(gru_run, data_csv):
    for name in ("loss_trace.csv", "model.json", "model.bin", "scaler.json",
                 "dataset_manifest.json", "train_manifest.json"):
        assert (gru_run / name).exists(), name
    trace = (gru_run / "loss_trace.csv").read_text().splitlines()
    assert trace[0] == "epoch,g_loss,d_loss,value,phase"
    assert len(trace) == 3  # two epochs
    manifest = load_manifest(gru_run / "train_manifest.json")
    assert manifest.config["model"] == "gru"
    assert manifest.config["epochs"] == 2
    assert manifest.config["seq_len"] == 6
    assert manifest.seed == 5
    dataset = json.loads((gru_run / "dataset_manifest.json").read_text())
    assert dataset["window_count"] == dataset["train_windows"] + dataset["test_windows"]


def test_train_is_deterministic(tmp_path, data_csv, gru_run):
    out = tmp_path / "again"
    rc = main(["train", "--input", str(data_csv), "--model", "gru",
               "--epochs", "2", "--hidden-layers", "1", "--hidden-units", "3",
               "--batch-size", "32", "--seed", "5", *PIPE,
               "--out-dir", str(out)])
    assert rc == 0
    for name in ("loss_trace.csv", "model.bin", "scaler.json"):
        assert (out / name).read_bytes() == (gru_run / name).read_bytes(), name


def test_rerun_from_manifest_reproduces_outputs(tmp_path, gru_run):
    out = tmp_path / "rerun"
    rc = rerun(gru_run / "train_manifest.json", str(out), main)
    assert rc == 0
    for name in ("loss_trace.csv", "model.bin", "model.json", "scaler.json",
                 "dataset_manifest.json"):
        assert (out / name).read_bytes() == (gru_run / name).read_bytes(), name


def test_forecast_artifacts_and_steps(tmp_path, data_csv, gru_run):
    out = tmp_path / "fc"
    rc = main(["forecast", "--input", str(data_csv), "--model-dir", str(gru_run),
               "--steps", "2", *PIPE, "--out-dir", str(out)])
    assert rc == 0
    scaled = (out / "forecast_scaled.csv").read_text().splitlines()
    assert scaled[0] == "window,step_1,step_2"
    original = (out / "forecast_original.csv").read_text().splitlines()
    assert len(original) == len(scaled)
    plot = (out / "forecast_plot.csv").read_text().splitlines()
    assert plot[0] == "date,actual,predicted"
    assert len(plot) == 3  # header + two steps
    manifest = load_manifest(out / "forecast_manifest.json")
    assert manifest.config["forecast_horizon"] == 2
    assert manifest.config["model"] == "gru"


def test_generate_from_timegan(tmp_path, data_csv, timegan_run):
    out = tmp_path / "gen"
    rc = main(["generate", "--input", str(data_csv), "--model-dir",
               str(timegan_run), "--count", "3", "--seq-len-sample", "4",
               *PIPE, "--out-dir", str(out)])
    assert rc == 0
    lines = (out / "synthetic.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["sample", "step"]
    assert len(header) == 20  # sample, step, 18 feature columns
    assert len(lines) == 1 + 3 * 4
    values = np.array([line.split(",")[2:] for line in lines[1:]], dtype=float)
    assert np.all(np.isfinite(values))


def test_generate_rejects_forecaster_runs(tmp_path, data_csv, gru_run):
    rc = main(["generate", "--input", str(data_csv), "--model-dir", str(gru_run),
               *PIPE, "--out-dir", str(tmp_path / "g")])
    assert rc == 1


def test_evaluate_and_compare_flow(tmp_path, data_csv, gru_run):
    eval_a = tmp_path / "eval_a"
    rc = main(["evaluate", "--input", str(data_csv), "--model-dir", str(gru_run),
               "--horizons", "1,3", "--weights", "1,2", "--name", "gru-a",
               *PIPE, "--out-dir", str(eval_a)])
    assert rc == 0
    report = json.loads((eval_a / "metrics_report.json").read_text())
    assert report["model"] == "gru-a"
    assert report["horizons"] == [1, 3]
    assert report["basis"] == "scaled"
    assert report["epochs"] == 2 and report["hidden_layers"] == 1
    metrics = (eval_a / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "horizon,rmse,mape"
    assert len(metrics) == 4 and metrics[-1].startswith("weighted,")

    eval_b = tmp_path / "eval_b"
    assert main(["evaluate", "--input", str(data_csv), "--model-dir",
                 str(gru_run), "--horizons", "1,3", "--weights", "1,2",
                 "--name", "gru-b", *PIPE, "--out-dir", str(eval_b)]) == 0

    cmp_dir = tmp_path / "cmp"
    rc = main(["compare", "--report", str(eval_a / "metrics_report.json"),
               "--report", str(eval_b / "metrics_report.json"),
               "--input", str(data_csv), *PIPE, "--out-dir", str(cmp_dir)])
    assert rc == 0
    lines = (cmp_dir / "comparison.csv").read_text().splitlines()
    assert lines[0] == ("MODEL,RMSE,MAPE,Number of Hidden Layers,EPOCH Number,"
                        "RMSE@1,MAPE@1,RMSE@3,MAPE@3")
    models = [line.split(",")[0] for line in lines[1:]]
    assert models == ["gru-a", "gru-b", "persistence"]  # rmse tie -> name order


def test_compare_rejects_mixed_bases(tmp_path, data_csv, gru_run, capsys):
    eval_o = tmp_path / "eval_o"
    assert main(["evaluate", "--input", str(data_csv), "--model-dir",
                 str(gru_run), "--horizons", "1,3", "--basis", "original",
                 "--name", "gru-o", *PIPE, "--out-dir", str(eval_o)]) == 0
    eval_s = tmp_path / "eval_s"
    assert main(["evaluate", "--input", str(data_csv), "--model-dir",
                 str(gru_run), "--horizons", "1,3", "--name", "gru-s",
                 *PIPE, "--out-dir", str(eval_s)]) == 0
    rc = main(["compare", "--report", str(eval_o / "metrics_report.json"),
               "--report", str(eval_s / "metrics_report.json"),
               "--out-dir", str(tmp_path / "c")])
    assert rc == 2
    assert "mixed metric bases" in capsys.readouterr().err


def test_compare_missing_report_file(tmp_path):
    rc = main(["compare", "--report", str(tmp_path / "nope.json"),
               "--out-dir", str(tmp_path / "c")])
    assert rc == 2


def test_perturb_cli(tmp_path, data_csv):
    out = tmp_path / "perturb"
    rc = main(["perturb", "--input", str(data_csv), "--model", "gru",
               "--layers", "1", "--epoch-grid", "1,2", "--hidden-units", "3",
               "--batch-size", "64", *PIPE, "--out-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "perturb.json").read_text())
    assert doc["layer_grid"] == [1] and doc["epoch_grid"] == [1, 2]
    assert all(c["status"] == "ok" for c in doc["cells"])
    lines = (out / "perturb.csv").read_text().splitlines()
    assert lines[0] == "layers,epochs,status,rmse,mape,error"
    assert len(lines) == 3


def test_config_resolution_order(tmp_path):
    file_cfg = tmp_path / "cfg.json"
    file_cfg.write_text(json.dumps({"epochs": 9, "seq_len": 12}))
    train, pipe = load_config(path=str(file_cfg), preset="full-gru",
                              overrides={"seq_len": 15, "seed": None})
    # preset (epochs 50) beats the file; overrides beat both; None is skipped
    assert train.epochs == 50
    assert pipe.seq_len == 15
    assert train.seed == 0

    train2, pipe2 = load_config()
    assert train2.epochs == 250
    assert pipe2.seq_len == PIPELINE_DEFAULTS["seq_len"]

    with pytest.raises(ConfigError, match="nonsense"):
        preset_overrides("nonsense")
    with pytest.raises(ConfigError, match="wat"):
        split_config_keys({"wat": 1})
    with pytest.raises(ConfigError):
        PipelineConfig(seq_len=0)
    assert set(PRESETS) == {"full-gan", "full-wgan", "full-gru", "full-lstm",
                            "full-timegan"}


def test_manifest_helpers(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"abc")
    assert file_digest(path) == "sha256:" + hashlib.sha256(b"abc").hexdigest()
    with pytest.raises(DataError):
        file_digest(tmp_path / "missing.bin")

    m = RunManifest("train", ["train", "--out-dir", "old"], {"epochs": 2}, 7,
                    {"in.csv": "sha256:00"}, ["old/model.bin"])
    again = load_manifest(write_manifest(m, tmp_path / "x_manifest.json"))
    assert again.command == "train" and again.seed == 7
    assert again.config == {"epochs": 2}

    argv = replace_out_dir(["train", "--out-dir", "old", "--seed", "1"], "new")
    assert argv == ["train", "--seed", "1", "--out-dir", "new"]
    argv2 = replace_out_dir(["train", "--out-dir=old"], "new")
    assert argv2 == ["train", "--out-dir", "new"]
