"""End-to-end command-line runs: artifacts, exit codes, manifests, reruns."""

import csv
import hashlib
import json
import shutil

import numpy as np
import pytest

from tsgan import cli
from tsgan.cli import main
from tsgan.errors import (ConfigError, DataError, DomainError, GraphError,
                          NumericAbort, ShapeError, ToolkitError)
from tsgan.manifest import (RunManifest, file_digest, load_manifest,
                            replace_out_dir, rerun, write_manifest)
from tsgan.models import build_forecaster
from tsgan.numcore import RngStream
from tsgan.training import TIMEGAN_NET_NAMES
from tsgan.training.config import PRESETS, TrainConfig, load_config, preset_overrides

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
    def failing(args, out_dir, cfg, run):
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


def test_target_column_is_not_a_config_key(tmp_path, capsys, data_csv):
    """Every stage forecasts and scores Close, so a config cannot name another column."""
    cfg = tmp_path / "volume.json"
    cfg.write_text(json.dumps({"target_column": "Volume"}))
    rc = main(["train", "--input", str(data_csv), "--model", "gru", "--epochs", "1",
               "--hidden-layers", "1", "--hidden-units", "2", "--config", str(cfg), *PIPE,
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: unknown config key: 'target_column'\n"


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
    ("model.json", lambda text: _edit(text, "spec", "layers", 0, "units")),
    ("model.json", lambda text: _edit(text, "spec", "layers", 0, "units", value="3")),
    ("model.json", lambda text: _edit(text, "spec", "layers", 0, "kind", value="rnn")),
    ("model.json", lambda text: _edit(text, "params", 0, "shape", 0, value=True)),
    *(("model.bin", lambda blob, n=n: blob[:-n]) for n in range(1, 9)),
    ("model.bin", lambda blob: blob + bytes(8)),
    ("model.json", lambda text: _edit(text, "blob", value="")),
    ("model.json", lambda text: _edit(text, "blob", value=".")),
    ("model.json", lambda text: _edit(text, "blob", value="../model.bin")),
    ("report.json", lambda text: _edit(text, "epochs", value=True)),
    ("report.json", lambda text: _edit(text, "hidden_layers", value=True)),
    ("report.json", lambda text: _edit(text, "horizons", value=[True])),
    ("report.json", lambda text: _edit(text, "weights", value=[True])),
    ("report.json", lambda text: _edit(text, "per_horizon", "1", "rmse", value=True)),
], ids=["train-manifest-not-json", "report-not-json", "report-is-a-list",
        "report-lacks-horizons", "checkpoint-lacks-blob", "report-wrong-types",
        "report-weights-mismatch", "train-manifest-config-not-object",
        "checkpoint-spec-lacks-name", "checkpoint-shape-is-a-string",
        "checkpoint-layer-is-an-int", "checkpoint-layer-lacks-units",
        "checkpoint-units-is-a-string", "checkpoint-unknown-layer-kind",
        "checkpoint-shape-entry-is-a-bool",
        *(f"checkpoint-blob-cut-{n}-bytes" for n in range(1, 9)),
        "checkpoint-blob-one-value-too-long", "checkpoint-blob-is-empty",
        "checkpoint-blob-is-the-run-dir", "checkpoint-blob-outside-the-run",
        "report-epochs-is-a-bool", "report-hidden-layers-is-a-bool",
        "report-horizon-is-a-bool", "report-weight-is-a-bool", "report-rmse-is-a-bool"])
def test_corrupt_inputs_exit_2(tmp_path, capsys, data_csv, gru_run, target, corrupt):
    run = tmp_path / "run"
    shutil.copytree(gru_run, run)
    shutil.copy(run / "model.bin", tmp_path)  # a blob of the right size outside the run
    (run / "report.json").write_text(json.dumps(REPORT))
    path = run / target
    if target.endswith(".bin"):
        path.write_bytes(corrupt(path.read_bytes()))
    else:
        path.write_text(corrupt(path.read_text()))
    if target == "report.json":
        argv = ["compare", "--report", str(path)]
    else:
        argv = ["forecast", "--input", str(data_csv), "--model-dir", str(run), *PIPE]
    capsys.readouterr()
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_checkpoint_listing_its_parameters_out_of_order_exits_2(tmp_path, capsys, data_csv,
                                                               gru_run):
    """A checkpoint lists its parameters in the spec's canonical order. The same values
    listed in reverse, the blob permuted to match, are refused, not re-laid out."""
    run = tmp_path / "run"
    shutil.copytree(gru_run, run)
    doc = json.loads((run / "model.json").read_text())
    flat = np.frombuffer((run / "model.bin").read_bytes(), dtype="<f8")
    parts = np.split(flat, np.cumsum([np.prod(e["shape"]) for e in doc["params"]])[:-1])
    doc["params"].reverse()
    (run / "model.json").write_text(json.dumps(doc))
    (run / "model.bin").write_bytes(np.concatenate(parts[::-1]).astype("<f8").tobytes())
    capsys.readouterr()
    assert main(["forecast", "--input", str(data_csv), "--model-dir", str(run), *PIPE,
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "canonical order" in err[0]


def test_checkpoint_whose_spec_feeds_a_gru_rank_2_exits_2_at_load(tmp_path, capsys, data_csv,
                                                                 gru_run):
    """[last_step, gru, dense] is refused when the spec is loaded, before any forward."""
    run = tmp_path / "run"
    shutil.copytree(gru_run, run)
    doc = json.loads((run / "model.json").read_text())
    layers = doc["spec"]["layers"]
    assert [layer["kind"] for layer in layers] == ["gru", "last_step", "dense"]
    layers[:2] = layers[1::-1]
    for entry in doc["params"]:  # the same parameters, listed under the moved gru
        entry["name"] = entry["name"].replace("L0.", "L1.")
    (run / "model.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["forecast", "--input", str(data_csv), "--model-dir", str(run), *PIPE,
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: gru_forecaster: layer 1 (gru) takes a rank-3 input, gets rank 2"]


def test_checkpoint_with_an_activation_on_its_gru_layer_exits_2(tmp_path, capsys, data_csv,
                                                                gru_run):
    """A gru layer applies no activation, so a spec that names one is refused at load."""
    run = tmp_path / "run"
    shutil.copytree(gru_run, run)
    path = run / "model.json"
    path.write_text(_edit(path.read_text(), "spec", "layers", 0, "activation", value="relu"))
    capsys.readouterr()
    assert main(["forecast", "--input", str(data_csv), "--model-dir", str(run), *PIPE,
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: gru_forecaster: layer 0 (gru) applies no activation, got 'relu'"]


def _edited_csv(edit):
    """A case that ingests data_csv with `edit` applied to its text (to str or bytes)."""
    def argv(tmp_path, data_csv, run):
        text = edit(data_csv.read_text())
        path = tmp_path / "edited.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        return ["ingest", "--input", str(path)]
    return argv


def _deep_json(name, command):
    """A case whose `name` file (in a copy of the gru run) nests 200k JSON arrays."""
    def argv(tmp_path, data_csv, run):
        path = tmp_path / name
        path.write_text("[" * 200_000)
        return {"config": ["synth-data", "--kind", "sine", "--rows", "10", "--config", str(path)],
                "report": ["compare", "--report", str(path)],
                "forecast": ["forecast", "--input", str(data_csv), "--model-dir", str(run),
                             *PIPE]}[command]
    return argv


def _row(lines, i, edit):
    return "\n".join([*lines[:i], edit(lines[i]), *lines[i + 1:]]) + "\n"


def _file_as_out_dir(sub):
    """A case whose --out-dir is an existing file, or `sub` under one."""
    def argv(tmp_path, data_csv, run):
        (tmp_path / "a_file").write_text("x")
        return ["ingest", "--input", str(data_csv), "--out-dir", str(tmp_path / "a_file" / sub)]
    return argv


def _directory_as_artifact(tmp_path, data_csv, run):
    """A case whose first artifact, --out-dir's repaired.csv, is an existing directory."""
    (tmp_path / "o2" / "repaired.csv").mkdir(parents=True)
    return ["ingest", "--input", str(data_csv), "--out-dir", str(tmp_path / "o2")]


BAD_INPUTS = {
    "csv-last-row-truncated": (2, _edited_csv(lambda t: t.rstrip("\n").rsplit(",", 3)[0])),
    "csv-unterminated-quote": (2, _edited_csv(
        lambda t: _row(t.splitlines(), 5, lambda r: r.replace(",", ',"', 1)))),
    "csv-field-over-the-csv-limit": (2, _edited_csv(
        lambda t: _row(t.splitlines(), 5, lambda r: r + "9" * 140_000))),
    "csv-nul-byte": (2, _edited_csv(
        lambda t: _row(t.splitlines(), 5, lambda r: r.replace(",", ",\0", 1)))),
    "csv-not-utf-8": (2, _edited_csv(lambda t: t.encode()[:200] + b"\xff" + t.encode()[200:])),
    "input-is-a-directory": (2, lambda tmp_path, data_csv, run: [
        "ingest", "--input", str(data_csv.parent)]),
    "config-nested-too-deep": (1, _deep_json("deep.json", "config")),
    "report-nested-too-deep": (2, _deep_json("deep.json", "report")),
    "run-manifest-nested-too-deep": (2, _deep_json("run/train_manifest.json", "forecast")),
    "checkpoint-nested-too-deep": (2, _deep_json("run/model.json", "forecast")),
    "out-dir-is-a-file": (1, _file_as_out_dir("")),
    "out-dir-under-a-file": (1, _file_as_out_dir("sub")),
    "artifact-path-is-a-directory": (1, _directory_as_artifact),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_malformed_input_or_unusable_out_dir_exits_with_one_error_line(tmp_path, capsys,
                                                                      data_csv, gru_run,
                                                                      case):
    run = tmp_path / "run"
    shutil.copytree(gru_run, run)
    code, make_argv = BAD_INPUTS[case]
    argv = make_argv(tmp_path, data_csv, run)
    if "--out-dir" not in argv:
        argv += ["--out-dir", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(argv) == code  # returns, raises nothing
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not list(tmp_path.rglob(".*.tmp"))


@pytest.mark.parametrize("dims, flag", [({"units": 0}, ["--hidden-units", "0"]),
                                         ({"horizon": 0}, ["--horizon", "0"]),
                                         ({"input_dim": 0}, None)],
                         ids=["units", "horizon", "input-dim"])
def test_bad_forecaster_width_is_a_config_error(tmp_path, data_csv, dims, flag):
    """build_forecaster leaves its layer widths and input width to NetSpec's checks; the
    CLI refuses the two a flag sets with exit 1 (the input width comes from the data)."""
    widths = {"units": 3, "horizon": 2, "input_dim": 2, **dims}
    with pytest.raises(ConfigError, match="gru_forecaster: "):
        build_forecaster("gru", 1, widths["units"], 4, widths["horizon"],
                         widths["input_dim"], RngStream(0, ("dims",)))
    if flag is not None:
        assert main(["train", "--input", str(data_csv), "--model", "gru", "--epochs", "1",
                     *PIPE, *flag, "--out-dir", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("command", ["ingest", "features"])
@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_non_finite_ohlcv_cell_exits_2(tmp_path, capsys, data_csv, command, cell):
    lines = data_csv.read_text().splitlines()
    row = lines[5].split(",")
    row[-1] = cell  # Volume
    lines[5] = ",".join(row)
    path = tmp_path / "nonfinite.csv"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([command, "--input", str(path), *PIPE, "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: row 6: non-finite volume value '{cell}'\n"
    assert not (tmp_path / "o" / "repaired.csv").exists()


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


def test_iterative_forecast_past_the_horizon_plots_every_step(tmp_path, data_csv, gru_run):
    """--steps beyond the window horizon writes one plot row per predicted step; the
    steps past window 0's targets have no date and no actual value."""
    out = tmp_path / "fc"
    steps = 3 + 2  # PIPE's horizon + 2
    rc = main(["forecast", "--input", str(data_csv), "--model-dir", str(gru_run),
               "--mode", "iterative", "--steps", str(steps), *PIPE, "--out-dir", str(out)])
    assert rc == 0
    with open(out / "forecast_plot.csv", newline="") as fh:
        plot = list(csv.reader(fh))
    assert len(plot) == steps + 1
    assert plot[0] == ["date", "actual", "predicted"]
    with open(out / "forecast_original.csv", newline="") as fh:
        original = list(csv.reader(fh))
    assert [row[2] for row in plot[1:]] == original[1][1:]
    assert all(row[0] and row[1] for row in plot[1:4])
    assert all(row[:2] == ["", ""] for row in plot[4:])


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


@pytest.mark.parametrize("length", ["0", "-3"])
def test_generate_non_positive_seq_len_sample_is_a_usage_error(tmp_path, capsys, data_csv,
                                                               timegan_run, length):
    capsys.readouterr()
    rc = main(["generate", "--input", str(data_csv), "--model-dir", str(timegan_run),
               "--seq-len-sample", length, *PIPE, "--out-dir", str(tmp_path / "g")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: seq_len must be >= 1, got {length}\n"


def test_generate_from_a_wgan_samples_its_horizon(tmp_path, capsys, data_csv):
    """A conditional generator emits its window horizon; --seq-len-sample does not apply."""
    run = tmp_path / "wgan"
    assert main(["train", "--input", str(data_csv), "--model", "wgan", *GAN_PIPE, *TINY,
                 "--epochs", "1", "--out-dir", str(run)]) == 0
    data = ["--input", str(data_csv), "--model-dir", str(run), "--count", "2", *GAN_PIPE]
    capsys.readouterr()
    assert main(["generate", *data, "--seq-len-sample", "7",
                 "--out-dir", str(tmp_path / "g7")]) == 1
    assert capsys.readouterr().err == ("error: --seq-len-sample applies to timegan runs; "
                                       "a wgan generator samples its window horizon\n")
    assert main(["generate", *data, "--out-dir", str(tmp_path / "g")]) == 0
    lines = (tmp_path / "g" / "synthetic.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 5  # two samples of the 5-step horizon
    manifest = load_manifest(tmp_path / "g" / "generate_manifest.json")
    assert manifest.config["sample_seq_len"] == 5


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


def test_compare_rejects_reports_with_other_weights(tmp_path, capsys):
    """The ranking column is each report's weighted RMSE, so the weights must agree."""
    per_horizon = {"1": {"rmse": 0.1, "mape": 0.01}, "3": {"rmse": 0.9, "mape": 0.09}}
    paths = []
    for model, weights in (("gru", [1.0, 0.0]), ("lstm", [0.0, 1.0])):
        path = tmp_path / f"{model}.json"
        path.write_text(json.dumps({**REPORT, "model": model, "horizons": [1, 3],
                                    "weights": weights, "per_horizon": per_horizon}))
        paths += ["--report", str(path)]
    capsys.readouterr()
    assert main(["compare", *paths, "--out-dir", str(tmp_path / "c")]) == 2
    assert capsys.readouterr().err == ("error: report 'lstm' weights its horizons "
                                       "[0.0, 1.0], expected [1.0, 0.0]\n")
    assert not (tmp_path / "c" / "comparison.csv").exists()


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


def test_perturb_cells_record_the_settings_they_ran_with(tmp_path, data_csv):
    """Each cell's config is the run's resolved config, pipeline keys included,
    with that cell's layer count and epoch budget."""
    out = tmp_path / "perturb"
    assert main(["perturb", "--input", str(data_csv), "--model", "gru",
                 "--layers", "1,2", "--epoch-grid", "1,2", "--hidden-units", "2",
                 "--batch-size", "64", *PIPE, "--out-dir", str(out)]) == 0
    config = load_manifest(out / "perturb_manifest.json").config
    resolved = {k: config[k] for k in TrainConfig.KEYS}
    assert (resolved["seq_len"], resolved["horizon"], resolved["sma_window"]) == (6, 3, 3)
    cells = json.loads((out / "perturb.json").read_text())["cells"]
    assert [(c["layers"], c["epochs"]) for c in cells] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    for cell in cells:
        expected = {**resolved, "hidden_layers": cell["layers"], "epochs": cell["epochs"]}
        assert cell["manifest"]["config"] == expected


def test_perturb_rejects_horizons_past_the_test_windows_before_training(
        tmp_path, capsys, monkeypatch, data_csv):
    def no_training(*args, **kwargs):
        raise AssertionError("a perturbation cell trained")

    monkeypatch.setattr("tsgan.evaluate.train_forecaster", no_training)
    out = tmp_path / "perturb"
    capsys.readouterr()
    rc = main(["perturb", "--input", str(data_csv), "--model", "gru", "--layers", "1",
               "--epoch-grid", "1,2", "--hidden-units", "2", "--horizons", "5", *PIPE,
               "--out-dir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: test windows span horizon 3, cannot evaluate [5]"]
    assert not (out / "perturb.json").exists()


def test_perturb_exits_on_a_programming_error_instead_of_failing_a_cell(
        tmp_path, capsys, monkeypatch, data_csv):
    def broken(*args, **kwargs):
        raise GraphError("loss tensor is not on this computation record")

    monkeypatch.setattr("tsgan.evaluate.train_forecaster", broken)
    out = tmp_path / "perturb"
    capsys.readouterr()
    rc = main(["perturb", "--input", str(data_csv), "--model", "gru", "--layers", "1",
               "--epoch-grid", "1", "--hidden-units", "2", *PIPE, "--out-dir", str(out)])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: loss tensor is not on this computation record"]
    assert not (out / "perturb.json").exists()


@pytest.mark.parametrize("model", ["gan", "wgan"])
def test_a_window_too_short_for_the_discriminator_exits_1(tmp_path, capsys, data_csv, model):
    """seq_len + horizon (9) is below the conv stack's 85 rows: a usage error."""
    capsys.readouterr()
    rc = main(["train", "--input", str(data_csv), "--model", model, "--epochs", "1", *PIPE,
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: discriminator: input length 9 too short")


@pytest.mark.parametrize("argv", [
    ["evaluate", "--horizons=-2,3"],
    ["evaluate", "--horizons", "0"],
    ["evaluate", "--weights", "nan"],
    ["evaluate", "--horizons", "1,3", "--weights", "1,inf"],
    ["perturb", "--model", "gru", "--layers", "1", "--epoch-grid", "1",
     "--hidden-units", "2", "--horizons", "0"],
    ["perturb", "--model", "gru", "--layers", "0", "--epoch-grid", "1", "--hidden-units", "2"],
    ["perturb", "--model", "gru", "--layers=-2,1", "--epoch-grid", "1", "--hidden-units", "2"],
    ["perturb", "--model", "gru", "--layers", "1", "--epoch-grid", "2,0", "--hidden-units", "2"],
], ids=["negative-horizon", "zero-horizon", "nan-weight", "inf-weight", "perturb-zero-horizon",
        "perturb-zero-layers", "perturb-negative-layers", "perturb-zero-epochs"])
def test_bad_horizons_and_weights_exit_1(tmp_path, capsys, data_csv, gru_run, argv):
    if argv[0] == "evaluate":
        argv = [*argv, "--model-dir", str(gru_run)]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*argv, "--input", str(data_csv), *PIPE, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not any(out.glob("*.json"))


@pytest.mark.parametrize("edit", [
    {"horizons": [-1], "per_horizon": {"-1": REPORT["per_horizon"]["1"]}},
    {"weights": [float("nan")]},
    {"weights": [float("inf")]},
], ids=["negative-horizon", "nan-weight", "inf-weight"])
def test_compare_rejects_reports_with_bad_horizons_or_weights(tmp_path, capsys, edit):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({**REPORT, **edit}))
    capsys.readouterr()
    assert main(["compare", "--report", str(report), "--out-dir", str(tmp_path / "c")]) == 2
    assert "malformed metrics report" in capsys.readouterr().err


# The discriminator and the critic need seq_len + horizon >= 85.
GAN_PIPE = ["--seq-len", "80", "--horizon", "5", "--sma-window", "3"]
TINY = ["--batch-size", "32", "--n-critic", "1", "--width-mult", "0.03125", "--latent-dim", "2",
        "--hidden-layers", "1", "--hidden-units", "3"]


def test_wgan_manifest_records_the_optimizer_it_steps_with(tmp_path, data_csv):
    """The WGAN always steps with RMSProp; the `optimizer` config key does not apply."""
    sgd = tmp_path / "sgd.json"
    sgd.write_text(json.dumps({"optimizer": "sgd"}))
    for name, extra in {"default": [], "sgd": ["--config", str(sgd)]}.items():
        assert main(["train", "--input", str(data_csv), "--model", "wgan", *GAN_PIPE, *TINY,
                     "--epochs", "1", *extra, "--out-dir", str(tmp_path / name)]) == 0
        manifest = load_manifest(tmp_path / name / "train_manifest.json")
        assert manifest.config["optimizer"] == "rmsprop"
    for stem in ("generator", "critic"):
        assert ((tmp_path / "default" / f"{stem}.bin").read_bytes()
                == (tmp_path / "sgd" / f"{stem}.bin").read_bytes())


@pytest.mark.parametrize("kind", ["lstm", "gan", "wgan", "timegan"])
def test_train_replays_byte_identical(tmp_path, data_csv, kind):
    """A second train run with the same seed writes the same trace and checkpoints."""
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({"timegan_hidden": 3}))
    pipe = GAN_PIPE if kind in ("gan", "wgan") else PIPE
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["train", "--input", str(data_csv), "--model", kind, "--config", str(cfg),
                     *pipe, *TINY, "--epochs", "5", "--seed", "12", "--out-dir", str(out)]) == 0
    names = sorted(p.name for p in outs[0].iterdir() if p.name != "train_manifest.json")
    assert "loss_trace.csv" in names and any(n.endswith(".bin") for n in names)
    for name in names:
        assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes(), name


# Each subcommand's manifest config beyond the resolved TrainConfig keys:
# --input whenever it is given, model and model_dir for a loaded train run,
# then the handler's own entries.
_MANIFEST_EXTRA_KEYS = {
    "synth-data": {"kind", "rows"},
    "ingest": {"input"},
    "stats": {"input"},
    "features": {"input", "trimmed_rows", "zero_div_warnings"},
    "train": {"input", "model"},
    "forecast": {"input", "model", "model_dir", "mode", "forecast_horizon"},
    "generate": {"input", "model", "model_dir", "count", "sample_seq_len"},
    "evaluate": {"input", "model", "model_dir", "basis", "horizons"},
    "compare": {"input", "reports"},
    "compare-no-input": {"reports"},
    "perturb": {"input", "model", "layer_grid", "epoch_grid"},
}


@pytest.mark.parametrize("case", sorted(_MANIFEST_EXTRA_KEYS))
def test_manifest_config_of_every_subcommand(tmp_path, data_csv, gru_run, timegan_run, case):
    report = tmp_path / "report.json"
    report.write_text(json.dumps(REPORT))
    data, fit = ["--input", str(data_csv), *PIPE], ["--hidden-units", "2", "--epochs", "1"]
    run = timegan_run if case == "generate" else gru_run
    argv = {
        "synth-data": ["synth-data", "--kind", "sine", "--rows", "40"],
        "ingest": ["ingest", *data],
        "stats": ["stats", *data],
        "features": ["features", *data],
        "train": ["train", "--model", "gru", "--hidden-layers", "1", *fit, *data],
        "forecast": ["forecast", "--model-dir", str(run), *data],
        "generate": ["generate", "--model-dir", str(run), "--count", "2", *data],
        "evaluate": ["evaluate", "--model-dir", str(run), "--horizons", "1", *data],
        "compare": ["compare", "--report", str(report), *data],
        "compare-no-input": ["compare", "--report", str(report)],
        "perturb": ["perturb", "--model", "gru", "--layers", "1", "--epoch-grid", "1",
                    *fit, *data],
    }[case]
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 0
    manifest = load_manifest(out / f"{argv[0]}_manifest.json")
    resolved = set(TrainConfig.DEFAULTS)
    assert set(manifest.config) - resolved == _MANIFEST_EXTRA_KEYS[case]
    assert resolved <= set(manifest.config)
    expected_inputs = {str(report)} if case.startswith("compare") else set()
    if "input" in manifest.config:
        assert manifest.config["input"] == str(data_csv)
        expected_inputs.add(str(data_csv))
    if "model_dir" in manifest.config:
        kind, stems = ("timegan", TIMEGAN_NET_NAMES) if run is timegan_run else ("gru", ["model"])
        assert (manifest.config["model"], manifest.config["model_dir"]) == (kind, str(run))
        expected_inputs |= {str(run / f"{stem}{ext}") for stem in stems
                            for ext in (".json", ".bin")}
        expected_inputs.add(str(run / "train_manifest.json"))
    assert set(manifest.inputs) == expected_inputs


def test_config_resolution_order(tmp_path):
    file_cfg = tmp_path / "cfg.json"
    file_cfg.write_text(json.dumps({"epochs": 9, "seq_len": 12}))
    cfg = load_config(path=str(file_cfg), preset="full-gru",
                      overrides={"seq_len": 15, "seed": None})
    # preset (epochs 50) beats the file; overrides beat both; None is skipped
    assert cfg.epochs == 50
    assert cfg.seq_len == 15
    assert cfg.seed == 0

    cfg2 = load_config()
    assert cfg2.epochs == 250
    assert cfg2.seq_len == TrainConfig.DEFAULTS["seq_len"]

    with pytest.raises(ConfigError, match="nonsense"):
        preset_overrides("nonsense")
    with pytest.raises(ConfigError, match="wat"):
        load_config(overrides={"wat": 1})
    with pytest.raises(ConfigError):
        TrainConfig(seq_len=0)
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


def test_manifest_seed_must_not_be_a_bool(tmp_path):
    path = write_manifest(RunManifest("train", ["train"], {}, 7, {}, []), tmp_path / "m.json")
    path.write_text(_edit(path.read_text(), "seed", value=True))
    with pytest.raises(DataError, match="wrong type: seed"):
        load_manifest(path)


@pytest.mark.parametrize("argv", [[1, 2], ["train", None], [["train"]]])
def test_manifest_argv_must_be_a_list_of_strings(tmp_path, argv):
    path = write_manifest(RunManifest("train", ["train"], {}, 7, {}, []), tmp_path / "m.json")
    path.write_text(_edit(path.read_text(), "argv", value=argv))
    with pytest.raises(DataError, match="wrong type: argv"):
        load_manifest(path)
    with pytest.raises(DataError, match="wrong type: argv"):
        rerun(path, str(tmp_path / "again"), main)


# --- the config key table and its trust boundary ----------------------------
# Every config key against a fixed catalogue of JSON values, in two layers: a
# --config file (a bad value is a usage error, exit 1) and the config of a
# loaded train run (a bad value is corrupt input, exit 2). The catalogue is
# JSON text, so 1e999 reaches the program as the float json reads it as.
FUZZ_VALUES = ["null", "0", "-1", "3.5", '"x"', "[]", "{}", "true", "1e12", "1e999"]
FUZZ_KEYS = sorted(TrainConfig.DEFAULTS)


def _run_once(capsys, argv, allowed):
    """main(argv)'s exit code, which must be in `allowed`; a nonzero one prints one error line."""
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert rc in allowed
    if rc:
        assert len(err) == 1 and err[0].startswith("error: "), err
    else:
        assert not any(line.startswith("error:") for line in err)
    return rc


@pytest.fixture(scope="module")
def fuzz_run(workdir, gru_run):
    """A private copy of the tiny gru run whose train manifest each case rewrites."""
    run = workdir / "fuzz_run"
    shutil.copytree(gru_run, run)
    return run


@pytest.mark.parametrize("value", FUZZ_VALUES)
@pytest.mark.parametrize("key", FUZZ_KEYS)
def test_fuzzed_config_file_exits_0_or_1(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"{key}": {value}}}')
    _run_once(capsys, ["synth-data", "--kind", "sine", "--rows", "10", "--config", str(cfg),
                       "--out-dir", str(tmp_path / "o")], (0, 1))


@pytest.mark.parametrize("value", FUZZ_VALUES)
@pytest.mark.parametrize("key", FUZZ_KEYS)
def test_fuzzed_train_run_config_exits_0_or_2(tmp_path, capsys, data_csv, gru_run, fuzz_run,
                                              key, value):
    doc = json.loads((gru_run / "train_manifest.json").read_text())
    doc["config"][key] = "@FUZZ@"
    (fuzz_run / "train_manifest.json").write_text(json.dumps(doc).replace('"@FUZZ@"', value))
    _run_once(capsys, ["forecast", "--input", str(data_csv), "--model-dir", str(fuzz_run),
                       "--out-dir", str(tmp_path / "o")], (0, 2))


@pytest.mark.parametrize("command, text", [
    ("train", '{"epochs": "x"}'),
    ("features", '{"seq_len": "x"}'),
    ("train", '{"lr_g": 1e999, "epochs": 1}'),
    ("train", '{"sup_weight": "x", "epochs": 1}'),
], ids=["train-epochs-string", "features-seq-len-string", "train-lr-inf",
        "train-sup-weight-string"])
def test_bad_config_file_values_exit_1(tmp_path, capsys, data_csv, command, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    argv = [command, "--input", str(data_csv), *PIPE, "--config", str(cfg),
            "--out-dir", str(tmp_path / "o")]
    if command == "train":
        argv += ["--model", "gru", "--hidden-layers", "1", "--hidden-units", "2"]
    _run_once(capsys, argv, (1,))
    assert not (tmp_path / "o" / f"{command}_manifest.json").exists()


def test_bad_value_in_a_loaded_run_exits_2(tmp_path, capsys, data_csv, gru_run):
    run = tmp_path / "run"
    shutil.copytree(gru_run, run)
    path = run / "train_manifest.json"
    path.write_text(_edit(path.read_text(), "config", "batch_size", value=0))
    capsys.readouterr()
    assert main(["forecast", "--input", str(data_csv), "--model-dir", str(run),
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: batch_size must be >= 1, got 0\n"


def test_a_bad_file_value_is_an_error_even_under_a_flag(tmp_path):
    """Each layer is checked before the merge: a flag does not hide a bad file value."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"epochs": "x"}')
    with pytest.raises(ConfigError, match="epochs must be an integer, got 'x'"):
        load_config(path=str(cfg), overrides={"epochs": 2})


def test_non_numeric_list_flag_is_a_usage_error(tmp_path, capsys, data_csv, gru_run):
    assert main(["evaluate", "--input", str(data_csv), "--model-dir", str(gru_run),
                 "--horizons", "a,b", "--out-dir", str(tmp_path / "o")]) == 1
    assert "expected comma-separated integers, got 'a,b'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, text", [
    (["evaluate", "--horizons", ""], ""),
    (["evaluate", "--horizons", ","], ","),
    (["perturb", "--model", "gru", "--layers", "", "--epoch-grid", "1"], ""),
], ids=["evaluate-horizons-empty", "evaluate-horizons-comma", "perturb-layers-empty"])
def test_empty_list_flag_is_a_usage_error(tmp_path, capsys, data_csv, gru_run, argv, text):
    """An empty list is refused, not read as the flag's default."""
    if argv[0] == "evaluate":
        argv = [*argv, "--model-dir", str(gru_run)]
    out = tmp_path / "o"
    capsys.readouterr()
    assert main([*argv, "--input", str(data_csv), *PIPE, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert sum(line.startswith("usage: ") for line in err) == 1
    assert err[-1].endswith(f": expected comma-separated integers, got {text!r}")
    assert not out.exists()


@pytest.mark.parametrize("key", ["epochs", "seed", "seq_len"])
@pytest.mark.parametrize("value", ["3", 3.0, True, None, [3]])
def test_int_keys_take_only_ints(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be an integer"):
        TrainConfig(**{key: value})


def test_numpy_integers_are_stored_as_int():
    cfg = TrainConfig(epochs=np.int64(3), lr_g=np.int32(1))
    pipe = TrainConfig(seq_len=np.int16(4))
    assert (type(cfg.epochs), type(cfg.lr_g), type(pipe.seq_len)) == (int, int, int)


@pytest.mark.parametrize("value", [True, float("nan"), float("inf"), -float("inf"), 10 ** 400,
                                   "0.1", None],
                         ids=["bool", "nan", "inf", "-inf", "int-past-float-range", "string",
                              "none"])
def test_number_keys_take_only_finite_numbers(value):
    with pytest.raises(ConfigError, match="sup_weight must be a finite number"):
        TrainConfig(sup_weight=value)


def test_number_keys_are_stored_as_given():
    cfg = TrainConfig(lr_g=1, sup_weight=-2.5)
    assert (cfg.lr_g, type(cfg.lr_g), cfg.sup_weight) == (1, int, -2.5)


@pytest.mark.parametrize("key, value", [
    ("batch_size", 0), ("epochs", -1), ("n_critic", 0), ("seq_len", 0), ("horizon", 0),
    ("sma_window", 0), ("knn_k", 0), ("lr_g", 0.0), ("lr_d", -1e-3), ("clip_c", 0),
    ("width_mult", -0.5), ("train_fraction", 0.0), ("train_fraction", 1),
    ("optimizer", "lion"), ("loss_mode", "hinge"), ("hidden_units", 0), ("hidden_units", -3),
])
def test_bounds_and_choices_are_kept(key, value):
    with pytest.raises(ConfigError, match=key):
        TrainConfig(**{key: value})


def test_unbounded_keys_take_any_int_or_number():
    cfg = TrainConfig(seed=-1, hidden_layers=0, latent_dim=0, timegan_hidden=0,
                      sup_weight=-1.0, recon_weight=0)
    assert (cfg.seed, cfg.hidden_layers, cfg.recon_weight) == (-1, 0, 0)


def test_config_flags_read_the_key_table():
    """The 14 config flags take their type or choices from their key's row."""
    subparsers = next(a.choices for a in cli.build_parser()._actions
                      if isinstance(a.choices, dict))
    flags = {a.dest: a for parser in subparsers.values() for a in parser._actions
             if a.dest in TrainConfig.KEYS}
    assert len(TrainConfig.KEYS) == 21 and len(flags) == 14
    for key, action in flags.items():
        row = TrainConfig.KEYS[key]
        if isinstance(row.type, tuple):
            assert action.choices is row.type and action.type is None
        else:
            assert action.type is row.type and action.choices is None
        assert action.option_strings == ["--" + key.replace("_", "-")]
