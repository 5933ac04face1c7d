"""Bit-identity of one fixed-seed CLI chain over all five model kinds.

tests/fixtures/chain_digests.json holds the SHA-256 of every numeric artifact
of one chain, run in-process: `synth-data --kind jump` and `stats` on its CSV,
then `train` for gru, lstm, gan, wgan and timegan at desk scale, with
`forecast --mode iterative` and `evaluate --horizons 2,4 --basis original`
from each train run, then `compare` of the five reports with the persistence
baseline (`--input`) and a 2x2 `perturb --model gru`. The digests cover
`loss_trace.csv`, every checkpoint `.bin`, the forecast CSVs and every
output of `stats`, `evaluate`, `compare` and `perturb` except its manifest.
A refactor of the tape, the optimizer, the networks, the checkpoints or the
evaluation layer that keeps their numbers keeps these digests.
Regenerate the fixture only for a deliberate numeric change:

    PYTHONPATH=src python tests/test_chain_digests.py

The digests hold for the BLAS build that wrote them; where
`test_kernel_digests.blas_probe` differs the test is skipped, since a
different BLAS may round a product differently.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from test_kernel_digests import blas_probe
from tsgan.cli import main

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "chain_digests.json"
KINDS = ("gru", "lstm", "gan", "wgan", "timegan")
# The discriminator and the critic need seq_len + horizon >= 85.
PIPE = ["--seq-len", "84", "--horizon", "4", "--sma-window", "3"]
DESK = ["--epochs", "3", "--batch-size", "32", "--n-critic", "1", "--width-mult", "0.03125",
        "--latent-dim", "2", "--hidden-layers", "1", "--hidden-units", "3"]
FORECAST_CSVS = ("forecast_scaled.csv", "forecast_original.csv", "forecast_plot.csv")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _outputs(out_dir: Path) -> list[Path]:
    """Every file a subcommand wrote into `out_dir` but its run manifest."""
    return sorted(p for p in out_dir.iterdir() if not p.name.endswith("_manifest.json"))


def chain_digests(work: Path) -> dict:
    """Run the chain under `work`; '<out dir>/<file>' -> sha256 of each numeric artifact."""
    data = work / "data"
    assert main(["synth-data", "--kind", "jump", "--rows", "260", "--seed", "21",
                 "--out-dir", str(data)]) == 0
    csv = str(data / "synthetic_jump.csv")
    config = work / "desk.json"
    config.write_text(json.dumps({"timegan_hidden": 3}))
    assert main(["stats", "--input", csv, "--out-dir", str(work / "stats")]) == 0
    files = _outputs(work / "stats")
    for i, kind in enumerate(KINDS):
        train, fc, ev = work / kind, work / f"{kind}_forecast", work / f"{kind}_evaluate"
        assert main(["train", "--model", kind, "--input", csv, "--config", str(config),
                     *PIPE, *DESK, "--seed", str(30 + i), "--out-dir", str(train)]) == 0, kind
        assert main(["forecast", "--mode", "iterative", "--input", csv, "--model-dir",
                     str(train), *PIPE, "--out-dir", str(fc)]) == 0, kind
        assert main(["evaluate", "--horizons", "2,4", "--basis", "original", "--input", csv,
                     "--model-dir", str(train), *PIPE, "--out-dir", str(ev)]) == 0, kind
        files += [train / "loss_trace.csv", *sorted(train.glob("*.bin")),
                  *(fc / name for name in FORECAST_CSVS), *_outputs(ev)]
    reports = [a for kind in KINDS
               for a in ("--report", str(work / f"{kind}_evaluate" / "metrics_report.json"))]
    assert main(["compare", *reports, "--input", csv, *PIPE,
                 "--out-dir", str(work / "compare")]) == 0
    assert main(["perturb", "--model", "gru", "--layers", "1,2", "--epoch-grid", "1,2",
                 "--input", csv, "--config", str(config), *PIPE, *DESK, "--seed", "40",
                 "--out-dir", str(work / "perturb")]) == 0
    files += [*_outputs(work / "compare"), *_outputs(work / "perturb")]
    return {f"{p.parent.name}/{p.name}": _sha256(p) for p in files}


def write_fixture() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"blas_probe": blas_probe(), "digests": chain_digests(Path(tmp))}
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def test_chain_artifacts_match_the_digests(tmp_path):
    doc = json.loads(FIXTURE.read_text())
    if doc["blas_probe"] != blas_probe():
        pytest.skip("this BLAS rounds the probe products differently from the fixture's")
    assert chain_digests(tmp_path) == doc["digests"]


if __name__ == "__main__":
    write_fixture()
