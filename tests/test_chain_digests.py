"""Bit-identity of one fixed-seed CLI chain over all five model kinds.

tests/fixtures/chain_digests.json holds the SHA-256 of every numeric artifact
of one chain, run in-process: `synth-data --kind jump`, then `train` for gru,
lstm, gan, wgan and timegan at desk scale, then `forecast --mode iterative`
from each train run. The digests cover `loss_trace.csv`, every checkpoint
`.bin` and the forecast CSVs. A refactor of the tape, the optimizer, the
networks or the checkpoints that keeps their numbers keeps these digests.
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


def chain_digests(work: Path) -> dict:
    """Run the chain under `work`; '<out dir>/<file>' -> sha256 of each numeric artifact."""
    data = work / "data"
    assert main(["synth-data", "--kind", "jump", "--rows", "260", "--seed", "21",
                 "--out-dir", str(data)]) == 0
    csv = str(data / "synthetic_jump.csv")
    config = work / "desk.json"
    config.write_text(json.dumps({"timegan_hidden": 3}))
    digests = {}
    for i, kind in enumerate(KINDS):
        train, fc = work / kind, work / f"{kind}_forecast"
        assert main(["train", "--model", kind, "--input", csv, "--config", str(config),
                     *PIPE, *DESK, "--seed", str(30 + i), "--out-dir", str(train)]) == 0, kind
        assert main(["forecast", "--mode", "iterative", "--input", csv, "--model-dir",
                     str(train), *PIPE, "--out-dir", str(fc)]) == 0, kind
        files = [train / "loss_trace.csv", *sorted(train.glob("*.bin")),
                 *(fc / name for name in FORECAST_CSVS)]
        digests.update({f"{p.parent.name}/{p.name}": _sha256(p) for p in files})
    return digests


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
