"""README examples run as written, so the documentation cannot go stale."""

import re
from pathlib import Path

import numpy as np

from tsgan.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block_after(marker: str) -> str:
    text = README.read_text()
    match = re.search(re.escape(marker) + r".*?```python\n(.*?)```", text, re.DOTALL)
    assert match, f"no python block after {marker!r} in README.md"
    return match.group(1)


def test_readme_library_session_runs(tmp_path, monkeypatch, capsys):
    code = _python_block_after("A minimal library session")
    monkeypatch.chdir(tmp_path)
    assert main(["synth-data", "--kind", "sine", "--out-dir", "data"]) == 0
    capsys.readouterr()
    exec(compile(code, str(README), "exec"), {})
    rmse, mape = map(float, capsys.readouterr().out.split())
    assert np.isfinite(rmse) and np.isfinite(mape)
