"""Artifact layout: the CSV cell rule, JSON layout, reads and atomic writes."""

import os
import re
from pathlib import Path

import numpy as np
import pytest

from tsgan import artifacts
from tsgan.errors import ConfigError, DataError


def test_csv_cell_rule():
    text = artifacts.csv_text(["a", "b", "c", "d"],
                              [[np.float64(0.1), None, 3, "x,y"],
                               [1.0, "", np.int64(2), 1e-17]])
    assert text == 'a,b,c,d\n0.1,,3,"x,y"\n1.0,,2,1e-17\n'


def test_json_layout(tmp_path):
    path = artifacts.write_json(tmp_path / "d.json", {"b": [1, 2], "a": 0.5})
    assert path.read_text() == '{\n  "a": 0.5,\n  "b": [\n    1,\n    2\n  ]\n}\n'
    assert artifacts.read_json(path, "doc", keys=("a", "b")) == {"a": 0.5, "b": [1, 2]}


@pytest.mark.parametrize("text, message", [
    (None, "doc not found"),
    ("{not json", "is not valid JSON"),
    (b"\xff\xfe", "is not valid JSON"),
    ("[1, 2]", "must hold a JSON object"),
    ('{"a": 1}', "lacks 'b', 'c'"),
])
def test_read_json_rejects_bad_files(tmp_path, text, message):
    path = tmp_path / "d.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    with pytest.raises(DataError, match=message):
        artifacts.read_json(path, "doc", keys=("a", "b", "c"))


def _write_half_then_fail(self, data):
    with open(self, "wb") as fh:
        fh.write(data[: len(data) // 2])
    raise OSError("disk full")


def _refuse_replace(src, dst):
    raise OSError("replace refused")


@pytest.mark.parametrize("fail", ["mid-write", "at-replace"])
def test_failed_write_keeps_old_bytes_and_no_temp_file(tmp_path, monkeypatch, fail):
    path = artifacts.write_text(tmp_path / "a.csv", "old\n")
    if fail == "mid-write":
        monkeypatch.setattr(Path, "write_bytes", _write_half_then_fail)
    else:
        monkeypatch.setattr(os, "replace", _refuse_replace)
    with pytest.raises(ConfigError, match=re.escape(f"cannot write {path}: ")):
        artifacts.write_csv(path, ["x"], [[1.5]] * 100)
    monkeypatch.undo()
    assert path.read_bytes() == b"old\n"
    assert list(tmp_path.iterdir()) == [path]
