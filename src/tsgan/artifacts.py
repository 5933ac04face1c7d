"""On-disk layout of every CSV and JSON artifact, and atomic writes.

One CSV cell rule: a float (numpy float64 scalars included) is written as
repr(float(v)), None as an empty cell, anything else through str(). JSON is
written with indent 2, sorted keys and a trailing newline. Every file goes
to a sibling temp file first and is moved into place with os.replace, so a
reader never finds an artifact half-written: it sees the old bytes or the
new ones.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path

from .errors import ConfigError, DataError


def is_a(value, kind) -> bool:
    """isinstance(value, kind), but a bool (what a JSON `true` loads as) is no number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # float() drops np.float64's "np.float64(...)" repr
        return repr(float(value))
    return str(value)


def csv_text(header, rows) -> str:
    """A header row plus data rows as CSV text with "\\n" line ends."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)
    return out.getvalue()


def write_bytes(path: str | Path, data: bytes) -> Path:
    """Replace `path` with `data` atomically; a failed write leaves the old file and no
    temp file. A write the system refuses (a directory in the way, a read-only directory,
    a full disk) is a ConfigError naming the artifact."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException as e:
        tmp.unlink(missing_ok=True)
        if isinstance(e, OSError):
            raise ConfigError(f"cannot write {path}: {e.strerror or e}") from None
        raise
    return path


def write_text(path: str | Path, text: str) -> Path:
    return write_bytes(path, text.encode("utf-8"))


def write_csv(path: str | Path, header, rows) -> Path:
    return write_text(path, csv_text(header, rows))


def write_json(path: str | Path, doc) -> Path:
    return write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_text(path: str | Path, what: str, content: str = "UTF-8 text") -> str:
    """A UTF-8 text file with universal newlines. A file that is missing, unreadable or
    does not decode is a DataError naming `what` it is (and that it "is not `content`")."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}") from None
    except OSError as e:
        raise DataError(f"cannot read {what}: {e}") from None
    except UnicodeDecodeError as e:
        raise DataError(f"{what} {path} is not {content}: {e}") from None


def read_json(path: str | Path, what: str, keys=()) -> dict:
    """Load a JSON object, naming `what` it is in every DataError.

    Raises DataError when the file is missing or unreadable, is not valid
    UTF-8 JSON, nests too deep to parse, is not a JSON object, or lacks one
    of the top-level `keys`.
    """
    try:
        doc = json.loads(read_text(path, what, "valid JSON"))
    except (ValueError, RecursionError) as e:
        raise DataError(f"{what} {path} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{what} {path} must hold a JSON object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise DataError(f"{what} {path} lacks {', '.join(map(repr, missing))}")
    return doc
