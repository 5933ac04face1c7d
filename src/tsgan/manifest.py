"""Run manifests: what ran, on which inputs, producing which artifacts.

Every CLI run writes one manifest next to its outputs. The manifest carries
the fully resolved configuration (no silent defaults), the seed, sha256
digests of every input file, and the recorded argv, which is enough to
re-run the command and reproduce its numeric outputs byte for byte.
"""

from __future__ import annotations

import hashlib
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .artifacts import is_a, read_json, write_json
from .errors import ConfigError, DataError

MANIFEST_FORMAT = "tsgan-run-v1"
_FIELD_TYPES = {"command": str, "argv": list, "config": dict, "seed": int,
                "inputs": dict, "outputs": list}


def file_digest(path: str | Path) -> str:
    path = Path(path)
    if not path.exists():
        raise DataError(f"cannot digest missing file: {path}")
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return f"sha256:{h.hexdigest()}"


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class RunManifest:
    def __init__(self, command: str, argv: list[str], config: dict, seed: int,
                 inputs: dict, outputs: list[str], version: str = __version__,
                 started: str | None = None, finished: str | None = None):
        self.command = command
        self.argv = list(argv)
        self.config = dict(config)
        self.seed = int(seed)
        self.inputs = dict(inputs)
        self.outputs = [str(p) for p in outputs]
        self.version = version
        self.started = started or utc_now()
        self.finished = finished

    def as_dict(self) -> dict:
        return {
            "format": MANIFEST_FORMAT,
            "command": self.command,
            "argv": self.argv,
            "config": self.config,
            "seed": self.seed,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "version": self.version,
            "started": self.started,
            "finished": self.finished,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        if d.get("format") != MANIFEST_FORMAT:
            raise DataError(f"not a run manifest (format {d.get('format')!r})")
        wrong = sorted(k for k, kind in _FIELD_TYPES.items() if not is_a(d[k], kind)
                       or k == "argv" and not all(isinstance(a, str) for a in d[k]))
        if wrong:
            raise DataError(f"run manifest fields have the wrong type: {', '.join(wrong)}")
        return cls(d["command"], d["argv"], d["config"], d["seed"], d["inputs"],
                   d["outputs"], d.get("version", "unknown"), d.get("started"),
                   d.get("finished"))


def write_manifest(manifest: RunManifest, path: str | Path) -> Path:
    return write_json(path, manifest.as_dict())


def load_manifest(path: str | Path) -> RunManifest:
    doc = read_json(path, "run manifest",
                    keys=("command", "argv", "config", "seed", "inputs", "outputs"))
    return RunManifest.from_dict(doc)


def replace_out_dir(argv: list[str], out_dir: str) -> list[str]:
    """Return argv with any --out-dir pair replaced by the given directory."""
    out: list[str] = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
            continue
        if arg == "--out-dir":
            skip = True
            continue
        if arg.startswith("--out-dir="):
            continue
        out.append(arg)
    return out + ["--out-dir", out_dir]


def rerun(manifest_path: str | Path, out_dir: str, runner) -> int:
    """Re-dispatch a recorded run into a fresh directory via `runner(argv)`."""
    manifest = load_manifest(manifest_path)
    if not manifest.argv:
        raise ConfigError(f"manifest {manifest_path} records no argv to re-run")
    return runner(replace_out_dir(manifest.argv, out_dir))
