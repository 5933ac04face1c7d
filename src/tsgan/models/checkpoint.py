"""Bit-exact network checkpoints.

A checkpoint is a pair of files sharing a stem: <stem>.json carries the
manifest (spec, parameter names and shapes, seed, step) and <stem>.bin is the
network's parameter vector as one little-endian float64 blob. Both list the
parameters in the spec's canonical order (network.param_shapes), the one
layout a Network holds; a manifest that lists them in any other order is
refused, never re-laid out. Round trips are bit-exact by construction.
"""

from __future__ import annotations

import math
import os

import numpy as np

from ..artifacts import is_a, read_json, write_bytes, write_json
from ..errors import DataError
from .network import Network, NetSpec, param_shapes

_MAGIC = "tsgan-checkpoint-v1"
_FIELD_TYPES = {"spec": dict, "params": list, "blob": str}


def _is_param_entry(entry) -> bool:
    """{"name": str, "shape": [non-negative int, ...]}, as save_checkpoint writes it."""
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(is_a(n, int) and n >= 0 for n in entry["shape"]))


def save_checkpoint(stem, net: Network, seed: int | None = None, step: int = 0) -> dict:
    """Write <stem>.json + <stem>.bin; returns the manifest dict."""
    stem = str(stem)
    manifest = {
        "format": _MAGIC,
        "name": net.name,
        "spec": net.spec.to_dict(),
        "params": [{"name": k, "shape": list(p.shape)} for k, p in net.params.items()],
        "seed": seed,
        "step": int(step),
        "blob": os.path.basename(stem) + ".bin",
    }
    blob = net.params.flat.astype("<f8", copy=False).tobytes()
    write_json(stem + ".json", manifest)
    write_bytes(stem + ".bin", blob)
    return manifest


def load_checkpoint(stem) -> tuple[Network, dict]:
    """Read a checkpoint pair back into a Network; bit-exact with what was saved."""
    stem = str(stem)
    manifest = read_json(stem + ".json", "checkpoint manifest", keys=tuple(_FIELD_TYPES))
    if manifest.get("format") != _MAGIC:
        raise DataError(f"not a recognized checkpoint manifest: {stem}.json")
    wrong = [k for k, kind in _FIELD_TYPES.items() if not isinstance(manifest[k], kind)]
    if "params" not in wrong and not all(map(_is_param_entry, manifest["params"])):
        wrong.append("params")
    if wrong:
        raise DataError(f"checkpoint manifest {stem}.json fields have the wrong type: "
                        f"{', '.join(wrong)}")
    blob = manifest["blob"]
    if blob in ("", ".", "..") or os.path.basename(blob) != blob:  # save_checkpoint's own form
        raise DataError(f"checkpoint blob must be a file name beside {stem}.json, got {blob!r}")
    blob_path = os.path.join(os.path.dirname(stem) or ".", blob)
    try:
        with open(blob_path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise DataError(f"cannot read checkpoint blob {blob_path}: {e.strerror}") from None
    spec = NetSpec.from_dict(manifest["spec"])
    shapes = [(entry["name"], tuple(entry["shape"])) for entry in manifest["params"]]
    if shapes != param_shapes(spec):
        raise DataError(f"checkpoint manifest {stem}.json does not list its spec's parameter "
                        "names and shapes in canonical order")
    need = 8 * sum(math.prod(shape) for _, shape in shapes)
    if len(raw) != need:
        raise DataError(f"checkpoint blob {blob_path} holds {len(raw)} bytes; "
                        f"its manifest's parameters need {need}")
    return Network(spec, np.frombuffer(raw, dtype="<f8").astype(np.float64)), manifest
