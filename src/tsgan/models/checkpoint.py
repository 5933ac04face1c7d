"""Bit-exact network checkpoints.

A checkpoint is a pair of files sharing a stem: <stem>.json carries the
manifest (spec, parameter names and shapes in canonical order, seed, step)
and <stem>.bin is one flat little-endian float64 blob of every parameter in
manifest order. Round trips are bit-exact by construction.
"""

from __future__ import annotations

import os

import numpy as np

from ..artifacts import read_json, write_bytes, write_json
from ..errors import DataError
from ..numcore import Tensor
from .network import Network, NetSpec

_MAGIC = "tsgan-checkpoint-v1"
_FIELD_TYPES = {"spec": dict, "params": list, "blob": str}


def _is_param_entry(entry) -> bool:
    """{"name": str, "shape": [non-negative int, ...]}, as save_checkpoint writes it."""
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(isinstance(n, int) and n >= 0 for n in entry["shape"]))


def save_checkpoint(stem, net: Network, seed: int | None = None, step: int = 0) -> dict:
    """Write <stem>.json + <stem>.bin; returns the manifest dict."""
    stem = str(stem)
    order = net.param_order()
    manifest = {
        "format": _MAGIC,
        "name": net.name,
        "spec": net.spec.to_dict(),
        "params": [{"name": k, "shape": list(net.params[k].shape)} for k in order],
        "seed": seed,
        "step": int(step),
        "blob": os.path.basename(stem) + ".bin",
    }
    blob = b"".join(
        np.ascontiguousarray(net.params[k].data, dtype="<f8").tobytes() for k in order
    )
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
    blob_path = os.path.join(os.path.dirname(stem) or ".", manifest["blob"])
    try:
        with open(blob_path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise DataError(f"checkpoint blob not found: {blob_path}") from None
    spec = NetSpec.from_dict(manifest["spec"])
    flat = np.frombuffer(raw, dtype="<f8")
    params: dict[str, Tensor] = {}
    offset = 0
    for entry in manifest["params"]:
        shape = tuple(entry["shape"])
        n = int(np.prod(shape)) if shape else 1
        if offset + n > flat.size:
            raise DataError(f"checkpoint blob too short for parameter {entry['name']!r}")
        params[entry["name"]] = Tensor(
            flat[offset : offset + n].reshape(shape).copy(), requires_grad=True
        )
        offset += n
    if offset != flat.size:
        raise DataError(
            f"checkpoint blob has {flat.size - offset} trailing values beyond the manifest"
        )
    return Network(spec, params), manifest
