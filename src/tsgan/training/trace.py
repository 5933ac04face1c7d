"""Per-epoch loss records.

Trace files must be byte-identical across reruns of the same seeded
command, so no wall-clock time is recorded here.
"""

from __future__ import annotations

import csv
import io
import math

from ..errors import NumericAbort

CSV_COLUMNS = ("epoch", "g_loss", "d_loss", "value", "phase")


class LossTrace:
    def __init__(self):
        self.records: list[dict] = []

    def add(self, epoch: int, g_loss: float, d_loss: float, value: float, phase: str) -> None:
        for name, v in (("g_loss", g_loss), ("d_loss", d_loss), ("value", value)):
            if not math.isfinite(v):
                raise NumericAbort(f"non-finite {name} ({v!r}) at epoch {epoch}")
        self.records.append({
            "epoch": int(epoch),
            "g_loss": float(g_loss),
            "d_loss": float(d_loss),
            "value": float(value),
            "phase": str(phase),
        })

    def __len__(self) -> int:
        return len(self.records)

    def last(self, phase: str | None = None) -> dict:
        pool = [r for r in self.records if phase is None or r["phase"] == phase]
        if not pool:
            raise IndexError("empty loss trace")
        return pool[-1]

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in self.records:
            writer.writerow([r["epoch"], repr(r["g_loss"]), repr(r["d_loss"]),
                             repr(r["value"]), r["phase"]])
        return out.getvalue()

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_csv())
