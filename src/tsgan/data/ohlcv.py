"""OHLCV record parsing and trading-calendar repair.

The CSV contract: a header naming Date, Open, High, Low, Close, Adj Close,
Volume (any order, any case), one row per calendar date. Repair drops
weekend rows, maps a missing Monday to its preceding Friday, and fills any
remaining business-day holes by per-field KNN averaging over calendar-day
distance.
"""

from __future__ import annotations

import csv
import datetime as dt
import io

from ..artifacts import csv_text
from ..errors import DataError

REQUIRED_COLUMNS = ("date", "open", "high", "low", "close", "adj close", "volume")

MAX_GAP_BUSINESS_DAYS = 10


class OhlcvRecord:
    """One trading day. Prices are index points, volume a non-negative count."""

    __slots__ = ("date", "open", "high", "low", "close", "adj_close", "volume")

    def __init__(self, date, open, high, low, close, adj_close, volume):
        self.date = date
        self.open = float(open)
        self.high = float(high)
        self.low = float(low)
        self.close = float(close)
        self.adj_close = float(adj_close)
        self.volume = float(volume)
        if self.volume < 0:
            raise DataError(f"{date}: negative volume {self.volume}")
        if self.low > min(self.open, self.close) + 1e-9:
            raise DataError(f"{date}: low {self.low} above open/close")
        if self.high < max(self.open, self.close) - 1e-9:
            raise DataError(f"{date}: high {self.high} below open/close")

    def values(self) -> tuple:
        return (self.open, self.high, self.low, self.close, self.adj_close, self.volume)

    @classmethod
    def from_values(cls, date, vals) -> "OhlcvRecord":
        return cls(date, *vals)


class PriceSeries:
    """Date-ordered OHLCV records with a provenance note (raw or repaired)."""

    def __init__(self, records: list[OhlcvRecord], provenance: str = "raw",
                 imputation_count: int = 0):
        for a, b in zip(records, records[1:]):
            if a.date >= b.date:
                raise DataError(f"dates not strictly increasing at {b.date}")
        if provenance == "repaired":
            for r in records:
                if r.date.weekday() >= 5:
                    raise DataError(f"repaired series contains weekend date {r.date}")
        self.records = list(records)
        self.provenance = provenance
        self.imputation_count = int(imputation_count)

    def __len__(self) -> int:
        return len(self.records)

    def dates(self) -> list:
        return [r.date for r in self.records]

    def column(self, name: str) -> list[float]:
        attr = {"Open": "open", "High": "high", "Low": "low", "Close": "close",
                "Adj Close": "adj_close", "Volume": "volume"}[name]
        return [getattr(r, attr) for r in self.records]


def parse_ohlcv_csv(text: str) -> PriceSeries:
    """Parse CSV text into a raw PriceSeries; duplicate dates are rejected."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty CSV: no header row") from None
    lookup = {name.strip().lower(): i for i, name in enumerate(header)}
    missing = [c for c in REQUIRED_COLUMNS if c not in lookup]
    if missing:
        raise DataError(f"missing required columns: {missing}")
    idx = [lookup[c] for c in REQUIRED_COLUMNS]
    records = []
    seen = set()
    for row_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        cells = [row[i].strip() for i in idx]
        try:
            date = dt.date.fromisoformat(cells[0])
        except ValueError:
            raise DataError(f"row {row_no}: unparseable date {cells[0]!r}") from None
        if date in seen:
            raise DataError(f"row {row_no}: duplicate date {date}")
        seen.add(date)
        numbers = []
        for name, cell in zip(REQUIRED_COLUMNS[1:], cells[1:]):
            try:
                numbers.append(float(cell))
            except ValueError:
                raise DataError(
                    f"row {row_no}: unparseable {name} value {cell!r}"
                ) from None
        try:
            records.append(OhlcvRecord(date, *numbers))
        except DataError as e:
            raise DataError(f"row {row_no}: {e}") from None
    records.sort(key=lambda r: r.date)
    return PriceSeries(records, provenance="raw")


def series_to_csv(series: PriceSeries) -> str:
    return csv_text(["Date", "Open", "High", "Low", "Close", "Adj Close", "Volume"],
                    ([r.date, *r.values()] for r in series.records))


def _business_days(first: dt.date, last: dt.date) -> list[dt.date]:
    days = []
    d = first
    one = dt.timedelta(days=1)
    while d <= last:
        if d.weekday() < 5:
            days.append(d)
        d += one
    return days


def repair_calendar(series: PriceSeries, knn_k: int = 5) -> PriceSeries:
    """Weekend drop, Friday-to-Monday mapping, then KNN imputation of holes.

    KNN neighbors are the k nearest present rows by calendar-day distance;
    a distance tie on both sides includes both rows. Gaps longer than
    MAX_GAP_BUSINESS_DAYS abort rather than fabricate structure. The repair
    is idempotent.
    """
    if knn_k < 1:
        raise DataError(f"knn_k must be >= 1, got {knn_k}")
    if not series.records:
        raise DataError("cannot repair an empty series")
    present = {r.date: r for r in series.records if r.date.weekday() < 5}
    if not present:
        raise DataError("series has no business-day rows")
    first = min(present)
    last = max(present)
    grid = _business_days(first, last)

    # Pass 1: a missing Monday inherits its preceding Friday's row.
    filled = dict(present)
    monday_fills = 0
    for day in grid:
        if day in filled or day.weekday() != 0:
            continue
        friday = day - dt.timedelta(days=3)
        if friday in filled and friday in present:
            filled[day] = OhlcvRecord.from_values(day, filled[friday].values())
            monday_fills += 1

    # Longest run of still-missing business days decides imputability.
    missing = [day for day in grid if day not in filled]
    run = 0
    longest = 0
    for day in grid:
        run = run + 1 if day not in filled else 0
        longest = max(longest, run)
    if longest > MAX_GAP_BUSINESS_DAYS:
        raise DataError(
            f"gap of {longest} consecutive business days exceeds the "
            f"{MAX_GAP_BUSINESS_DAYS}-day imputation limit"
        )

    # Pass 2: KNN mean over the rows available after pass 1, all holes at once.
    if missing:
        available = sorted(filled)
        for day in missing:
            ranked = sorted(available, key=lambda d: (abs((d - day).days), d))
            cutoff = abs((ranked[knn_k - 1] - day).days) if len(ranked) >= knn_k else None
            neighbors = [d for d in ranked if cutoff is None or abs((d - day).days) <= cutoff]
            k = len(neighbors)
            sums = [0.0] * 6
            for d in neighbors:
                for j, v in enumerate(filled[d].values()):
                    sums[j] += v
            filled[day] = OhlcvRecord.from_values(day, [s / k for s in sums])

    records = [filled[day] for day in grid]
    return PriceSeries(
        records,
        provenance="repaired",
        imputation_count=monday_fills + len(missing),
    )
