"""OHLCV parsing, the columnar PriceSeries, and trading-calendar repair.

RAW_COLUMNS is the one place the six OHLCV columns are named, in the
column order of PriceSeries.values. The CSV contract: a header naming Date
and the RAW_COLUMNS (any order, any case), one row per calendar date.
Repair drops weekend rows, maps a missing Monday to its preceding Friday,
and fills any remaining business-day holes by per-field KNN averaging over
calendar-day distance.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math

import numpy as np

from ..artifacts import csv_text
from ..errors import DataError

RAW_COLUMNS = ("Open", "High", "Low", "Close", "Adj Close", "Volume")
# The column every model forecasts and every report scores.
TARGET_COLUMN = "Close"
REQUIRED_COLUMNS = ("date", *(name.lower() for name in RAW_COLUMNS))

MAX_GAP_BUSINESS_DAYS = 10


def _row_fault(values: np.ndarray) -> tuple[int, str] | None:
    """(index, message) of the first row with a negative volume or a low/high
    that does not bracket open and close."""
    col = dict(zip(RAW_COLUMNS, values.T))
    faults = (
        ("Volume", "negative volume {}", col["Volume"] < 0),
        ("Low", "low {} above open/close",
         col["Low"] > np.minimum(col["Open"], col["Close"]) + 1e-9),
        ("High", "high {} below open/close",
         col["High"] < np.maximum(col["Open"], col["Close"]) - 1e-9),
    )
    bad = np.flatnonzero(np.logical_or.reduce([mask for _, _, mask in faults]))
    if not bad.size:
        return None
    i = int(bad[0])
    name, message = next((name, message) for name, message, mask in faults if mask[i])
    return i, message.format(float(col[name][i]))


class PriceSeries:
    """Daily OHLCV rows: `dates` plus one (n, 6) float64 `values` array whose
    columns follow RAW_COLUMNS, with a provenance note (raw or repaired).

    Prices are index points and volume a non-negative count; low and high
    bracket open and close, and dates strictly increase.
    """

    def __init__(self, dates: list, values, provenance: str = "raw",
                 imputation_count: int = 0):
        dates = list(dates)
        values = np.array(values, dtype=np.float64)
        if values.shape != (len(dates), len(RAW_COLUMNS)):
            raise DataError(f"OHLCV values of shape {values.shape} do not fit "
                            f"{len(dates)} dates x {len(RAW_COLUMNS)} columns")
        fault = _row_fault(values)
        if fault is not None:
            raise DataError(f"{dates[fault[0]]}: {fault[1]}")
        for a, b in zip(dates, dates[1:]):
            if a >= b:
                raise DataError(f"dates not strictly increasing at {b}")
        if provenance == "repaired":
            for d in dates:
                if d.weekday() >= 5:
                    raise DataError(f"repaired series contains weekend date {d}")
        self.dates = dates
        self.values = values
        self.provenance = provenance
        self.imputation_count = int(imputation_count)

    def __len__(self) -> int:
        return len(self.dates)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.values[:, RAW_COLUMNS.index(name)]
        except ValueError:
            raise DataError(f"no OHLCV column named {name!r}") from None


def parse_ohlcv_csv(text: str) -> PriceSeries:
    """Parse CSV text into a raw PriceSeries; duplicate dates are rejected."""
    reader = csv.reader(io.StringIO(text))
    try:
        table = list(reader)
    except csv.Error as e:
        raise DataError(f"line {reader.line_num}: malformed CSV: {e}") from None
    if not table:
        raise DataError("empty CSV: no header row")
    header = table[0]
    lookup = {name.strip().lower(): i for i, name in enumerate(header)}
    missing = [c for c in REQUIRED_COLUMNS if c not in lookup]
    if missing:
        raise DataError(f"missing required columns: {missing}")
    idx = [lookup[c] for c in REQUIRED_COLUMNS]
    row_nos, dates, rows = [], [], []
    seen = set()
    for row_no, row in enumerate(table[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) <= max(idx):
            raise DataError(f"row {row_no}: {len(row)} fields, the header has {len(header)}")
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
                number = float(cell)
            except ValueError:
                raise DataError(
                    f"row {row_no}: unparseable {name} value {cell!r}"
                ) from None
            if not math.isfinite(number):
                raise DataError(f"row {row_no}: non-finite {name} value {cell!r}")
            numbers.append(number)
        row_nos.append(row_no)
        dates.append(date)
        rows.append(numbers)
    values = np.array(rows, dtype=np.float64).reshape(len(rows), len(RAW_COLUMNS))
    fault = _row_fault(values)
    if fault is not None:
        i, message = fault
        raise DataError(f"row {row_nos[i]}: {dates[i]}: {message}")
    order = sorted(range(len(dates)), key=dates.__getitem__)
    return PriceSeries([dates[i] for i in order], values[order], provenance="raw")


def series_to_csv(series: PriceSeries) -> str:
    return csv_text(["Date", *RAW_COLUMNS],
                    ([date, *row] for date, row in zip(series.dates, series.values.tolist())))


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
    if not len(series):
        raise DataError("cannot repair an empty series")
    present = {d: row for d, row in zip(series.dates, series.values) if d.weekday() < 5}
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
            filled[day] = filled[friday]
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
    # Rows are summed one at a time in neighbor order: the order fixes the rounding.
    if missing:
        available = sorted(filled)
        for day in missing:
            ranked = sorted(available, key=lambda d: (abs((d - day).days), d))
            cutoff = abs((ranked[knn_k - 1] - day).days) if len(ranked) >= knn_k else None
            neighbors = [d for d in ranked if cutoff is None or abs((d - day).days) <= cutoff]
            sums = np.zeros(len(RAW_COLUMNS))
            for d in neighbors:
                sums += filled[d]
            filled[day] = sums / len(neighbors)

    return PriceSeries(
        grid,
        [filled[day] for day in grid],
        provenance="repaired",
        imputation_count=monday_fills + len(missing),
    )
