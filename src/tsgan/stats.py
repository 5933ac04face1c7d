"""Descriptive statistics, correlation structure, and the two-sample test.

describe() reports the sample standard deviation (n-1) but standardizes
skewness and kurtosis by population moments, with kurtosis as excess
(a normal distribution scores 0). The two-sample test is per-column
Kolmogorov-Smirnov with asymptotic p-values and a Bonferroni correction
across columns.
"""

from __future__ import annotations

import numpy as np

from .artifacts import csv_text
from .data.features import FeatureMatrix
from .data.ohlcv import RAW_COLUMNS, PriceSeries
from .errors import DataError, DomainError


def describe(values) -> dict:
    """Summary statistics of one numeric series, ten fields in `describe.csv`'s column
    order; zero variance is an error."""
    x = np.asarray(values, dtype=np.float64).ravel()
    n = x.size
    if n < 2:
        raise DataError(f"describe needs at least 2 values, got {n}")
    if not np.all(np.isfinite(x)):
        raise DataError("describe: input contains non-finite values")
    mu = x.mean()
    centered = x - mu
    m2 = np.mean(centered**2)
    if m2 == 0.0:
        raise DomainError("describe: zero variance; skewness and kurtosis are undefined")
    m3 = np.mean(centered**3)
    m4 = np.mean(centered**4)
    std = float(np.sqrt(np.sum(centered**2) / (n - 1)))
    return {
        "mean": float(mu),
        "standard_error": std / float(np.sqrt(n)),
        "median": float(np.median(x)),
        "standard_deviation": std,
        "excess_kurtosis": float(m4 / m2**2 - 3.0),
        "skewness": float(m3 / m2**1.5),
        "range": float(x.max() - x.min()),
        "minimum": float(x.min()),
        "maximum": float(x.max()),
        "count": int(n),
    }


class CorrelationMatrix:
    def __init__(self, names: list[str], matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != (len(names), len(names)):
            raise DataError("correlation matrix shape disagrees with names")
        self.names = list(names)
        self.matrix = matrix

    def to_csv(self) -> str:
        return csv_text(["", *self.names],
                        ([name, *row] for name, row in zip(self.names, self.matrix)))


def correlation_matrix(features: FeatureMatrix) -> CorrelationMatrix:
    """Pearson coefficients; upper triangle computed once and mirrored."""
    names = list(features.names)
    data = np.column_stack([features.column(c) for c in names])
    if data.shape[0] < 2:
        raise DataError("correlation needs at least 2 rows")
    stds = data.std(axis=0)
    constant = np.nonzero(stds == 0.0)[0]
    if constant.size:
        raise DataError(f"constant columns have undefined correlation: "
                        f"{[names[i] for i in constant]}")
    centered = data - data.mean(axis=0)
    norm = np.sqrt(np.sum(centered**2, axis=0))
    k = len(names)
    m = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            r = float(np.dot(centered[:, i], centered[:, j]) / (norm[i] * norm[j]))
            r = min(1.0, max(-1.0, r))
            m[i, j] = r
            m[j, i] = r
    return CorrelationMatrix(names, m)


class ClusterTree:
    """Merge sequence (left_id, right_id, height, size), ids in linkage convention:

    leaf i has id i; the cluster made by merge m has id n_leaves + m.
    """

    def __init__(self, names: list[str], merges: list[tuple]):
        self.names = list(names)
        self.merges = [(int(a), int(b), float(h), int(s)) for a, b, h, s in merges]
        heights = [m[2] for m in self.merges]
        if any(b < a - 1e-12 for a, b in zip(heights, heights[1:])):
            raise DataError("cluster merge heights are not non-decreasing")

    def to_nested(self):
        """Nested merge list: leaves are names, merges are [left, right, height]."""
        nodes: dict[int, object] = {i: name for i, name in enumerate(self.names)}
        n = len(self.names)
        for m, (a, b, h, _) in enumerate(self.merges):
            nodes[n + m] = [nodes[a], nodes[b], h]
        return nodes[n + len(self.merges) - 1] if self.merges else self.names[0]


def correlation_cluster(cm: CorrelationMatrix) -> ClusterTree:
    """Agglomerative average-linkage clustering on distance 1 - |rho|."""
    n = len(cm.names)
    if n < 2:
        raise DataError("clustering needs at least 2 variables")
    dist = 1.0 - np.abs(cm.matrix)
    # active cluster id -> (member leaf indices, linkage id)
    active: dict[int, list[int]] = {i: [i] for i in range(n)}
    d = {(i, j): float(dist[i, j]) for i in range(n) for j in range(i + 1, n)}
    merges = []
    next_id = n
    while len(active) > 1:
        (i, j), h = min(d.items(), key=lambda kv: (kv[1], kv[0]))
        ni, nj = len(active[i]), len(active[j])
        members = active[i] + active[j]
        del active[i], active[j]
        # Lance-Williams update for average linkage
        new_d = {}
        for k in active:
            a, b = (min(i, k), max(i, k)), (min(j, k), max(j, k))
            new_d[k] = (ni * d[a] + nj * d[b]) / (ni + nj)
        d = {key: v for key, v in d.items() if i not in key and j not in key}
        for k, v in new_d.items():
            d[(min(k, next_id), max(k, next_id))] = v
        active[next_id] = members
        merges.append((i, j, h, len(members)))
        next_id += 1
    return ClusterTree(cm.names, merges)


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS distance: max |F_a - F_b| over the pooled sample."""
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise DataError("ks_statistic: empty sample")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_pvalue(stat: float, n: int, m: int) -> float:
    """Asymptotic two-sample KS p-value with the small-sample correction."""
    ne = n * m / (n + m)
    lam = (np.sqrt(ne) + 0.12 + 0.11 / np.sqrt(ne)) * stat
    if lam <= 0.0:
        return 1.0
    j = np.arange(1, 101)
    terms = 2.0 * (-1.0) ** (j - 1) * np.exp(-2.0 * j**2 * lam**2)
    return float(min(1.0, max(0.0, terms.sum())))


def two_sample_test(real, synthetic, alpha: float = 0.05,
                    columns: list[str] | None = None) -> dict:
    """Column-wise KS test of real vs synthetic samples, as a JSON-ready dict.

    Reject (samples differ) iff any Bonferroni-adjusted p-value falls below
    alpha. The headline statistic M is the largest per-column KS distance.
    """
    r = np.asarray(real, dtype=np.float64)
    s = np.asarray(synthetic, dtype=np.float64)
    if r.ndim == 1:
        r = r[:, None]
    if s.ndim == 1:
        s = s[:, None]
    if r.size == 0 or s.size == 0:
        raise DataError("two_sample_test: empty sample")
    if r.shape[1] != s.shape[1]:
        raise DataError(
            f"two_sample_test: column arity differs ({r.shape[1]} vs {s.shape[1]})"
        )
    if not 0.0 < alpha < 1.0:
        raise DataError(f"alpha must be in (0, 1), got {alpha}")
    d = r.shape[1]
    names = list(columns) if columns is not None else [f"col{i}" for i in range(d)]
    if len(names) != d:
        raise DataError("column name count disagrees with sample arity")
    per_column = []
    reject = False
    for i, name in enumerate(names):
        stat = ks_statistic(r[:, i], s[:, i])
        p = ks_pvalue(stat, r.shape[0], s.shape[0])
        p_adj = min(1.0, d * p)
        if p_adj < alpha:
            reject = True
        per_column.append({"column": name, "ks": stat, "p": p, "p_adjusted": p_adj})
    m_stat = max(c["ks"] for c in per_column)
    return {"statistic": m_stat, "per_column": per_column, "reject": reject, "alpha": alpha,
            "test": "two-sample Kolmogorov-Smirnov, Bonferroni-adjusted"}


def monthly_aggregate(series: PriceSeries) -> list[dict]:
    """Per calendar month: mean/max/min of each price column (all but Volume)."""
    if not len(series):
        raise DataError("monthly_aggregate: empty series")
    by_month: dict[str, list[int]] = {}
    for i, date in enumerate(series.dates):
        by_month.setdefault(f"{date.year:04d}-{date.month:02d}", []).append(i)
    rows = []
    for month in sorted(by_month):
        block = series.values[by_month[month]]
        for j, col in enumerate(RAW_COLUMNS[:5]):
            vals = block[:, j]
            rows.append({
                "month": month, "column": col,
                "mean": float(np.mean(vals)), "max": float(vals.max()), "min": float(vals.min()),
            })
    return rows


def monthly_aggregate_csv(rows: list[dict]) -> str:
    columns = ["month", "column", "mean", "max", "min"]
    return csv_text(columns, ([r[c] for c in columns] for r in rows))
