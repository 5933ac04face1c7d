"""Descriptive stats, correlation/clustering, KS testing, monthly aggregates.

scipy is used purely as an independent oracle; the package itself never
imports it.
"""

import datetime as dt

import numpy as np
import pytest
import scipy.cluster.hierarchy
import scipy.spatial.distance
import scipy.stats

from tsgan.data import FeatureMatrix, PriceSeries
from tsgan.errors import DataError, DomainError
from tsgan.stats import (CorrelationMatrix, correlation_cluster, correlation_matrix,
                         describe, ks_pvalue, ks_statistic, monthly_aggregate,
                         monthly_aggregate_csv, two_sample_test)


def _feature_matrix(values, names=None):
    values = np.asarray(values, dtype=np.float64)
    names = names or [f"c{i}" for i in range(values.shape[1])]
    dates = [dt.date(2015, 1, 5) + dt.timedelta(days=i) for i in range(values.shape[0])]
    return FeatureMatrix(names, values, dates, sma_window=1)


def test_describe_matches_scipy_moments():
    x = np.random.default_rng(0).lognormal(0.0, 0.7, 500)
    d = describe(x)
    assert d["mean"] == pytest.approx(x.mean(), rel=1e-12)
    assert d["median"] == pytest.approx(np.median(x), rel=1e-12)
    assert d["standard_deviation"] == pytest.approx(x.std(ddof=1), rel=1e-12)
    assert d["standard_error"] == pytest.approx(scipy.stats.sem(x), rel=1e-12)
    assert d["skewness"] == pytest.approx(scipy.stats.skew(x, bias=True), rel=1e-10)
    assert d["excess_kurtosis"] == pytest.approx(
        scipy.stats.kurtosis(x, fisher=True, bias=True), rel=1e-10)
    assert d["minimum"] == x.min() and d["maximum"] == x.max()
    assert d["range"] == pytest.approx(x.max() - x.min(), rel=1e-12)
    assert d["count"] == 500


def test_describe_small_hand_sample():
    d = describe([1.0, 2.0, 3.0, 4.0, 10.0])
    assert d["mean"] == 4.0
    assert d["median"] == 3.0
    assert d["standard_deviation"] == pytest.approx(np.sqrt(12.5), rel=1e-15)
    assert d["range"] == 9.0 and d["minimum"] == 1.0 and d["maximum"] == 10.0
    assert d["count"] == 5
    # the key order is describe.csv's column order
    assert list(d) == ["mean", "standard_error", "median", "standard_deviation",
                       "excess_kurtosis", "skewness", "range", "minimum", "maximum", "count"]


def test_describe_rejects_degenerate_input():
    with pytest.raises(DataError):
        describe([1.0])
    with pytest.raises(DataError):
        describe([1.0, np.nan, 2.0])
    with pytest.raises(DomainError):
        describe([3.0, 3.0, 3.0])


def test_correlation_matches_numpy_and_stays_bounded():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(200, 4))
    data[:, 1] += 0.8 * data[:, 0]
    data[:, 3] -= 0.5 * data[:, 2]
    fm = _feature_matrix(data)
    cm = correlation_matrix(fm)
    np.testing.assert_allclose(cm.matrix, np.corrcoef(data, rowvar=False),
                               rtol=0, atol=1e-12)
    np.testing.assert_array_equal(cm.matrix, cm.matrix.T)
    assert all(cm.matrix[i, i] == 1.0 for i in range(4))
    assert np.all(np.abs(cm.matrix) <= 1.0)


def test_correlation_clips_perfectly_linear_columns():
    x = np.arange(50.0)
    cm = correlation_matrix(_feature_matrix(np.column_stack([x, 2 * x + 1])))
    assert cm.matrix[0, 1] == 1.0


def test_correlation_rejects_constant_columns_and_subsets():
    data = np.column_stack([np.arange(10.0), np.full(10, 2.0), np.arange(10.0) ** 2])
    fm = _feature_matrix(data, names=["a", "flat", "b"])
    with pytest.raises(DataError, match="flat"):
        correlation_matrix(fm)
    cm = correlation_matrix(_feature_matrix(data[:, [0, 2]], names=["a", "b"]))
    assert cm.names == ["a", "b"]
    assert cm.to_csv().splitlines()[0] == ",a,b"


def _partition_heights(n_leaves, merges):
    """Map each merge's member leaf set to its height (linkage id convention)."""
    nodes = {i: frozenset([i]) for i in range(n_leaves)}
    out = {}
    for m, row in enumerate(merges):
        a, b, h = int(row[0]), int(row[1]), float(row[2])
        members = nodes[a] | nodes[b]
        nodes[n_leaves + m] = members
        out[members] = h
    return out


def test_cluster_matches_scipy_average_linkage():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(150, 6))
    data[:, 1] += 0.9 * data[:, 0]
    data[:, 4] += 0.6 * data[:, 3]
    cm = correlation_matrix(_feature_matrix(data))
    tree = correlation_cluster(cm)

    dist = 1.0 - np.abs(cm.matrix)
    z = scipy.cluster.hierarchy.linkage(
        scipy.spatial.distance.squareform(dist, checks=False), method="average")

    mine = _partition_heights(6, tree.merges)
    ref = _partition_heights(6, z)
    assert set(mine) == set(ref)
    for members, height in ref.items():
        assert mine[members] == pytest.approx(height, abs=1e-10)
    assert [m[3] for m in tree.merges][-1] == 6


def test_cluster_nested_form_hand_oracle():
    cm = CorrelationMatrix(["a", "b", "c"], np.array([
        [1.0, 0.9, 0.1],
        [0.9, 1.0, 0.2],
        [0.1, 0.2, 1.0],
    ]))
    tree = correlation_cluster(cm)
    assert tree.merges[0] == (0, 1, pytest.approx(0.1), 2)
    assert tree.merges[1][2] == pytest.approx(0.85)  # mean of 0.9 and 0.8
    nested = tree.to_nested()
    assert nested[0] == "c"
    assert nested[1][:2] == ["a", "b"]
    assert nested[2] == pytest.approx(0.85)


def test_ks_statistic_matches_scipy_exactly():
    rng = np.random.default_rng(11)
    a = rng.normal(0.0, 1.0, 400)
    b = rng.normal(0.3, 1.2, 350)
    assert ks_statistic(a, b) == pytest.approx(
        scipy.stats.ks_2samp(a, b).statistic, rel=1e-13)
    # ties: integer-valued samples
    ai = rng.integers(0, 6, 300).astype(float)
    bi = rng.integers(1, 7, 200).astype(float)
    assert ks_statistic(ai, bi) == pytest.approx(
        scipy.stats.ks_2samp(ai, bi).statistic, rel=1e-13)
    assert ks_statistic(a, a) == 0.0
    with pytest.raises(DataError):
        ks_statistic(np.array([]), b)


def test_ks_pvalue_tracks_the_asymptotic_curve():
    rng = np.random.default_rng(12)
    a = rng.normal(0.0, 1.0, 500)
    b = rng.normal(0.0, 1.0, 500)
    stat = ks_statistic(a, b)
    ref = scipy.stats.ks_2samp(a, b, method="asymp").pvalue
    assert ks_pvalue(stat, 500, 500) == pytest.approx(ref, abs=0.02)
    # a clear shift should be decisively rejected by both
    c = rng.normal(1.5, 1.0, 500)
    assert ks_pvalue(ks_statistic(a, c), 500, 500) < 1e-6
    assert ks_pvalue(0.0, 500, 500) == 1.0


def test_two_sample_test_headline_and_bonferroni():
    rng = np.random.default_rng(13)
    real = np.column_stack([rng.normal(0, 1, 400), rng.normal(5, 1, 400)])
    fake = np.column_stack([rng.normal(0, 1, 400), rng.normal(9, 1, 400)])
    res = two_sample_test(real, fake, columns=["calm", "shifted"])
    stats = {c["column"]: c for c in res["per_column"]}
    assert res["statistic"] == max(c["ks"] for c in res["per_column"])
    assert res["statistic"] == stats["shifted"]["ks"]
    assert res["reject"] is True
    for c in res["per_column"]:
        assert c["p_adjusted"] == pytest.approx(min(1.0, 2 * c["p"]))
    assert res["alpha"] == 0.05
    assert res["test"] == "two-sample Kolmogorov-Smirnov, Bonferroni-adjusted"

    same = two_sample_test(real, real.copy())
    assert same["reject"] is False
    assert same["statistic"] == 0.0
    assert same["per_column"][0]["column"] == "col0"


def test_two_sample_test_validates_inputs():
    a = np.zeros((10, 2))
    with pytest.raises(DataError):
        two_sample_test(a, np.zeros((10, 3)))
    with pytest.raises(DataError):
        two_sample_test(a, np.zeros((0, 2)))
    with pytest.raises(DataError):
        two_sample_test(a, a, alpha=1.5)
    with pytest.raises(DataError):
        two_sample_test(a, a, columns=["only_one"])


def test_monthly_aggregate_hand_oracle():
    dates = [dt.date(2015, 1, 5), dt.date(2015, 1, 6), dt.date(2015, 2, 2)]
    values = [
        [9, 11, 8, 10, 10, 100],
        [19, 21, 18, 20, 20, 100],
        [29, 31, 28, 30, 30, 100],
    ]
    rows = monthly_aggregate(PriceSeries(dates, values))
    assert len(rows) == 10  # 2 months x 5 price columns
    jan_close = next(r for r in rows if r["month"] == "2015-01" and r["column"] == "Close")
    assert jan_close == {"month": "2015-01", "column": "Close",
                         "mean": 15.0, "max": 20.0, "min": 10.0}
    feb_open = next(r for r in rows if r["month"] == "2015-02" and r["column"] == "Open")
    assert feb_open["mean"] == 29.0
    assert [r["month"] for r in rows] == sorted(r["month"] for r in rows)

    csv_text = monthly_aggregate_csv(rows)
    assert csv_text.splitlines()[0] == "month,column,mean,max,min"
    assert len(csv_text.splitlines()) == 11

    with pytest.raises(DataError):
        monthly_aggregate(PriceSeries([], np.empty((0, 6))))
