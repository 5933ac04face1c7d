"""CSV ingestion, calendar repair, feature building, scaling, and windowing."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tsgan.data import (AR1_LEVEL, AR1_PHI, FEATURE_COLUMNS, RAW_COLUMNS, FeatureMatrix,
                        PriceSeries, apply_scaler, build_features, fit_scaler,
                        inverse_scale_matrix, inverse_scaler, make_synthetic_series,
                        make_windows, newest_feature_row, parse_ohlcv_csv, pct_change,
                        repair_calendar, series_to_csv, split_train_test, trailing_sma)
from tsgan.errors import ConfigError, DataError

HEADER = "Date,Open,High,Low,Close,Adj Close,Volume"


def _row(date, close, volume=1000.0):
    return f"{date},{close - 1},{close + 1},{close - 2},{close},{close},{volume}"


def _series(dates_closes):
    dates = [dt.date.fromisoformat(d) for d, _ in dates_closes]
    values = [[c - 1, c + 1, c - 2, c, c, 1000.0] for _, c in dates_closes]
    return PriceSeries(dates, values)


REPAIR_CSV = "\n".join([
    HEADER,
    _row("2015-01-05", 10.0),
    _row("2015-01-06", 12.0),
    # Wednesday 2015-01-07 missing: the KNN hole.
    _row("2015-01-08", 16.0),
    _row("2015-01-09", 20.0),
    _row("2015-01-10", 99.0),  # Saturday, dropped by repair
    # Monday 2015-01-12 missing: inherits Friday 2015-01-09.
    _row("2015-01-13", 30.0),
    _row("2015-01-14", 34.0),
]) + "\n"


def test_parser_accepts_reordered_case_insensitive_headers():
    text = "volume,DATE,close,ADJ CLOSE,low,high,open\n" \
           "500,2015-01-05,10,10,8,11,9\n"
    series = parse_ohlcv_csv(text)
    assert len(series) == 1
    assert {c: float(series.column(c)[0]) for c in RAW_COLUMNS} == \
        {"Open": 9.0, "High": 11.0, "Low": 8.0, "Close": 10.0, "Adj Close": 10.0,
         "Volume": 500.0}


def test_parser_sorts_rows_and_skips_blank_lines():
    text = "\n".join([HEADER, _row("2015-01-06", 12.0), "", _row("2015-01-05", 10.0)])
    series = parse_ohlcv_csv(text)
    assert [d.isoformat() for d in series.dates] == ["2015-01-05", "2015-01-06"]


def test_parser_diagnostics_carry_row_numbers():
    with pytest.raises(DataError, match="missing required columns"):
        parse_ohlcv_csv("Date,Open,High,Low,Close,Volume\n")
    with pytest.raises(DataError, match="row 2"):
        parse_ohlcv_csv(HEADER + "\nnot-a-date,1,2,0,1,1,5\n")
    with pytest.raises(DataError, match="row 3"):
        parse_ohlcv_csv(HEADER + "\n" + _row("2015-01-05", 10.0)
                        + "\n2015-01-06,1,2,0,oops,1,5\n")
    with pytest.raises(DataError, match="duplicate date"):
        parse_ohlcv_csv(HEADER + "\n" + _row("2015-01-05", 10.0)
                        + "\n" + _row("2015-01-05", 11.0) + "\n")
    with pytest.raises(DataError, match="row 2"):
        parse_ohlcv_csv(HEADER + "\n2015-01-05,10,9,8,10,10,5\n")  # high below open


def test_record_invariants():
    day = [dt.date(2015, 1, 5)]
    with pytest.raises(DataError):
        PriceSeries(day, [[10, 11, 8, 10, 10, -1.0]])
    with pytest.raises(DataError):
        PriceSeries(day, [[10, 11, 10.5, 10, 10, 1.0]])
    days = [dt.date(2015, 1, 5), dt.date(2015, 1, 6), dt.date(2015, 1, 10)]
    rows = [[10, 11, 8, 10, 10, 1.0], [10, 9, 8, 10, 10, 1.0], [10, 11, 8, 10, 10, -1.0]]
    with pytest.raises(DataError, match="^2015-01-06: high 9.0 below open/close$"):
        PriceSeries(days, rows)
    rows[1][1] = 11
    with pytest.raises(DataError, match="^2015-01-10: negative volume -1.0$"):
        PriceSeries(days, rows)
    rows[2][5] = 1.0
    with pytest.raises(DataError, match="not strictly increasing at 2015-01-06"):
        PriceSeries(days[::-1], rows)
    with pytest.raises(DataError, match="weekend date 2015-01-10"):
        PriceSeries(days, rows, provenance="repaired")
    with pytest.raises(DataError, match="shape"):
        PriceSeries(days, rows[:2])


def test_csv_roundtrip_preserves_values_exactly():
    series = parse_ohlcv_csv(REPAIR_CSV)
    again = parse_ohlcv_csv(series_to_csv(series))
    assert again.values.tolist() == series.values.tolist()


def test_repair_drops_weekends_fills_monday_from_friday():
    series = parse_ohlcv_csv(REPAIR_CSV)
    repaired = repair_calendar(series, knn_k=2)
    dates = [d.isoformat() for d in repaired.dates]
    assert dates == ["2015-01-05", "2015-01-06", "2015-01-07", "2015-01-08",
                     "2015-01-09", "2015-01-12", "2015-01-13", "2015-01-14"]
    assert all(d.weekday() < 5 for d in repaired.dates)
    monday = repaired.values[5]
    friday = repaired.values[4]
    assert monday.tolist() == friday.tolist()
    assert repaired.provenance == "repaired"


def test_repair_knn_mean_and_distance_ties():
    series = parse_ohlcv_csv(REPAIR_CSV)
    # k=2: both distance-1 neighbors (Jan 6 close 12, Jan 8 close 16).
    wed = repair_calendar(series, knn_k=2).column("Close")[2]
    assert wed == pytest.approx((12.0 + 16.0) / 2.0)
    # k=3: the cutoff lands on a distance tie, so both Jan 5 and Jan 9 join.
    wed3 = repair_calendar(series, knn_k=3).column("Close")[2]
    assert wed3 == pytest.approx((12.0 + 16.0 + 10.0 + 20.0) / 4.0)


def test_repair_counts_imputations_and_is_idempotent():
    repaired = repair_calendar(parse_ohlcv_csv(REPAIR_CSV), knn_k=2)
    assert repaired.imputation_count == 2  # one Monday fill + one KNN hole
    again = repair_calendar(repaired, knn_k=2)
    assert again.values.tolist() == repaired.values.tolist()
    assert again.imputation_count == 0


@settings(max_examples=60, deadline=None)
@given(start=st.integers(0, 6), present=st.lists(st.booleans(), min_size=1, max_size=40),
       knn_k=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_repair_is_idempotent_property(start, present, knn_k, seed):
    draw = np.random.default_rng(seed)
    first = dt.date(2015, 1, 5) + dt.timedelta(days=start)
    dates, values = [], []
    for i, keep in enumerate(present):
        if keep:
            close, vol = draw.uniform(5.0, 500.0), draw.uniform(0.0, 1e6)
            dates.append(first + dt.timedelta(days=i))
            values.append([close - 1, close + 1, close - 2, close, close, vol])
    try:
        once = repair_calendar(PriceSeries(dates, np.reshape(values, (-1, 6))), knn_k=knn_k)
    except DataError:
        assume(False)
    twice = repair_calendar(once, knn_k=knn_k)
    assert twice.dates == once.dates
    assert twice.values.tolist() == once.values.tolist()


def test_repair_rejects_gaps_beyond_the_limit():
    series = _series([("2015-01-05", 10.0), ("2015-01-21", 20.0)])
    with pytest.raises(DataError, match="11 consecutive"):
        repair_calendar(series)


def test_pct_change_handles_zero_denominators():
    diff, zeros = pct_change(np.array([2.0, 3.0, 0.0, 5.0]))
    np.testing.assert_allclose(diff, [0.5, -1.0, 0.0])
    assert zeros == 1


def test_trailing_sma_matches_manual_means():
    sma = trailing_sma(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 3)
    np.testing.assert_allclose(sma, [2.0, 3.0, 4.0])


def test_feature_matrix_layout_and_alignment():
    closes = [10.0, 12.0, 14.0, 15.0, 18.0, 20.0]
    dates = ["2015-01-05", "2015-01-06", "2015-01-07", "2015-01-08",
             "2015-01-09", "2015-01-12"]
    series = _series(list(zip(dates, closes)))
    fm = build_features(series, sma_window=3)

    assert len(fm.names) == 18
    assert fm.names[:6] == ["Open", "High", "Low", "Close", "Adj Close", "Volume"]
    assert fm.names[6] == "Open_Diff" and fm.names[12] == "Open_SMA"
    assert fm.trimmed_rows == 2
    assert fm.shape == (4, 18)
    assert [d.isoformat() for d in fm.dates] == dates[2:]

    close = fm.column("Close")
    np.testing.assert_allclose(close, closes[2:])
    diff = fm.column("Close_Diff")
    np.testing.assert_allclose(diff, [(14 - 12) / 12, (15 - 14) / 14,
                                      (18 - 15) / 15, (20 - 18) / 18])
    sma = fm.column("Close_SMA")
    np.testing.assert_allclose(sma, [np.mean(closes[i:i + 3]) for i in range(4)])


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(3, 40), sma_window=st.integers(1, 12),
       zero_volume_row=st.one_of(st.none(), st.integers(0, 39)), seed=st.integers(0, 2**16))
def test_newest_feature_row_matches_the_last_built_row(rows, sma_window, zero_volume_row,
                                                       seed):
    assume(rows > sma_window)
    draw = np.random.default_rng(seed)
    open_, close = draw.uniform(10.0, 100.0, (2, rows))
    values = np.column_stack([
        open_, np.maximum(open_, close) + draw.uniform(0.0, 5.0, rows),
        np.minimum(open_, close) - draw.uniform(0.0, 5.0, rows), close, close,
        draw.uniform(1e3, 1e4, rows),
    ])
    if zero_volume_row is not None and zero_volume_row < rows:
        values[zero_volume_row, 5] = 0.0
    dates = [dt.date(2015, 1, 5) + dt.timedelta(days=i) for i in range(rows)]
    fm = build_features(PriceSeries(dates, values), sma_window)
    assert tuple(fm.names) == FEATURE_COLUMNS
    row = newest_feature_row(values[None], sma_window)
    assert row.shape == (1, len(FEATURE_COLUMNS))
    # build_features takes the SMA from a cumulative sum, the row from a mean
    np.testing.assert_allclose(row[0], fm.values[-1], rtol=1e-12, atol=0)


def test_build_features_needs_enough_rows():
    series = _series([("2015-01-05", 10.0), ("2015-01-06", 12.0)])
    with pytest.raises(DataError):
        build_features(series, sma_window=3)


def test_scaler_fits_on_the_leading_fraction_only():
    values = np.column_stack([np.arange(10.0), np.arange(10.0) * 2 + 1])
    fm = FeatureMatrix(["a", "b"], values,
                       [dt.date(2015, 1, 5) + dt.timedelta(days=i) for i in range(10)],
                       sma_window=1)
    scaler = fit_scaler(fm, train_fraction=0.7)
    assert scaler.train_rows == 7
    np.testing.assert_allclose(scaler.mins, [0.0, 1.0])
    np.testing.assert_allclose(scaler.maxs, [6.0, 13.0])

    scaled = apply_scaler(fm, scaler)
    np.testing.assert_allclose(scaled.values[:7].min(axis=0), [0.0, 0.0])
    np.testing.assert_allclose(scaled.values[:7].max(axis=0), [1.0, 1.0])
    assert scaled.values[9, 0] > 1.0  # test rows may leave [0, 1]; never clipped


def test_scaler_rejects_constant_columns_by_name():
    values = np.column_stack([np.arange(5.0), np.full(5, 3.0)])
    fm = FeatureMatrix(["moves", "flat"], values,
                       [dt.date(2015, 1, 5) + dt.timedelta(days=i) for i in range(5)],
                       sma_window=1)
    with pytest.raises(DataError, match="flat"):
        fit_scaler(fm, train_fraction=1.0)


def test_scaler_roundtrip_within_relative_tolerance():
    rng = np.random.default_rng(0)
    values = np.column_stack([rng.uniform(5, 50, 40), rng.uniform(1e5, 5e5, 40)])
    fm = FeatureMatrix(["price", "volume"], values,
                       [dt.date(2015, 1, 5) + dt.timedelta(days=i) for i in range(40)],
                       sma_window=1)
    scaler = fit_scaler(fm)
    scaled = apply_scaler(fm, scaler)
    for col in ("price", "volume"):
        orig = fm.column(col)
        back = inverse_scaler(scaled.column(col), scaler, col)
        assert np.max(np.abs(back - orig) / np.maximum(1.0, np.abs(orig))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(2, 30), cols=st.integers(1, 4),
       train_fraction=st.floats(0.1, 1.0), seed=st.integers(0, 2**16))
def test_scaler_roundtrip_property(rows, cols, train_fraction, seed):
    draw = np.random.default_rng(seed)
    offsets = draw.uniform(-1e3, 1e3, cols) * 10.0 ** draw.integers(-3, 4, cols)
    scales = 10.0 ** draw.integers(-6, 7, cols)
    values = offsets + scales * draw.normal(size=(rows, cols))
    assume(max(1, int(rows * train_fraction)) >= 2)
    fm = FeatureMatrix([f"c{j}" for j in range(cols)], values, list(range(rows)),
                       sma_window=1)
    scaler = fit_scaler(fm, train_fraction=train_fraction)
    back = inverse_scale_matrix(apply_scaler(fm, scaler).values, scaler)
    assert np.all(np.abs(back - values) <= 1e-12 * np.abs(values).max(axis=0))


def test_inverse_scale_matrix_covers_all_columns():
    values = np.array([[1.0, 10.0], [3.0, 30.0]])
    fm = FeatureMatrix(["a", "b"], values, [dt.date(2015, 1, 5), dt.date(2015, 1, 6)],
                       sma_window=1)
    scaler = fit_scaler(fm, train_fraction=1.0)
    scaled = apply_scaler(fm, scaler)
    np.testing.assert_allclose(inverse_scale_matrix(scaled.values, scaler), values)
    with pytest.raises(DataError):
        inverse_scale_matrix(np.zeros((2, 3)), scaler)


def _window_fixture(rows=30, seq_len=5, horizon=3):
    dates = []
    d = dt.date(2015, 1, 5)
    while len(dates) < rows:
        if d.weekday() < 5:
            dates.append(d.isoformat())
        d += dt.timedelta(days=1)
    closes = [10.0 + i for i in range(rows)]
    return build_features(_series(list(zip(dates, closes))), sma_window=3)


def test_make_windows_count_and_alignment():
    fm = _window_fixture()
    ds = make_windows(fm, seq_len=5, horizon=3)
    n = fm.shape[0]
    assert ds.count == n - 5 - 3 + 1
    close_idx = fm.index_of("Close")
    assert ds.target_index == close_idx

    col = fm.values[:, close_idx]
    for i in (0, 7, ds.count - 1):
        np.testing.assert_array_equal(ds.inputs[i], fm.values[i:i + 5])
        np.testing.assert_array_equal(ds.targets[i], col[i + 5:i + 8])
    np.testing.assert_array_equal(ds.history_paths(), ds.inputs[:, :, close_idx])
    assert ds.target_dates(0) == fm.dates[5:8]


def test_split_is_chronological_and_exhaustive():
    ds = make_windows(_window_fixture(), seq_len=5, horizon=3)
    train, test = split_train_test(ds, 0.7)
    assert train.count == int(ds.count * 0.7)
    assert train.count + test.count == ds.count
    assert train.origin_rows.max() < test.origin_rows.min()
    np.testing.assert_array_equal(test.inputs[0], ds.inputs[train.count])
    with pytest.raises(DataError):
        split_train_test(ds, 0.001)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(2, 40), seq_len=st.integers(1, 10), horizon=st.integers(1, 5),
       seed=st.integers(0, 2**16))
def test_window_count_and_targets_property(rows, seq_len, horizon, seed):
    assume(rows >= seq_len + horizon)
    values = np.random.default_rng(seed).normal(size=(rows, 2))
    fm = FeatureMatrix(["x", "Close"], values, list(range(rows)), sma_window=1)
    ds = make_windows(fm, seq_len, horizon)
    assert ds.count == rows - seq_len - horizon + 1
    for i in range(ds.count):
        np.testing.assert_array_equal(ds.inputs[i], values[i:i + seq_len])
        np.testing.assert_array_equal(ds.targets[i], values[i + seq_len:i + seq_len + horizon, 1])


@settings(max_examples=60, deadline=None)
@given(count=st.integers(2, 60), ratio=st.floats(0.01, 0.99))
def test_split_property(count, ratio):
    k = int(count * ratio)
    assume(1 <= k < count)
    values = np.arange(count + 1.0)[:, None]
    ds = make_windows(FeatureMatrix(["Close"], values, list(range(count + 1)), sma_window=1),
                      seq_len=1, horizon=1)
    train, test = split_train_test(ds, ratio)
    assert train.count == k and train.count + test.count == ds.count
    assert train.origin_rows.max() < test.origin_rows.min()


def test_windows_reject_short_series():
    fm = _window_fixture(rows=10)
    with pytest.raises(DataError):
        make_windows(fm, seq_len=8, horizon=3)


def test_synthetic_series_are_seeded_and_valid():
    a = make_synthetic_series("sine", 120, seed=4)
    b = make_synthetic_series("sine", 120, seed=4)
    assert series_to_csv(a) == series_to_csv(b)
    c = make_synthetic_series("sine", 120, seed=5)
    assert series_to_csv(a) != series_to_csv(c)
    assert len(a) == 120
    assert all(d.weekday() < 5 for d in a.dates)
    for o, h, lo, c, _, v in a.values:
        assert h >= max(o, c)
        assert lo <= min(o, c)
        assert v >= 0


def test_synthetic_jump_contains_a_crash_regime():
    series = make_synthetic_series("jump", 500, seed=1)
    closes = series.column("Close")
    returns = np.diff(np.log(closes))
    # The jump regime forces a clearly negative multi-day stretch.
    worst8 = min(returns[i:i + 8].sum() for i in range(len(returns) - 8))
    assert worst8 < -0.15


def test_synthetic_ar1_mean_reverts_at_the_configured_rate():
    series = make_synthetic_series("ar1", 2000, seed=2)
    x = series.column("Close") - AR1_LEVEL
    phi_hat = np.dot(x[1:], x[:-1]) / np.dot(x[:-1], x[:-1])
    assert abs(phi_hat - AR1_PHI) < 0.05


def test_unknown_synthetic_kind_rejected():
    with pytest.raises(ConfigError):
        make_synthetic_series("triangle", 100, seed=0)
