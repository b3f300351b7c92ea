import numpy as np
import pytest

from kflow.embedding import TimeSeries, build_delay_dataset, split_train_test


def series_from(values, dt=0.1):
    return TimeSeries(np.asarray(values, dtype=float), dt)


def test_shapes_follow_n_minus_tau(rng):
    series = series_from(rng.normal(size=(7, 3)))
    ds = build_delay_dataset(series, 5)
    assert ds.n_pairs == 2
    assert ds.X.shape == (2, 15)
    assert ds.Y.shape == (2, 3)


def test_minimal_two_sample_series():
    ds = build_delay_dataset(series_from([[1.5], [2.5]]), 1)
    assert ds.X.tolist() == [[1.5]]
    assert ds.Y.tolist() == [[2.5]]


def test_hand_unrolled_window_layout():
    # windows list the newest state first
    ds = build_delay_dataset(series_from([[1.0], [2.0], [3.0], [4.0]]), 2)
    assert ds.X.tolist() == [[2.0, 1.0], [3.0, 2.0]]
    assert ds.Y.tolist() == [[3.0], [4.0]]


def test_multivariate_window_layout(rng):
    values = rng.normal(size=(9, 2))
    ds = build_delay_dataset(series_from(values), 3)
    for k in range(ds.n_pairs):
        window = np.concatenate([values[k + 2], values[k + 1], values[k]])
        np.testing.assert_array_equal(ds.X[k], window)
        np.testing.assert_array_equal(ds.Y[k], values[k + 3])
        # the oldest state sits in the last d entries
        np.testing.assert_array_equal(ds.X[k][-2:], values[k])


def test_tau_bounds():
    series = series_from(np.arange(6.0))
    with pytest.raises(ValueError):
        build_delay_dataset(series, 0)
    with pytest.raises(ValueError):
        build_delay_dataset(series, 6)
    assert build_delay_dataset(series, 5).n_pairs == 1


def test_split_sizes_floor_arithmetic(rng):
    ds = build_delay_dataset(series_from(rng.normal(size=(11, 1))), 1)
    assert ds.n_pairs == 10
    train, test = split_train_test(ds, 0.8)
    assert (train.n_pairs, test.n_pairs) == (8, 2)
    train, test = split_train_test(ds, 0.99)
    assert (train.n_pairs, test.n_pairs) == (9, 1)


def test_split_small_half():
    ds = build_delay_dataset(series_from(np.arange(4.0)), 1)
    train, test = split_train_test(ds, 0.5)
    assert (train.n_pairs, test.n_pairs) == (1, 2)


def test_split_degenerate_raises(rng):
    ds = build_delay_dataset(series_from(rng.normal(size=(3, 1))), 1)
    with pytest.raises(ValueError):
        split_train_test(ds, 0.1)  # empty train side
    with pytest.raises(ValueError):
        split_train_test(ds, 1.0)


def test_round_trip_targets(rng):
    values = rng.normal(size=(40, 3))
    ds = build_delay_dataset(series_from(values), 5)
    train, test = split_train_test(ds, 0.7)
    stacked = np.vstack([train.Y, test.Y])
    np.testing.assert_array_equal(stacked, values[5:])


def test_series_validation():
    with pytest.raises(ValueError):
        TimeSeries(np.ones((1, 2)), 0.1)
    with pytest.raises(ValueError):
        TimeSeries(np.array([[1.0], [np.nan]]), 0.1)
    for dt in (0.0, -0.1, np.inf, np.nan, 10**400, [0.1], "fast"):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            TimeSeries(np.ones((3, 2)), dt)
