import tracemalloc

import numpy as np
import pytest

import kflow.forecast
from conftest import make_theta, pin_usable_cores, random_params, single_kernel
from kflow.embedding import DelayDataset, TimeSeries, build_delay_dataset
from kflow.forecast import (
    NonFiniteForecast,
    RolloutDiverged,
    TrainedModel,
    fit,
    one_step_forecast,
    predict_one,
    rollout,
)
from kflow.evaluation import prepare_series
from kflow.kernels import KernelEvalError, KernelParams, N_KERNELS, N_THETA
from kflow.systems import builtin_systems, integrate_rk4


def gaussian_params(width=1.0):
    return single_kernel(3, make_theta(t5=width))


def scattered_dataset(rng, n=12, tau=2, d=2):
    values = rng.uniform(-2.0, 2.0, size=(n, d))
    return build_delay_dataset(TimeSeries(values, 0.5), tau)


def test_single_pair_identity_coefficients():
    ds = DelayDataset(np.array([[0.3, 0.4]]), np.array([[5.0, -1.0]]), tau=1)
    model = fit(gaussian_params(), ds, 0.0)
    # K = [[1]] so W equals Y
    np.testing.assert_allclose(model.coefficients, ds.Y, rtol=1e-14)


def test_large_ridge_asymptotic_coefficients(rng):
    # (K + lam I) ~ lam I  =>  W ~ Y / lam
    ds = scattered_dataset(rng)
    lam = 1e6
    model = fit(gaussian_params(), ds, lam)
    np.testing.assert_allclose(model.coefficients, ds.Y / lam, rtol=1e-3)


def test_refit_is_bitwise_identical(rng):
    ds = scattered_dataset(rng)
    a = fit(gaussian_params(), ds, 0.05)
    b = fit(gaussian_params(), ds, 0.05)
    assert (a.coefficients == b.coefficients).all()


def test_interpolation_at_zero_ridge(rng):
    ds = scattered_dataset(rng)
    model = fit(gaussian_params(), ds, 0.0)
    scale = 1.0 + np.abs(ds.Y).max()
    for i in range(ds.n_pairs):
        pred = predict_one(model, ds.X[i])
        assert np.abs(pred - ds.Y[i]).max() <= 1e-6 * scale


def test_zero_kernel_predicts_zero(rng):
    ds = scattered_dataset(rng)
    params = KernelParams(np.zeros(N_KERNELS), np.ones(N_THETA))
    model = fit(params, ds, 0.5)
    np.testing.assert_array_equal(predict_one(model, ds.X[0]), np.zeros(2))


def test_two_point_linear_hand_solution():
    # linear kernel on rows (1), (2): K = [[1,2],[2,4]], lambda = 1
    params = single_kernel(1, make_theta(t1=0.0))
    ds = DelayDataset(np.array([[1.0], [2.0]]), np.array([[1.0], [2.0]]), tau=1)
    model = fit(params, ds, 1.0)
    W = np.linalg.inv(np.array([[2.0, 2.0], [2.0, 5.0]])) @ ds.Y
    np.testing.assert_allclose(model.coefficients, W, rtol=1e-12)
    query = np.array([1.5])
    k_row = np.array([[1.5 * 1.0, 1.5 * 2.0]])
    np.testing.assert_allclose(predict_one(model, query), (k_row @ W)[0], rtol=1e-12)


def test_window_length_mismatch():
    ds = DelayDataset(np.ones((3, 4)), np.ones((3, 2)), tau=2)
    model = fit(gaussian_params(), ds, 0.1)
    with pytest.raises(ValueError):
        predict_one(model, np.ones(5))


def test_one_step_forecast_reproduces_training_targets(rng):
    ds = scattered_dataset(rng)
    model = fit(gaussian_params(), ds, 0.0)
    pred = one_step_forecast(model, ds)
    assert np.abs(pred - ds.Y).max() <= 1e-6 * (1.0 + np.abs(ds.Y).max())


def test_one_step_forecast_empty_input(rng):
    ds = scattered_dataset(rng)
    model = fit(gaussian_params(), ds, 0.1)
    empty = DelayDataset(np.zeros((0, ds.X.shape[1])), np.zeros((0, 2)), tau=ds.tau)
    assert one_step_forecast(model, empty).shape == (0, 2)


def test_rollout_first_step_matches_predict_one(rng):
    ds = scattered_dataset(rng)
    model = fit(gaussian_params(), ds, 0.05)
    seed = ds.X[3]
    np.testing.assert_array_equal(rollout(model, seed, 1)[0], predict_one(model, seed))


def test_rollout_on_constant_series_is_fixed_point():
    # a single training pair keeps the duplicate-window Gram nonsingular
    series = TimeSeries(np.full((4, 2), 1.7), 0.1)
    ds = build_delay_dataset(series, 3)
    assert ds.n_pairs == 1
    model = fit(gaussian_params(), ds, 0.0)
    path = rollout(model, ds.X[0], 5)
    np.testing.assert_allclose(path, np.full((5, 2), 1.7), rtol=1e-12)


def test_rollout_window_shift_matches_manual_composition(rng):
    ds = scattered_dataset(rng, tau=3)
    model = fit(gaussian_params(), ds, 0.05)
    seed = ds.X[0]
    path = rollout(model, seed, 2)
    first = predict_one(model, seed)
    shifted = np.concatenate([first, seed[:-2]])
    second = predict_one(model, shifted)
    np.testing.assert_array_equal(path[0], first)
    np.testing.assert_array_equal(path[1], second)


def test_rollout_divergence_truncates_and_reports():
    # hand-built tripling map: w -> 3w overflows after ~650 steps
    params = single_kernel(1, make_theta(t1=0.0))
    model = TrainedModel(
        params=params,
        train_X=np.array([[1.0]]),
        coefficients=np.array([[3.0]]),
        lambda1=0.0,
        tau=1,
        dim=1,
    )
    with pytest.raises(RolloutDiverged) as info:
        rollout(model, np.array([1.0]), 800)
    assert 0 < info.value.step < 800
    assert info.value.partial.shape == (info.value.step, 1)
    np.testing.assert_allclose(info.value.partial[:4, 0], [3.0, 9.0, 27.0, 81.0])


def _chained_predict_one(model, window, steps):
    """Reference rollout: (path, divergence step or None) from predict_one calls."""
    window, d, path = np.asarray(window, dtype=float), model.dim, []
    for t in range(steps):
        try:
            state = predict_one(model, window)
        except (KernelEvalError, NonFiniteForecast):
            return np.array(path).reshape(-1, d), t
        path.append(state)
        window = np.concatenate([state, window[:-d]])
    return np.array(path), None


def _lorenz_prepared():
    lorenz = next(s for s in builtin_systems() if s.name == "lorenz")
    return prepare_series(integrate_rk4(lorenz, 400), 5, 0.8)


def test_rollout_equals_chained_predict_one_bitwise():
    prepared = _lorenz_prepared()
    test = prepared.test
    model = fit(random_params(np.random.default_rng(3)), prepared.train, 0.05)
    want, step = _chained_predict_one(model, test.X[0], test.n_pairs)
    assert step is None
    assert rollout(model, test.X[0], test.n_pairs).tobytes() == want.tobytes()
    # the linear kernel with tripled coefficients grows until the sum overflows
    linear = fit(single_kernel(1), prepared.train, 0.05)
    linear = TrainedModel(linear.params, linear.train_X, 3.0 * linear.coefficients,
                          linear.lambda1, linear.tau, linear.dim)
    want, step = _chained_predict_one(linear, test.X[0], 1000)
    assert step is not None and step > 0
    with pytest.raises(RolloutDiverged) as info:
        rollout(linear, test.X[0], 1000)
    assert info.value.step == step
    assert info.value.partial.tobytes() == want.tobytes()


def test_a_prediction_that_overflows_is_a_numerical_error(rng, recwarn):
    # finite kernel rows and finite coefficients whose product overflows: every forecast
    # path raises before returning it, and no floating-point warning escapes
    ds = scattered_dataset(rng)
    model = fit(gaussian_params(), ds, 0.05)
    # the largest float times a Gaussian row that sums to more than 1
    huge = np.full_like(model.coefficients, np.finfo(float).max)
    model = TrainedModel(model.params, model.train_X, huge, model.lambda1, model.tau,
                         model.dim)
    with pytest.raises(NonFiniteForecast, match="prediction row 0 is non-finite"):
        one_step_forecast(model, ds)
    with pytest.raises(NonFiniteForecast, match="prediction row 0 is non-finite"):
        predict_one(model, ds.X[0])
    with pytest.raises(RolloutDiverged) as info:
        rollout(model, ds.X[0], 5)
    assert info.value.step == 0 and info.value.partial.shape == (0, model.dim)
    assert len(recwarn) == 0


def test_rollout_checks_the_seed_window_before_any_step(rng, monkeypatch):
    ds = scattered_dataset(rng)
    model = fit(gaussian_params(), ds, 0.05)
    steps = []
    monkeypatch.setattr(kflow.forecast, "_kernel_matrix", lambda *args: steps.append(args))
    for seed in (ds.X[0][:-1], np.append(ds.X[0], 0.0)):
        with pytest.raises(ValueError, match="window length"):
            rollout(model, seed, 3)
    assert steps == []


def test_rollout_bad_steps():
    ds = DelayDataset(np.ones((2, 2)), np.ones((2, 1)), tau=2)
    model = fit(gaussian_params(), ds, 0.5)
    with pytest.raises(ValueError):
        rollout(model, np.ones(2), 0)


def test_ridge_shrinkage_monotone(rng):
    ds = scattered_dataset(rng, n=16)
    norms = []
    for lam in (0.01, 0.05, 0.1, 1.0):
        model = fit(gaussian_params(), ds, lam)
        norms.append(np.linalg.norm(model.coefficients))
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_model_json_round_trip(rng):
    ds = scattered_dataset(rng)
    model = fit(gaussian_params(0.8), ds, 0.05)
    doc = model.to_dict()
    back = TrainedModel.from_dict(doc)
    assert (back.train_X == model.train_X).all()
    assert (back.coefficients == model.coefficients).all()
    assert back.lambda1 == model.lambda1 and back.tau == model.tau
    # BLAS picks alignment-dependent code paths, so round-tripped arrays
    # may differ from the originals in the last ulp
    np.testing.assert_allclose(
        predict_one(back, ds.X[0]), predict_one(model, ds.X[0]), rtol=1e-12
    )


def test_fit_peak_memory_is_one_and_a_half_matrices(monkeypatch):
    # the Gram is packed and dropped before the factor buffer exists: n^2 / 2 + n^2 floats
    # (as an n^2 Gram and its n^2 / 2 triangle before), never the Gram beside the buffer
    pin_usable_cores(monkeypatch, 2)
    lorenz = next(s for s in builtin_systems() if s.name == "lorenz")
    ds = prepare_series(integrate_rk4(lorenz, 1500), 5, 0.8).train
    full = random_params(np.random.default_rng(3))
    n = ds.n_pairs
    for params in (full, gaussian_params()):  # an indefinite system (LU), a definite one
        tracemalloc.start()
        try:
            fit(params, ds, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * n * n * 8
