from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_theta
import kflow.forecast
import kflow.loss
import kflow.training
from kflow.embedding import TimeSeries, build_delay_dataset
from kflow.forecast import fit, one_step_forecast
from kflow.kernels import KernelEvalError, KernelParams, N_KERNELS, N_THETA, cross_gram, gram
from kflow.loss import FactorizationError
from kflow.metrics import smape
from kflow.training import (
    CALIBRATION_ROWS,
    SCALE_CANDIDATES,
    TrainConfig,
    TrainingAborted,
    _calibrate_scale,
    default_init,
    sample_nested_batches,
    soft_threshold,
    train,
)


def lorenz_like_dataset(rng, n=120, d=2):
    """Small smooth trajectory standing in for an attractor fixture."""
    t = np.linspace(0.0, 12.0, n)
    values = np.column_stack([np.sin(t) + 0.1 * np.sin(3.1 * t),
                              np.cos(0.9 * t)])[:, :d]
    values += 0.01 * rng.normal(size=values.shape)
    return build_delay_dataset(TimeSeries(values, 0.1), 3)


def psd_init(rng):
    alpha = np.zeros(N_KERNELS)
    alpha[2] = rng.uniform(0.5, 1.0)
    alpha[3] = rng.uniform(0.5, 1.0)
    alpha[0] = rng.uniform(0.5, 1.0)
    return KernelParams(alpha, rng.uniform(0.8, 1.5, N_THETA))


# ---------------------------------------------------------------------------
# soft threshold
# ---------------------------------------------------------------------------

def test_soft_threshold_hand_values():
    assert soft_threshold(0.5, 0.2) == pytest.approx(0.3)
    assert soft_threshold(-0.1, 0.2) == 0.0
    assert soft_threshold(-0.5, 0.2) == pytest.approx(-0.3)


def test_soft_threshold_zero_is_identity(rng):
    v = rng.normal(size=8)
    np.testing.assert_array_equal(soft_threshold(v, 0.0), v)


def test_soft_threshold_negative_threshold_rejected():
    with pytest.raises(ValueError):
        soft_threshold(1.0, -0.1)


def test_soft_threshold_minimizes_prox_objective(rng):
    # brute-force grid oracle for argmin_u 0.5 (u - v)^2 + t |u|
    for _ in range(100):
        v = float(rng.uniform(-3.0, 3.0))
        t = float(rng.uniform(0.0, 2.0))
        grid = np.linspace(-4.0, 4.0, 160001)
        objective = 0.5 * (grid - v) ** 2 + t * np.abs(grid)
        best = grid[np.argmin(objective)]
        assert abs(float(soft_threshold(v, t)) - best) <= 1e-4


@settings(max_examples=100, deadline=None)
@given(st.floats(-10, 10), st.floats(0, 5))
def test_soft_threshold_shrinks_magnitude(v, t):
    out = float(soft_threshold(v, t))
    assert abs(out) <= abs(v) + 1e-15
    if abs(v) <= t:
        assert out == 0.0


# ---------------------------------------------------------------------------
# batch sampling
# ---------------------------------------------------------------------------

def test_full_batch_is_permutation(rng):
    ds = lorenz_like_dataset(rng)
    n = ds.n_pairs
    idx_b, sub = sample_nested_batches(ds, n, np.random.default_rng(7))
    assert sorted(idx_b.tolist()) == list(range(n))
    assert len(sub) == n // 2
    assert set(sub.tolist()).issubset(range(n))


def test_batch_two_gives_singleton_subset(rng):
    ds = lorenz_like_dataset(rng)
    idx_b, sub = sample_nested_batches(ds, 2, np.random.default_rng(7))
    assert len(idx_b) == 2 and len(sub) == 1
    assert sub[0] in (0, 1)


def test_sampling_deterministic(rng):
    ds = lorenz_like_dataset(rng)
    a = sample_nested_batches(ds, 10, np.random.default_rng(123))
    b = sample_nested_batches(ds, 10, np.random.default_rng(123))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_batch_too_large_raises(rng):
    ds = lorenz_like_dataset(rng)
    with pytest.raises(ValueError):
        sample_nested_batches(ds, ds.n_pairs + 1, np.random.default_rng(0))


def test_draws_without_replacement(rng):
    ds = lorenz_like_dataset(rng)
    for seed in range(20):
        idx_b, sub = sample_nested_batches(ds, 16, np.random.default_rng(seed))
        assert len(set(idx_b.tolist())) == 16
        assert len(set(sub.tolist())) == 8 and set(sub.tolist()) <= set(range(16))


def test_half_batch_is_the_draw_of_a_subset_of_the_batch(rng):
    # drawing positions into batch b keeps the random stream of drawing
    # from b's indices themselves: idx_b[sub] is that subset, in its order
    ds = lorenz_like_dataset(rng)
    for seed in range(20):
        idx_b, sub = sample_nested_batches(ds, 16, np.random.default_rng(seed))
        stream = np.random.default_rng(seed)
        np.testing.assert_array_equal(stream.choice(ds.n_pairs, size=16, replace=False), idx_b)
        np.testing.assert_array_equal(stream.choice(idx_b, size=8, replace=False), idx_b[sub])


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_zero_epochs_returns_init(rng):
    ds = lorenz_like_dataset(rng)
    init = psd_init(rng)
    report = train(ds, init, TrainConfig(epochs=0, batch_size=16, seed=1))
    assert report.epochs_run == 0
    assert report.loss_history == []
    assert report.final_params is init


def test_training_is_deterministic(rng):
    ds = lorenz_like_dataset(rng)
    init = psd_init(rng)
    config = TrainConfig(epochs=12, batch_size=24, lambda1=0.05, lambda2=0.05, seed=42)
    a = train(ds, init, config)
    b = train(ds, init, config)
    assert (a.final_params.alpha == b.final_params.alpha).all()
    assert (a.final_params.theta == b.final_params.theta).all()
    assert [h.total for h in a.loss_history] == [h.total for h in b.loss_history]
    assert a.nnz_alpha == b.nnz_alpha


def test_loss_history_length_matches_epochs(rng):
    ds = lorenz_like_dataset(rng)
    report = train(ds, psd_init(rng), TrainConfig(epochs=7, batch_size=16, seed=3))
    assert report.epochs_run == 7
    assert len(report.loss_history) == 7
    finite = [h for h in report.loss_history if h is not None]
    assert all(np.isfinite(h.rho) for h in finite)


def test_regular_equals_train_with_zero_lambda2(rng):
    # regular training is lambda2 = 0, where zero_clamp is not applied: the
    # same bits whatever the clamp
    ds = lorenz_like_dataset(rng)
    init = psd_init(rng)
    config = TrainConfig(epochs=10, batch_size=16, lambda2=0.0, zero_clamp=0.0, seed=9)
    a = train(ds, init, config)
    b = train(ds, init, replace(config, zero_clamp=1e6))
    assert (a.final_params.alpha == b.final_params.alpha).all()
    assert (a.final_params.theta == b.final_params.theta).all()


def test_regular_keeps_all_weights_dense(rng):
    # at lambda2 = 0 a huge clamp zeroes nothing; at lambda2 > 0 it zeroes
    # every weight
    ds = lorenz_like_dataset(rng)
    init = KernelParams.random(np.random.default_rng(5))
    config = TrainConfig(epochs=15, batch_size=16, zero_clamp=1e6, seed=5)
    assert train(ds, init, config).nnz_alpha == N_KERNELS
    assert train(ds, init, replace(config, lambda2=1e-9)).nnz_alpha == 0


def test_batch_size_is_clamped_to_the_dataset(rng):
    ds = lorenz_like_dataset(rng, n=30)
    init = psd_init(rng)
    config = TrainConfig(epochs=6, batch_size=ds.n_pairs, lambda2=0.01, seed=2)
    a = train(ds, init, config)
    b = train(ds, init, replace(config, batch_size=10 * ds.n_pairs))
    assert a.to_dict() == b.to_dict()
    assert a.final_params.alpha.tobytes() == b.final_params.alpha.tobytes()
    assert a.final_params.theta.tobytes() == b.final_params.theta.tobytes()


def test_final_zeros_are_exact(rng):
    ds = lorenz_like_dataset(rng)
    init = KernelParams.random(np.random.default_rng(2))
    config = TrainConfig(epochs=40, batch_size=16, lambda2=2.0, seed=2)
    report = train(ds, init, config)
    dropped = report.final_params.alpha[np.abs(report.final_params.alpha) == 0.0]
    assert dropped.size > 0  # a strong penalty must kill something
    assert (report.final_params.alpha[report.final_params.alpha != 0.0] != 0.0).all()
    assert report.nnz_alpha == int((report.final_params.alpha != 0.0).sum())


def test_stronger_penalty_is_sparser(rng):
    ds = lorenz_like_dataset(rng)
    init = KernelParams.random(np.random.default_rng(11))
    heavy = train(ds, init, TrainConfig(epochs=60, batch_size=16, lambda2=10.0, seed=0))
    light = train(ds, init, TrainConfig(epochs=60, batch_size=16, lambda2=0.0001, seed=0))
    assert heavy.nnz_alpha < light.nnz_alpha


def test_alpha_step_without_penalty_is_plain_sgd():
    # soft_threshold with t = 0 must leave the gradient step untouched
    v = np.array([0.31, -0.02, 1.7])
    np.testing.assert_array_equal(soft_threshold(v, 0.0), v)


def test_dead_weights_stay_dead(rng):
    # alpha enters squared, so a zeroed weight has zero smooth gradient
    ds = lorenz_like_dataset(rng)
    alpha = np.zeros(N_KERNELS)
    alpha[2] = 0.9
    init = KernelParams(alpha, rng.uniform(0.8, 1.2, N_THETA))
    report = train(ds, init, TrainConfig(epochs=10, batch_size=16, lambda2=0.01, seed=4))
    assert (report.final_params.alpha[np.arange(N_KERNELS) != 2] == 0.0).all()


def test_failure_budget_aborts(rng, monkeypatch):
    # an impossible batch size is caught by validation instead; force
    # failures via a kernel that blows up (bare divisor at zero is
    # clamped, so use an exponent runway: theta_23 huge on k12)
    ds = lorenz_like_dataset(rng)
    alpha = np.zeros(N_KERNELS)
    alpha[11] = 1.0
    theta = make_theta(t23=400.0, t22=3.0)  # (9 + r)^400 overflows
    init = KernelParams(alpha, theta)
    monkeypatch.setattr(kflow.training, "FAILURE_BUDGET_FRACTION", 0.0)
    with pytest.raises(TrainingAborted):
        train(ds, init, TrainConfig(epochs=20, batch_size=16, seed=0))


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=1)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(lambda2=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)


def test_report_serialization_omits_wall_time(rng):
    ds = lorenz_like_dataset(rng)
    report = train(ds, psd_init(rng), TrainConfig(epochs=3, batch_size=16, seed=8))
    doc = report.to_dict()
    assert "wall_time" not in doc
    assert doc["epochs_run"] == 3
    assert len(doc["loss_history"]) == 3
    assert doc["loss_history"][0]["epoch"] == 1


# ---------------------------------------------------------------------------
# scale calibration and per-epoch reuse
# ---------------------------------------------------------------------------

def test_power_of_two_weight_scale_is_exact_gram_scale(rng):
    # calibration rescales the s = 1 Gram by s*s instead of evaluating at s*alpha
    ds = lorenz_like_dataset(rng)
    params = default_init(ds, 0)
    K, K_cross = gram(params, ds.X), cross_gram(params, ds.X[:30], ds.X[30:])
    for s in SCALE_CANDIDATES:
        scaled = KernelParams(s * params.alpha, params.theta)
        assert gram(scaled, ds.X).tobytes() == (s * s * K).tobytes()
        assert cross_gram(scaled, ds.X[:30], ds.X[30:]).tobytes() == (s * s * K_cross).tobytes()


def _reference_calibration(ds, alpha, theta, config):
    # the per-candidate fit at s * alpha that _calibrate_scale must reproduce
    n = ds.n_pairs
    n_hold = max(16, n // 8)
    n_fit = min(CALIBRATION_ROWS, n - n_hold)
    fit_part = ds.subset(slice(n - n_fit - n_hold, n - n_hold))
    hold_part = ds.subset(slice(n - n_hold, n))
    best_scale, best_err = 1.0, np.inf
    for s in SCALE_CANDIDATES:
        try:
            model = fit(KernelParams(s * alpha, theta), fit_part, config.lambda1)
            err = smape(one_step_forecast(model, hold_part), hold_part.Y)
        except (FactorizationError, KernelEvalError):
            continue
        if err < best_err:
            best_scale, best_err = s, err
    return best_scale * alpha


def test_calibration_matches_per_candidate_fits(rng):
    ds = lorenz_like_dataset(rng)
    full = default_init(ds, 0)
    gaussian = np.zeros(N_KERNELS)
    gaussian[2] = full.alpha[2]
    # weight 2**1016 on a Gaussian: the sum overflows at s = 16 only
    huge = np.zeros(N_KERNELS)
    huge[2] = 2.0 ** 508
    # t7 = 0 makes elemental 5 non-finite: every candidate fails
    broken = np.zeros(N_KERNELS)
    broken[4] = 1.0
    config = TrainConfig()
    for alpha, theta in ((full.alpha, full.theta), (gaussian, full.theta),
                         (huge, full.theta), (broken, make_theta(t7=0.0))):
        got = _calibrate_scale(ds, alpha, theta, config)
        want = _reference_calibration(ds, alpha, theta, config)
        assert got.tobytes() == want.tobytes()


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_calibration_evaluates_each_kernel_matrix_once(rng, monkeypatch):
    ds = lorenz_like_dataset(rng)
    full = default_init(ds, 0)
    grams = _counting(monkeypatch, kflow.forecast, "gram")
    crosses = _counting(monkeypatch, kflow.forecast, "cross_gram")
    _calibrate_scale(ds, full.alpha, full.theta, TrainConfig())
    assert len(grams) == 1 and len(crosses) == 1


def test_full_dictionary_epoch_evaluates_42_blocks(rng, monkeypatch):
    # theta-step and alpha-step each evaluate 21 blocks on batch b, whose
    # submatrices serve the half batch; the logged loss reuses the
    # alpha-step's blocks (theta is unchanged).  Only the theta-step takes
    # theta-derivative blocks, again on b only.
    ds = lorenz_like_dataset(rng)
    blocks = _counting(monkeypatch, kflow.loss, "_eval_block")
    grads = _counting(monkeypatch, kflow.loss, "_grad_blocks")
    report = train(ds, default_init(ds, 0),
                   TrainConfig(epochs=1, batch_size=16, lambda2=0.0, seed=1))
    assert report.failures == []
    assert len(blocks) == 42
    assert len(grads) == 21
