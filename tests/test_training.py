import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import full_stats, make_theta, random_params
import kflow.forecast
import kflow.loss
import kflow.training
from kflow.embedding import TimeSeries, build_delay_dataset
from kflow.evaluation import prepare_series
from kflow.forecast import fit, one_step_forecast
from kflow.kernels import SLOTS, KernelEvalError, KernelParams, N_KERNELS, N_THETA, cross_gram, gram
from kflow.loss import FactorizationError
from kflow.metrics import smape
from kflow.systems import get_system, integrate_rk4
from kflow.training import (
    CALIBRATION_ROWS,
    PROBE_ROWS,
    SCALE_CANDIDATES,
    TrainConfig,
    TrainingAborted,
    _calibrate_scale,
    default_init,
    geometry_scales,
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
    init = random_params(np.random.default_rng(5))
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
    init = random_params(np.random.default_rng(2))
    config = TrainConfig(epochs=40, batch_size=16, lambda2=2.0, seed=2)
    report = train(ds, init, config)
    dropped = report.final_params.alpha[np.abs(report.final_params.alpha) == 0.0]
    assert dropped.size > 0  # a strong penalty must kill something
    assert (report.final_params.alpha[report.final_params.alpha != 0.0] != 0.0).all()
    assert report.nnz_alpha == int((report.final_params.alpha != 0.0).sum())


def test_stronger_penalty_is_sparser(rng):
    ds = lorenz_like_dataset(rng)
    init = random_params(np.random.default_rng(11))
    heavy = train(ds, init, TrainConfig(epochs=60, batch_size=16, lambda2=10.0, seed=0))
    light = train(ds, init, TrainConfig(epochs=60, batch_size=16, lambda2=0.0001, seed=0))
    assert heavy.nnz_alpha < light.nnz_alpha


def test_alpha_step_without_penalty_is_plain_sgd():
    # soft_threshold with t = 0 must leave the gradient step untouched
    v = np.array([0.31, -0.02, 1.7])
    np.testing.assert_array_equal(soft_threshold(v, 0.0), v)


def test_dead_weights_stay_dead(rng):
    # alpha enters squared, so a zeroed weight has zero smooth gradient, and so have
    # its theta slots: they end bitwise where they began
    ds = lorenz_like_dataset(rng)
    alpha = np.zeros(N_KERNELS)
    alpha[2] = 0.9
    init = KernelParams(alpha, rng.uniform(0.8, 1.2, N_THETA))
    report = train(ds, init, TrainConfig(epochs=10, batch_size=16, lambda2=0.01, seed=4))
    assert (report.final_params.alpha[np.arange(N_KERNELS) != 2] == 0.0).all()
    dead = [j for i, slots in enumerate(SLOTS) if i != 2 for j in slots]
    assert report.final_params.theta[dead].tobytes() == init.theta[dead].tobytes()
    assert report.final_params.theta[SLOTS[2]].tobytes() != init.theta[SLOTS[2]].tobytes()


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
    # nan passes every ordered comparison's negation, and inf breaks the ridge shift
    for key in ("lr", "lambda1", "lambda2", "zero_clamp"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"setting '{key}' = {value}: must be finite"):
                TrainConfig(**{key: value})


def test_report_serialization_omits_wall_time(rng):
    ds = lorenz_like_dataset(rng)
    report = train(ds, psd_init(rng), TrainConfig(epochs=3, batch_size=16, seed=8))
    doc = report.to_dict()
    assert "wall_time" not in doc
    assert doc["epochs_run"] == 3
    assert len(doc["loss_history"]) == 3
    assert doc["loss_history"][0]["epoch"] == 1


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def _reference_scales(dataset):
    # reference: the slots grouped by rule, then t29, t30 and t34 assigned again,
    # which overwrites their group entries
    step = max(1, dataset.n_pairs // PROBE_ROWS)
    S, _, Q = full_stats(dataset.X[::step][:PROBE_ROWS])
    iu = np.triu_indices(S.shape[0], k=1)
    q_med, q_hi = np.percentile(Q[iu], [50.0, 95.0])
    s_hi = np.percentile(np.abs(S[iu]), 95.0)
    q_med, q_hi = max(q_med, 1e-12), max(q_hi, 1e-12)
    r_med, r_hi = np.sqrt(q_med), np.sqrt(q_hi)
    s_hi = max(s_hi, 1e-12)
    scales = np.ones(N_THETA)
    scales[[4, 8, 16, 23, 27, 28]] = np.sqrt(q_med)      # t5, t9, t17, t24, t28, t29
    scales[[5, 13, 21, 26, 29, 33]] = np.sqrt(r_med)     # t6, t14, t22, t27, t30, t34
    scales[[6, 9]] = 4.0 * q_hi                          # t7, t10
    scales[[11, 14]] = 4.0 * r_hi                        # t12, t15
    scales[[18]] = 1.0 / np.sqrt(q_med)                  # t19
    scales[[20]] = 1.0 / np.sqrt(r_med)                  # t21
    scales[[25]] = r_med                                 # t26
    scales[[1, 31]] = 1.0 / np.sqrt(s_hi)                # t2, t32
    scales[28] = np.sqrt(2.0 * q_hi)                     # t29
    scales[29] = np.sqrt(2.0 * r_hi)                     # t30
    scales[33] = np.sqrt(2.0 * r_hi)                     # t34
    return scales


@pytest.mark.parametrize("system", ["lorenz", "duffing"])
def test_default_init_equals_the_grouped_reference_bitwise(system):
    train_ds = prepare_series(integrate_rk4(get_system(system), 600), 5, 0.8).train
    scales = _reference_scales(train_ds)
    assert geometry_scales(train_ds).tobytes() == scales.tobytes()
    for seed in (0, 11):
        rng = np.random.default_rng(seed)
        alpha = rng.uniform(0.5, 1.0, N_KERNELS)
        alpha[[8, 11, 12, 18, 19]] *= 0.1                # the non-PSD terms 9, 12, 13, 19, 20
        theta = rng.uniform(0.5, 1.5, N_THETA) * scales
        init = default_init(train_ds, seed)
        assert init.alpha.tobytes() == alpha.tobytes()
        assert init.theta.tobytes() == theta.tobytes()


def test_geometry_scales_need_two_windows():
    # one window has no pair to measure: a clear error, not an IndexError from the probe
    one = build_delay_dataset(TimeSeries(np.arange(8.0).reshape(4, 2), 0.1), 3)
    with pytest.raises(ValueError, match="at least 2 windows, got 1"):
        geometry_scales(one)


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


def test_calibration_matches_per_candidate_fits(rng, monkeypatch):
    ds = lorenz_like_dataset(rng)
    full = default_init(ds, 0)
    gaussian = np.zeros(N_KERNELS)
    gaussian[2] = full.alpha[2]
    # a small power term on the Gaussian: Cholesky up to s = 4, LU from the nugget at s = 8 on,
    # all in one buffer; the full dictionary takes LU at every candidate
    mixed = gaussian.copy()
    mixed[11] = 0.03
    # weight 2**1016 on a Gaussian: the sum overflows at s = 16 only
    huge = np.zeros(N_KERNELS)
    huge[2] = 2.0 ** 508
    # t7 = 0 makes elemental 5 non-finite: every candidate fails
    broken = np.zeros(N_KERNELS)
    broken[4] = 1.0
    config = TrainConfig()
    log, paths, chosen, ridge = [], [], [], kflow.forecast.RidgeSystem

    def recorded_system(K, lambda1, **buffer):
        system = ridge(K, lambda1, **buffer)
        log.append("LU" if system._pivots is not None else "Cholesky")
        return system

    monkeypatch.setattr(kflow.forecast, "RidgeSystem", recorded_system)
    for alpha, theta in ((full.alpha, full.theta), (gaussian, full.theta), (mixed, full.theta),
                         (huge, full.theta), (broken, make_theta(t7=0.0))):
        log.clear()
        got = _calibrate_scale(ds, alpha, theta, config)
        paths.append(log[:])  # the search's systems, not the reference fits'
        want = _reference_calibration(ds, alpha, theta, config)
        assert got.tobytes() == want.tobytes()
        chosen.append(got)
    assert paths[0] == ["LU"] * 5 and paths[1] == ["Cholesky"] * 5
    assert paths[2] == ["Cholesky"] * 3 + ["LU"] * 2
    assert chosen[2].tobytes() == (8.0 * mixed).tobytes()  # an LU candidate wins


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_calibration_evaluates_each_kernel_matrix_once(rng, monkeypatch):
    # the Gram is evaluated in the buffer the candidates factorize in, not through gram
    ds = lorenz_like_dataset(rng)
    full = default_init(ds, 0)
    grams = _counting(monkeypatch, kflow.training, "_kernel_matrix")
    crosses = _counting(monkeypatch, kflow.forecast, "cross_gram")
    packed_grams = _counting(monkeypatch, kflow.forecast, "gram")
    _calibrate_scale(ds, full.alpha, full.theta, TrainConfig())
    assert len(grams) == 1 and len(crosses) == 1 and packed_grams == []


def test_calibration_solves_every_candidate_against_one_gram(rng, monkeypatch):
    # 1024 fit rows: the candidates hold K packed, K_hold and one factor buffer, the Gram's,
    # where a full K beside them would add another half matrix
    ds = lorenz_like_dataset(rng, n=1200)
    full = default_init(ds, 0)
    grams, systems = [], []
    kernel_matrix, ridge = kflow.training._kernel_matrix, kflow.forecast.RidgeSystem

    def recorded_gram(params, X):
        grams.append(len(X))
        return kernel_matrix(params, X)

    def recorded_system(K, lambda1, *, buffer):
        # every candidate's triangle and buffer: one object each, or the peak rises
        systems.append((K, buffer))
        return ridge(K, lambda1, buffer=buffer)

    monkeypatch.setattr(kflow.training, "_kernel_matrix", recorded_gram)
    monkeypatch.setattr(kflow.forecast, "RidgeSystem", recorded_system)
    tracemalloc.start()
    try:
        _calibrate_scale(ds, full.alpha, full.theta, TrainConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_fit, n_hold = CALIBRATION_ROWS, ds.n_pairs // 8
    packed, factors = 8 * n_fit * (n_fit + 1) // 2, 8 * n_fit * n_fit
    # a quarter matrix of slack: the kernel tiles' temporaries and the solves' n x 2 arrays
    assert peak < packed + 8 * n_hold * n_fit + factors + factors // 4
    assert grams == [n_fit] and len(systems) == len(SCALE_CANDIDATES)
    K0, buffer0 = systems[0]
    assert K0.shape == (n_fit * (n_fit + 1) // 2,) and buffer0.shape == (n_fit, n_fit)
    assert all(K is K0 and buffer is buffer0 for K, buffer in systems)


@pytest.mark.parametrize("gaussian_only", [False, True], ids=["lu", "cholesky"])
def test_calibration_candidates_allocate_no_gram_sized_array(rng, monkeypatch, gaussian_only):
    # measured from the first candidate on, when the Gram is evaluated and packed: each
    # candidate factorizes in the Gram's buffer, so only the solves' n x 2 arrays are new
    ds = lorenz_like_dataset(rng, n=1200)
    full = default_init(ds, 0)
    alpha = np.where(np.arange(N_KERNELS) == 2, full.alpha, 0.0) if gaussian_only else full.alpha
    ridge, before, paths = kflow.forecast.RidgeSystem, [], []

    def measured_system(*args, **kwargs):
        if not before:
            tracemalloc.reset_peak()
            before.append(tracemalloc.get_traced_memory()[0])
        system = ridge(*args, **kwargs)
        paths.append(system._pivots is None)
        return system

    monkeypatch.setattr(kflow.forecast, "RidgeSystem", measured_system)
    tracemalloc.start()
    try:
        _calibrate_scale(ds, alpha, full.theta, TrainConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert paths == [gaussian_only] * len(SCALE_CANDIDATES)  # True: Cholesky
    assert peak - before[0] < 8 * CALIBRATION_ROWS ** 2 // 4


def test_an_epoch_evaluates_the_loss_twice_theta_step_first(rng, monkeypatch):
    # the logged loss is the alpha-step's own: no third evaluation, on one batch per epoch
    ds = lorenz_like_dataset(rng)
    calls = []
    nested_eval = kflow.training._nested_eval

    def recorded(params, batch, lambda1, **flags):
        calls.append((batch, flags))
        return nested_eval(params, batch, lambda1, **flags)

    monkeypatch.setattr(kflow.training, "_nested_eval", recorded)
    report = train(ds, default_init(ds, 0), TrainConfig(epochs=3, batch_size=16, seed=1))
    assert report.failures == []
    assert [flags for _, flags in calls] == [{"wrt_theta": True}, {"wrt_alpha": True}] * 3
    assert [calls[k][0] is calls[k + 1][0] for k in (0, 2, 4)] == [True] * 3


def test_full_dictionary_epoch_evaluates_42_blocks(rng, monkeypatch):
    # theta-step and alpha-step each evaluate 21 blocks on batch b, whose
    # submatrices serve the half batch; the epoch logs the alpha-step's
    # loss, so no evaluation follows.  Only the theta-step takes
    # theta-derivative blocks, again on b only.
    ds = lorenz_like_dataset(rng)
    blocks = _counting(monkeypatch, kflow.loss, "_eval_block")
    grads = _counting(monkeypatch, kflow.loss, "_grad_blocks")
    report = train(ds, default_init(ds, 0),
                   TrainConfig(epochs=1, batch_size=16, lambda2=0.0, seed=1))
    assert report.failures == []
    assert len(blocks) == 42
    assert len(grads) == 21
