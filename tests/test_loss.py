import numpy as np
import pytest
from scipy.linalg import hilbert

from conftest import make_theta, single_kernel
from kflow.kernels import N_KERNELS, N_THETA, KernelParams, gram
from kflow.loss import (
    DegenerateBatchError,
    FactorizationError,
    LossBreakdown,
    RidgeSystem,
    grad_loss,
    regularized_quadratic_form,
    rho,
    sparse_loss,
)


def linear_two_point_fixture():
    """Linear kernel on rows (1), (2): K = [[1, 2], [2, 4]]."""
    params = single_kernel(1, make_theta(t1=0.0))
    X = np.array([[1.0], [2.0]])
    Y = np.array([[1.0], [2.0]])
    return params, X, Y


def psd_params(rng):
    """A PSD-subset combination with well-behaved scales."""
    alpha = np.zeros(N_KERNELS)
    alpha[2] = rng.uniform(0.5, 1.0)   # gaussian
    alpha[3] = rng.uniform(0.5, 1.0)   # laplacian
    alpha[15] = rng.uniform(0.5, 1.0)  # rational
    return KernelParams(alpha, rng.uniform(0.8, 1.5, N_THETA))


# ---------------------------------------------------------------------------
# RidgeSystem
# ---------------------------------------------------------------------------

def test_solve_against_explicit_inverse(rng):
    # brute-force oracle on small systems
    for n in (1, 2, 3, 4, 5, 6):
        M = rng.normal(size=(n, n))
        K = M @ M.T  # PSD
        lam = 0.3
        Y = rng.normal(size=(n, 2))
        system = RidgeSystem(K, lam)
        direct = np.linalg.inv(K + lam * np.eye(n)) @ Y
        np.testing.assert_allclose(system.solve(Y), direct, rtol=1e-10, atol=1e-12)
        qf = float(np.sum(Y * system.solve(Y)))
        oracle = float(np.sum(Y * direct))
        assert qf == pytest.approx(oracle, rel=1e-10)


def test_indefinite_system_uses_ldl(rng):
    # indefinite but far from singular: Cholesky must fail, LDL^T succeed
    K = np.diag([1.0, -2.0, 3.0])
    system = RidgeSystem(K, 0.1)
    Y = rng.normal(size=3)
    x = system.solve(Y)
    np.testing.assert_allclose((K + 0.1 * np.eye(3)) @ x, Y, atol=1e-10)


def test_exactly_singular_raises():
    K = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(FactorizationError) as info:
        RidgeSystem(K, 1.0).solve(np.array([1.0, 1.0]))
    assert info.value.condition == np.inf


def test_nonfinite_gram_rejected():
    K = np.array([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(FactorizationError):
        RidgeSystem(K, 0.0)


def test_residual_check_reports_condition(rng, monkeypatch):
    # nearly singular: duplicate rows, lambda1 = 0
    K = np.ones((4, 4)) + 1e-16 * np.eye(4)
    with pytest.raises((FactorizationError, np.linalg.LinAlgError)) as info:
        RidgeSystem(K, 0.0).solve(rng.normal(size=4))
    # a LAPACK estimate from the factors: at least 1, or inf when singular
    cond = info.value.condition
    assert cond == np.inf or (np.isfinite(cond) and cond >= 1.0)
    # an unreachable tolerance fails every solve, so the estimate from the
    # Cholesky (pocon) and the LDL^T (sycon) factors is reported
    monkeypatch.setattr("kflow.loss.SOLVE_RESIDUAL_TOL", -1.0)
    for K in (hilbert(6), np.diag([1.0, -2.0, 3.0])):
        with pytest.raises(FactorizationError) as info:
            RidgeSystem(K, 0.0).solve(np.ones(K.shape[0]))
        exact = np.linalg.cond(K, 1)
        assert exact / 3.0 <= info.value.condition <= 3.0 * exact


# ---------------------------------------------------------------------------
# quadratic form
# ---------------------------------------------------------------------------

def test_qf_zero_targets():
    params, X, _ = linear_two_point_fixture()
    assert regularized_quadratic_form(params, X, np.zeros((2, 1)), 1.0) == 0.0


def test_qf_two_point_linear_oracle():
    # direct 2x2 inversion: [[2,2],[2,5]]^{-1} gives 5/6
    params, X, Y = linear_two_point_fixture()
    A = np.array([[2.0, 2.0], [2.0, 5.0]])
    oracle = float(Y[:, 0] @ np.linalg.inv(A) @ Y[:, 0])
    got = regularized_quadratic_form(params, X, Y, 1.0)
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(5.0 / 6.0, rel=1e-12)


def test_qf_identity_gram_frobenius(rng):
    # gaussian kernel on far-apart points gives essentially I at lambda1=0
    params = single_kernel(3, make_theta(t5=0.01))
    X = np.arange(5.0)[:, None] * 100.0
    Y = rng.normal(size=(5, 3))
    got = regularized_quadratic_form(params, X, Y, 0.0)
    assert got == pytest.approx(float((Y * Y).sum()), rel=1e-10)


def test_qf_multi_output_sums_columns(rng):
    params = psd_params(rng)
    X = rng.normal(size=(6, 2))
    Y = rng.normal(size=(6, 3))
    total = regularized_quadratic_form(params, X, Y, 0.05)
    per_col = sum(
        regularized_quadratic_form(params, X, Y[:, j:j + 1], 0.05) for j in range(3)
    )
    assert total == pytest.approx(per_col, rel=1e-12)


# ---------------------------------------------------------------------------
# rho
# ---------------------------------------------------------------------------

def test_rho_identical_subsets_is_zero():
    params, X, Y = linear_two_point_fixture()
    assert rho(params, X, Y, X, Y, 1.0) == 0.0


def test_rho_two_point_oracle():
    # qf_c = 1 / (1 + 1) = 0.5, qf_b = 5/6 -> rho = 1 - 0.6 = 0.4
    params, X, Y = linear_two_point_fixture()
    got = rho(params, X, Y, X[:1], Y[:1], 1.0)
    assert got == pytest.approx(0.4, rel=1e-12)


def test_rho_scale_invariance(rng):
    params = psd_params(rng)
    X = rng.normal(size=(8, 2))
    Y = rng.normal(size=(8, 2))
    base = rho(params, X, Y, X[:4], Y[:4], 0.05)
    for s in (2.0, -3.0, 0.125):
        scaled = rho(params, X, s * Y, X[:4], s * Y[:4], 0.05)
        assert abs(scaled - base) <= 1e-12 * max(1.0, abs(base))


def test_rho_zero_targets_degenerate():
    params, X, _ = linear_two_point_fixture()
    with pytest.raises(DegenerateBatchError):
        rho(params, X, np.zeros((2, 1)), X[:1], np.zeros((1, 1)), 1.0)


def test_rho_bounds_on_psd_fixture(rng):
    # nested-subset interpolant norms keep the ratio in [0, 1] modulo nugget
    for _ in range(20):
        params = psd_params(rng)
        X = rng.normal(size=(10, 3))
        Y = rng.normal(size=(10, 2))
        idx = rng.choice(10, size=5, replace=False)
        val = rho(params, X, Y, X[idx], Y[idx], 0.05)
        assert -1e-6 <= val <= 1.0 + 1e-6


# ---------------------------------------------------------------------------
# sparse loss
# ---------------------------------------------------------------------------

def test_sparse_loss_lambda2_zero_equals_rho(rng):
    params = psd_params(rng)
    X = rng.normal(size=(6, 2))
    Y = rng.normal(size=(6, 1))
    breakdown = sparse_loss(params, X, Y, X[:3], Y[:3], 0.05, 0.0)
    assert breakdown.l1_penalty == 0.0
    assert breakdown.total == breakdown.rho
    assert breakdown.rho == pytest.approx(rho(params, X, Y, X[:3], Y[:3], 0.05))


def test_sparse_loss_additivity():
    params, X, Y = linear_two_point_fixture()
    # |alpha|_1 = 1, lambda2 = 0.1, rho = 0.4 -> total = 0.5
    breakdown = sparse_loss(params, X, Y, X[:1], Y[:1], 1.0, 0.1)
    assert breakdown.l1_penalty == pytest.approx(0.1)
    assert breakdown.total == pytest.approx(breakdown.rho + breakdown.l1_penalty)
    assert breakdown.total == pytest.approx(0.5, rel=1e-12)


def test_sparse_loss_rho_zero_pure_penalty():
    # identical subsets: total is exactly the l1 term
    alpha = np.zeros(N_KERNELS)
    alpha[0] = 2.0  # |alpha|_1 = 2
    params = KernelParams(alpha, make_theta(t1=0.0))
    X = np.array([[1.0], [2.0]])
    Y = np.array([[1.0], [2.0]])
    breakdown = sparse_loss(params, X, Y, X, Y, 1.0, 1.0)
    assert breakdown.rho == 0.0
    assert breakdown.total == pytest.approx(2.0)


def test_breakdown_total_invariant(rng):
    params = psd_params(rng)
    X = rng.normal(size=(7, 2))
    Y = rng.normal(size=(7, 2))
    b = sparse_loss(params, X, Y, X[:3], Y[:3], 0.05, 0.37)
    assert b.total == b.rho + b.l1_penalty
    assert b.denominator_qf > 0.0


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def _fd_rho(params, Xb, Yb, Xc, Yc, lam, kind, idx, h):
    def at(delta):
        if kind == "alpha":
            arr = np.array(params.alpha)
            arr[idx] += delta
            return rho(KernelParams(arr, params.theta), Xb, Yb, Xc, Yc, lam)
        arr = np.array(params.theta)
        arr[idx] += delta
        return rho(KernelParams(params.alpha, arr), Xb, Yb, Xc, Yc, lam)
    return (at(h) - at(-h)) / (2.0 * h)


def smooth_fixture(rng, n=12, p=3):
    """Random full-dictionary params kept inside every smooth region."""
    X = rng.uniform(-1.0, 1.0, size=(n, p))
    Y = rng.normal(size=(n, 2))
    theta = rng.uniform(0.8, 1.5, size=N_THETA)
    theta[1] = rng.uniform(0.3, 0.5)    # polynomial base stays positive
    theta[2] = rng.uniform(1.3, 1.5)
    theta[33] = rng.uniform(1.2, 1.5)   # circular-term domain valid
    alpha = rng.uniform(0.5, 1.0, size=N_KERNELS)
    idx = rng.choice(n, size=n // 2, replace=False)
    return KernelParams(alpha, theta), X, Y, X[idx], Y[idx]


def test_grad_matches_finite_differences_fixture(rng):
    params, Xb, Yb, Xc, Yc = smooth_fixture(rng)
    ga, gt = grad_loss(params, Xb, Yb, Xc, Yc, 0.05)
    checked = mismatched = 0
    for i in range(N_KERNELS):
        h = 1e-5 * max(1.0, abs(params.alpha[i]))
        fd = _fd_rho(params, Xb, Yb, Xc, Yc, 0.05, "alpha", i, h)
        checked += 1
        if abs(ga[i] - fd) > 1e-4 * max(abs(fd), 1e-8):
            mismatched += 1
    for j in range(N_THETA):
        h = 1e-5 * max(1.0, abs(params.theta[j]))
        fd = _fd_rho(params, Xb, Yb, Xc, Yc, 0.05, "theta", j, h)
        checked += 1
        if abs(gt[j] - fd) > 1e-4 * max(abs(fd), 1e-8):
            mismatched += 1
    assert mismatched == 0, f"{mismatched}/{checked} coordinates off"


def test_grad_inactive_alpha_is_zero(rng):
    alpha = np.zeros(N_KERNELS)
    alpha[2] = 0.8
    params = KernelParams(alpha, rng.uniform(0.8, 1.2, N_THETA))
    X = rng.normal(size=(8, 2))
    Y = rng.normal(size=(8, 1))
    ga, gt = grad_loss(params, X, Y, X[:4], Y[:4], 0.05)
    inactive = np.arange(N_KERNELS) != 2
    assert (ga[inactive] == 0.0).all()
    # theta slots of inactive kernels get exact zeros too
    assert gt[0] == 0.0 and (gt[5:] == 0.0)[: 1].all()


def test_grad_zero_numerator_targets(rng):
    # Yc = 0 makes the numerator quadratic form and its gradient vanish
    params = psd_params(rng)
    X = rng.normal(size=(6, 2))
    Y = rng.normal(size=(6, 1))
    ga, gt = grad_loss(params, X, Y, X[:3], np.zeros((3, 1)), 0.05)
    # rho = 1 identically in the numerator path; gradient comes only from
    # qf_b, scaled by qf_c = 0 -> exactly zero
    assert (ga == 0.0).all() and (gt == 0.0).all()


def test_loss_breakdown_dataclass():
    b = LossBreakdown(0.25, 0.1, 0.35, 1.0, 2.0)
    assert b.total == 0.35
