import warnings

import numpy as np
import pytest
from scipy.linalg import hilbert

from conftest import make_theta, single_kernel
from kflow.kernels import (
    ELEMENTAL_GRADS,
    ELEMENTALS,
    N_KERNELS,
    N_THETA,
    THETA_SLICES,
    KernelEvalError,
    KernelParams,
    _self_stats,
    gram,
)
from kflow.loss import (
    DegenerateBatchError,
    FactorizationError,
    LossBreakdown,
    RidgeSystem,
    _nested_eval,
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


def test_indefinite_system_falls_back_to_lu(rng):
    # indefinite but far from singular: Cholesky must fail, LU succeed
    K = np.diag([1.0, -2.0, 3.0])
    system = RidgeSystem(K, 0.1)
    assert system._pivots is not None  # LU factors, not Cholesky's
    Y = rng.normal(size=3)
    x = system.solve(Y)
    np.testing.assert_allclose((K + 0.1 * np.eye(3)) @ x, Y, atol=1e-10)


def test_solve_leaves_the_gram_unwritten(rng):
    # both paths factor a private copy; the LU solve matches numpy's
    M = rng.normal(size=(300, 300))
    lam = 0.05
    B = rng.normal(size=(300, 3))
    for K, lu in ((M @ M.T, False), (M + M.T, True)):
        before = K.copy()
        system = RidgeSystem(K, lam)
        assert (system._pivots is not None) == lu
        X = system.solve(B)
        assert K.tobytes() == before.tobytes()
        if lu:
            exact = np.linalg.solve(K + lam * np.eye(300), B)
            np.testing.assert_allclose(X, exact, rtol=1e-10, atol=0.0)


def test_exactly_singular_raises():
    K = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(FactorizationError) as info:
        RidgeSystem(K, 1.0).solve(np.array([1.0, 1.0]))
    assert info.value.condition == np.inf


def test_nonfinite_gram_rejected():
    K = np.array([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(FactorizationError):
        RidgeSystem(K, 0.0)


def test_solve_rejects_a_right_hand_side_of_the_wrong_length():
    # checked before the zero shortcut, which would return zeros(5)
    system = RidgeSystem(np.eye(3), 0.1)
    for B in (np.zeros(5), np.ones(5)):
        with pytest.raises(ValueError, match=r"\(5,\).*\(3, 3\)"):
            system.solve(B)


def test_overflowing_solve_names_overflow():
    # a subnormal 1x1 Gram solves to 1 / 1.03e-321 = inf; the system is
    # perfectly conditioned, and the estimate says so
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FactorizationError, match="overflow") as info:
            RidgeSystem(np.array([[1.03e-321]]), 0.0).solve(np.array([1.0]))
    assert info.value.condition == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("K, lu", [
    (np.diag([2e-310, 1e-310]), False),
    (-np.diag([2e-310, 1e-310]), True),
])
def test_overflowing_solve_estimates_the_condition_of_subnormal_factors(K, lu):
    # subnormal Grams solve to about 1e310, which overflows; both systems
    # have condition number 2 on the Cholesky and on the LU path
    system = RidgeSystem(K, 0.0)
    assert (system._pivots is not None) == lu
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FactorizationError, match="overflow") as info:
            system.solve(np.ones(K.shape[0]))
    assert info.value.condition == pytest.approx(2.0, rel=1e-12)


def test_residual_check_reports_condition(rng, monkeypatch):
    # nearly singular: duplicate rows, lambda1 = 0
    K = np.ones((4, 4)) + 1e-16 * np.eye(4)
    with pytest.raises((FactorizationError, np.linalg.LinAlgError)) as info:
        RidgeSystem(K, 0.0).solve(rng.normal(size=4))
    # a LAPACK estimate from the factors: at least 1, or inf when singular
    cond = info.value.condition
    assert cond == np.inf or (np.isfinite(cond) and cond >= 1.0)
    # an unreachable tolerance fails every solve, so the estimate from the
    # Cholesky (pocon) and the LU (gecon) factors is reported
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
    assert rho(params, X, Y, [0, 1], 1.0) == 0.0


def test_rho_two_point_oracle():
    # qf_c = 1 / (1 + 1) = 0.5, qf_b = 5/6 -> rho = 1 - 0.6 = 0.4
    params, X, Y = linear_two_point_fixture()
    got = rho(params, X, Y, [0], 1.0)
    assert got == pytest.approx(0.4, rel=1e-12)


def test_rho_scale_invariance(rng):
    params = psd_params(rng)
    X = rng.normal(size=(8, 2))
    Y = rng.normal(size=(8, 2))
    sub = rng.permutation(8)[:4]
    base = rho(params, X, Y, sub, 0.05)
    for s in (2.0, -3.0, 0.125):
        scaled = rho(params, X, s * Y, sub, 0.05)
        assert abs(scaled - base) <= 1e-12 * max(1.0, abs(base))


def test_rho_zero_targets_degenerate():
    params, X, _ = linear_two_point_fixture()
    with pytest.raises(DegenerateBatchError):
        rho(params, X, np.zeros((2, 1)), [0], 1.0)


def test_rho_bounds_on_psd_fixture(rng):
    # nested-subset interpolant norms keep the ratio in [0, 1] modulo nugget
    for _ in range(20):
        params = psd_params(rng)
        X = rng.normal(size=(10, 3))
        Y = rng.normal(size=(10, 2))
        idx = rng.choice(10, size=5, replace=False)
        val = rho(params, X, Y, idx, 0.05)
        assert -1e-6 <= val <= 1.0 + 1e-6


def test_rho_matches_the_quadratic_forms_of_the_row_subset(rng):
    for _ in range(10):
        params = psd_params(rng)
        X = rng.normal(size=(12, 3))
        Y = rng.normal(size=(12, 2))
        sub = rng.choice(12, size=rng.integers(1, 13), replace=False)  # random order
        want = 1.0 - (regularized_quadratic_form(params, X[sub], Y[sub], 0.05)
                      / regularized_quadratic_form(params, X, Y, 0.05))
        assert rho(params, X, Y, sub, 0.05) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("sub", [[], [[0, 1]], [0, 6], [-1, 2], [2, 3, 2]],
                         ids=["empty", "2-d", "out-of-range", "negative", "repeated"])
def test_sub_must_be_distinct_row_positions(rng, sub):
    params = psd_params(rng)
    X = rng.normal(size=(6, 2))
    Y = rng.normal(size=(6, 1))
    for call in (rho, grad_loss, lambda *args: sparse_loss(*args, 0.1)):
        with pytest.raises(ValueError, match="sub"):
            call(params, X, Y, np.array(sub, dtype=int), 0.05)


# ---------------------------------------------------------------------------
# sparse loss
# ---------------------------------------------------------------------------

def test_sparse_loss_lambda2_zero_equals_rho(rng):
    params = psd_params(rng)
    X = rng.normal(size=(6, 2))
    Y = rng.normal(size=(6, 1))
    breakdown = sparse_loss(params, X, Y, [4, 0, 2], 0.05, 0.0)
    assert breakdown.l1_penalty == 0.0
    assert breakdown.total == breakdown.rho
    assert breakdown.rho == pytest.approx(rho(params, X, Y, [4, 0, 2], 0.05))


def test_sparse_loss_additivity():
    params, X, Y = linear_two_point_fixture()
    # |alpha|_1 = 1, lambda2 = 0.1, rho = 0.4 -> total = 0.5
    breakdown = sparse_loss(params, X, Y, [0], 1.0, 0.1)
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
    breakdown = sparse_loss(params, X, Y, [0, 1], 1.0, 1.0)
    assert breakdown.rho == 0.0
    assert breakdown.total == pytest.approx(2.0)


def test_breakdown_total_invariant(rng):
    params = psd_params(rng)
    X = rng.normal(size=(7, 2))
    Y = rng.normal(size=(7, 2))
    b = sparse_loss(params, X, Y, [0, 1, 2], 0.05, 0.37)
    assert b.total == b.rho + b.l1_penalty
    assert b.denominator_qf > 0.0


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def _fd_rho(params, X, Y, sub, lam, kind, idx, h):
    def at(delta):
        if kind == "alpha":
            arr = np.array(params.alpha)
            arr[idx] += delta
            return rho(KernelParams(arr, params.theta), X, Y, sub, lam)
        arr = np.array(params.theta)
        arr[idx] += delta
        return rho(KernelParams(params.alpha, arr), X, Y, sub, lam)
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
    sub = rng.choice(n, size=n // 2, replace=False)
    return KernelParams(alpha, theta), X, Y, sub


def test_grad_matches_finite_differences_fixture(rng):
    params, X, Y, sub = smooth_fixture(rng)
    ga, gt = grad_loss(params, X, Y, sub, 0.05)
    checked = mismatched = 0
    for i in range(N_KERNELS):
        h = 1e-5 * max(1.0, abs(params.alpha[i]))
        fd = _fd_rho(params, X, Y, sub, 0.05, "alpha", i, h)
        checked += 1
        if abs(ga[i] - fd) > 1e-4 * max(abs(fd), 1e-8):
            mismatched += 1
    for j in range(N_THETA):
        h = 1e-5 * max(1.0, abs(params.theta[j]))
        fd = _fd_rho(params, X, Y, sub, 0.05, "theta", j, h)
        checked += 1
        if abs(gt[j] - fd) > 1e-4 * max(abs(fd), 1e-8):
            mismatched += 1
    assert mismatched == 0, f"{mismatched}/{checked} coordinates off"


def _two_batch_gradient(params, X, Y, lam):
    """(qf, d qf/d alpha, d qf/d theta) of one batch, from its own geometry."""
    stats = _self_stats(X)
    W = np.linalg.solve(gram(params, X) + lam * np.eye(len(X)), Y)
    ga, gt = np.zeros(N_KERNELS), np.zeros(N_THETA)
    for i, (a, (lo, _)) in enumerate(zip(params.alpha, THETA_SLICES)):
        ga[i] = -2.0 * a * np.sum(W * (ELEMENTALS[i](*stats, params.theta) @ W))
        for off, grad in enumerate(ELEMENTAL_GRADS[i](*stats, params.theta)):
            gt[lo + off] = -a * a * np.sum(W * (grad @ W))
    return float(np.sum(Y * W)), ga, gt


def test_folded_gradient_matches_the_two_batch_quotient_rule(rng):
    # batch c as a batch of its own: rho's gradient by the quotient rule
    # of the two quadratic forms' gradients (full dictionary: indefinite)
    for _ in range(3):
        params, X, Y, sub = smooth_fixture(rng)
        qf_b, ga_b, gt_b = _two_batch_gradient(params, X, Y, 0.05)
        qf_c, ga_c, gt_c = _two_batch_gradient(params, X[sub], Y[sub], 0.05)
        _, _, _, ga, gt = _nested_eval(params, X, Y, sub, 0.05, wrt_alpha=True,
                                       wrt_theta=True, require_positive=False)
        for got, d_b, d_c in ((ga, ga_b, ga_c), (gt, gt_b, gt_c)):
            want = (qf_c * d_b - d_c * qf_b) / qf_b ** 2
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * np.max(np.abs(want)))


def test_grad_inactive_alpha_is_zero(rng):
    alpha = np.zeros(N_KERNELS)
    alpha[2] = 0.8
    params = KernelParams(alpha, rng.uniform(0.8, 1.2, N_THETA))
    X = rng.normal(size=(8, 2))
    Y = rng.normal(size=(8, 1))
    ga, gt = grad_loss(params, X, Y, np.arange(4), 0.05)
    inactive = np.arange(N_KERNELS) != 2
    assert (ga[inactive] == 0.0).all()
    # theta slots of inactive kernels get exact zeros too
    assert gt[0] == 0.0 and (gt[5:] == 0.0)[: 1].all()


def test_grad_zero_numerator_targets(rng):
    # zero targets on the sub rows make the numerator quadratic form and
    # its gradient vanish
    params = psd_params(rng)
    X = rng.normal(size=(6, 2))
    Y = rng.normal(size=(6, 1))
    sub = np.array([4, 1, 3])
    Y[sub] = 0.0
    ga, gt = grad_loss(params, X, Y, sub, 0.05)
    # rho = 1 identically in the numerator path; gradient comes only from
    # qf_b, scaled by qf_c = 0 -> exactly zero
    assert (ga == 0.0).all() and (gt == 0.0).all()


def test_loss_breakdown_dataclass():
    b = LossBreakdown(0.25, 0.1, 0.35, 1.0, 2.0)
    assert b.total == 0.35


def test_nested_eval_reused_terms_are_bitwise_identical(rng):
    alpha = rng.uniform(0.5, 1.0, N_KERNELS)
    params = KernelParams(alpha, rng.uniform(0.8, 1.5, N_THETA))
    X = rng.normal(size=(16, 3))
    Y = rng.normal(size=(16, 2))
    args = (X, Y, rng.permutation(16)[:8], 0.05)
    terms = []
    _nested_eval(params, *args, wrt_theta=True, require_positive=False, terms=terms)
    new_alpha = alpha.copy()
    new_alpha[[4, 9]] = (0.0, 0.3)
    same_theta = KernelParams(new_alpha, params.theta)
    new_theta = KernelParams(new_alpha, params.theta * 1.01)
    for p in (same_theta, new_theta):
        fresh = _nested_eval(p, *args, wrt_alpha=True, wrt_theta=True,
                             require_positive=False)
        reused = _nested_eval(p, *args, wrt_alpha=True, wrt_theta=True,
                              require_positive=False, terms=terms)
        assert [np.asarray(v).tobytes() for v in reused] == \
            [np.asarray(v).tobytes() for v in fresh]


def test_overflowing_weighted_sum_raises_on_the_loss_path(rng):
    # every block is finite, but alpha**2 = 1e400 overflows the sum: the
    # loss path raises gram's typed error, with no IEEE warning on the way
    params = single_kernel(3, weight=1e200)
    X = rng.normal(size=(6, 2))
    Y = rng.normal(size=(6, 1))
    calls = (
        lambda: gram(params, X),
        lambda: rho(params, X, Y, [0, 1, 2], 0.05),
        lambda: grad_loss(params, X, Y, [0, 1, 2], 0.05),
        lambda: _nested_eval(params, X, Y, [0, 1, 2], 0.05, wrt_theta=True,
                             require_positive=False, terms=[]),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(KernelEvalError, match="weighted kernel sum"):
                call()
