import json
import math
import warnings

import numpy as np
import pytest

from conftest import make_theta, single_kernel
from kflow.kernels import (
    EPS,
    N_KERNELS,
    N_THETA,
    PSD_KERNEL_IDS,
    THETA_SLICES,
    KernelEvalError,
    KernelParams,
    _grad_blocks,
    _self_stats,
    clamp_theta,
    cross_gram,
    eval_combined,
    eval_elemental,
    gram,
    theta_slice,
)


def test_theta_slices_partition():
    covered = []
    for lo, hi in THETA_SLICES:
        covered.extend(range(lo, hi))
    assert covered == list(range(N_THETA))


def test_gaussian_at_zero_distance_is_one():
    for t5 in (0.3, 1.0, 7.5):
        assert eval_elemental(3, [1.0, 2.0], [1.0, 2.0], make_theta(t5=t5)) == 1.0


def test_linear_kernel_hand_dot_product():
    # oracle: x.y + t1^2 computed by hand
    x, y = np.array([1.0]), np.array([2.0])
    expected = float(x @ y) + 0.0
    assert eval_elemental(1, x, y, make_theta(t1=0.0)) == expected == 2.0


def test_triangular_squared_outside_support():
    # ||x-y||^2 = 4, t29 = 1 -> max(0, 1 - 4) = 0
    assert eval_elemental(17, [0.0], [2.0], make_theta(t29=1.0)) == 0.0


def test_all_21_match_scalar_formulas(rng):
    # independent scalar re-implementation of every elemental
    def oracle(kid, x, y, t):
        s = float(np.dot(x, y))
        q = float(np.sum((x - y) ** 2))
        r = math.sqrt(q)
        if kid == 1:
            return s + t[0] ** 2
        if kid == 2:
            return max(t[1] ** 2 * s + t[2] ** 2, EPS) ** abs(t[3])
        if kid == 3:
            return math.exp(-q / (2 * t[4] ** 2))
        if kid == 4:
            return math.exp(-r / (2 * t[5] ** 2))
        if kid == 5:
            return math.exp(-math.sin(math.pi * q / t[6]) ** 2 / t[7] ** 2) * math.exp(-q / t[8] ** 2)
        if kid == 6:
            return math.exp(-math.sin(math.pi * q / t[9]) ** 2 / t[10] ** 2)
        if kid == 7:
            return math.exp(-math.sin(math.pi * r / t[11]) ** 2 / t[12] ** 2) * math.exp(-r / t[13] ** 2)
        if kid == 8:
            return math.exp(-math.sin(math.pi * r / t[14]) ** 2 / t[15] ** 2)
        if kid == 9:
            return math.sqrt(q + t[16] ** 2)
        if kid == 10:
            return (t[17] ** 2 + t[18] ** 2 * q) ** -0.5
        if kid == 11:
            return (t[19] ** 2 + t[20] ** 2 * r) ** -0.5
        if kid == 12:
            return (t[21] ** 2 + r) ** t[22]
        if kid == 13:
            return (t[23] ** 2 + q) ** t[24]
        if kid == 14:
            return 1.0 / (1.0 + (r / t[25]) ** 2)
        if kid == 15:
            return 1.0 / (1.0 + r / t[26] ** 2)
        if kid == 16:
            return 1.0 - q / (q + t[27] ** 2)
        if kid == 17:
            return max(0.0, 1.0 - q / t[28] ** 2)
        if kid == 18:
            return max(0.0, 1.0 - r / t[29] ** 2)
        if kid == 19:
            return math.log(max(r, EPS) ** t[30] + 1.0)
        if kid == 20:
            return math.tanh(t[31] * s + t[32])
        if kid == 21:
            u = r / t[33] ** 2
            if q >= t[33] ** 2 or u > 1.0:
                return 0.0
            return math.acos(-u) - u * math.sqrt(1.0 - u * u)
        raise AssertionError(kid)

    for _ in range(25):
        x = rng.uniform(-1.5, 1.5, size=4)
        y = rng.uniform(-1.5, 1.5, size=4)
        t = rng.uniform(0.5, 1.5, size=N_THETA)
        for kid in range(1, N_KERNELS + 1):
            got = eval_elemental(kid, x, y, t)
            want = oracle(kid, x, y, t)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300), f"kernel {kid}"


def test_symmetry_all_elementals(rng):
    for kid in range(1, N_KERNELS + 1):
        for _ in range(100):
            x = rng.uniform(-2, 2, size=3)
            y = rng.uniform(-2, 2, size=3)
            t = rng.uniform(0.5, 1.5, size=N_THETA)
            kxy = eval_elemental(kid, x, y, t)
            kyx = eval_elemental(kid, y, x, t)
            assert abs(kxy - kyx) <= 1e-12 * (1.0 + abs(kxy))


def test_dimension_mismatch_raises():
    with pytest.raises(KernelEvalError):
        eval_elemental(3, [1.0], [1.0, 2.0], make_theta())


def test_nonfinite_intermediate_names_theta():
    # t7 = 0 puts a bare zero divisor inside the sin of kernel 5
    with pytest.raises(KernelEvalError, match="theta_7"):
        eval_elemental(5, [1.0, 0.0], [0.0, 1.0], make_theta(t7=0.0))


def test_combined_empty_sum_is_zero(rng):
    params = KernelParams(np.zeros(N_KERNELS), np.ones(N_THETA))
    for _ in range(5):
        x, y = rng.normal(size=3), rng.normal(size=3)
        assert eval_combined(params, x, y) == 0.0


def test_combined_gaussian_only_at_coincident_points():
    assert eval_combined(single_kernel(3), [0.3, -0.7], [0.3, -0.7]) == 1.0


def test_combined_two_terms_hand_sum():
    alpha = np.zeros(N_KERNELS)
    alpha[0] = alpha[2] = 1.0
    params = KernelParams(alpha, make_theta(t1=0.0, t5=1.0))
    # oracle: linear term 1*2 = 2 plus gaussian exp(-1/2)
    expected = 2.0 + math.exp(-0.5)
    got = eval_combined(params, [1.0], [2.0])
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(2.6065, abs=5e-5)


def test_zeroed_kernel_is_never_evaluated():
    # t7 = 0 would make kernel 5 blow up, but its weight is zero
    alpha = np.zeros(N_KERNELS)
    alpha[2] = 1.0
    params = KernelParams(alpha, make_theta(t7=0.0))
    assert eval_combined(params, [1.0, 1.0], [0.0, 1.0]) > 0.0
    gram(params, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_gram_single_gaussian_row():
    np.testing.assert_allclose(gram(single_kernel(3), np.array([[0.4, 0.5]])), [[1.0]])


def test_gram_linear_hand_values():
    params = single_kernel(1, make_theta(t1=0.0))
    G = gram(params, np.array([[1.0], [2.0]]))
    np.testing.assert_allclose(G, [[1.0, 2.0], [2.0, 4.0]], rtol=0, atol=0)


def test_gram_exact_symmetry(rng, point_cloud):
    params = KernelParams.random(rng)
    G = gram(params, point_cloud)
    assert (G == G.T).all()


def test_cross_gram_same_input_equals_gram(rng, point_cloud):
    params = KernelParams.random(rng)
    assert (cross_gram(params, point_cloud, point_cloud) == gram(params, point_cloud)).all()


def test_cross_gram_gaussian_single_pair():
    a = np.array([[0.1, 0.2, 0.3]])
    np.testing.assert_allclose(cross_gram(single_kernel(3), a, a.copy()), [[1.0]])


def test_cross_gram_linear_hand_values():
    params = single_kernel(1, make_theta(t1=0.0))
    C = cross_gram(params, np.array([[3.0]]), np.array([[1.0], [2.0]]))
    np.testing.assert_allclose(C, [[3.0, 6.0]], rtol=0, atol=0)


def test_cross_gram_column_mismatch():
    with pytest.raises(KernelEvalError):
        cross_gram(single_kernel(3), np.ones((2, 3)), np.ones((2, 2)))


# ---------------------------------------------------------------------------
# parameter gradients
# ---------------------------------------------------------------------------

def test_alpha_gradient_zero_weight_is_zero_matrix(point_cloud):
    # dK/dalpha_9 = 2 * alpha_9 * K_9, and its central difference through
    # the Gram agrees: both are the zero matrix at alpha_9 = 0
    params = single_kernel(3)  # every other weight is 0
    D = 2.0 * params.alpha[8] * gram(single_kernel(9), point_cloud)
    assert (D == 0.0).all()
    up, down = np.array(params.alpha), np.array(params.alpha)
    up[8], down[8] = 1e-5, -1e-5
    fd = (gram(KernelParams(up, params.theta), point_cloud)
          - gram(KernelParams(down, params.theta), point_cloud)) / 2e-5
    assert (fd == 0.0).all()


def test_theta_gradient_linear_constant():
    (D,) = _grad_blocks(0, _self_stats(np.array([[1.0], [2.0]])), make_theta(t1=3.0))
    np.testing.assert_allclose(D, np.full((2, 2), 6.0), rtol=0, atol=0)


def _fd_gram(params, X, idx, h):
    hi = np.array(params.theta); hi[idx] += h
    lo = np.array(params.theta); lo[idx] -= h
    return (gram(KernelParams(params.alpha, hi), X)
            - gram(KernelParams(params.alpha, lo), X)) / (2 * h)


def test_gradients_match_finite_differences(rng):
    """Every smooth theta slot agrees with central differences entrywise."""
    X = rng.uniform(-1.0, 1.0, size=(8, 3))
    theta = rng.uniform(0.8, 1.5, size=N_THETA)
    theta[1] = 0.4   # keep the polynomial base positive on [-1,1]^3
    theta[2] = 1.4
    theta[33] = 1.3  # circular-term domain valid for |t34| >= 1
    alpha = rng.uniform(0.5, 1.0, size=N_KERNELS)
    params = KernelParams(alpha, theta)
    stats = _self_stats(X)

    for i, (lo, hi) in enumerate(THETA_SLICES):
        grads = _grad_blocks(i, stats, theta)
        for j in range(lo, hi):
            name = f"theta_{j + 1}"
            got = alpha[i] ** 2 * grads[j - lo]
            want = _fd_gram(params, X, j, 1e-5 * max(1.0, abs(theta[j])))
            # the absolute floor covers FD cancellation noise on tiny entries
            scale = np.maximum(np.abs(want), 1e-6)
            mism = np.abs(got - want) / scale
            # kink boundaries (supports of 17/18/21) may clip single entries
            assert np.quantile(mism, 0.98) < 1e-4, name


def test_alpha_gradient_at_zero_is_zero(point_cloud):
    # weights enter squared, so the central difference at alpha_i = 0 is
    # exactly zero: the Gram at +h and at -h agree bit for bit
    params = single_kernel(3)
    for i in (0, 5, 20):
        up, down = np.array(params.alpha), np.array(params.alpha)
        up[i], down[i] = 1e-5, -1e-5
        assert (gram(KernelParams(up, params.theta), point_cloud)
                == gram(KernelParams(down, params.theta), point_cloud)).all()


def test_overflowing_weighted_sum_raises():
    # every block is finite, but alpha**2 = 1e310 overflows the sum
    params = single_kernel(3, weight=1e155)
    X = np.array([[0.0], [1.0]])
    with pytest.raises(KernelEvalError, match="weighted kernel sum"):
        gram(params, X)
    with pytest.raises(KernelEvalError, match="weighted kernel sum"):
        cross_gram(params, X, X + 0.5)


def test_gram_emits_no_runtime_warning():
    # t7 = 0 divides by zero inside kernel 5: the caller sees the typed
    # error only, no IEEE warning on the way
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KernelEvalError, match="theta_7"):
            gram(single_kernel(5, make_theta(t7=0.0)), X)


# ---------------------------------------------------------------------------
# PSD subset and neutrality
# ---------------------------------------------------------------------------

def psd_fixture_theta():
    """Per-term scales under which each admissible term is PSD on the cloud.

    The periodic-in-squared-distance terms are PSD only when the period
    dwarfs the data diameter (term 6 has no damping factor, so it needs
    the long-period limit); the compactly supported terms need supports
    below or near the cloud's minimum spacing.
    """
    return make_theta(
        t2=0.5, t3=1.5, t4=2.0,      # polynomial: positive base, integer power
        t7=30.0, t9=1.0,             # damped periodic: long period
        t10=1e6,                     # undamped periodic: long-period limit
        t15=8.0,                     # periodic in distance: period > diameter
        t29=0.5,                     # triangular-in-q: small support
        t34=0.05,                    # circular: support below min spacing
    )


def test_psd_subset_gram_eigenvalues(point_cloud):
    theta = psd_fixture_theta()
    for kid in PSD_KERNEL_IDS:
        params = single_kernel(kid, theta)
        G = gram(params, point_cloud)
        min_eig = np.linalg.eigvalsh(G).min()
        assert min_eig >= -1e-8, f"kernel {kid}: min eigenvalue {min_eig}"


def test_zero_weight_neutrality_bitwise(rng, point_cloud):
    full = KernelParams.random(rng)
    theta = np.array(full.theta)
    removed = 7  # drop kernel 8
    alpha = np.array(full.alpha)
    alpha[removed] = 0.0
    G_zeroed = gram(KernelParams(alpha, theta), point_cloud)
    # manual dictionary without the term, same accumulation order
    G_manual = np.zeros_like(G_zeroed)
    for i in range(N_KERNELS):
        if i == removed:
            continue
        a = np.zeros(N_KERNELS)
        a[i] = full.alpha[i]
        G_manual += gram(KernelParams(a, theta), point_cloud)
    assert (G_zeroed == G_manual).all()


def test_clamp_theta_projects_bare_divisors():
    theta = np.ones(N_THETA)
    theta[6] = 1e-12
    theta[9] = -1e-12
    theta[11] = 0.0
    out = clamp_theta(theta)
    assert out[6] == EPS and out[9] == -EPS and out[11] == EPS
    assert (out[[0, 1, 2]] == 1.0).all()


def test_theta_slice_bounds():
    assert theta_slice(1) == slice(0, 1)
    assert theta_slice(21) == slice(33, 34)
    with pytest.raises(KernelEvalError):
        theta_slice(22)


def test_params_json_round_trip(rng):
    params = KernelParams.random(rng)
    back = KernelParams.from_dict(json.loads(json.dumps(params.to_dict())))
    assert (back.alpha == params.alpha).all() and (back.theta == params.theta).all()


def test_params_validation():
    with pytest.raises(KernelEvalError):
        KernelParams(np.zeros(5), np.ones(N_THETA))
    bad = np.ones(N_KERNELS)
    bad[3] = np.inf
    with pytest.raises(KernelEvalError):
        KernelParams(bad, np.ones(N_THETA))


def test_active_mask_and_nnz():
    alpha = np.zeros(N_KERNELS)
    alpha[[1, 6, 11]] = (0.99, -0.25, 0.28)
    params = KernelParams(alpha, np.ones(N_THETA))
    assert params.nnz == 3
    assert params.active_mask.sum() == 3
