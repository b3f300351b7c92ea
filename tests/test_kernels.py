import json
import math
import sys
import threading
import time
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from conftest import full_stats, make_theta, pin_usable_cores, random_params, single_kernel, unpack
from kflow import kernels
from kflow.embedding import TimeSeries, build_delay_dataset
from kflow.kernels import (
    DICTIONARY,
    EPS,
    N_KERNELS,
    N_THETA,
    SLOTS,
    KernelEvalError,
    KernelParams,
    NumericalError,
    _eval_block,
    _grad_blocks,
    _pack,
    _packed_index,
    _packed_stats,
    clamp_theta,
    cross_gram,
    gram,
)
from kflow.evaluation import prepare_series
from kflow.systems import get_system, integrate_rk4
from kflow.training import default_init, geometry_scales


def test_dictionary_table_invariants(rng):
    # 21 terms own the 34 theta slots, each exactly once and in order
    assert (len(DICTIONARY), N_KERNELS, N_THETA) == (21, 21, 34)
    assert [j for slots in SLOTS for j in slots] == list(range(N_THETA))
    # one derivative block per owned slot, shaped like the value block
    stats = _packed_stats(rng.uniform(-1.0, 1.0, size=(6, 3)))
    theta = rng.uniform(0.5, 1.5, size=N_THETA)
    for i, slots in enumerate(SLOTS):
        value = _eval_block(i, stats, theta)
        grads = _grad_blocks(i, stats, theta, value)
        assert len(grads) == len(slots) and all(g.shape == value.shape for g in grads)
    # each term reads one geometry array (the bump the pair r, q); exactly the seven twin
    # pairs (1-based) share a family's functions, once on q and once on r
    assert all(term.on in ("s", "r", "q", "rq") for term in DICTIONARY)
    shared = {(i + 1, j + 1) for i, a in enumerate(DICTIONARY) for j, b in enumerate(DICTIONARY)
              if i < j and (a.value is b.value or a.grad is b.grad)}
    assert shared == {(3, 4), (5, 7), (6, 8), (10, 11), (12, 13), (14, 15), (17, 18)}
    assert all(DICTIONARY[i - 1].value is DICTIONARY[j - 1].value
               and DICTIONARY[i - 1].grad is DICTIONARY[j - 1].grad
               and {DICTIONARY[i - 1].on, DICTIONARY[j - 1].on} == {"q", "r"} for i, j in shared)
    assert len({f for term in DICTIONARY for f in (term.value, term.grad)}) == 28
    # one geometry-scale rule per slot, each one geometry_scales knows
    assert [len(term.scales) for term in DICTIONARY] == [len(slots) for slots in SLOTS]
    ds = build_delay_dataset(TimeSeries(rng.normal(size=(60, 2)), 0.1), 3)
    scales = geometry_scales(ds)
    assert scales.shape == (N_THETA,) and (scales > 0.0).all()
    # the clamped bare divisors (0-based slots)
    clamped = tuple(slots[k] for term, slots in zip(DICTIONARY, SLOTS) for k in term.clamped)
    assert clamped == (6, 9, 11, 14, 25)
    assert tuple(np.flatnonzero(clamp_theta(np.zeros(N_THETA)))) == clamped


def at_pair(params, x, y):
    """The combined kernel at one pair of points: a 1x1 cross_gram."""
    return float(cross_gram(params, np.reshape(x, (1, -1)), np.reshape(y, (1, -1)))[0, 0])


def test_gaussian_at_zero_distance_is_one():
    for t5 in (0.3, 1.0, 7.5):
        assert at_pair(single_kernel(3, make_theta(t5=t5)), [1.0, 2.0], [1.0, 2.0]) == 1.0


def test_linear_kernel_hand_dot_product():
    # oracle: x.y + t1^2 computed by hand
    x, y = np.array([1.0]), np.array([2.0])
    expected = float(x @ y) + 0.0
    assert at_pair(single_kernel(1, make_theta(t1=0.0)), x, y) == expected == 2.0


def test_triangular_squared_outside_support():
    # ||x-y||^2 = 4, t29 = 1 -> max(0, 1 - 4) = 0
    assert at_pair(single_kernel(17, make_theta(t29=1.0)), [0.0], [2.0]) == 0.0


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
            got = at_pair(single_kernel(kid, t), x, y)
            want = oracle(kid, x, y, t)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300), f"kernel {kid}"
    # at coincident points the circular term is arccos(0) = pi/2 exactly
    assert at_pair(single_kernel(21), [0.0], [0.0]) == math.pi / 2.0


def test_symmetry_all_elementals(rng):
    for kid in range(1, N_KERNELS + 1):
        for _ in range(100):
            x = rng.uniform(-2, 2, size=3)
            y = rng.uniform(-2, 2, size=3)
            t = rng.uniform(0.5, 1.5, size=N_THETA)
            kxy = at_pair(single_kernel(kid, t), x, y)
            kyx = at_pair(single_kernel(kid, t), y, x)
            assert abs(kxy - kyx) <= 1e-12 * (1.0 + abs(kxy))


def test_dimension_mismatch_raises():
    # bad input is a ValueError, not a numerical failure
    with pytest.raises(ValueError) as info:
        at_pair(single_kernel(3), [1.0], [1.0, 2.0])
    assert not isinstance(info.value, NumericalError)


def test_nonfinite_intermediate_names_theta():
    # t7 = 0 puts a bare zero divisor inside the sin of kernel 5
    with pytest.raises(KernelEvalError, match="theta_7"):
        at_pair(single_kernel(5, make_theta(t7=0.0)), [1.0, 0.0], [0.0, 1.0])


def test_combined_empty_sum_is_zero(rng):
    params = KernelParams(np.zeros(N_KERNELS), np.ones(N_THETA))
    for _ in range(5):
        x, y = rng.normal(size=3), rng.normal(size=3)
        assert at_pair(params, x, y) == 0.0


def test_combined_gaussian_only_at_coincident_points():
    assert at_pair(single_kernel(3), [0.3, -0.7], [0.3, -0.7]) == 1.0


def test_combined_two_terms_hand_sum():
    alpha = np.zeros(N_KERNELS)
    alpha[0] = alpha[2] = 1.0
    params = KernelParams(alpha, make_theta(t1=0.0, t5=1.0))
    # oracle: linear term 1*2 = 2 plus gaussian exp(-1/2)
    expected = 2.0 + math.exp(-0.5)
    got = at_pair(params, [1.0], [2.0])
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(2.6065, abs=5e-5)


def test_zeroed_kernel_is_never_evaluated():
    # t7 = 0 would make kernel 5 blow up, but its weight is zero
    alpha = np.zeros(N_KERNELS)
    alpha[2] = 1.0
    params = KernelParams(alpha, make_theta(t7=0.0))
    assert at_pair(params, [1.0, 1.0], [0.0, 1.0]) > 0.0
    gram(params, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_gram_single_gaussian_row():
    np.testing.assert_allclose(gram(single_kernel(3), np.array([[0.4, 0.5]])), [1.0])


def test_gram_linear_hand_values():
    params = single_kernel(1, make_theta(t1=0.0))
    G = gram(params, np.array([[1.0], [2.0]]))
    np.testing.assert_allclose(G, [1.0, 2.0, 4.0], rtol=0, atol=0)  # packed: K11, K12, K22


def test_gram_exact_symmetry(rng, point_cloud):
    # gram packs the upper triangle only, so K is symmetric by its layout; read as a matrix
    # it is cross_gram's, both triangles, to rounding (cross_gram's X X' is a general
    # product, and off the diagonal every pair is well apart)
    params = random_params(rng)
    n = len(point_cloud)
    G = gram(params, point_cloud)
    assert G.shape == (n * (n + 1) // 2,)
    off = ~np.eye(n, dtype=bool)
    np.testing.assert_allclose(unpack(G)[off], cross_gram(params, point_cloud, point_cloud)[off],
                               rtol=1e-12)


def test_cross_gram_gaussian_single_pair():
    a = np.array([[0.1, 0.2, 0.3]])
    np.testing.assert_allclose(cross_gram(single_kernel(3), a, a.copy()), [[1.0]])


def test_cross_gram_linear_hand_values():
    params = single_kernel(1, make_theta(t1=0.0))
    C = cross_gram(params, np.array([[3.0]]), np.array([[1.0], [2.0]]))
    np.testing.assert_allclose(C, [[3.0, 6.0]], rtol=0, atol=0)


def test_cross_gram_column_mismatch():
    with pytest.raises(ValueError, match="column mismatch") as info:
        cross_gram(single_kernel(3), np.ones((2, 3)), np.ones((2, 2)))
    assert not isinstance(info.value, NumericalError)


# ---------------------------------------------------------------------------
# row tiles
# ---------------------------------------------------------------------------

ONE_TILE = math.isqrt(kernels._TILE)   # the largest Gram that is one tile
CROSS_COLS = 100                       # B's rows in the cross-Gram cases
CROSS_TILE = kernels._TILE // CROSS_COLS


def _whole_array_sum(params, A, B=None):
    """Reference: every pair's geometry at once, terms summed from zeros in ascending order;
    a Gram (B is None) as gram returns it, K[np.triu_indices(n)]."""
    with np.errstate(all="ignore"):
        if B is None:
            stats = full_stats(A)
        else:
            S = A @ B.T
            Q = np.maximum((A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * S, 0.0)
            stats = (S, np.sqrt(Q), Q)
        total = np.zeros(stats[0].shape)
        for i in range(N_KERNELS):
            a = params.alpha[i]
            if a != 0.0:
                total += (a * a) * _eval_block(i, stats, params.theta)
    return total if B is not None else total[np.triu_indices(len(A))]


@pytest.fixture
def tile_rows(monkeypatch):
    """Row counts of the tiles evaluated, in order."""
    rows = []
    combine = kernels._combine

    def counted(params, stats):
        rows.append(stats[0].shape[0])
        return combine(params, stats)

    monkeypatch.setattr(kernels, "_combine", counted)
    return rows


def _sparse(params):
    alpha = np.array(params.alpha)
    alpha[[0, 3, 4, 8, 11, 12, 15, 19]] = 0.0
    return KernelParams(alpha, params.theta)


@pytest.mark.parametrize("n, tiles", [(1, 1), (ONE_TILE - 1, 1), (ONE_TILE, 1),
                                      (ONE_TILE + 1, 2), (2 * ONE_TILE + 45, 4)])
def test_gram_tiles_equal_whole_array_sum(rng, tile_rows, n, tiles):
    X = rng.normal(size=(n, 4))
    full = random_params(rng)
    for params in (full, _sparse(full)):
        tile_rows.clear()
        K = gram(params, X)
        assert len(tile_rows) == tiles and sum(tile_rows) == n
        assert K.shape == (n * (n + 1) // 2,)
        assert K.tobytes() == _whole_array_sum(params, X).tobytes()


@pytest.mark.parametrize("m, tiles", [(1, 1), (CROSS_TILE - 1, 1), (CROSS_TILE, 1),
                                      (CROSS_TILE + 1, 2), (3 * CROSS_TILE + 50, 4)])
def test_cross_gram_tiles_equal_whole_array_sum(rng, tile_rows, m, tiles):
    A, B = rng.normal(size=(m, 4)), rng.normal(size=(CROSS_COLS, 4))
    full = random_params(rng)
    for params in (full, _sparse(full)):
        tile_rows.clear()
        C = cross_gram(params, A, B)
        assert len(tile_rows) == tiles and sum(tile_rows) == m
        assert C.tobytes() == _whole_array_sum(params, A, B).tobytes()


def test_lorenz_gram_and_cross_gram_equal_the_reference_loop_bitwise():
    # the weighted sum writes each term into one buffer: still (a*a) * block, added in order
    prepared = prepare_series(integrate_rk4(get_system("lorenz"), 400), 5, 0.8)
    X, T = prepared.train.X, prepared.test.X
    params = default_init(prepared.train, 0)
    assert gram(params, X).tobytes() == _whole_array_sum(params, X).tobytes()
    assert cross_gram(params, T, X).tobytes() == _whole_array_sum(params, T, X).tobytes()


def test_pack_and_packed_index_share_the_row_major_upper_triangle_order():
    for n in (1, 3, 40):
        A = np.arange(n * n, dtype=float).reshape(n, n)
        assert _pack(A).tobytes() == A[np.triu_indices(n)].tobytes()
        i, j = np.triu_indices(n)
        assert _packed_index(i, j, n).tolist() == list(range(n * (n + 1) // 2))


def test_gram_self_distance_is_zero_when_the_norm_overflows():
    # |x|^2 overflows, but a point's distance to itself is still exactly 0
    assert gram(single_kernel(3), np.array([[1e200, 0.0]])).tolist() == [1.0]
    assert _packed_stats(np.array([[1e200, 0.0], [0.0, 1.0]]))[2][[0, 2]].tolist() == [0.0, 0.0]


def _peak_bytes(fn, *args):
    """Peak traced allocation of fn(*args); callers pin the cores, since every tile thread
    holds its own temporaries."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gram_peak_memory_below_three_matrices(rng, monkeypatch):
    # the tiles overwrite S = X X', which is then packed: one matrix and its triangle
    pin_usable_cores(monkeypatch, 2)
    n = 1500
    X = rng.normal(size=(n, 15))
    assert _peak_bytes(gram, random_params(rng), X) < 1.6 * n * n * 8


def test_cross_gram_peak_memory_is_one_matrix(rng, monkeypatch):
    pin_usable_cores(monkeypatch, 2)
    m, n = 1200, 1500
    A, B = rng.normal(size=(m, 15)), rng.normal(size=(n, 15))
    assert _peak_bytes(cross_gram, random_params(rng), A, B) < 1.25 * m * n * 8


def _extreme_last_row(rng, rows, scale):
    """Points in [-1, 1]^3 whose last row is `scale` times a unit vector."""
    X = rng.uniform(-1.0, 1.0, size=(rows, 3))
    X[-1] = scale * np.array([0.6, 0.0, 0.8])
    return X


# the last row's self inner product is 1e4, every other pair's at most 100 * sqrt(3)
GRAM_FAILURES = [
    (single_kernel(2, make_theta(t2=1.0, t3=0.0, t4=80.0)), "elemental kernel 2"),
    (single_kernel(1, weight=10.0 ** 152.5), "weighted kernel sum"),
]
# the last row's inner products reach 300 (with B's first row), every other row's 3 * sqrt(3)
CROSS_FAILURES = [
    (single_kernel(2, make_theta(t2=1.0, t3=0.0, t4=125.0)), "elemental kernel 2"),
    (single_kernel(1, weight=10.0 ** 153.5), "weighted kernel sum"),
]


@pytest.mark.parametrize("params, message", GRAM_FAILURES)
def test_gram_failure_in_last_tile_raises(rng, tile_rows, params, message):
    X = _extreme_last_row(rng, 2 * ONE_TILE + 45, 100.0)
    assert np.isfinite(gram(params, X[:-1])).all()
    tile_rows.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KernelEvalError, match=message):
            gram(params, X)
    assert len(tile_rows) >= 3 and sum(tile_rows) == len(X)


@pytest.mark.parametrize("params, message", CROSS_FAILURES)
def test_cross_gram_failure_in_last_tile_raises(rng, tile_rows, params, message):
    A = _extreme_last_row(rng, 3 * CROSS_TILE + 50, 100.0)
    B = rng.uniform(-1.0, 1.0, size=(CROSS_COLS, 3))
    B[0] = [1.8, 0.0, 2.4]
    assert np.isfinite(cross_gram(params, A[:-1], B)).all()
    tile_rows.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KernelEvalError, match=message):
            cross_gram(params, A, B)
    assert len(tile_rows) >= 3 and sum(tile_rows) == len(A)


@pytest.fixture
def tile_threads(monkeypatch):
    """Idents of the threads that evaluated tiles; each tile sleeps 1 ms so helpers get some."""
    idents = []
    combine = kernels._combine

    def slowed(params, stats):
        idents.append(threading.get_ident())
        time.sleep(1e-3)
        return combine(params, stats)

    monkeypatch.setattr(kernels, "_combine", slowed)
    return idents


def test_threaded_tiles_equal_serial_bitwise(rng, monkeypatch, tile_threads):
    # tiles overwrite S = A B' in place, so a lost tile would leave inner products and a
    # doubled one kernel values of kernel values: the reference catches both, the same on
    # every core count; a short switch interval interleaves the hand-out as much as the
    # interpreter allows
    monkeypatch.setattr(kernels, "_TILE", 64)
    X, A, B = rng.normal(size=(40, 4)), rng.normal(size=(37, 4)), rng.normal(size=(23, 4))
    full = random_params(rng)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cores in (1, 2, 4):
            pin_usable_cores(monkeypatch, cores)
            runs.append([])
            for params in (full, _sparse(full)):
                for matrix in (partial(gram, params, X), partial(cross_gram, params, A, B)):
                    tile_threads.clear()
                    runs[-1].append(matrix().tobytes())
                    assert (len(set(tile_threads)) > 1) == (cores > 1)
    finally:
        sys.setswitchinterval(interval)
    reference = [_whole_array_sum(params, *operands).tobytes()
                 for params in (full, _sparse(full)) for operands in ((X,), (A, B))]
    assert runs[0] == runs[1] == runs[2] == reference


@pytest.mark.parametrize("rows, message", [
    ({37: "k2"}, "elemental kernel 2"),                # a late tile only
    ({5: "k9", 37: "k2"}, "elemental kernel 9"),       # two tiles: the earlier one is named,
    ({5: "k2", 37: "k9"}, "elemental kernel 2"),       # not the lower kernel id
    ({r: "k2" if r else "k9" for r in range(0, 40, 4)}, "elemental kernel 9"),  # every tile
])
def test_first_failing_tile_is_named_on_any_thread(rng, monkeypatch, usable_cores, tile_threads,
                                                   rows, message):
    # k2 overflows where s = 300 (with B's first row), k9 where q overflows;
    # the k9 row points away from every B row, so k2's base there is floored, finite
    monkeypatch.setattr(kernels, "_TILE", 4 * CROSS_COLS)
    alpha = np.zeros(N_KERNELS)
    alpha[[1, 8]] = 1.0
    params = KernelParams(alpha, make_theta(t2=1.0, t3=0.0, t4=125.0))
    A = rng.uniform(0.1, 1.0, size=(40, 3))
    B = rng.uniform(0.1, 1.0, size=(CROSS_COLS, 3))
    B[0] = [1.8, 0.0, 2.4]
    before = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(cross_gram(params, A, B)).all()
        assert threading.active_count() == before
        for row, kind in rows.items():
            A[row] = (100.0 if kind == "k2" else -1e160) * np.array([0.6, 0.0, 0.8])
        with pytest.raises(KernelEvalError, match=message):
            cross_gram(params, A, B)
    assert threading.active_count() == before


def test_overflow_in_a_helper_thread_warns_nothing(monkeypatch, tile_threads):
    # |a|^2 + |b|^2 overflows in every tile; errstate does not carry into a new thread
    monkeypatch.setattr(kernels, "_TILE", 2 * CROSS_COLS)
    pin_usable_cores(monkeypatch, 2)
    A = np.zeros((20, 3))
    A[:, 0] = 1.1e154
    B = np.zeros((CROSS_COLS, 3))
    B[:, 1] = 1.1e154
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not cross_gram(single_kernel(3), A, B).any()  # q = inf: the Gaussian is 0
    assert len(set(tile_threads)) == 2


def test_nonfinite_elemental_is_named_when_its_weight_squared_underflows():
    # (1e-170)**2 is 0, but 0 * nan is nan: the checked-once total still fails and names it
    params = single_kernel(5, make_theta(t7=0.0), weight=1e-170)
    with pytest.raises(KernelEvalError, match="elemental kernel 5.*theta_7"):
        gram(params, np.array([[1.0, 0.0], [0.0, 1.0]]))


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
    stats, theta = full_stats(np.array([[1.0], [2.0]])), make_theta(t1=3.0)
    (D,) = _grad_blocks(0, stats, theta, _eval_block(0, stats, theta))
    np.testing.assert_allclose(D, np.full((2, 2), 6.0), rtol=0, atol=0)


def _polynomial_derivatives(s, t):
    """Term 2's derivative blocks as first written, the power base ** |t4| evaluated again."""
    raw = t[0] ** 2 * s + t[1] ** 2
    base = np.maximum(raw, EPS)
    e = abs(t[2])
    powm1 = base ** (e - 1.0)
    return (np.where(raw > EPS, powm1 * e * 2.0 * t[0] * s, 0.0),
            np.where(raw > EPS, powm1 * e * 2.0 * t[1], 0.0),
            base ** e * np.log(base) * np.sign(t[2]))


def _power_derivatives(x, t):
    """Terms 12 and 13's derivative blocks as first written, base ** t evaluated again."""
    base = t[0] ** 2 + x
    return t[1] * base ** (t[1] - 1.0) * 2.0 * t[0], base ** t[1] * np.log(base)


@pytest.mark.parametrize("t4", [2.5, -1.7, 3.0])
def test_power_derivatives_take_the_value_block_bitwise(rng, t4):
    # d(base^e)/de = base^e log(base) reads base^e from the value block: the same power
    stats = full_stats(rng.normal(size=(30, 4)))  # s of both signs: term 2's base is floored
    theta = rng.uniform(0.5, 1.5, N_THETA)
    theta[3] = t4
    for kernel_id, old in ((2, _polynomial_derivatives), (12, _power_derivatives),
                           (13, _power_derivatives)):
        i = kernel_id - 1
        with np.errstate(all="ignore"):
            value = _eval_block(i, stats, theta)
            want = old(stats["srq".index(DICTIONARY[i].on)], theta[SLOTS[i]])
        got = _grad_blocks(i, stats, theta, value)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want], kernel_id


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
    stats = full_stats(X)

    for i, slots in enumerate(SLOTS):
        grads = _grad_blocks(i, stats, theta, _eval_block(i, stats, theta))
        for j, grad in zip(slots, grads):
            name = f"theta_{j + 1}"
            got = alpha[i] ** 2 * grad
            want = unpack(_fd_gram(params, X, j, 1e-5 * max(1.0, abs(theta[j]))))
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
    # the 16 terms PSD at the fixture's theta: all but 9, 12, 13, 19 and 20
    for kid in (1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 14, 15, 16, 17, 18, 21):
        params = single_kernel(kid, theta)
        G = unpack(gram(params, point_cloud))
        min_eig = np.linalg.eigvalsh(G).min()
        assert min_eig >= -1e-8, f"kernel {kid}: min eigenvalue {min_eig}"


def test_zero_weight_neutrality_bitwise(rng, point_cloud):
    full = random_params(rng)
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


def test_params_json_round_trip(rng):
    params = random_params(rng)
    back = KernelParams.from_dict(json.loads(json.dumps(params.to_dict())))
    assert (back.alpha == params.alpha).all() and (back.theta == params.theta).all()


def test_params_validation():
    # a wrong shape is bad input; a non-finite entry stays numerical, so train skips the epoch
    for alpha, theta in ((np.zeros(5), np.ones(N_THETA)), (np.zeros(N_KERNELS), np.ones(3))):
        with pytest.raises(ValueError, match="must have shape") as info:
            KernelParams(alpha, theta)
        assert not isinstance(info.value, NumericalError)
    bad = np.ones(N_KERNELS)
    bad[3] = np.inf
    with pytest.raises(KernelEvalError):
        KernelParams(bad, np.ones(N_THETA))


def test_nnz_counts_nonzero_weights():
    alpha = np.zeros(N_KERNELS)
    alpha[[1, 6, 11]] = (0.99, -0.25, 0.28)
    alpha[4] = -0.0  # a signed zero removes its term too
    params = KernelParams(alpha, np.ones(N_THETA))
    assert params.nnz == 3
