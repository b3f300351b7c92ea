import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import get_blas_funcs, get_lapack_funcs, hilbert

import kflow.kernels
import kflow.loss
from conftest import full_stats, make_theta, random_params, single_kernel, unpack
from kflow.kernels import (
    N_KERNELS,
    N_THETA,
    SLOTS,
    KernelEvalError,
    KernelParams,
    _eval_block,
    _grad_blocks,
    _packed_index,
    _packed_stats,
    gram,
)
from kflow.embedding import TimeSeries, build_delay_dataset
from kflow.loss import (
    DegenerateBatchError,
    FactorizationError,
    LossBreakdown,
    RidgeSystem,
    _Batch,
    _nested_eval,
)
from kflow.training import TrainConfig, sample_nested_batches, train


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


def ratio(params, X, Y, sub, lambda1):
    """The loss ratio 1 - qf_c / qf_b alone."""
    return _nested_eval(params, _Batch(X, Y, sub), lambda1)[0]


def gradient(params, X, Y, sub, lambda1):
    """(d rho / d alpha, d rho / d theta)."""
    return _nested_eval(params, _Batch(X, Y, sub), lambda1, wrt_alpha=True, wrt_theta=True)[3:]


def qf(params, X, Y, lambda1):
    """The loss's denominator: batch (X, Y)'s quadratic form, summed over Y's columns."""
    return _nested_eval(params, _Batch(X, Y, [0]), lambda1)[2]


# ---------------------------------------------------------------------------
# RidgeSystem
# ---------------------------------------------------------------------------

def packed(K):
    """K's upper triangle with its diagonal, row-major: what RidgeSystem takes."""
    return K[np.triu_indices(len(K))]


def test_solve_against_explicit_inverse(rng):
    # brute-force oracle on small systems
    for n in (1, 2, 3, 4, 5, 6):
        M = rng.normal(size=(n, n))
        K = M @ M.T  # PSD
        lam = 0.3
        Y = rng.normal(size=(n, 2))
        system = RidgeSystem(packed(K), lam)
        direct = np.linalg.inv(K + lam * np.eye(n)) @ Y
        np.testing.assert_allclose(system.solve(Y), direct, rtol=1e-10, atol=1e-12)
        qf = float(np.sum(Y * system.solve(Y)))
        oracle = float(np.sum(Y * direct))
        assert qf == pytest.approx(oracle, rel=1e-10)


def test_indefinite_system_falls_back_to_lu(rng):
    # indefinite but far from singular: Cholesky must fail, LU succeed
    K = np.diag([1.0, -2.0, 3.0])
    system = RidgeSystem(packed(K), 0.1)
    assert system._pivots is not None  # LU factors, not Cholesky's
    Y = rng.normal(size=3)
    x = system.solve(Y)
    np.testing.assert_allclose((K + 0.1 * np.eye(3)) @ x, Y, atol=1e-10)


@pytest.mark.parametrize("lambda1", [-0.1, float("nan"), float("inf")])
def test_ridge_shift_must_be_finite_and_nonnegative(lambda1):
    # an infinite shift would only fail later, in the solve, with a stray RuntimeWarning
    with pytest.raises(ValueError, match="lambda1 must be finite and nonnegative"):
        RidgeSystem(packed(np.eye(2)), lambda1)


def test_solve_leaves_the_gram_unwritten(rng):
    # both paths factor their own buffer; the LU solve matches numpy's
    M = rng.normal(size=(300, 300))
    lam = 0.05
    B = rng.normal(size=(300, 3))
    for K, lu in ((M @ M.T, False), (M + M.T, True)):
        triangle = packed(K)
        before = triangle.copy()
        system = RidgeSystem(triangle, lam)
        assert (system._pivots is not None) == lu
        X = system.solve(B)
        assert triangle.tobytes() == before.tobytes()
        if lu:
            exact = np.linalg.solve(K + lam * np.eye(300), B)
            np.testing.assert_allclose(X, exact, rtol=1e-10, atol=0.0)


class _FullCopy(RidgeSystem):
    """The reference: K + lambda1 I copied in full into the column-major buffer, as the
    system did when it took a full gram, instead of unpacked from the triangle."""

    def __init__(self, K, lambda1):
        self._full = K
        super().__init__(packed(K), lambda1)

    def _shifted(self, full=False):
        A = np.empty(self._full.shape, order="F")
        np.copyto(A, self._full.T)
        A.flat[::self.n + 1] += self.lambda1
        return A


def test_a_symmetric_gram_factors_and_solves_as_its_entrywise_copy(rng):
    # the unpacked triangle holds a full copy's bits: Cholesky reads the lower triangle only,
    # LU the mirrored whole; the mirror runs in column blocks, so one n spans several
    for n in (200, 1025):
        M = rng.normal(size=(n, n))
        B = rng.normal(size=(n, 3))
        for K, lu in ((M @ M.T, False), (M + M.T, True)):
            K = np.triu(K) + np.triu(K, 1).T
            system, reference = RidgeSystem(packed(K), 0.05), _FullCopy(K, 0.05)
            assert (system._pivots is not None) == lu
            if lu:
                assert system._factors.tobytes() == reference._factors.tobytes()
                assert system._pivots.tobytes() == reference._pivots.tobytes()
            else:
                assert np.tril(system._factors).tobytes() == np.tril(reference._factors).tobytes()
            assert system.solve(B).tobytes() == reference.solve(B).tobytes()


def _routine_calls():
    """kflow's 8 LAPACK/BLAS routines, each called on fixed 40 x 40 inputs: a positive-definite
    and an indefinite symmetric matrix, their packed triangles and 3 right-hand sides."""
    rng = np.random.default_rng(20230124)
    G = rng.normal(size=(40, 40))
    B = rng.normal(size=(40, 3))
    calls = []
    for kind, A in (("definite", G @ G.T + 40.0 * np.eye(40)), ("indefinite", G + G.T)):
        ap = packed(A)
        chol = np.linalg.cholesky(A + 100.0 * np.eye(40))
        lu, piv, _ = get_lapack_funcs("getrf", dtype=np.float64)(A)
        calls += [pytest.param(name, args, kwargs, id=f"{name}-{kind}") for name, args, kwargs in [
            ("trttp", (A.T,), {"uplo": "L"}), ("tpttr", (40, ap), {"uplo": "L"}),
            ("potrf", (A,), {"lower": 1, "clean": 0}), ("potrs", (chol, B), {"lower": 1}),
            ("getrf", (A,), {}), ("getrs", (lu, piv, B), {}),
            ("nrm2", (B.ravel(),), {}), ("spmv", (40, 1.0, ap, B[:, 0]), {"lower": 1}),
        ]]
    return calls


@pytest.mark.parametrize("name, args, kwargs", _routine_calls())
def test_bound_routines_return_bitwise_what_scipy_linalg_returns(name, args, kwargs):
    ours = getattr(kflow.kernels if name == "trttp" else kflow.loss, "_" + name)
    theirs = (get_blas_funcs if name in ("nrm2", "spmv") else get_lapack_funcs)(
        name, dtype=np.float64)
    got, want = ours(*args, **kwargs), theirs(*args, **kwargs)
    got, want = (got, want) if isinstance(want, tuple) else ((got,), (want,))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_a_missing_extension_module_names_the_directory_searched(tmp_path, monkeypatch):
    (tmp_path / "linalg").mkdir()
    scipy = SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(kflow.kernels, "find_spec", lambda name: scipy)
    with pytest.raises(ImportError, match=re.escape(f"_flapack in {tmp_path / 'linalg'}") + "$"):
        kflow.kernels._linalg_routines("_flapack", "potrf")


def test_a_full_matrix_or_a_non_triangular_length_is_rejected():
    # a packed triangle cannot be non-symmetric; anything but one is refused before LAPACK
    for gram in (np.eye(3), np.ones((1, 6)), np.ones(5), np.ones(0)):
        with pytest.raises(ValueError, match="packed triangle"):
            RidgeSystem(gram, 0.05)


def test_exactly_singular_raises():
    # K + I = diag(2, 0): Cholesky stops, and LU meets the exactly zero second pivot
    K = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(FactorizationError, match=re.escape("getrf info=2")):
        RidgeSystem(packed(K), 1.0).solve(np.array([1.0, 1.0]))


def test_nonfinite_gram_rejected():
    for bad in (np.inf, -np.inf, np.nan):
        for triangle in ([bad, 0.0, 1.0], [1.0, bad, 1.0], [1.0, 0.0, bad]):
            with pytest.raises(FactorizationError, match="non-finite"):
                RidgeSystem(np.array(triangle), 0.0)


def test_solve_rejects_a_right_hand_side_of_the_wrong_length():
    # checked before the zero shortcut, which would return zeros(5)
    system = RidgeSystem(packed(np.eye(3)), 0.1)
    for B in (np.zeros(5), np.ones(5)):
        with pytest.raises(ValueError, match=r"\(5,\).*\(3, 3\)"):
            system.solve(B)


def test_overflowing_solve_names_overflow():
    # subnormal Grams solve to 1 / 1.03e-321 = inf or to about 1e310, which overflows, on
    # the Cholesky and on the LU path alike
    tiny = np.diag([2e-310, 1e-310])
    for K, lu in ((np.array([[1.03e-321]]), False), (tiny, False), (-tiny, True)):
        system = RidgeSystem(packed(K), 0.0)
        assert (system._pivots is not None) == lu
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FactorizationError, match="overflow"):
                system.solve(np.ones(len(K)))


def test_a_solve_too_large_for_its_residual_check_raises():
    # K + 0 I solves to X ~ (-1.3e296, 8.1e222): K X sums products of 1.6e73, whose rounding
    # is far above the tolerance, so a computed residual of 0 proves nothing
    K = np.array([[0.0, 1.23057635e-223], [1.23057635e-223, 2e-150]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FactorizationError, match="rounding error"):
            RidgeSystem(packed(K), 0.0).solve(np.array([1.0, 0.0]))


def test_residual_check_reports_condition(rng, monkeypatch):
    # nearly singular: duplicate rows, lambda1 = 0
    K = np.ones((4, 4)) + 1e-16 * np.eye(4)
    with pytest.raises((FactorizationError, np.linalg.LinAlgError)):
        RidgeSystem(packed(K), 0.0).solve(rng.normal(size=4))
    # an unreachable tolerance fails every solve on the Cholesky and the LU path, and the
    # residual reported is the full copy's, bit for bit
    monkeypatch.setattr("kflow.loss.SOLVE_RESIDUAL_TOL", -1.0)
    M = rng.normal(size=(300, 300))
    for K in (hilbert(6), np.diag([1.0, -2.0, 3.0]), M @ M.T, M + M.T):
        messages = []
        for system in (RidgeSystem(packed(K), 0.0), _FullCopy(K, 0.0)):
            with pytest.raises(FactorizationError, match="solve residual") as info:
                system.solve(np.ones(K.shape[0]))
            messages.append(str(info.value))
        assert messages[0] == messages[1]


@pytest.mark.parametrize("indefinite", [False, True], ids=["cholesky", "lu"])
def test_a_failed_solve_allocates_nothing_of_the_systems_size(rng, monkeypatch, indefinite):
    # the residual check reports in words: it copies neither the system nor its factors
    monkeypatch.setattr("kflow.loss.SOLVE_RESIDUAL_TOL", -1.0)
    n = 800
    M = rng.normal(size=(n, n))
    system = RidgeSystem(packed(M + M.T if indefinite else M @ M.T + n * np.eye(n)), 0.05)
    assert (system._pivots is not None) == indefinite
    del M
    tracemalloc.start()
    try:
        with pytest.raises(FactorizationError):
            system.solve(np.ones(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * n * n * 8


def test_failing_solve_refines_twice_then_stops(monkeypatch):
    # the first solve and two refinements, each residual-checked; no solve after the last check
    calls = []
    solve_factored = RidgeSystem._solve_factored
    monkeypatch.setattr(RidgeSystem, "_solve_factored",
                        lambda self, rhs: calls.append(1) or solve_factored(self, rhs))
    monkeypatch.setattr("kflow.loss.SOLVE_RESIDUAL_TOL", 0.0)
    with pytest.raises(FactorizationError, match="exceeds"):
        RidgeSystem(packed(hilbert(6)), 0.0).solve(np.ones(6))
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# quadratic form
# ---------------------------------------------------------------------------

def test_qf_zero_targets():
    # exactly zero, which the loss refuses as its denominator
    params, X, _ = linear_two_point_fixture()
    with pytest.raises(DegenerateBatchError, match=re.escape("quadratic form is 0.000e+00;")):
        qf(params, X, np.zeros((2, 1)), 1.0)


def test_qf_two_point_linear_oracle():
    # direct 2x2 inversion: [[2,2],[2,5]]^{-1} gives 5/6
    params, X, Y = linear_two_point_fixture()
    A = np.array([[2.0, 2.0], [2.0, 5.0]])
    oracle = float(Y[:, 0] @ np.linalg.inv(A) @ Y[:, 0])
    got = qf(params, X, Y, 1.0)
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(5.0 / 6.0, rel=1e-12)


def test_qf_identity_gram_frobenius(rng):
    # gaussian kernel on far-apart points gives essentially I at lambda1=0
    params = single_kernel(3, make_theta(t5=0.01))
    X = np.arange(5.0)[:, None] * 100.0
    Y = rng.normal(size=(5, 3))
    got = qf(params, X, Y, 0.0)
    assert got == pytest.approx(float((Y * Y).sum()), rel=1e-10)


def test_qf_multi_output_sums_columns(rng):
    params = psd_params(rng)
    X = rng.normal(size=(6, 2))
    Y = rng.normal(size=(6, 3))
    total = qf(params, X, Y, 0.05)
    per_col = sum(qf(params, X, Y[:, j:j + 1], 0.05) for j in range(3))
    assert total == pytest.approx(per_col, rel=1e-12)


# ---------------------------------------------------------------------------
# rho
# ---------------------------------------------------------------------------

def test_rho_identical_subsets_is_zero():
    params, X, Y = linear_two_point_fixture()
    assert ratio(params, X, Y, [0, 1], 1.0) == 0.0


def test_rho_two_point_oracle():
    # qf_c = 1 / (1 + 1) = 0.5, qf_b = 5/6 -> rho = 1 - 0.6 = 0.4
    params, X, Y = linear_two_point_fixture()
    got = ratio(params, X, Y, [0], 1.0)
    assert got == pytest.approx(0.4, rel=1e-12)


def test_rho_scale_invariance(rng):
    params = psd_params(rng)
    X = rng.normal(size=(8, 2))
    Y = rng.normal(size=(8, 2))
    sub = rng.permutation(8)[:4]
    base = ratio(params, X, Y, sub, 0.05)
    for s in (2.0, -3.0, 0.125):
        scaled = ratio(params, X, s * Y, sub, 0.05)
        assert abs(scaled - base) <= 1e-12 * max(1.0, abs(base))


def test_rho_zero_targets_degenerate():
    params, X, _ = linear_two_point_fixture()
    with pytest.raises(DegenerateBatchError):
        ratio(params, X, np.zeros((2, 1)), [0], 1.0)


def test_rho_bounds_on_psd_fixture(rng):
    # nested-subset interpolant norms keep the ratio in [0, 1] modulo nugget
    for _ in range(20):
        params = psd_params(rng)
        X = rng.normal(size=(10, 3))
        Y = rng.normal(size=(10, 2))
        idx = rng.choice(10, size=5, replace=False)
        val = ratio(params, X, Y, idx, 0.05)
        assert -1e-6 <= val <= 1.0 + 1e-6


def test_rho_matches_the_quadratic_forms_of_the_row_subset(rng):
    for _ in range(10):
        params = psd_params(rng)
        X = rng.normal(size=(12, 3))
        Y = rng.normal(size=(12, 2))
        sub = rng.choice(12, size=rng.integers(1, 13), replace=False)  # random order
        want = 1.0 - qf(params, X[sub], Y[sub], 0.05) / qf(params, X, Y, 0.05)
        assert ratio(params, X, Y, sub, 0.05) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("sub", [[], [[0, 1]], [0, 6], [-1, 2], [2, 3, 2]],
                         ids=["empty", "2-d", "out-of-range", "negative", "repeated"])
def test_sub_must_be_distinct_row_positions(rng, sub):
    X = rng.normal(size=(6, 2))
    Y = rng.normal(size=(6, 1))
    with pytest.raises(ValueError, match="sub"):
        _Batch(X, Y, np.array(sub, dtype=int))


# ---------------------------------------------------------------------------
# the logged loss: each training epoch logs rho plus the l1 penalty
# ---------------------------------------------------------------------------

def trained(rng, config):
    """(dataset, report) of ``train`` on a small delay dataset from a PSD initialization."""
    t = np.linspace(0.0, 12.0, 80)
    values = np.column_stack([np.sin(t), np.cos(0.9 * t)]) + 0.01 * rng.normal(size=(80, 2))
    ds = build_delay_dataset(TimeSeries(values, 0.1), 3)
    return ds, train(ds, psd_params(rng), config)


def test_logged_loss_at_lambda2_zero_is_rho(rng):
    _, report = trained(rng, TrainConfig(epochs=4, batch_size=16, seed=3))
    assert None not in report.loss_history
    assert all(h.l1_penalty == 0.0 and h.total == h.rho for h in report.loss_history)


def test_logged_loss_is_rho_plus_the_l1_penalty(rng, monkeypatch):
    # one epoch, no final clamp or rescale: the logged loss is rho at the epoch's final
    # weights on its batch, plus lambda2 ||alpha||_1 of those weights
    monkeypatch.setattr("kflow.training._calibrate_scale", lambda ds, alpha, theta, cfg: alpha)
    ds, report = trained(rng, TrainConfig(epochs=1, batch_size=16, lambda2=0.1,
                                          zero_clamp=0.0, seed=6))
    (entry,) = report.loss_history
    idx_b, sub = sample_nested_batches(ds, 16, np.random.default_rng(6))
    final = report.final_params
    r, qf_c, qf_b, _, _ = _nested_eval(final, _Batch(ds.X[idx_b], ds.Y[idx_b], sub), 0.05)
    assert (entry.rho, entry.numerator_qf, entry.denominator_qf) == (r, qf_c, qf_b)
    assert entry.l1_penalty == 0.1 * float(np.sum(np.abs(final.alpha))) > 0.0
    assert entry.total == entry.rho + entry.l1_penalty


def test_logged_loss_is_the_l1_penalty_when_rho_is_zero(rng, monkeypatch):
    # batch c is all of batch b: rho is exactly 0 and the logged total is the l1 term
    monkeypatch.setattr("kflow.training.sample_nested_batches", lambda ds, size, gen: (
        gen.choice(ds.n_pairs, size, replace=False), np.arange(size)))
    _, report = trained(rng, TrainConfig(epochs=3, batch_size=16, lambda2=1.0, seed=1))
    for h in report.loss_history:
        assert h.rho == 0.0 and h.total == h.l1_penalty > 0.0


def test_breakdown_total_invariant(rng):
    _, report = trained(rng, TrainConfig(epochs=4, batch_size=16, lambda2=0.37, seed=8))
    for b in report.loss_history:
        assert b.total == b.rho + b.l1_penalty and b.l1_penalty > 0.0
        assert b.denominator_qf > 0.0


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def _fd_rho(params, X, Y, sub, lam, kind, idx, h):
    def at(delta):
        if kind == "alpha":
            arr = np.array(params.alpha)
            arr[idx] += delta
            return ratio(KernelParams(arr, params.theta), X, Y, sub, lam)
        arr = np.array(params.theta)
        arr[idx] += delta
        return ratio(KernelParams(params.alpha, arr), X, Y, sub, lam)
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
    ga, gt = gradient(params, X, Y, sub, 0.05)
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


def test_derivative_blocks_take_the_held_value_block_bitwise(rng):
    # the thirteen terms whose derivative contains their own value read it from
    # the block the batch holds, after a theta move (blocks evaluated
    # afresh) and at an unchanged theta (blocks handed on), and equal the
    # derivative computed from scratch, the value evaluated again, bit for bit
    params, X, Y, sub = smooth_fixture(rng, n=40)
    moved = KernelParams(params.alpha, params.theta * 1.01)
    batch = _Batch(X, Y, sub)
    _nested_eval(params, batch, 0.05)
    for _ in range(2):
        _nested_eval(moved, batch, 0.05)
        for kernel_id in (2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 14, 15, 20):
            i = kernel_id - 1
            with np.errstate(all="ignore"):
                fresh = _eval_block(i, batch.stats, moved.theta)
            want = _grad_blocks(i, batch.stats, moved.theta, fresh)
            got = _grad_blocks(i, batch.stats, moved.theta, batch.blocks[i])
            assert batch.blocks[i].tobytes() == fresh.tobytes(), kernel_id
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want], kernel_id


def _two_batch_gradient(params, X, Y, lam):
    """(qf, d qf/d alpha, d qf/d theta) of one batch, from its own geometry."""
    stats = full_stats(X)
    W = np.linalg.solve(unpack(gram(params, X)) + lam * np.eye(len(X)), Y)
    ga, gt = np.zeros(N_KERNELS), np.zeros(N_THETA)
    for i, a in enumerate(params.alpha):
        block = _eval_block(i, stats, params.theta)
        ga[i] = -2.0 * a * np.sum(W * (block @ W))
        for j, grad in zip(SLOTS[i], _grad_blocks(i, stats, params.theta, block)):
            gt[j] = -a * a * np.sum(W * (grad @ W))
    return float(np.sum(Y * W)), ga, gt


def test_folded_gradient_matches_the_two_batch_quotient_rule(rng):
    # batch c as a batch of its own: rho's gradient by the quotient rule
    # of the two quadratic forms' gradients (full dictionary: indefinite)
    for _ in range(3):
        params, X, Y, sub = smooth_fixture(rng)
        qf_b, ga_b, gt_b = _two_batch_gradient(params, X, Y, 0.05)
        qf_c, ga_c, gt_c = _two_batch_gradient(params, X[sub], Y[sub], 0.05)
        ga, gt = gradient(params, X, Y, sub, 0.05)
        for got, d_b, d_c in ((ga, ga_b, ga_c), (gt, gt_b, gt_c)):
            want = (qf_c * d_b - d_c * qf_b) / qf_b ** 2
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * np.max(np.abs(want)))


def _full_batch(params, X, Y, sub, lam):
    """The batch path on n x n arrays: blocks of the full geometry, K summed from zeros in
    ascending term order, <B, M> by np.vdot."""
    stats = full_stats(X)
    K, blocks = np.zeros((len(X), len(X))), {}
    with np.errstate(all="ignore"):
        for i, a in enumerate(params.alpha):
            if a != 0.0:
                blocks[i] = _eval_block(i, stats, params.theta)
                K += (a * a) * blocks[i]
    W = RidgeSystem(packed(K), lam).solve(Y)
    Wc = RidgeSystem(packed(K[np.ix_(sub, sub)]), lam).solve(Y[sub])
    qf_b, qf_c = float(np.sum(Y * W)), float(np.sum(Y[sub] * Wc))
    M = (qf_c / (qf_b * qf_b)) * (W @ W.T)
    M[np.ix_(sub, sub)] -= (Wc @ Wc.T) / qf_b
    ga, gt = np.zeros(N_KERNELS), np.zeros(N_THETA)
    for i, block in blocks.items():
        ga[i] = -2.0 * params.alpha[i] * np.vdot(block, M)
        for j, grad in zip(SLOTS[i], _grad_blocks(i, stats, params.theta, block)):
            gt[j] = -(params.alpha[i] ** 2) * np.vdot(grad, M)
    return stats, blocks, K, W, qf_b, 1.0 - qf_c / qf_b, ga, gt


@pytest.mark.parametrize("n", [2, 3, 100, 200, "duplicate rows"])
def test_packed_batch_equals_the_full_array_path(rng, monkeypatch, n):
    duplicates = n == "duplicate rows"
    params, X, Y, sub = smooth_fixture(rng, n=60 if duplicates else n)
    if duplicates:  # dyadic coordinates: each duplicate pair has q = 0 exactly
        X = np.round(4.0 * X) / 4.0
        X[30:] = X[:30]
    n = len(X)
    stats, blocks, K, W, qf_b, r, ga, gt = _full_batch(params, X, Y, sub, 0.05)
    iu = np.triu_indices(n)
    geometry = _packed_stats(X)
    assert all((p == f[iu]).all() for p, f in zip(geometry, stats))
    assert (geometry[2][_packed_index(np.arange(n), np.arange(n), n)] == 0.0).all()
    assert np.count_nonzero(geometry[2] == 0.0) >= n + (30 if duplicates else 0)
    systems = []  # the loss's two systems, b's then c's, with their solutions

    class Recorded(RidgeSystem):
        def solve(self, B):
            systems.append((self._packed, super().solve(B)))
            return systems[-1][1]

    monkeypatch.setattr(kflow.loss, "RidgeSystem", Recorded)
    batch = _Batch(X, Y, sub)
    got = _nested_eval(params, batch, 0.05, wrt_alpha=True, wrt_theta=True)
    assert len(systems) == 2
    for i, block in blocks.items():
        assert batch.blocks[i].tobytes() == block[iu].tobytes(), i + 1
        want = _grad_blocks(i, stats, params.theta, block)
        got_grads = _grad_blocks(i, batch.stats, params.theta, batch.blocks[i])
        assert [g.tobytes() for g in got_grads] == [w[iu].tobytes() for w in want], i + 1
    (K_b, W_b), (K_c, _) = systems
    assert K_b.tobytes() == K[iu].tobytes()
    assert K_b.tobytes() == gram(params, X).tobytes()  # the loss's K is the Gram
    assert K_c.tobytes() == packed(K[np.ix_(sub, sub)]).tobytes()
    assert W_b.tobytes() == W.tobytes()
    assert got[0] == r and got[2] == qf_b
    for g, want in zip(got[3:], (ga, gt)):
        assert np.linalg.norm(g - want) <= 1e-12 * np.linalg.norm(want)


def test_grad_inactive_alpha_is_zero(rng):
    alpha = np.zeros(N_KERNELS)
    alpha[2] = 0.8
    params = KernelParams(alpha, rng.uniform(0.8, 1.2, N_THETA))
    X = rng.normal(size=(8, 2))
    Y = rng.normal(size=(8, 1))
    ga, gt = gradient(params, X, Y, np.arange(4), 0.05)
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
    ga, gt = gradient(params, X, Y, sub, 0.05)
    # rho = 1 identically in the numerator path; gradient comes only from
    # qf_b, scaled by qf_c = 0 -> exactly zero
    assert (ga == 0.0).all() and (gt == 0.0).all()


def test_loss_breakdown_dataclass():
    b = LossBreakdown(0.25, 0.1, 0.35, 1.0, 2.0)
    assert b.total == 0.35


def test_nested_eval_reused_terms_are_bitwise_identical(rng):
    # an epoch's theta-step, alpha-step (which zeroes a weight) and logged loss on one
    # batch, then a term back in at that theta: each call, with and without the gradient,
    # equals the same call on a fresh batch bit for bit
    alpha = rng.uniform(0.5, 1.0, N_KERNELS)
    theta = rng.uniform(0.8, 1.5, N_THETA)
    X = rng.normal(size=(16, 3))
    Y = rng.normal(size=(16, 2))
    sub = rng.permutation(16)[:8]
    new_alpha = alpha.copy()
    new_alpha[[4, 9]] = (0.0, 0.3)
    steps = [(KernelParams(alpha, theta), {"wrt_theta": True}),
             (KernelParams(alpha, theta * 1.01), {"wrt_alpha": True}),
             (KernelParams(new_alpha, theta * 1.01), {}),
             (KernelParams(alpha, theta * 1.01), {})]
    for grads in (False, True):
        batch = _Batch(X, Y, sub)
        for params, flags in steps:
            flags = {"wrt_alpha": True, "wrt_theta": True} if grads else flags
            fresh = _nested_eval(params, _Batch(X, Y, sub), 0.05, **flags)
            reused = _nested_eval(params, batch, 0.05, **flags)
            assert [np.asarray(v).tobytes() for v in reused] == \
                [np.asarray(v).tobytes() for v in fresh]


def test_nonfinite_elemental_on_the_loss_path_is_named_and_keeps_the_terms(rng):
    # t7 = 0 makes elemental 5 nan: the batch path checks its sum once, names the
    # elemental as gram does, and the batch keeps the previous call's blocks, so it then
    # evaluates good parameters bitwise as a fresh batch does
    X, Y, sub = rng.normal(size=(8, 2)), rng.normal(size=(8, 1)), np.arange(4)
    good = random_params(rng)
    theta = np.array(good.theta)
    theta[6] = 0.0
    bad = KernelParams(good.alpha, theta)
    with pytest.raises(KernelEvalError) as expected:
        gram(bad, X)
    assert "elemental kernel 5" in str(expected.value)
    batch = _Batch(X, Y, sub)
    _nested_eval(good, batch, 0.05)
    kept = batch.blocks
    calls = (lambda: _nested_eval(bad, _Batch(X, Y, sub), 0.05),
             lambda: _nested_eval(bad, batch, 0.05),
             lambda: _nested_eval(bad, batch, 0.05, wrt_theta=True))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(KernelEvalError) as info:
                call()
            assert str(info.value) == str(expected.value)
    assert batch.blocks is kept
    for flags in ({}, {"wrt_alpha": True, "wrt_theta": True}):
        fresh = _nested_eval(good, _Batch(X, Y, sub), 0.05, **flags)
        reused = _nested_eval(good, batch, 0.05, **flags)
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
        lambda: ratio(params, X, Y, [0, 1, 2], 0.05),
        lambda: gradient(params, X, Y, [0, 1, 2], 0.05),
        lambda: _nested_eval(params, _Batch(X, Y, [0, 1, 2]), 0.05, wrt_theta=True),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(KernelEvalError, match="weighted kernel sum"):
                call()
