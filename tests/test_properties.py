"""Properties at the numerical edges, under warnings-as-errors.

Each evaluation either returns finite values or raises one of the typed
errors; an IEEE warning on the way fails the property.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import norm

from kflow.forecast import RolloutDiverged, TrainedModel, rollout
from kflow.kernels import N_KERNELS, N_THETA, KernelEvalError, KernelParams, clamp_theta, gram
from kflow.loss import (
    SOLVE_RESIDUAL_TOL,
    DegenerateBatchError,
    FactorizationError,
    RidgeSystem,
    _nested_eval,
)

# zero, subnormal and tiny entries, entries whose squares or products
# overflow (past 1e154), and ordinary values
ENTRIES = st.one_of(
    st.sampled_from([0.0, 5e-324, -5e-324, 1e-310, 1e154, -1e154, 1e200, -1e200]),
    st.floats(-3.0, 3.0),
)
WEIGHTS = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
                   min_size=N_KERNELS, max_size=N_KERNELS)
THETAS = st.lists(st.floats(-4.0, 4.0), min_size=N_THETA, max_size=N_THETA)


@st.composite
def windows(draw, min_rows, max_rows):
    """Rows of edge-case entries, some repeated verbatim."""
    n = draw(st.integers(min_rows, max_rows))
    d = draw(st.integers(1, 3))
    X = np.array(draw(st.lists(st.lists(ENTRIES, min_size=d, max_size=d),
                               min_size=n, max_size=n)))
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=2))
    return np.vstack([X, X[repeats]])


def params_of(alpha, theta) -> KernelParams:
    return KernelParams(np.array(alpha), clamp_theta(np.array(theta)))


@settings(max_examples=300)
@given(windows(1, 6), WEIGHTS, THETAS)
def test_gram_is_finite_and_symmetric_or_raises(X, alpha, theta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            K = gram(params_of(alpha, theta), X)
        except KernelEvalError:
            return
    # symmetric by its layout: the packed upper triangle, n(n+1)/2 entries
    assert np.all(np.isfinite(K))
    assert K.shape == (len(X) * (len(X) + 1) // 2,)


@settings(max_examples=200)
@given(windows(2, 8), st.data(), WEIGHTS, THETAS)
def test_nested_eval_is_finite_or_raises(X, data, alpha, theta):
    n = X.shape[0]
    Y = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    # batch c: any size, in any order, as training's random draws come
    sub = np.array(data.draw(st.permutations(range(n)))[:data.draw(st.integers(1, n))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            r, _, _, g_alpha, g_theta = _nested_eval(
                params_of(alpha, theta), X, Y, sub, 0.05,
                wrt_alpha=True, wrt_theta=True)
        except (KernelEvalError, FactorizationError, DegenerateBatchError):
            return
    assert np.isfinite(r)
    assert np.all(np.isfinite(g_alpha)) and np.all(np.isfinite(g_theta))


@st.composite
def ridge_grams(draw):
    """Symmetric Grams, indefinite or rank-deficient, scaled by 1e-150, 1 or 1e150."""
    n = draw(st.integers(1, 8))
    entries = st.floats(-3.0, 3.0)
    if draw(st.booleans()):
        A = np.array(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                   min_size=n, max_size=n)))
        K = A + A.T
    else:  # rank r < n (or r = n), eigenvalue signs drawn
        r = draw(st.integers(0, n))
        V = np.array(draw(st.lists(st.lists(entries, min_size=r, max_size=r),
                                   min_size=n, max_size=n))).reshape(n, r)
        signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=r, max_size=r)))
        K = (V * signs) @ V.T
        K = np.triu(K) + np.triu(K, 1).T  # bitwise symmetric
    return K * draw(st.sampled_from([1e-150, 1.0, 1e150]))


@settings(max_examples=300)
@given(ridge_grams(), st.one_of(st.just(0.0), st.floats(0.0, 1.0)), st.data())
def test_ridge_solve_meets_the_tolerance_or_raises(K, lambda1, data):
    n = K.shape[0]
    k = data.draw(st.integers(1, 2))
    B = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n * k,
                                    max_size=n * k))).reshape(n, k)
    triangle = K[np.triu_indices(n)]
    before = triangle.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            X = RidgeSystem(triangle, lambda1).solve(B)
        except FactorizationError as err:
            assert err.condition == np.inf or err.condition >= 1.0
        else:
            # scipy's vector norm is scaled: a tiny B's norm does not underflow to 0
            r = B - (K @ X + lambda1 * X)
            assert norm(r.ravel()) <= SOLVE_RESIDUAL_TOL * norm(B.ravel())
    assert triangle.tobytes() == before


@st.composite
def models(draw):
    """Small trained models; huge weights or coefficients make rollouts diverge."""
    tau, d, m = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 6))
    alpha = np.array(draw(WEIGHTS)) * draw(st.sampled_from([1.0, 1e100]))
    train_X = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=m * tau * d,
                                     max_size=m * tau * d))).reshape(m, tau * d)
    coefficients = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=m * d,
                                          max_size=m * d))).reshape(m, d)
    coefficients *= draw(st.sampled_from([1.0, 1e3, 1e150]))
    params = params_of(alpha, draw(THETAS))
    return TrainedModel(params, train_X, coefficients, 0.05, tau, d)


@settings(max_examples=150)
@given(models(), st.integers(1, 40), st.data())
def test_rollout_is_finite_or_diverges(model, steps, data):
    seed = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=model.train_X.shape[1],
                                       max_size=model.train_X.shape[1])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            path = rollout(model, seed, steps)
        except RolloutDiverged as err:
            assert 0 <= err.step < steps
            assert err.partial.shape == (err.step, model.dim)
            assert np.all(np.isfinite(err.partial))
            return
    assert path.shape == (steps, model.dim)
    assert np.all(np.isfinite(path))
