"""Properties at the numerical edges, under warnings-as-errors.

Each evaluation either returns finite values or raises one of the typed
errors; an IEEE warning on the way fails the property.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kflow.kernels import N_KERNELS, N_THETA, KernelEvalError, KernelParams, clamp_theta, gram
from kflow.loss import DegenerateBatchError, FactorizationError, _nested_eval

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
    assert np.all(np.isfinite(K))
    assert K.tobytes() == np.ascontiguousarray(K.T).tobytes()


@settings(max_examples=200)
@given(windows(2, 8), st.data(), WEIGHTS, THETAS)
def test_nested_eval_is_finite_or_raises(Xb, data, alpha, theta):
    n = Xb.shape[0]
    Yb = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    half = n // 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            r, _, _, g_alpha, g_theta = _nested_eval(
                params_of(alpha, theta), Xb, Yb, Xb[:half], Yb[:half], 0.05,
                wrt_alpha=True, wrt_theta=True, require_positive=False)
        except (KernelEvalError, FactorizationError, DegenerateBatchError):
            return
    assert np.isfinite(r)
    assert np.all(np.isfinite(g_alpha)) and np.all(np.isfinite(g_theta))
