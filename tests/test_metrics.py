import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kflow.metrics import hausdorff, smape


def test_smape_perfect_prediction():
    x = np.array([[1.0, 2.0], [3.0, -4.0]])
    assert smape(x, x.copy()) == 0.0


def test_smape_hand_values():
    # |3-1| / ((3+1)/2) * 100 = 100
    assert smape([[3.0]], [[1.0]]) == pytest.approx(100.0)
    # |-1-1| / ((1+1)/2) * 100 = 200 (the maximum)
    assert smape([[-1.0]], [[1.0]]) == pytest.approx(200.0)


def test_smape_zero_zero_convention():
    assert smape([[0.0, 1.0]], [[0.0, 1.0]]) == 0.0


def test_smape_symmetry_and_scale(rng):
    for _ in range(20):
        a = rng.normal(size=(7, 3))
        b = rng.normal(size=(7, 3))
        assert smape(a, b) == smape(b, a)
        s = float(rng.uniform(0.1, 10.0))
        assert smape(s * a, s * b) == pytest.approx(smape(a, b), rel=1e-12)


def test_smape_shape_errors():
    with pytest.raises(ValueError):
        smape(np.ones((2, 2)), np.ones((3, 2)))
    with pytest.raises(ValueError):
        smape(np.ones((0, 2)), np.ones((0, 2)))


def test_smape_bounded(rng):
    p = rng.normal(size=(50, 4))
    t = rng.normal(size=(50, 4))
    assert 0.0 <= smape(p, t) <= 200.0


def test_hausdorff_identical_sets():
    A = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert hausdorff(A, A.copy()) == 0.0


def test_hausdorff_hand_values():
    assert hausdorff([[0.0]], [[3.0]]) == pytest.approx(3.0)
    # directed distances are 1 and 0; the max wins
    assert hausdorff([[0.0], [1.0]], [[0.0]]) == pytest.approx(1.0)


def test_hausdorff_symmetry(rng):
    for _ in range(10):
        A = rng.normal(size=(12, 3))
        B = rng.normal(size=(9, 3))
        assert hausdorff(A, B) == hausdorff(B, A)


def test_hausdorff_triangle_inequality(rng):
    for _ in range(25):
        A = rng.normal(size=(6, 2))
        B = rng.normal(size=(8, 2))
        C = rng.normal(size=(5, 2))
        assert hausdorff(A, C) <= hausdorff(A, B) + hausdorff(B, C) + 1e-12


def brute_force_hausdorff(A, B):
    """Independent double-loop oracle (same formula, different code path)."""
    def directed(P, Q):
        worst = 0.0
        for p in P:
            best = np.inf
            for q in Q:
                d = np.sqrt(np.sum((p - q) ** 2))
                if d < best:
                    best = d
            if best > worst:
                worst = best
        return worst
    return max(directed(A, B), directed(B, A))


def test_hausdorff_matches_brute_force_bitwise(rng):
    A = rng.normal(size=(200, 3))
    B = rng.normal(size=(200, 3))
    assert hausdorff(A, B) == brute_force_hausdorff(A, B)


def test_hausdorff_tiny_separation_is_not_zero():
    # the squared differences underflow; the distance must not
    assert hausdorff([[0.0]], [[2.7e-266]]) == 2.7e-266
    assert hausdorff([[0.0, 0.0]], [[3e-170, 4e-170]]) == pytest.approx(5e-170, rel=1e-15)


def test_hausdorff_huge_separation_is_finite():
    # the squared differences overflow; the distance must not
    assert hausdorff([[1e200, 0.0]], [[0.0, 0.0]]) == 1e200
    assert hausdorff([[0.0, 0.0]], [[3e170, 4e170]]) == pytest.approx(5e170, rel=1e-15)
    # a distance beyond the float range is inf
    assert hausdorff([[1e308]], [[-1e308]]) == np.inf


def test_hausdorff_empty_raises():
    with pytest.raises(ValueError):
        hausdorff(np.zeros((0, 2)), np.zeros((1, 2)))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
       st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
def test_hausdorff_zero_iff_equal_sets_1d(xs, ys):
    A = np.array(sorted(set(xs)))[:, None]
    B = np.array(sorted(set(ys)))[:, None]
    d = hausdorff(A, B)
    if set(A.ravel()) == set(B.ravel()):
        assert d == 0.0
    else:
        assert d > 0.0
