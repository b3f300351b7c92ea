import math
import os

# acceptance wall-time is quoted single-threaded; pin BLAS before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np
import pytest
from hypothesis import settings

from kflow.kernels import KernelParams, N_KERNELS, N_THETA

# the same examples on every run, and no per-example deadline (timings vary by machine)
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def make_theta(**overrides):
    """All-ones theta with 1-based slot overrides, e.g. make_theta(t5=2.0)."""
    theta = np.ones(N_THETA)
    for key, value in overrides.items():
        theta[int(key[1:]) - 1] = value
    return theta


def single_kernel(kernel_id, theta=None, weight=1.0):
    """Params with exactly one active elemental."""
    alpha = np.zeros(N_KERNELS)
    alpha[kernel_id - 1] = weight
    return KernelParams(alpha, np.ones(N_THETA) if theta is None else theta)


def random_params(rng):
    """A full-dictionary draw: alpha ~ U(0.5, 1), theta ~ U(0.5, 1.5)."""
    return KernelParams(rng.uniform(0.5, 1.0, N_KERNELS), rng.uniform(0.5, 1.5, N_THETA))


def full_stats(X):
    """Reference pair geometry (s, r, q) of all pairs of rows of X as n x n arrays: S = X X'
    with its upper triangle mirrored, q = |x|^2 + |y|^2 - 2 s floored at 0 and 0 on the
    diagonal, r = sqrt(q)."""
    X = np.asarray(X, dtype=float)
    with np.errstate(all="ignore"):
        S = X @ X.T
        sq = np.diagonal(S).copy()
        S = np.triu(S) + np.triu(S, 1).T
        Q = np.maximum(sq[:, None] + sq[None, :] - 2.0 * S, 0.0)
        np.fill_diagonal(Q, 0.0)
        return S, np.sqrt(Q), Q


def unpack(packed):
    """The symmetric n x n matrix whose upper triangle with its diagonal, in row-major
    order, is ``packed``: kflow.gram's and RidgeSystem's layout, read as a matrix."""
    n = (math.isqrt(8 * packed.size + 1) - 1) // 2
    K = np.empty((n, n))
    K[np.triu_indices(n)] = packed
    K.T[np.triu_indices(n)] = packed
    return K


def pin_usable_cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture(params=[1, 2], ids=["1core", "2cores"])
def usable_cores(request, monkeypatch):
    """Pin the usable-core count to 1 and to 2: kernel tiles run serially, then threaded."""
    pin_usable_cores(monkeypatch, request.param)
    return request.param


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def point_cloud(rng):
    """20 random points in [-1, 1]^3 (the PSD / symmetry fixture)."""
    return rng.uniform(-1.0, 1.0, size=(20, 3))
