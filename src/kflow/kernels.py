"""Weighted dictionary of 21 elemental kernels.

The combined kernel is

    k(x, y) = sum_i  alpha_i**2 * k_i(x, y; theta)

with 21 elemental terms k_i drawing on 34 intrinsic parameters theta.
Every elemental is a function of the pair geometry only: the inner
product ``s = x.y``, the Euclidean distance ``r = ||x - y||`` and its
square ``q = r**2``.  Both evaluations, ``gram`` and ``cross_gram``,
form ``S = A B'`` once, then per cache-sized row tile (s, r, q) and the
sum of the active terms, checked once, which overwrites the tile's own
entries of S: a kernel matrix costs one m x n array, not two.  Outside
process pools the tiles run on the usable cores, bit-identical to
serial.  A Gram's tiles cover its upper triangle only, and ``gram``
returns that triangle packed, the layout :class:`kflow.RidgeSystem`
takes.  A training batch's geometry is its Gram's one tile, packed the
same way: one geometry builder and one packing routine serve the Gram,
the loss and its gradient.

The terms come from 14 families: linear, polynomial, gauss, locally
periodic, periodic, multiquadric, inverse multiquadric, power, cauchy,
rational, triangular, log, sigmoid and bump.  A family is one value and
one derivative function of a single geometry array and the term's own
theta slots; seven of them serve a term on q and its twin on r.
:data:`DICTIONARY` states each term's family, geometry and slots: it is
the one statement of the theta layout.

Weights enter squared, so a combination is nonnegative whenever its
terms are, and ``alpha_i == 0`` removes term i exactly (the elemental
is never evaluated, so a zeroed term cannot raise).

Domain guards
-------------
Three elementals are guarded so they stay defined on the whole data
domain during gradient-based optimization:

* term 2, ``(t2^2 s + t3^2) ** |t4|``: the base is floored at ``EPS``
  (a negative base under a real exponent has no real value);
* term 19, ``log(r**t31 + 1)``: the distance is floored at ``EPS``
  before exponentiation (negative t31 would be singular at r = 0);
* term 21 returns 0 wherever its arccos/sqrt argument leaves [-1, 1],
  i.e. outside the region where the bracket is real-valued.

The bare divisors t7, t10, t12, t15 (periods) and t26 (a length) are
``clamped`` in :data:`DICTIONARY`: the optimizer's :func:`clamp_theta`
keeps them at ``|t| >= EPS`` after every theta step.

Everything else that produces a non-finite entry (for example t7 = 0
inside the sin of term 5) raises :class:`KernelEvalError` naming the
owning theta slots; a weighted sum that overflows and a non-finite
alpha or theta raise it too, and input of the wrong shape is a plain
``ValueError``.  Every numerical failure in kflow is a
:class:`NumericalError`.  IEEE warnings are silenced: these checks
report instead.

kflow's 11 LAPACK and BLAS routines are bound from scipy's compiled wrappers, the
extension modules ``scipy/linalg/_flapack`` and ``_fblas``: importing the scipy.linalg
package to reach them would cost every process and worker 0.3 s and 20 MB.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from collections import namedtuple
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from itertools import accumulate
from operator import itemgetter

import numpy as np

#: floor used for clamped power bases and for bare divisors re-projected
#: by the optimizer
EPS = 1e-8

# entries per row tile (128 KB a temporary): larger tiles page-fault in a fresh process
_TILE = 1 << 14


def _linalg_routines(module: str, *names: str) -> tuple:
    """The float64 ``names`` of scipy's compiled wrapper ``module`` (``_flapack`` or ``_fblas``),
    loaded from its file under its own name, so scipy/linalg/__init__.py never runs."""
    where = os.path.join(find_spec("scipy").submodule_search_locations[0], "linalg")
    spec = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(
        f"scipy.linalg.{module}")
    if spec is None:
        raise ImportError(f"no extension module {module} in {where}")
    lib = module_from_spec(spec)  # scipy.linalg's own module if that package is imported
    spec.loader.exec_module(lib)
    return tuple(getattr(lib, "d" + name) for name in names)


(_trttp,) = _linalg_routines("_flapack", "trttp")


class NumericalError(Exception):
    """Base of every numerical failure in kflow: callers score it, bad input is a ValueError."""


class KernelEvalError(NumericalError, ValueError):
    """A kernel evaluation, or an alpha or theta, is non-finite; bad shapes are ValueErrors."""


@dataclass(frozen=True)
class KernelParams:
    """Dictionary weights and intrinsic parameters.

    ``alpha`` holds the 21 weight roots (effective weight alpha_i**2),
    ``theta`` the 34 intrinsic parameters.  Instances are immutable;
    the arrays are frozen after validation.
    """

    alpha: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        alpha = np.array(self.alpha, dtype=float)
        theta = np.array(self.theta, dtype=float)
        if alpha.shape != (N_KERNELS,):
            raise ValueError(f"alpha must have shape ({N_KERNELS},), got {alpha.shape}")
        if theta.shape != (N_THETA,):
            raise ValueError(f"theta must have shape ({N_THETA},), got {theta.shape}")
        if not np.all(np.isfinite(alpha)):
            raise KernelEvalError("alpha contains non-finite entries")
        if not np.all(np.isfinite(theta)):
            raise KernelEvalError("theta contains non-finite entries")
        alpha.flags.writeable = False
        theta.flags.writeable = False
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "theta", theta)

    @property
    def active_mask(self) -> np.ndarray:
        return np.abs(self.alpha) > 0.0

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.active_mask))

    def to_dict(self) -> dict:
        return {"alpha": self.alpha.tolist(), "theta": self.theta.tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> "KernelParams":
        return cls(np.asarray(doc["alpha"], dtype=float), np.asarray(doc["theta"], dtype=float))


# ---------------------------------------------------------------------------
# pair geometry
# ---------------------------------------------------------------------------

def _pair_stats(S, sq_a, sq_b, sym: bool):
    """(s, r, q) of a row tile from its inner products S and both sides' squared norms.
    sym: a Gram's tile from its diagonal on, whose q is 0 on the diagonal.  The one geometry
    builder: the kernel-matrix tiles call it, and so does a training batch (_packed_stats)."""
    q = sq_a[:, None] + sq_b[None, :] - 2.0 * S
    np.maximum(q, 0.0, out=q)
    if sym:
        np.fill_diagonal(q, 0.0)
    return S, np.sqrt(q), q


def _pack(A) -> np.ndarray:
    """Square A's upper triangle with its diagonal in row-major order, ``A[np.triu_indices(n)]``:
    the packed layout, which trttp reads as the lower triangle of A', column by column."""
    return _trttp(A.T, uplo="L")[0]


def _packed_index(i, j, n: int):
    """Position of entry (i, j), i <= j, in an n x n array's packed triangle."""
    return i * (2 * n + 1 - i) // 2 + j - i  # row i starts at i(2n+1-i)/2


def _packed_stats(X):
    """(s, r, q) of all pairs of rows of X: _pair_stats of X's Gram as one tile, each packed."""
    X = np.asarray(X, dtype=float)
    with np.errstate(all="ignore"):
        S = X @ X.T
        sq = np.diagonal(S)
        return tuple(_pack(a) for a in _pair_stats(S, sq, sq, True))


# ---------------------------------------------------------------------------
# elemental families
#
# _k_<family>(x, t) returns a term's value block and _g_<family>(x, t, val) its
# derivative blocks, one per owned slot in slot order, given val: x is the pair
# geometry the term is ``on`` (s, r, q, or the tuple (r, q)) and t its own slots,
# t[0] first; shapes broadcast.  At kink points (support boundaries of terms
# 17/18/21, the |t4| kink at t4 = 0, clamped regions of terms 2/19) the gradient
# is the one-sided limit from the interior, 0 exactly on the boundary.
# ---------------------------------------------------------------------------

def _k_linear(s, t):
    return s + t[0] ** 2


def _g_linear(s, t, val):
    return (np.full_like(np.asarray(s, dtype=float), 2.0 * t[0]),)


def _k_polynomial(s, t):
    base = np.maximum(t[0] ** 2 * s + t[1] ** 2, EPS)
    return base ** abs(t[2])


def _g_polynomial(s, t, val):
    raw = t[0] ** 2 * s + t[1] ** 2
    base = np.maximum(raw, EPS)
    e = abs(t[2])
    interior = raw > EPS
    powm1 = base ** (e - 1.0)
    d0 = np.where(interior, powm1 * e * 2.0 * t[0] * s, 0.0)
    d1 = np.where(interior, powm1 * e * 2.0 * t[1], 0.0)
    d2 = val * np.log(base) * np.sign(t[2])  # val is base ** e
    return d0, d1, d2


def _k_gauss(x, t):
    return np.exp(-x / (2.0 * t[0] ** 2))


def _g_gauss(x, t, val):
    return (val * x / t[0] ** 3,)


def _k_periodic(x, t):
    phase = np.sin(np.pi * x / t[0]) ** 2
    return np.exp(-phase / t[1] ** 2)


def _g_periodic(x, t, val):
    arg = np.pi * x / t[0]
    d0 = val * np.sin(2.0 * arg) * np.pi * x / (t[0] ** 2 * t[1] ** 2)
    d1 = val * 2.0 * np.sin(arg) ** 2 / t[1] ** 3
    return d0, d1


def _k_locally_periodic(x, t):
    return _k_periodic(x, t) * np.exp(-x / t[2] ** 2)


def _g_locally_periodic(x, t, val):
    return (*_g_periodic(x, t, val), val * 2.0 * x / t[2] ** 3)


def _k_multiquadric(q, t):
    return np.sqrt(q + t[0] ** 2)


def _g_multiquadric(q, t, val):
    return (np.where(val > 0.0, t[0] / np.where(val > 0.0, val, 1.0), 0.0),)


def _k_inverse_multiquadric(x, t):
    return (t[0] ** 2 + t[1] ** 2 * x) ** -0.5


def _g_inverse_multiquadric(x, t, val):
    pw = (t[0] ** 2 + t[1] ** 2 * x) ** -1.5
    return -t[0] * pw, -t[1] * x * pw


def _k_power(x, t):
    return (t[0] ** 2 + x) ** t[1]


def _g_power(x, t, val):
    base = t[0] ** 2 + x
    d0 = t[1] * base ** (t[1] - 1.0) * 2.0 * t[0]
    d1 = val * np.log(base)  # val is base ** t[1]
    return d0, d1


def _k_cauchy(x, t):
    return 1.0 / (1.0 + x / t[0] ** 2)


def _g_cauchy(x, t, val):
    return (val * val * 2.0 * x / t[0] ** 3,)


def _k_rational(q, t):
    return 1.0 - q / (q + t[0] ** 2)


def _g_rational(q, t, val):
    return (2.0 * t[0] * q / (q + t[0] ** 2) ** 2,)


def _k_triangular(x, t):
    return np.maximum(0.0, 1.0 - x / t[0] ** 2)


def _g_triangular(x, t, val):
    return (np.where(x < t[0] ** 2, 2.0 * x / t[0] ** 3, 0.0),)


def _k_log(r, t):
    rt = np.maximum(r, EPS)
    return np.log1p(rt ** t[0])


def _g_log(r, t, val):
    rt = np.maximum(r, EPS)
    p = rt ** t[0]
    return (p * np.log(rt) / (p + 1.0),)


def _k_sigmoid(s, t):
    return np.tanh(t[0] * s + t[1])


def _g_sigmoid(s, t, val):
    sech2 = 1.0 - val * val
    return sech2 * s, sech2


def _k_bump(rq, t):
    # compactly supported circular bump; zero outside q < t34^2 and
    # wherever u = r / t34^2 leaves the real domain of the bracket
    r, q = rq
    w = t[0] ** 2
    u = r / w
    valid = (q < w) & (u <= 1.0)
    u = np.where(valid, u, 0.0)
    bracket = np.arccos(-u) - u * np.sqrt(1.0 - u * u)
    return np.where(valid, bracket, 0.0)


def _g_bump(rq, t, val):
    r, q = rq
    w = t[0] ** 2
    u = r / w
    interior = (q < w) & (u < 1.0)
    u = np.where(interior, u, 0.0)
    grad = -4.0 * u * u * r / (t[0] ** 3 * np.sqrt(1.0 - u * u))
    return (np.where(interior, grad, 0.0),)


# ---------------------------------------------------------------------------
# the dictionary table
# ---------------------------------------------------------------------------

# One record per term: its family's value and derivative functions; ``on``, the pair
# geometry they act on (s, r, q, or the pair "rq": the bump meets both, and takes the
# tuple (r, q) rather than recompute r = sqrt(q)); one geometry-scale rule, named as in
# training.geometry_scales, per theta slot it owns, in slot order (term i owns the
# len(scales) slots after term i-1's: the table is the one statement of the theta
# layout); ``psd``, True for the members the initialization does not damp (not a fact
# of the Grams: at default_init's theta on 15-dimensional windows, terms 2, 5, 6, 17 and
# 21 are indefinite too, PSD only for some theta); and the positions among its slots of
# the bare divisors that clamp_theta clamps.
Elemental = namedtuple("Elemental", "value grad on scales psd clamped", defaults=(True, ()))

DICTIONARY = (
    Elemental(_k_linear, _g_linear, "s", ("unit",)),  # s + t1^2
    Elemental(_k_polynomial, _g_polynomial, "s",
              ("inv_s", "unit", "unit")),  # (t2^2 s + t3^2)^|t4|
    Elemental(_k_gauss, _g_gauss, "q", ("sqrt_q",)),  # exp(-q / (2 t5^2))
    Elemental(_k_gauss, _g_gauss, "r", ("sqrt_r",)),  # exp(-r / (2 t6^2))
    Elemental(_k_locally_periodic, _g_locally_periodic, "q", ("period_q", "unit", "sqrt_q"),
              clamped=(0,)),  # exp(-sin^2(pi q/t7)/t8^2) exp(-q/t9^2)
    Elemental(_k_periodic, _g_periodic, "q", ("period_q", "unit"),
              clamped=(0,)),  # exp(-sin^2(pi q/t10)/t11^2)
    Elemental(_k_locally_periodic, _g_locally_periodic, "r", ("period_r", "unit", "sqrt_r"),
              clamped=(0,)),  # exp(-sin^2(pi r/t12)/t13^2) exp(-r/t14^2)
    Elemental(_k_periodic, _g_periodic, "r", ("period_r", "unit"),
              clamped=(0,)),  # exp(-sin^2(pi r/t15)/t16^2)
    Elemental(_k_multiquadric, _g_multiquadric, "q", ("sqrt_q",),
              psd=False),  # sqrt(q + t17^2)
    Elemental(_k_inverse_multiquadric, _g_inverse_multiquadric, "q",
              ("unit", "inv_sqrt_q")),  # (t18^2 + t19^2 q)^(-1/2)
    Elemental(_k_inverse_multiquadric, _g_inverse_multiquadric, "r",
              ("unit", "inv_sqrt_r")),  # (t20^2 + t21^2 r)^(-1/2)
    Elemental(_k_power, _g_power, "r", ("sqrt_r", "unit"), psd=False),  # (t22^2 + r)^t23
    Elemental(_k_power, _g_power, "q", ("sqrt_q", "unit"), psd=False),  # (t24^2 + q)^t25
    Elemental(_k_cauchy, _g_cauchy, "q", ("sqrt_q",), clamped=(0,)),  # (1 + (r/t26)^2)^(-1)
    Elemental(_k_cauchy, _g_cauchy, "r", ("sqrt_r",)),  # (1 + r/t27^2)^(-1)
    Elemental(_k_rational, _g_rational, "q", ("sqrt_q",)),  # 1 - q/(q + t28^2)
    Elemental(_k_triangular, _g_triangular, "q", ("support_q",)),  # max(0, 1 - q/t29^2)
    Elemental(_k_triangular, _g_triangular, "r", ("support_r",)),  # max(0, 1 - r/t30^2)
    Elemental(_k_log, _g_log, "r", ("unit",), psd=False),  # log(r^t31 + 1)
    Elemental(_k_sigmoid, _g_sigmoid, "s", ("inv_s", "unit"), psd=False),  # tanh(t32 s + t33)
    Elemental(_k_bump, _g_bump, "rq", ("support_r",)),  # circular bump with support q < t34^2
)

N_KERNELS = len(DICTIONARY)
#: the 0-based theta slots each term owns
SLOTS = tuple(range(end - len(e.scales), end)
              for e, end in zip(DICTIONARY, accumulate(len(e.scales) for e in DICTIONARY)))
N_THETA = SLOTS[-1].stop
# per term: its value and derivative functions, the getter of its geometry from
# (s, r, q) and its theta slice, so a block evaluation is one lookup and one view
_OPERANDS = tuple((e.value, e.grad, itemgetter(*map("srq".index, e.on)),
                   slice(slots.start, slots.stop)) for e, slots in zip(DICTIONARY, SLOTS))


# ---------------------------------------------------------------------------
# public evaluation API
# ---------------------------------------------------------------------------

def _check_finite(arr, index: int):
    if not np.all(np.isfinite(arr)):
        raise KernelEvalError(
            f"elemental kernel {index + 1} produced non-finite values "
            f"(check {', '.join(f'theta_{j + 1}' for j in SLOTS[index])})"
        )


def _eval_block(index: int, stats, theta) -> np.ndarray:
    """Elemental Gram block; the caller silences IEEE noise and checks the sum."""
    value, _, geometry, t = _OPERANDS[index]
    return value(geometry(stats), theta[t])


def _grad_blocks(index: int, stats, theta, block):
    """Theta-derivative blocks of one elemental (own slots, in order), given its value block."""
    _, grad, geometry, t = _OPERANDS[index]
    with np.errstate(all="ignore"):
        grads = grad(geometry(stats), theta[t], block)
    for block in grads:
        _check_finite(block, index)
    return grads


def _weighted_sum(shape, alpha, block):
    """Sum of alpha[i]**2 * block(i) over the nonzero weights, ascending i, checked once:
    a non-finite block makes the total non-finite (0 * inf is nan), and only then is it named."""
    active = [i for i in range(N_KERNELS) if alpha[i] != 0.0]
    total, term = np.zeros(shape), np.empty(shape)
    with np.errstate(all="ignore"):
        for i in active:
            total += np.multiply(alpha[i] * alpha[i], block(i), out=term)
        if np.all(np.isfinite(total)):
            return total
        for i in active:
            _check_finite(block(i), i)
    raise KernelEvalError("weighted kernel sum is non-finite (check the alpha scale)")


def _combine(params: KernelParams, stats):
    """Checked weighted sum of the active elementals on one tile's geometry."""
    return _weighted_sum(np.broadcast(stats[0], stats[2]).shape, params.alpha,
                         lambda i: _eval_block(i, stats, params.theta))


def _usable_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _run_tiles(tile, count: int) -> None:
    """tile(0..count-1), handed out in order to this thread and helpers on the usable cores
    (none in a pool worker or beside live ones).  A failure stops the hand-out after every
    earlier tile, so the first failing tile re-raises, as serially.  No helper outlives it."""
    tiles, lock, errors = iter(range(count)), threading.Lock(), {}

    def take():
        with lock:
            return None if errors else next(tiles, None)

    def work():
        with np.errstate(all="ignore"):  # errstate does not carry into a new thread
            for i in iter(take, None):
                try:
                    tile(i)
                except BaseException as exc:  # re-raised by the caller
                    errors[i] = exc

    serial = count < 2 or multiprocessing.parent_process() or multiprocessing.active_children()
    helpers = [] if serial else [threading.Thread(target=work)
                                 for _ in range(min(count, _usable_cores()) - 1)]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        for t in helpers:
            t.join()
    if errors:
        raise errors[min(errors)]


def _kernel_matrix(params: KernelParams, A, B=None, sq_b=None) -> np.ndarray:
    """k(A_i, B_j) in row tiles of about _TILE entries; if B is None, the Gram of A on and
    above the diagonal (below it, S is left as it is).  sq_b: B's squared row norms, if the
    caller has them.

    Each tile overwrites its own entries of S = A B' with their kernel values, so the
    result is S's buffer.  A tile reads and writes only its own rows of S (a Gram's tile
    only their columns from its diagonal on): no tile reads what another has written."""
    sym = B is None
    with np.errstate(all="ignore"):
        S = A @ (A if sym else B).T
        sq_a = np.diagonal(S).copy() if sym else (A * A).sum(axis=1)
        sq_b = sq_a if sym else (B * B).sum(axis=1) if sq_b is None else sq_b
        m, n = S.shape
        rows = [0]
        while rows[-1] < m:
            a = rows[-1]
            rows.append(min(m, a + max(1, _TILE // max(1, n - (a if sym else 0)))))

        def tile(t):
            a, b = rows[t], rows[t + 1]
            lo = a if sym else 0  # a Gram's tile covers S's upper triangle only
            S[a:b, lo:] = _combine(params, _pair_stats(S[a:b, lo:], sq_a[a:b], sq_b[lo:], sym))

        _run_tiles(tile, len(rows) - 1)
    return S


def gram(params: KernelParams, X) -> np.ndarray:
    """Combined-kernel Gram K of the n rows of X, packed: its upper triangle with the
    diagonal in row-major order, ``K[np.triu_indices(n)]``, what RidgeSystem takes, so
    ``kflow.RidgeSystem(kflow.gram(p, X), lambda1)`` is the fit's system.  _pack packs K
    from the one n x n buffer the tiles fill: a Gram peaks at 1.5 n^2 floats."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError(f"X must be a nonempty 2-d array, got shape {X.shape}")
    return _pack(_kernel_matrix(params, X))


def cross_gram(params: KernelParams, A, B) -> np.ndarray:
    """Rectangular kernel matrix k(A_i, B_j)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError(f"column mismatch: {A.shape} vs {B.shape}")
    return _kernel_matrix(params, A, B)


def clamp_theta(theta: np.ndarray) -> np.ndarray:
    """Project bare-divisor theta slots away from zero (|t| >= EPS)."""
    out = np.array(theta, dtype=float)
    for j in (slots[k] for e, slots in zip(DICTIONARY, SLOTS) for k in e.clamped):
        if abs(out[j]) < EPS:
            out[j] = EPS if out[j] >= 0.0 else -EPS
    return out
