"""Weighted dictionary of 21 elemental kernels.

The combined kernel is

    k(x, y) = sum_i  alpha_i**2 * k_i(x, y; theta)

with 21 elemental terms k_i drawing on 34 intrinsic parameters theta.
Every elemental is a function of the pair geometry only: the inner
product ``s = x.y``, the Euclidean distance ``r = ||x - y||`` and its
square ``q = r**2``.  Every evaluation (``gram``, ``cross_gram``, and the
scalar entry points as 1x1 ``cross_gram`` calls) computes (s, r, q) once
per pair and evaluates the active terms on those arrays through one
checked block evaluator.

Weights enter squared, so a combination is nonnegative whenever its
terms are, and ``alpha_i == 0`` removes term i exactly (the elemental
is never evaluated, so a zeroed term cannot raise).

Domain guards
-------------
Two elementals are clamped so they stay defined on the whole data
domain during gradient-based optimization:

* term 2, ``(t2^2 s + t3^2) ** |t4|``: the base is floored at ``EPS``
  (a negative base under a real exponent has no real value);
* term 19, ``log(r**t31 + 1)``: the distance is floored at ``EPS``
  before exponentiation (negative t31 would be singular at r = 0);
* term 21 returns 0 wherever its arccos/sqrt argument leaves [-1, 1],
  i.e. outside the region where the bracket is real-valued.

Everything else that produces a non-finite entry (for example t7 = 0
inside the sin of term 5) raises :class:`KernelEvalError` naming the
owning theta slots, and a weighted sum that overflows raises it too.
IEEE warnings are silenced: these checks report instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_KERNELS = 21
N_THETA = 34

#: floor used for clamped power bases and for bare divisors re-projected
#: by the optimizer
EPS = 1e-8

# contiguous theta block owned by each elemental, 0-based half-open
THETA_SLICES = (
    (0, 1),    # 1: s + t1^2
    (1, 4),    # 2: (t2^2 s + t3^2)^|t4|
    (4, 5),    # 3: exp(-q / (2 t5^2))
    (5, 6),    # 4: exp(-r / (2 t6^2))
    (6, 9),    # 5: exp(-sin^2(pi q/t7)/t8^2) exp(-q/t9^2)
    (9, 11),   # 6: exp(-sin^2(pi q/t10)/t11^2)
    (11, 14),  # 7: exp(-sin^2(pi r/t12)/t13^2) exp(-r/t14^2)
    (14, 16),  # 8: exp(-sin^2(pi r/t15)/t16^2)
    (16, 17),  # 9: sqrt(q + t17^2)
    (17, 19),  # 10: (t18^2 + t19^2 q)^(-1/2)
    (19, 21),  # 11: (t20^2 + t21^2 r)^(-1/2)
    (21, 23),  # 12: (t22^2 + r)^t23
    (23, 25),  # 13: (t24^2 + q)^t25
    (25, 26),  # 14: (1 + (r/t26)^2)^(-1)
    (26, 27),  # 15: (1 + r/t27^2)^(-1)
    (27, 28),  # 16: 1 - q/(q + t28^2)
    (28, 29),  # 17: max(0, 1 - q/t29^2)
    (29, 30),  # 18: max(0, 1 - r/t30^2)
    (30, 31),  # 19: log(r^t31 + 1)
    (31, 33),  # 20: tanh(t32 s + t33)
    (33, 34),  # 21: circular bump with support q < t34^2
)

# theta slots used as bare divisors; the optimizer projects these away
# from zero after every gradient step (0-based: t7, t10, t12, t15, t26)
CLAMPED_THETA_SLOTS = (6, 9, 11, 14, 25)

# elementals whose Gram is positive semidefinite for generic parameter
# values (term 2 additionally needs an integer exponent).  Terms 9, 12,
# 13, 19 and 20 are excluded: they are useful regressor features but
# not PSD in general.
PSD_KERNEL_IDS = (1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 14, 15, 16, 17, 18, 21)


class KernelEvalError(ValueError):
    """A kernel evaluation produced a non-finite value or got bad input."""


def theta_slice(kernel_id: int) -> slice:
    """Half-open slice of theta owned by elemental ``kernel_id`` (1-based)."""
    if not 1 <= kernel_id <= N_KERNELS:
        raise KernelEvalError(f"kernel id must be in 1..{N_KERNELS}, got {kernel_id}")
    lo, hi = THETA_SLICES[kernel_id - 1]
    return slice(lo, hi)


def _slot_names(kernel_id: int) -> str:
    lo, hi = THETA_SLICES[kernel_id - 1]
    return ", ".join(f"theta_{j + 1}" for j in range(lo, hi))


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
            raise KernelEvalError(f"alpha must have shape ({N_KERNELS},), got {alpha.shape}")
        if theta.shape != (N_THETA,):
            raise KernelEvalError(f"theta must have shape ({N_THETA},), got {theta.shape}")
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

    @classmethod
    def random(cls, rng: np.random.Generator) -> "KernelParams":
        """Random initialization: alpha ~ U(0.5, 1), theta ~ U(0.5, 1.5)."""
        return cls(rng.uniform(0.5, 1.0, N_KERNELS), rng.uniform(0.5, 1.5, N_THETA))

    def to_dict(self) -> dict:
        return {"alpha": self.alpha.tolist(), "theta": self.theta.tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> "KernelParams":
        return cls(np.asarray(doc["alpha"], dtype=float), np.asarray(doc["theta"], dtype=float))


# ---------------------------------------------------------------------------
# pair geometry
# ---------------------------------------------------------------------------

def _self_stats(X):
    """(s, r, q) arrays for all pairs of rows of X, exactly symmetric.

    The inner-product matrix is mirrored from its upper triangle so that
    every derived quantity (and hence every Gram) is symmetric bitwise,
    not merely to rounding.
    """
    X = np.asarray(X, dtype=float)
    with np.errstate(all="ignore"):
        S = X @ X.T
        S = np.triu(S) + np.triu(S, 1).T
        sq = np.diagonal(S).copy()
        Q = sq[:, None] + sq[None, :] - 2.0 * S
        np.maximum(Q, 0.0, out=Q)
        np.fill_diagonal(Q, 0.0)
        return S, np.sqrt(Q), Q


def _cross_stats(A, B):
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    with np.errstate(all="ignore"):
        S = A @ B.T
        Q = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * S
        np.maximum(Q, 0.0, out=Q)
        return S, np.sqrt(Q), Q


# ---------------------------------------------------------------------------
# elemental values
#
# Each _kN takes the pair-geometry arrays (s, r, q) plus the full theta
# vector and returns the elemental Gram block; shapes broadcast.
# ---------------------------------------------------------------------------

def _k1(s, r, q, t):
    return s + t[0] ** 2


def _k2(s, r, q, t):
    base = np.maximum(t[1] ** 2 * s + t[2] ** 2, EPS)
    return base ** abs(t[3])


def _k3(s, r, q, t):
    return np.exp(-q / (2.0 * t[4] ** 2))


def _k4(s, r, q, t):
    return np.exp(-r / (2.0 * t[5] ** 2))


def _k5(s, r, q, t):
    phase = np.sin(np.pi * q / t[6]) ** 2
    return np.exp(-phase / t[7] ** 2) * np.exp(-q / t[8] ** 2)


def _k6(s, r, q, t):
    phase = np.sin(np.pi * q / t[9]) ** 2
    return np.exp(-phase / t[10] ** 2)


def _k7(s, r, q, t):
    phase = np.sin(np.pi * r / t[11]) ** 2
    return np.exp(-phase / t[12] ** 2) * np.exp(-r / t[13] ** 2)


def _k8(s, r, q, t):
    phase = np.sin(np.pi * r / t[14]) ** 2
    return np.exp(-phase / t[15] ** 2)


def _k9(s, r, q, t):
    return np.sqrt(q + t[16] ** 2)


def _k10(s, r, q, t):
    return (t[17] ** 2 + t[18] ** 2 * q) ** -0.5


def _k11(s, r, q, t):
    return (t[19] ** 2 + t[20] ** 2 * r) ** -0.5


def _k12(s, r, q, t):
    return (t[21] ** 2 + r) ** t[22]


def _k13(s, r, q, t):
    return (t[23] ** 2 + q) ** t[24]


def _k14(s, r, q, t):
    return 1.0 / (1.0 + q / t[25] ** 2)


def _k15(s, r, q, t):
    return 1.0 / (1.0 + r / t[26] ** 2)


def _k16(s, r, q, t):
    return 1.0 - q / (q + t[27] ** 2)


def _k17(s, r, q, t):
    return np.maximum(0.0, 1.0 - q / t[28] ** 2)


def _k18(s, r, q, t):
    return np.maximum(0.0, 1.0 - r / t[29] ** 2)


def _k19(s, r, q, t):
    rt = np.maximum(r, EPS)
    return np.log1p(rt ** t[30])


def _k20(s, r, q, t):
    return np.tanh(t[31] * s + t[32])


def _k21(s, r, q, t):
    # compactly supported circular bump; zero outside q < t34^2 and
    # wherever u = r / t34^2 leaves the real domain of the bracket
    w = t[33] ** 2
    u = r / w
    valid = (q < w) & (u <= 1.0)
    u = np.where(valid, u, 0.0)
    bracket = np.arccos(-u) - u * np.sqrt(1.0 - u * u)
    return np.where(valid, bracket, 0.0)


ELEMENTALS = (_k1, _k2, _k3, _k4, _k5, _k6, _k7, _k8, _k9, _k10, _k11,
              _k12, _k13, _k14, _k15, _k16, _k17, _k18, _k19, _k20, _k21)


# ---------------------------------------------------------------------------
# elemental theta-gradients
#
# _gN returns one array per owned theta slot, in slot order.  At kink
# points (support boundaries of terms 17/18/21, the |t4| kink at t4 = 0,
# clamped regions of terms 2/19) the gradient is the one-sided limit
# from the interior, with 0 exactly on the boundary.
# ---------------------------------------------------------------------------

def _g1(s, r, q, t):
    return (np.full_like(np.asarray(s, dtype=float), 2.0 * t[0]),)


def _g2(s, r, q, t):
    raw = t[1] ** 2 * s + t[2] ** 2
    base = np.maximum(raw, EPS)
    e = abs(t[3])
    interior = raw > EPS
    powm1 = base ** (e - 1.0)
    d2 = np.where(interior, powm1 * e * 2.0 * t[1] * s, 0.0)
    d3 = np.where(interior, powm1 * e * 2.0 * t[2], 0.0)
    d4 = base ** e * np.log(base) * np.sign(t[3])
    return d2, d3, d4


def _g3(s, r, q, t):
    return (_k3(s, r, q, t) * q / t[4] ** 3,)


def _g4(s, r, q, t):
    return (_k4(s, r, q, t) * r / t[5] ** 3,)


def _g5(s, r, q, t):
    val = _k5(s, r, q, t)
    arg = np.pi * q / t[6]
    d7 = val * np.sin(2.0 * arg) * np.pi * q / (t[6] ** 2 * t[7] ** 2)
    d8 = val * 2.0 * np.sin(arg) ** 2 / t[7] ** 3
    d9 = val * 2.0 * q / t[8] ** 3
    return d7, d8, d9


def _g6(s, r, q, t):
    val = _k6(s, r, q, t)
    arg = np.pi * q / t[9]
    d10 = val * np.sin(2.0 * arg) * np.pi * q / (t[9] ** 2 * t[10] ** 2)
    d11 = val * 2.0 * np.sin(arg) ** 2 / t[10] ** 3
    return d10, d11


def _g7(s, r, q, t):
    val = _k7(s, r, q, t)
    arg = np.pi * r / t[11]
    d12 = val * np.sin(2.0 * arg) * np.pi * r / (t[11] ** 2 * t[12] ** 2)
    d13 = val * 2.0 * np.sin(arg) ** 2 / t[12] ** 3
    d14 = val * 2.0 * r / t[13] ** 3
    return d12, d13, d14


def _g8(s, r, q, t):
    val = _k8(s, r, q, t)
    arg = np.pi * r / t[14]
    d15 = val * np.sin(2.0 * arg) * np.pi * r / (t[14] ** 2 * t[15] ** 2)
    d16 = val * 2.0 * np.sin(arg) ** 2 / t[15] ** 3
    return d15, d16


def _g9(s, r, q, t):
    val = _k9(s, r, q, t)
    return (np.where(val > 0.0, t[16] / np.where(val > 0.0, val, 1.0), 0.0),)


def _g10(s, r, q, t):
    pw = (t[17] ** 2 + t[18] ** 2 * q) ** -1.5
    return -t[17] * pw, -t[18] * q * pw


def _g11(s, r, q, t):
    pw = (t[19] ** 2 + t[20] ** 2 * r) ** -1.5
    return -t[19] * pw, -t[20] * r * pw


def _g12(s, r, q, t):
    base = t[21] ** 2 + r
    d22 = t[22] * base ** (t[22] - 1.0) * 2.0 * t[21]
    d23 = base ** t[22] * np.log(base)
    return d22, d23


def _g13(s, r, q, t):
    base = t[23] ** 2 + q
    d24 = t[24] * base ** (t[24] - 1.0) * 2.0 * t[23]
    d25 = base ** t[24] * np.log(base)
    return d24, d25


def _g14(s, r, q, t):
    val = _k14(s, r, q, t)
    return (val * val * 2.0 * q / t[25] ** 3,)


def _g15(s, r, q, t):
    val = _k15(s, r, q, t)
    return (val * val * 2.0 * r / t[26] ** 3,)


def _g16(s, r, q, t):
    return (2.0 * t[27] * q / (q + t[27] ** 2) ** 2,)


def _g17(s, r, q, t):
    return (np.where(q < t[28] ** 2, 2.0 * q / t[28] ** 3, 0.0),)


def _g18(s, r, q, t):
    return (np.where(r < t[29] ** 2, 2.0 * r / t[29] ** 3, 0.0),)


def _g19(s, r, q, t):
    rt = np.maximum(r, EPS)
    p = rt ** t[30]
    return (p * np.log(rt) / (p + 1.0),)


def _g20(s, r, q, t):
    val = _k20(s, r, q, t)
    sech2 = 1.0 - val * val
    return sech2 * s, sech2


def _g21(s, r, q, t):
    w = t[33] ** 2
    u = r / w
    interior = (q < w) & (u < 1.0)
    u = np.where(interior, u, 0.0)
    grad = -4.0 * u * u * r / (t[33] ** 3 * np.sqrt(1.0 - u * u))
    return (np.where(interior, grad, 0.0),)


ELEMENTAL_GRADS = (_g1, _g2, _g3, _g4, _g5, _g6, _g7, _g8, _g9, _g10, _g11,
                   _g12, _g13, _g14, _g15, _g16, _g17, _g18, _g19, _g20, _g21)


# ---------------------------------------------------------------------------
# public evaluation API
# ---------------------------------------------------------------------------

def _check_finite(arr, kernel_id):
    if not np.all(np.isfinite(arr)):
        raise KernelEvalError(
            f"elemental kernel {kernel_id} produced non-finite values "
            f"(check {_slot_names(kernel_id)})"
        )


def _eval_block(index: int, stats, theta) -> np.ndarray:
    """Elemental Gram block, silencing IEEE noise; finiteness is checked."""
    with np.errstate(all="ignore"):
        block = ELEMENTALS[index](*stats, theta)
    _check_finite(block, index + 1)
    return block


def _grad_blocks(index: int, stats, theta):
    """Theta-derivative blocks of one elemental (own slots, in order)."""
    with np.errstate(all="ignore"):
        grads = ELEMENTAL_GRADS[index](*stats, theta)
    for block in grads:
        _check_finite(block, index + 1)
    return grads


def _combine(params: KernelParams, stats):
    total = np.zeros(np.broadcast(stats[0], stats[2]).shape)
    with np.errstate(all="ignore"):
        for i in np.flatnonzero(params.active_mask):
            a = params.alpha[i]
            total += (a * a) * _eval_block(i, stats, params.theta)
    if not np.all(np.isfinite(total)):
        raise KernelEvalError("weighted kernel sum is non-finite (check the alpha scale)")
    return total


def gram(params: KernelParams, X) -> np.ndarray:
    """Combined-kernel Gram matrix of the rows of X (exactly symmetric)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise KernelEvalError(f"X must be a nonempty 2-d array, got shape {X.shape}")
    return _combine(params, _self_stats(X))


def cross_gram(params: KernelParams, A, B) -> np.ndarray:
    """Rectangular kernel matrix k(A_i, B_j); cross_gram(X, X) == gram(X)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise KernelEvalError(f"column mismatch: {A.shape} vs {B.shape}")
    if A.shape == B.shape and np.array_equal(A, B):
        return gram(params, A)
    return _combine(params, _cross_stats(A, B))


def eval_elemental(kernel_id: int, x, y, theta) -> float:
    """Evaluate a single elemental kernel at one pair of points."""
    theta_slice(kernel_id)  # rejects an id outside 1..N_KERNELS
    alpha = np.zeros(N_KERNELS)
    alpha[kernel_id - 1] = 1.0
    return eval_combined(KernelParams(alpha, theta), x, y)


def eval_combined(params: KernelParams, x, y) -> float:
    """Weighted sum of active elementals at one pair of points."""
    return float(cross_gram(params, np.reshape(x, (1, -1)), np.reshape(y, (1, -1)))[0, 0])


def clamp_theta(theta: np.ndarray) -> np.ndarray:
    """Project bare-divisor theta slots away from zero (|t| >= EPS)."""
    out = np.array(theta, dtype=float)
    for j in CLAMPED_THETA_SLOTS:
        if abs(out[j]) < EPS:
            out[j] = EPS if out[j] >= 0.0 else -EPS
    return out
