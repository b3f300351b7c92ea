"""Halved-subset relative loss for kernel learning, and its gradient.

Batch c is a subset of batch b's rows, given as row positions ``sub``
into (X, Y).  The loss compares the regularized RKHS norms of the
interpolants fitted on each batch through the ratio of quadratic forms

    rho = 1 - qf(X[sub], Y[sub]) / qf(X, Y),
    qf(X, Y) = sum_j  Y_j' (K(X, X) + lambda1 I)^{-1} Y_j

(a sum over output columns for multi-output Y).  Shrinking the batch
should not lose much accuracy under a good kernel, so small rho is
good.  Sparse training adds an l1 penalty lambda2 * ||alpha||_1 on the
dictionary weights; that term is handled by the optimizer's proximal
step, so the gradient here is of the smooth part rho only.

:func:`_nested_eval` is the one entry point, for the value and the
gradient alike, on the :class:`_Batch` that ``train`` builds once per
epoch.  Batch c's Gram is K[sub, sub], gathered from b's packed triangle,
and c's gradient folds into b's, so every block is evaluated on b's packed
upper triangle (with its diagonal) only, with the Gram's geometry and
packing routine: K is bitwise :func:`kernels.gram` of b.
:class:`RidgeSystem` takes packed triangles, factorizes K + lambda1 I once
per batch in one n x n buffer and verifies every solve by its residual
against the triangle, with scipy's compiled LAPACK and BLAS, bound without
the costly scipy.linalg import.  An epoch's three evaluations reuse the
batch's geometry, and its blocks while theta is bitwise unchanged; K is
summed in ascending term order either way, so reuse is bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (N_KERNELS, N_THETA, SLOTS, KernelParams, NumericalError, _eval_block,
                      _grad_blocks, _linalg_routines, _pack, _packed_index, _packed_stats,
                      _weighted_sum)

SOLVE_RESIDUAL_TOL = 1e-8

# RidgeSystem mirrors its lower triangle into the upper one in column blocks of this width
# (no n x n temporary); the mask selects a diagonal block's strict upper triangle
_MIRROR_COLS = 64
_MIRROR_MASK = np.triu(np.ones((_MIRROR_COLS, _MIRROR_COLS), dtype=bool), 1)
_MIRROR_MASK.flags.writeable = False

_potrf, _potrs, _getrf, _getrs, _tpttr = _linalg_routines(
    "_flapack", "potrf", "potrs", "getrf", "getrs", "tpttr")
_nrm2, _spmv = _linalg_routines("_fblas", "nrm2", "spmv")  # nrm2 is scaled: no under/overflow


class FactorizationError(NumericalError, np.linalg.LinAlgError):
    """The shifted Gram could not be factorized or solved reliably."""


class DegenerateBatchError(NumericalError, ValueError):
    """The denominator quadratic form vanishes, so the loss ratio is undefined."""


class RidgeSystem:
    """Factorized solve handle for (K + lambda1 * I), K symmetric, given packed.

    ``packed`` is K's upper triangle with its diagonal in row-major order
    (``K[np.triu_indices(n)]``, :func:`kernels._pack`'s order, what
    :func:`kernels.gram` returns), which is the column-major lower triangle
    LAPACK's packed routines take.  The handle holds that triangle,
    unwritten, for the residual checks (spmv), and one column-major n x n
    buffer: the triangle unpacked into it (tpttr) and shifted, then
    factorized in place by Cholesky; when Cholesky stops (non-PSD
    dictionary members make the system indefinite), the buffer is unpacked
    again, mirrored to full and factorized by LU with partial pivoting.
    So a system costs 1.5 n^2 floats.  Every solve is residual-checked to
    SOLVE_RESIDUAL_TOL, the check's own rounding included; a failed check
    raises :class:`FactorizationError` and allocates nothing of the
    system's size.
    """

    def __init__(self, packed: np.ndarray, lambda1: float):
        packed = np.asarray(packed, dtype=float)
        n = (math.isqrt(8 * packed.size + 1) - 1) // 2
        if packed.ndim != 1 or n < 1 or n * (n + 1) // 2 != packed.size:
            raise ValueError(f"gram must be a packed triangle of n(n+1)/2 entries, "
                             f"got shape {packed.shape}")
        if not 0.0 <= lambda1 < np.inf:
            raise ValueError(f"lambda1 must be finite and nonnegative, got {lambda1}")
        if not np.all(np.isfinite(packed)):
            raise FactorizationError("gram contains non-finite entries")
        self.lambda1 = float(lambda1)
        self.n = n
        self._packed = packed
        self._factors, info = _potrf(self._shifted(), lower=1, clean=0, overwrite_a=1)
        self._pivots = None  # None: Cholesky factors; else LU row pivots
        if info != 0:
            # not positive definite, and potrf stopped part-way: rebuild in the buffer's place
            self._factors = None
            self._factors, self._pivots, info = _getrf(self._shifted(full=True), overwrite_a=1)
            if info != 0:
                # info > 0 is an exactly zero pivot: the matrix is singular
                raise FactorizationError(f"LU factorization failed (getrf info={info})")

    def _shifted(self, full: bool = False) -> np.ndarray:
        """A := K + lambda1 I, column-major: its lower triangle, or all of it if full."""
        A, _ = _tpttr(self.n, self._packed, uplo="L")
        A.flat[::self.n + 1] += self.lambda1
        if full:
            for a in range(0, self.n, _MIRROR_COLS):
                b = min(self.n, a + _MIRROR_COLS)
                A[a:b, b:] = A[b:, a:b].T
                head = A[a:b, a:b]
                np.copyto(head, head.T.copy(), where=_MIRROR_MASK[:b - a, :b - a])
        return A

    def _solve_factored(self, rhs: np.ndarray) -> np.ndarray:
        if self._pivots is None:
            X, info = _potrs(self._factors, rhs, lower=1)
        else:
            X, info = _getrs(self._factors, self._pivots, rhs)
        if info != 0:
            raise FactorizationError(f"triangular solve failed (info={info})")
        return X

    def solve(self, B: np.ndarray) -> np.ndarray:
        """Solve (K + lambda1 I) X = B, residual-checked.

        Up to two rounds of iterative refinement recover the residual
        tolerance on ill-conditioned (heavily scaled) systems before the
        solve is declared unreliable.
        """
        B = np.asarray(B, dtype=float)
        if B.ndim not in (1, 2) or B.shape[0] != self.n:
            raise ValueError(f"right-hand side of shape {B.shape} does not fit "
                             f"the system of shape {(self.n, self.n)}")
        vec = B.ndim == 1
        rhs = B[:, None] if vec else B
        if not np.any(rhs):  # X = 0 exactly; LAPACK also rejects empty operands
            return np.zeros(B.shape)
        X = self._solve_factored(rhs)
        norm_b = _nrm2(rhs.ravel())
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite X fails the check
            for refined in range(3):  # a refinement only where a check follows it
                KX = np.column_stack([_spmv(self.n, 1.0, self._packed, x, lower=1) for x in X.T])
                r = rhs - (KX + self.lambda1 * X)
                residual = _nrm2(r.ravel()) / norm_b
                if residual <= SOLVE_RESIDUAL_TOL or not np.isfinite(residual) or refined == 2:
                    break
                X = X + self._solve_factored(r)
        if not residual <= SOLVE_RESIDUAL_TOL:
            message = (f"solve residual {residual:.3e} exceeds {SOLVE_RESIDUAL_TOL:.0e} "
                       "(system near-singular)" if np.isfinite(residual) else
                       "solve overflowed: the solution or its residual is not finite")
            raise FactorizationError(message)
        # the check is only as exact as its products, whose rounding is about eps ||K|| ||X||
        # (eps = 2^-52): above the tolerance, a passed check proves nothing
        rounding = 2.0 ** -52 * (_nrm2(self._packed) + self.lambda1) * _nrm2(X.ravel()) / norm_b
        if not rounding <= SOLVE_RESIDUAL_TOL:
            raise FactorizationError(f"solve residual cannot be told from its rounding error "
                                     f"{rounding:.3e} (system near-singular)")
        return X[:, 0] if vec else X


@dataclass(frozen=True)
class LossBreakdown:
    """One loss evaluation split into its parts (total = rho + l1)."""

    rho: float
    l1_penalty: float
    total: float
    numerator_qf: float
    denominator_qf: float


# ---------------------------------------------------------------------------
# gradient machinery
#
# d qf / dp = -W' (dK/dp) W with W = (K + lambda1 I)^{-1} Y.  Batch c is
# a row subset of b (E scatters its rows into b's), so by the quotient
# rule both gradients take one matrix
#     M = (qf_c / qf_b^2) W_b W_b' - E W_c W_c' E' / qf_b
# and d rho / d alpha_i = -2 alpha_i <B_i, M>, d rho / d theta_j =
# -alpha_i^2 <dB_i/d theta_j, M>, with B_i the elemental blocks of b.
# B_i and M are symmetric (numpy forms W W' by syrk), so <B_i, M> is the
# dot of B_i's packed upper triangle with M's, off-diagonal entries doubled.
# ---------------------------------------------------------------------------

class _Batch:
    """One epoch's batch b = (X, Y) and its half c, the rows ``sub``, checked once: b's
    packed pair geometry, c's positions in b's packed triangle, and the value blocks of the
    theta (its bytes) it was last evaluated at, reused while theta is bitwise unchanged."""

    def __init__(self, X, Y, sub):
        Y = np.asarray(Y, dtype=float)
        self.Y = Y[:, None] if Y.ndim == 1 else Y
        n = len(X)
        if n != self.Y.shape[0]:
            raise ValueError(f"X has {n} rows but Y has {self.Y.shape[0]}")
        sub = np.asarray(sub)
        if (sub.ndim != 1 or sub.size == 0 or not np.issubdtype(sub.dtype, np.integer)
                or sub.min() < 0 or sub.max() >= n or np.unique(sub).size != sub.size):
            raise ValueError(f"sub must be a non-empty 1-d array of distinct row positions "
                             f"in [0, {n}), got {sub}")
        self.sub = sub
        self.stats = _packed_stats(X)
        # c's (i, j), i <= j, in _pack's order is K's (sub[i], sub[j]) in either order
        i, j = np.triu_indices(sub.size)
        self.sub_packed = _packed_index(np.minimum(sub[i], sub[j]), np.maximum(sub[i], sub[j]), n)
        self.theta, self.blocks = None, {}


def _nested_eval(params: KernelParams, batch: _Batch, lambda1: float,
                 wrt_alpha: bool = False, wrt_theta: bool = False):
    """rho, the two quadratic forms and (optionally) gradient parts on one batch.

    Returns (rho, qf_c, qf_b, grad_alpha | None, grad_theta | None);
    inactive slots get exact zeros.  An indefinite parameter draw makes
    the quadratic forms sign-free while the ratio and its gradient stay
    well defined, so only a vanishing denominator is degenerate.
    """
    stats, alpha, theta = batch.stats, params.alpha, params.theta
    # the batch holds the last theta's blocks until K solves: freed earlier, they move peak RSS
    old = batch.blocks if batch.theta == theta.tobytes() else {}
    blocks = {}

    def block(i):  # kept for the gradient and for the next call on this batch
        blocks[i] = old[i] if i in old else _eval_block(i, stats, theta)
        return blocks[i]

    K = _weighted_sum(stats[0].shape, alpha, block)  # packed, never unpacked
    W = RidgeSystem(K, lambda1).solve(batch.Y)
    qf_b = float(np.sum(batch.Y * W))
    if abs(qf_b) < 1e-12:
        raise DegenerateBatchError(f"denominator quadratic form is {qf_b:.3e}; ratio is undefined")
    batch.theta, batch.blocks = theta.tobytes(), blocks
    sub = batch.sub
    Yc = batch.Y[sub]
    Wc = RidgeSystem(np.take(K, batch.sub_packed), lambda1).solve(Yc)
    qf_c = float(np.sum(Yc * Wc))
    r = 1.0 - qf_c / qf_b
    if not (wrt_alpha or wrt_theta):
        return r, qf_c, qf_b, None, None
    M = (qf_c / (qf_b * qf_b)) * (W @ W.T)
    M[np.ix_(sub, sub)] -= (Wc @ Wc.T) / qf_b
    w = 2.0 * M
    np.fill_diagonal(w, np.diagonal(M))
    w = _pack(w)
    ga = np.zeros(N_KERNELS) if wrt_alpha else None
    gt = np.zeros(N_THETA) if wrt_theta else None
    for i, value in blocks.items():
        if wrt_alpha:
            ga[i] = -2.0 * alpha[i] * np.dot(value, w)
        if wrt_theta:
            for j, grad in zip(SLOTS[i], _grad_blocks(i, stats, theta, value)):
                gt[j] = -(alpha[i] ** 2) * np.dot(grad, w)
    return r, qf_c, qf_b, ga, gt
