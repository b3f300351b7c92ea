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
step, so :func:`grad_loss` differentiates the smooth part only.

The public ops and the training loop share one path: :func:`_nested_eval`
builds one :class:`_BatchTerms` for batch b; batch c's Gram is its
submatrix K[sub, sub], and c's gradient folds into b's, so every block
is evaluated on b only.  :class:`RidgeSystem` factorizes K + lambda1 I
once per batch and verifies every solve by its residual.

An epoch's three calls share one batch and hand b's terms on: pair
geometry is always reused, elemental blocks only while theta is bitwise
unchanged (alpha-step to logged loss).  K is still summed in ascending
term order, so reuse is bit-identical to evaluating afresh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from .kernels import (
    N_KERNELS,
    N_THETA,
    THETA_SLICES,
    KernelParams,
    _eval_block,
    _grad_blocks,
    _self_stats,
    _weighted_sum,
)

SOLVE_RESIDUAL_TOL = 1e-8

_lange, _potrf, _potrs, _pocon, _getrf, _getrs, _gecon = get_lapack_funcs(
    ("lange", "potrf", "potrs", "pocon", "getrf", "getrs", "gecon"), dtype=np.float64)
_nrm2, = get_blas_funcs(("nrm2",), dtype=np.float64)  # scaled: squares never under/overflow


class FactorizationError(np.linalg.LinAlgError):
    """The shifted Gram could not be factorized or solved reliably."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class DegenerateBatchError(ValueError):
    """The denominator quadratic form is not positive."""


class RidgeSystem:
    """Factorized solve handle for (gram + lambda1 * I).

    Cholesky first, else LU with partial pivoting (non-PSD dictionary
    members make the system indefinite), in place on one private copy.
    Every solve is residual-checked to SOLVE_RESIDUAL_TOL against the
    caller's gram, which must stay unwritten; a failed check raises
    :class:`FactorizationError` carrying a condition estimate.
    """

    def __init__(self, gram: np.ndarray, lambda1: float):
        gram = np.asarray(gram, dtype=float)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ValueError(f"gram must be square, got {gram.shape}")
        if lambda1 < 0:
            raise ValueError(f"lambda1 must be nonnegative, got {lambda1}")
        if not np.all(np.isfinite(gram)):
            raise FactorizationError("gram contains non-finite entries")
        self.lambda1 = float(lambda1)
        self._gram = gram
        A = np.array(gram, order="F")  # LAPACK's layout, so the factors overwrite it
        A[np.diag_indices_from(A)] += self.lambda1
        self._anorm = _lange("1", A)
        self._factors, info = _potrf(A, lower=1, clean=0, overwrite_a=1)
        self._pivots = None  # None: Cholesky factors; else LU row pivots
        if info != 0:
            # not positive definite, and potrf stopped part-way through A: rebuild it
            np.copyto(A, gram)
            A[np.diag_indices_from(A)] += self.lambda1
            self._factors, self._pivots, info = _getrf(A, overwrite_a=1)
            if info != 0:
                # info > 0 is an exactly zero pivot: the matrix is singular
                raise FactorizationError(f"LU factorization failed (getrf info={info})",
                                         condition=np.inf)

    @property
    def n(self) -> int:
        return self._gram.shape[0]

    def _condition(self) -> float:
        """1-norm condition estimate (pocon/gecon) from the factors in hand.

        They are scaled to ||A||_1 = 1 first, so the inverse's norm of a
        tiny (subnormal) system cannot overflow and read as singular.
        """
        if self._pivots is None:
            rcond, _ = _pocon(self._factors / np.sqrt(self._anorm), 1.0, uplo="L")
        else:  # A = PLU with unit L: only U scales
            U = np.triu(self._factors) / self._anorm
            rcond, _ = _gecon(U + np.tril(self._factors, -1), 1.0, norm="1")
        return 1.0 / rcond if rcond > 0.0 else np.inf

    def _solve_factored(self, rhs: np.ndarray) -> np.ndarray:
        if self._pivots is None:
            X, info = _potrs(self._factors, rhs, lower=1)
        else:
            X, info = _getrs(self._factors, self._pivots, rhs)
        if info != 0:
            raise FactorizationError(f"triangular solve failed (info={info})")
        return X

    def solve(self, B: np.ndarray) -> np.ndarray:
        """Solve (gram + lambda1 I) X = B, residual-checked.

        Up to two rounds of iterative refinement recover the residual
        tolerance on ill-conditioned (heavily scaled) systems before the
        solve is declared unreliable.
        """
        B = np.asarray(B, dtype=float)
        if B.ndim not in (1, 2) or B.shape[0] != self.n:
            raise ValueError(f"right-hand side of shape {B.shape} does not fit "
                             f"the system of shape {self._gram.shape}")
        vec = B.ndim == 1
        rhs = B[:, None] if vec else B
        if not np.any(rhs):  # X = 0 exactly; LAPACK also rejects empty operands
            return np.zeros(B.shape)
        X = self._solve_factored(rhs)
        norm_b = _nrm2(rhs.ravel())
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite X fails the check
            for _ in range(3):
                r = rhs - (self._gram @ X + self.lambda1 * X)
                residual = _nrm2(r.ravel()) / norm_b
                if residual <= SOLVE_RESIDUAL_TOL or not np.isfinite(residual):
                    break
                X = X + self._solve_factored(r)
        if not residual <= SOLVE_RESIDUAL_TOL:
            message = (f"solve residual {residual:.3e} exceeds {SOLVE_RESIDUAL_TOL:.0e} "
                       "(system near-singular)" if np.isfinite(residual) else
                       "solve overflowed: the solution or its residual is not finite")
            raise FactorizationError(message, condition=self._condition())
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
# ---------------------------------------------------------------------------

class _BatchTerms:
    """Batch b's quantities shared by the loss value and its gradient."""

    def __init__(self, params: KernelParams, X, Y, lambda1: float,
                 prev: _BatchTerms | None = None):
        self.params = params
        Y = np.asarray(Y, dtype=float)
        self.Y = Y[:, None] if Y.ndim == 1 else Y
        self.stats = _self_stats(np.asarray(X, dtype=float)) if prev is None else prev.stats
        n = self.stats[0].shape[0]
        if n != self.Y.shape[0]:
            raise ValueError(f"X has {n} rows but Y has {self.Y.shape[0]}")
        same_theta = prev is not None and prev.params.theta.tobytes() == params.theta.tobytes()
        old = prev.blocks if same_theta else {}
        self.blocks = {}

        def block(i):  # kept for the gradient and for the next call on this batch
            self.blocks[i] = old[i] if i in old else _eval_block(i, self.stats, params.theta)
            return self.blocks[i]

        self.K = _weighted_sum((n, n), params.alpha, block)
        self.W = RidgeSystem(self.K, lambda1).solve(self.Y)
        self.qf = float(np.sum(self.Y * self.W))

    def gradient(self, M, wrt_alpha=True, wrt_theta=True):
        """(d rho/d alpha, d rho/d theta) from M; inactive slots get exact zeros."""
        ga = np.zeros(N_KERNELS) if wrt_alpha else None
        gt = np.zeros(N_THETA) if wrt_theta else None
        alpha = self.params.alpha
        for i, block in self.blocks.items():
            if wrt_alpha:
                ga[i] = -2.0 * alpha[i] * np.vdot(block, M)
            if wrt_theta:
                lo = THETA_SLICES[i][0]
                for off, grad in enumerate(_grad_blocks(i, self.stats, self.params.theta)):
                    gt[lo + off] = -(alpha[i] ** 2) * np.vdot(grad, M)
        return ga, gt


def _nested_eval(params: KernelParams, X, Y, sub, lambda1: float,
                 wrt_alpha: bool = False, wrt_theta: bool = False,
                 require_positive: bool = True, terms: list | None = None):
    """rho, the two quadratic forms and (optionally) gradient parts.

    Batch b is (X, Y), batch c its rows ``sub``.  Returns (rho, qf_c,
    qf_b, grad_alpha | None, grad_theta | None).  The one entry point for
    the public ops and the training loop.  The public ops require a
    positive denominator (the RKHS-norm reading of the ratio); the
    optimizer passes require_positive=False because an indefinite
    parameter draw makes the quadratic forms sign-free while the ratio
    and its gradient stay perfectly well defined — only a vanishing
    denominator is degenerate there.

    ``terms``, when given, holds b's terms from the previous call on the
    same batch (empty on the first) and receives this call's.
    """
    sub = np.asarray(sub)
    if (sub.ndim != 1 or sub.size == 0 or not np.issubdtype(sub.dtype, np.integer)
            or sub.min() < 0 or sub.max() >= len(X) or np.unique(sub).size != sub.size):
        raise ValueError(f"sub must be a non-empty 1-d array of distinct row positions "
                         f"in [0, {len(X)}), got {sub}")
    b = _BatchTerms(params, X, Y, lambda1, terms[0] if terms else None)
    if require_positive:
        if not b.qf > 0.0:
            raise DegenerateBatchError(
                f"denominator quadratic form is {b.qf:.3e}; batch is degenerate "
                "(zero targets or an indefinite system)"
            )
    elif abs(b.qf) < 1e-12:
        raise DegenerateBatchError(
            f"denominator quadratic form is {b.qf:.3e}; ratio is undefined"
        )
    if terms is not None:
        terms[:] = [b]
    Yc = b.Y[sub]
    Wc = RidgeSystem(b.K[np.ix_(sub, sub)], lambda1).solve(Yc)
    qf_c = float(np.sum(Yc * Wc))
    r = 1.0 - qf_c / b.qf
    if not (wrt_alpha or wrt_theta):
        return r, qf_c, b.qf, None, None
    M = (qf_c / (b.qf * b.qf)) * (b.W @ b.W.T)
    M[np.ix_(sub, sub)] -= (Wc @ Wc.T) / b.qf
    grad_alpha, grad_theta = b.gradient(M, wrt_alpha, wrt_theta)
    return r, qf_c, b.qf, grad_alpha, grad_theta


def regularized_quadratic_form(params: KernelParams, X, Y, lambda1: float) -> float:
    """Y' (K + lambda1 I)^{-1} Y via factorization, never an explicit inverse."""
    return _BatchTerms(params, X, Y, lambda1).qf


def rho(params: KernelParams, X, Y, sub, lambda1: float) -> float:
    """Relative-loss ratio 1 - qf_c / qf_b, batch c being the rows ``sub`` of (X, Y)."""
    return _nested_eval(params, X, Y, sub, lambda1)[0]


def sparse_loss(params: KernelParams, X, Y, sub, lambda1: float,
                lambda2: float) -> LossBreakdown:
    """rho plus the l1 weight penalty, with the parts broken out."""
    if lambda2 < 0:
        raise ValueError(f"lambda2 must be nonnegative, got {lambda2}")
    r, qf_c, qf_b, _, _ = _nested_eval(params, X, Y, sub, lambda1)
    l1 = lambda2 * float(np.sum(np.abs(params.alpha)))
    return LossBreakdown(r, l1, r + l1, qf_c, qf_b)


def grad_loss(params: KernelParams, X, Y, sub, lambda1: float):
    """Gradient of rho over (alpha[21], theta[34]) — smooth part only.

    The l1 term is non-smooth and belongs to the optimizer's proximal
    step, so it does not enter the returned gradient.
    """
    _, _, _, grad_alpha, grad_theta = _nested_eval(
        params, X, Y, sub, lambda1, wrt_alpha=True, wrt_theta=True
    )
    return grad_alpha, grad_theta
