"""Halved-subset relative loss for kernel learning, and its gradient.

Given nested batches (Xb, Yb) and (Xc, Yc), with Xc rows a subset of Xb
rows, the loss compares the regularized RKHS norms of the interpolants
fitted on each subset through the ratio of quadratic forms

    rho = 1 - qf(Xc, Yc) / qf(Xb, Yb),
    qf(X, Y) = sum_j  Y_j' (K(X, X) + lambda1 I)^{-1} Y_j

(a sum over output columns for multi-output Y).  Shrinking the batch
should not lose much accuracy under a good kernel, so small rho is
good.  Sparse training adds an l1 penalty lambda2 * ||alpha||_1 on the
dictionary weights; that term is handled by the optimizer's proximal
step, so :func:`grad_loss` differentiates the smooth part only.

The public ops and the training loop share one path: :func:`_nested_eval`
builds a :class:`_BatchTerms` per batch, which solves through
:class:`RidgeSystem`.  That factorizes K + lambda1 I once (Cholesky,
falling back to a symmetric-indefinite LDL^T with diagonal pivoting —
the dictionary contains non-PSD members, so the shifted Gram is not
guaranteed definite) and verifies every solve by its residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, get_lapack_funcs

from .kernels import (
    N_KERNELS,
    N_THETA,
    THETA_SLICES,
    KernelParams,
    _eval_block,
    _grad_blocks,
    _self_stats,
)

SOLVE_RESIDUAL_TOL = 1e-8


class FactorizationError(np.linalg.LinAlgError):
    """The shifted Gram could not be factorized or solved reliably."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class DegenerateBatchError(ValueError):
    """The denominator quadratic form is not positive."""


class RidgeSystem:
    """Factorized solve handle for (gram + lambda1 * I).

    Tries Cholesky first; if the matrix is indefinite, falls back to
    the LAPACK Bunch-Kaufman LDL^T factorization (sytrf/sytrs).  Every
    solve is residual-checked to SOLVE_RESIDUAL_TOL; a failed check
    raises :class:`FactorizationError` carrying a condition estimate.
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
        self._A = gram + lambda1 * np.eye(gram.shape[0])
        self._cho = None
        self._ldl = None
        try:
            self._cho = cho_factor(self._A, lower=True, check_finite=False)
        except LinAlgError:
            sytrf, = get_lapack_funcs(("sytrf",), (self._A,))
            ldu, ipiv, info = sytrf(self._A, lower=1)
            if info != 0:
                # info > 0 is an exactly zero pivot: the matrix is singular
                raise FactorizationError(
                    f"symmetric factorization failed (sytrf info={info})",
                    condition=np.inf,
                ) from None
            self._ldl = (ldu, ipiv)

    @property
    def n(self) -> int:
        return self._A.shape[0]

    def _condition(self) -> float:
        """1-norm condition estimate from the factors in hand (pocon/sycon)."""
        anorm = np.linalg.norm(self._A, 1)
        if self._cho is not None:
            pocon, = get_lapack_funcs(("pocon",), (self._A,))
            rcond, _ = pocon(self._cho[0], anorm, uplo="L")
        else:
            sycon, = get_lapack_funcs(("sycon",), (self._A,))
            rcond, _ = sycon(self._ldl[0], self._ldl[1], anorm, lower=1)
        return 1.0 / rcond if rcond > 0.0 else np.inf

    def _solve_factored(self, rhs: np.ndarray) -> np.ndarray:
        if self._cho is not None:
            return cho_solve(self._cho, rhs, check_finite=False)
        sytrs, = get_lapack_funcs(("sytrs",), (self._A,))
        X, info = sytrs(self._ldl[0], self._ldl[1], rhs, lower=1)
        if info != 0:
            raise FactorizationError(f"symmetric solve failed (info={info})")
        return X

    def solve(self, B: np.ndarray) -> np.ndarray:
        """Solve (gram + lambda1 I) X = B, residual-checked.

        Up to two rounds of iterative refinement recover the residual
        tolerance on ill-conditioned (heavily scaled) systems before the
        solve is declared unreliable.
        """
        B = np.asarray(B, dtype=float)
        vec = B.ndim == 1
        rhs = B[:, None] if vec else B
        X = self._solve_factored(rhs)
        norm_b = np.linalg.norm(rhs)
        if norm_b > 0.0:
            for _ in range(3):
                residual = np.linalg.norm(self._A @ X - rhs) / norm_b
                if residual <= SOLVE_RESIDUAL_TOL or not np.isfinite(residual):
                    break
                X = X + self._solve_factored(rhs - self._A @ X)
            if not residual <= SOLVE_RESIDUAL_TOL:
                raise FactorizationError(
                    f"solve residual {residual:.3e} exceeds {SOLVE_RESIDUAL_TOL:.0e} "
                    "(system near-singular)",
                    condition=self._condition(),
                )
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
# d qf / dp = -W' (dK/dp) W with W = (K + lambda1 I)^{-1} Y, so
# d rho / dp = (qf_c * dqf_b - dqf_c * qf_b) / qf_b^2 by the quotient
# rule.  Per-elemental Grams and their theta-derivatives are computed
# once per batch from shared pair geometry.
# ---------------------------------------------------------------------------

class _BatchTerms:
    """Per-batch quantities shared by the loss value and its gradient."""

    def __init__(self, params: KernelParams, X, Y, lambda1: float):
        self.params = params
        Y = np.asarray(Y, dtype=float)
        self.Y = Y[:, None] if Y.ndim == 1 else Y
        self.stats = _self_stats(np.asarray(X, dtype=float))
        n = self.stats[0].shape[0]
        if n != self.Y.shape[0]:
            raise ValueError(f"X has {n} rows but Y has {self.Y.shape[0]}")
        self.blocks = {}
        K = np.zeros((n, n))
        for i in range(N_KERNELS):
            a = params.alpha[i]
            if a == 0.0:
                continue
            block = _eval_block(i, self.stats, params.theta)
            self.blocks[i] = block
            K += (a * a) * block
        self.system = RidgeSystem(K, lambda1)
        self.W = self.system.solve(self.Y)
        self.qf = float(np.sum(self.Y * self.W))

    def _sandwich(self, block) -> float:
        # W' block W summed over output columns
        return float(np.sum(self.W * (block @ self.W)))

    def qf_gradient(self, wrt_alpha=True, wrt_theta=True):
        """(d qf/d alpha, d qf/d theta); inactive slots get exact zeros."""
        ga = np.zeros(N_KERNELS) if wrt_alpha else None
        gt = np.zeros(N_THETA) if wrt_theta else None
        alpha = self.params.alpha
        theta = self.params.theta
        for i, block in self.blocks.items():
            if wrt_alpha:
                ga[i] = -2.0 * alpha[i] * self._sandwich(block)
            if wrt_theta:
                lo, hi = THETA_SLICES[i]
                grads = _grad_blocks(i, self.stats, theta)
                for off in range(hi - lo):
                    gt[lo + off] = -(alpha[i] ** 2) * self._sandwich(np.asarray(grads[off], dtype=float))
        return ga, gt


def _nested_eval(params: KernelParams, Xb, Yb, Xc, Yc, lambda1: float,
                 wrt_alpha: bool = False, wrt_theta: bool = False,
                 require_positive: bool = True):
    """rho, the two quadratic forms and (optionally) gradient parts.

    Returns (rho, qf_c, qf_b, grad_alpha | None, grad_theta | None).
    The one entry point for the public ops and the training loop.  The
    public ops require a positive denominator (the RKHS-norm reading of
    the ratio); the optimizer passes require_positive=False because an
    indefinite parameter draw makes the quadratic forms sign-free while
    the ratio and its gradient stay perfectly well defined — only a
    vanishing denominator is degenerate there.
    """
    b = _BatchTerms(params, Xb, Yb, lambda1)
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
    c = _BatchTerms(params, Xc, Yc, lambda1)
    r = 1.0 - c.qf / b.qf
    if not (wrt_alpha or wrt_theta):
        return r, c.qf, b.qf, None, None
    ga_b, gt_b = b.qf_gradient(wrt_alpha, wrt_theta)
    ga_c, gt_c = c.qf_gradient(wrt_alpha, wrt_theta)
    scale_b = c.qf / (b.qf * b.qf)
    grad_alpha = scale_b * ga_b - ga_c / b.qf if wrt_alpha else None
    grad_theta = scale_b * gt_b - gt_c / b.qf if wrt_theta else None
    return r, c.qf, b.qf, grad_alpha, grad_theta


def regularized_quadratic_form(params: KernelParams, X, Y, lambda1: float) -> float:
    """Y' (K + lambda1 I)^{-1} Y via factorization, never an explicit inverse."""
    return _BatchTerms(params, X, Y, lambda1).qf


def rho(params: KernelParams, Xb, Yb, Xc, Yc, lambda1: float) -> float:
    """Relative-loss ratio 1 - qf_c / qf_b for nested batches.

    The caller guarantees (Xc, Yc) rows are a subset of (Xb, Yb) rows;
    this is not re-checked here.
    """
    return _nested_eval(params, Xb, Yb, Xc, Yc, lambda1)[0]


def sparse_loss(params: KernelParams, Xb, Yb, Xc, Yc, lambda1: float,
                lambda2: float) -> LossBreakdown:
    """rho plus the l1 weight penalty, with the parts broken out."""
    if lambda2 < 0:
        raise ValueError(f"lambda2 must be nonnegative, got {lambda2}")
    r, qf_c, qf_b, _, _ = _nested_eval(params, Xb, Yb, Xc, Yc, lambda1)
    l1 = lambda2 * float(np.sum(np.abs(params.alpha)))
    return LossBreakdown(r, l1, r + l1, qf_c, qf_b)


def grad_loss(params: KernelParams, Xb, Yb, Xc, Yc, lambda1: float):
    """Gradient of rho over (alpha[21], theta[34]) — smooth part only.

    The l1 term is non-smooth and belongs to the optimizer's proximal
    step, so it does not enter the returned gradient.
    """
    _, _, _, grad_alpha, grad_theta = _nested_eval(
        params, Xb, Yb, Xc, Yc, lambda1, wrt_alpha=True, wrt_theta=True
    )
    return grad_alpha, grad_theta
