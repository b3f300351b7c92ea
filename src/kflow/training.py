"""Alternating optimization of the kernel dictionary.

Each epoch draws one nested pair of batches and performs two updates on
the halved-subset relative loss:

  (a) theta-step: plain SGD on the intrinsic parameters, weights fixed;
  (b) alpha-step: proximal SGD on the weights, theta fixed — a gradient
      step on the smooth part followed by soft-thresholding, which is
      what realizes the l1 penalty and produces exact zeros.

Plain subgradient descent cannot zero a weight exactly; the proximal
step can, and with lambda2 > 0 a final hard threshold (``zero_clamp``)
sweeps up numerically tiny survivors.  With lambda2 = 0 neither the
proximal step nor the threshold acts, and the loop is regular (dense)
kernel-flow training.

Both updates within an epoch reuse the same batch draw and one step
size, lr / sqrt(epoch).  A batch whose factorization fails is skipped
and counted against a budget of FAILURE_BUDGET_FRACTION of the epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .embedding import DelayDataset
from .kernels import N_KERNELS, N_THETA, KernelEvalError, KernelParams, _self_stats, clamp_theta
from .loss import DegenerateBatchError, FactorizationError, LossBreakdown, _nested_eval


class TrainingAborted(RuntimeError):
    """Too many failed epochs (factorization/evaluation errors)."""


# dictionary members of conditionally-negative type (their kernel grows
# with distance: multiquadric, both power terms, the log term, and the
# sigmoid).  At O(1) weights they make the shifted Gram indefinite and
# the loss ratio loses its norm meaning, so the default initialization
# starts them small; their gradients regrow them whenever they help.
CND_KERNELS = (8, 11, 12, 18, 19)
CND_INIT_SCALE = 0.1

# the loss ratio has a pole where the denominator quadratic form crosses
# zero (possible with indefinite dictionary members); a norm cap keeps
# those batches from catapulting the parameters
MAX_GRAD_NORM = 5.0
FAILURE_BUDGET_FRACTION = 0.1  # of the epochs, rounded up
# the ratio loss is nearly blind to the overall kernel magnitude (it
# cancels except through the nugget), so the magnitude is set after the
# epochs by a line search over these weight multipliers, scored by
# one-step error on a held-back training tail; powers of two, so each
# rescales one Gram by s*s bit-exactly
SCALE_CANDIDATES = (1.0, 2.0, 4.0, 8.0, 16.0)
CALIBRATION_ROWS = 1024  # fit rows of that tail, at most
PROBE_ROWS = 256  # rows in geometry_scales' strided probe

# theta slots grouped by the pair-geometry quantity they compare against:
# squared distances, distances, or window inner products.  Slots listed
# under "sqrt" multiply the geometry under a square in their formula.
_SCALE_SQRT_Q = (4, 8, 16, 23, 27, 28)      # t5, t9, t17, t24, t28, t29
_SCALE_SQRT_R = (5, 13, 21, 26, 29, 33)     # t6, t14, t22, t27, t30, t34
_SCALE_PERIOD_Q = (6, 9)                    # t7, t10: periods in q
_SCALE_PERIOD_R = (11, 14)                  # t12, t15: periods in r
_SCALE_INV_SQRT_Q = (18,)                   # t19
_SCALE_INV_SQRT_R = (20,)                   # t21
_SCALE_R = (25,)                            # t26
_SCALE_INV_S = (1, 31)                      # t2 (under a square), t32


def geometry_scales(dataset: DelayDataset) -> np.ndarray:
    """Per-slot multipliers adapting the theta draw to the window geometry.

    The stock U(0.5, 1.5) draw assumes O(1) pairwise statistics; delay
    windows have squared distances in the tens, which puts the periodic
    terms into a non-monotone regime and the length scales far off the
    median-heuristic sweet spot.  The probe uses an evenly strided row
    subset, so the scales are a deterministic function of the dataset.
    """
    step = max(1, dataset.n_pairs // PROBE_ROWS)
    S, _, Q = _self_stats(dataset.X[::step][:PROBE_ROWS])
    iu = np.triu_indices(S.shape[0], k=1)
    q_med, q_hi = np.percentile(Q[iu], [50.0, 95.0])
    s_hi = np.percentile(np.abs(S[iu]), 95.0)
    q_med, q_hi = max(q_med, 1e-12), max(q_hi, 1e-12)
    r_med, r_hi = np.sqrt(q_med), np.sqrt(q_hi)
    s_hi = max(s_hi, 1e-12)

    scales = np.ones(N_THETA)
    scales[list(_SCALE_SQRT_Q)] = np.sqrt(q_med)
    scales[list(_SCALE_SQRT_R)] = np.sqrt(r_med)
    scales[list(_SCALE_PERIOD_Q)] = 4.0 * q_hi
    scales[list(_SCALE_PERIOD_R)] = 4.0 * r_hi
    scales[list(_SCALE_INV_SQRT_Q)] = 1.0 / np.sqrt(q_med)
    scales[list(_SCALE_INV_SQRT_R)] = 1.0 / np.sqrt(r_med)
    scales[list(_SCALE_R)] = r_med
    scales[list(_SCALE_INV_S)] = 1.0 / np.sqrt(s_hi)
    # supports of the compactly supported terms should cover most pairs
    scales[28] = np.sqrt(2.0 * q_hi)   # t29: support in q
    scales[29] = np.sqrt(2.0 * r_hi)   # t30: support in r
    scales[33] = np.sqrt(2.0 * r_hi)   # t34: support in q, argument in r
    return scales


def default_init(dataset: DelayDataset, seed: int) -> KernelParams:
    """Seeded random initialization adapted to the dataset geometry.

    Weights draw from U(0.5, 1.0) with the conditionally-negative-type
    members damped (see CND_KERNELS); theta draws from U(0.5, 1.5) times
    the geometry scales.
    """
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.5, 1.0, N_KERNELS)
    alpha[list(CND_KERNELS)] *= CND_INIT_SCALE
    theta = rng.uniform(0.5, 1.5, N_THETA) * geometry_scales(dataset)
    return KernelParams(alpha, theta)


@dataclass(frozen=True)
class TrainConfig:
    """Settings of one :func:`train` run; lambda2 = 0 trains dense (no zero_clamp)."""

    epochs: int = 500
    lr: float = 0.1
    batch_size: int = 200
    lambda1: float = 0.05
    lambda2: float = 0.0
    seed: int = 0
    zero_clamp: float = 1e-3

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("lambda1 and lambda2 must be nonnegative")
        if self.zero_clamp < 0:
            raise ValueError("zero_clamp must be nonnegative")


def _clip_norm(g: np.ndarray, cap: float) -> np.ndarray:
    norm = float(np.linalg.norm(g))
    if cap > 0.0 and norm > cap:
        return g * (cap / norm)
    return g


@dataclass
class TrainReport:
    loss_history: list
    final_params: KernelParams
    nnz_alpha: int
    epochs_run: int
    failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "epochs_run": self.epochs_run,
            "nnz_alpha": self.nnz_alpha,
            "final_params": self.final_params.to_dict(),
            "loss_history": [
                None if entry is None else {
                    "epoch": e + 1,
                    "rho": entry.rho,
                    "l1": entry.l1_penalty,
                    "total": entry.total,
                }
                for e, entry in enumerate(self.loss_history)
            ],
            "failures": self.failures,
        }


def soft_threshold(v: float, t: float):
    """Proximal map of t*|.|: shrink toward zero, clip within [-t, t]."""
    if t < 0:
        raise ValueError(f"threshold must be nonnegative, got {t}")
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def sample_nested_batches(dataset: DelayDataset, batch_size: int,
                          rng: np.random.Generator):
    """Draw batch indices ``idx_b`` and the half batch ``sub`` within them.

    Both draws are uniform without replacement.  ``sub`` holds row
    positions into batch b (batch c is ``idx_b[sub]``), so c is nested
    in b by construction; it comes in random order.
    """
    n = dataset.n_pairs
    if batch_size > n:
        raise ValueError(f"batch_size {batch_size} exceeds dataset size {n}")
    idx_b = rng.choice(n, size=batch_size, replace=False)
    sub = rng.choice(batch_size, size=batch_size // 2, replace=False)
    return idx_b, sub


def train(dataset: DelayDataset, init: KernelParams, config: TrainConfig) -> TrainReport:
    """Run the alternating loop and return the fitted dictionary.

    The batch size is clamped to ``dataset.n_pairs``.  Deterministic:
    identical (dataset, init, config) reproduce the report bitwise.
    """
    config = replace(config, batch_size=min(config.batch_size, dataset.n_pairs))
    if config.epochs == 0:
        return TrainReport([], init, init.nnz, 0)
    rng = np.random.default_rng(config.seed)
    alpha = np.array(init.alpha, dtype=float)
    theta = clamp_theta(init.theta)
    history: list[LossBreakdown | None] = []
    failures: list[dict] = []
    budget = int(np.ceil(FAILURE_BUDGET_FRACTION * config.epochs))

    for epoch in range(1, config.epochs + 1):
        idx_b, sub = sample_nested_batches(dataset, config.batch_size, rng)
        X, Y = dataset.X[idx_b], dataset.Y[idx_b]
        decay = 1.0 / np.sqrt(epoch)
        lr = config.lr * decay
        alpha_in, theta_in = alpha.copy(), theta.copy()
        terms = []  # the three evaluations share this batch's geometry and blocks
        try:
            params = KernelParams(alpha, theta)
            _, _, _, _, g_theta = _nested_eval(params, X, Y, sub, config.lambda1,
                                               wrt_theta=True, require_positive=False,
                                               terms=terms)
            theta = clamp_theta(theta - lr * _clip_norm(g_theta, MAX_GRAD_NORM))

            params = KernelParams(alpha, theta)
            _, _, _, g_alpha, _ = _nested_eval(params, X, Y, sub, config.lambda1,
                                               wrt_alpha=True, require_positive=False,
                                               terms=terms)
            alpha = soft_threshold(alpha - lr * _clip_norm(g_alpha, MAX_GRAD_NORM),
                                   lr * config.lambda2)

            params = KernelParams(alpha, theta)
            rho_val, qf_c, qf_b, _, _ = _nested_eval(params, X, Y, sub, config.lambda1,
                                                     require_positive=False, terms=terms)
            l1 = config.lambda2 * float(np.sum(np.abs(alpha)))
            history.append(LossBreakdown(rho_val, l1, rho_val + l1, qf_c, qf_b))
        except (FactorizationError, DegenerateBatchError, KernelEvalError) as err:
            alpha, theta = alpha_in, theta_in
            failures.append({"epoch": epoch, "error": str(err)})
            history.append(None)
            if len(failures) > budget:
                raise TrainingAborted(
                    f"{len(failures)} failed epochs exceed budget {budget}: {err}"
                ) from err

    if config.lambda2 > 0.0:
        alpha = np.where(np.abs(alpha) < config.zero_clamp, 0.0, alpha)
    alpha = _calibrate_scale(dataset, alpha, theta, config)
    final = KernelParams(alpha, theta)
    return TrainReport(
        loss_history=history,
        final_params=final,
        nnz_alpha=final.nnz,
        epochs_run=config.epochs,
        failures=failures,
    )


def _calibrate_scale(dataset: DelayDataset, alpha, theta, config: TrainConfig):
    """Line search over global weight multipliers on a training tail.

    Uses a contiguous recent slice: fit on its head, score one-step on
    its tail, keep the multiplier with the smallest error (ties keep the
    smallest multiplier).  Candidates whose fit fails are skipped.

    Multiplier s scales the kernel by s*s (weights enter squared), so the
    Gram and cross-Gram are evaluated once at s = 1 and rescaled: every s
    is a power of two, so this is bit for bit what s*alpha gives (unless a
    weighted entry is subnormal).  An evaluation error returns alpha.
    """
    if not np.any(alpha != 0.0):
        return alpha
    from .forecast import RidgeSystem, cross_gram, gram
    from .metrics import smape

    n = dataset.n_pairs
    n_hold = max(16, n // 8)
    n_fit = min(CALIBRATION_ROWS, n - n_hold)
    if n_fit < 16:
        return alpha
    window = dataset.subset(slice(n - n_fit - n_hold, n))
    fit_part = window.subset(slice(0, n_fit))
    hold_part = window.subset(slice(n_fit, n_fit + n_hold))
    params = KernelParams(alpha, theta)
    try:
        K = gram(params, fit_part.X)
        K_hold = cross_gram(params, hold_part.X, fit_part.X)
    except KernelEvalError:
        return alpha
    best_scale, best_err = 1.0, np.inf
    for scale in SCALE_CANDIDATES:
        with np.errstate(over="ignore"):
            K_s, K_hold_s = scale * scale * K, scale * scale * K_hold
        if not (np.all(np.isfinite(K_s)) and np.all(np.isfinite(K_hold_s))):
            continue  # the weighted sum overflows at this scale
        try:
            W = RidgeSystem(K_s, config.lambda1).solve(fit_part.Y)
            err = smape(K_hold_s @ W, hold_part.Y)
        except (FactorizationError, ValueError):
            continue
        if err < best_err:
            best_scale, best_err = scale, err
    return best_scale * alpha

