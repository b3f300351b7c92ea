"""Alternating optimization of the kernel dictionary.

Each epoch draws one nested pair of batches and performs two updates on
the halved-subset relative loss:

  (a) theta-step: plain SGD on the intrinsic parameters, weights fixed;
  (b) alpha-step: proximal SGD on the weights, theta fixed — a gradient
      step on the smooth part followed by soft-thresholding, which is
      what realizes the l1 penalty and produces exact zeros.

Plain subgradient descent cannot zero a weight exactly; the proximal
step can, and a final hard threshold (``zero_clamp``) sweeps up
numerically tiny survivors.  With lambda2 = 0 the threshold is the
identity and the loop degenerates to regular (dense) kernel-flow
training.

Both updates within an epoch reuse the same batch draw.  Learning rates
decay as 1/sqrt(epoch).  A batch whose factorization fails is skipped
and counted against a failure budget (default 10% of epochs).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace

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


def geometry_scales(dataset: DelayDataset, probe_rows: int = 256) -> np.ndarray:
    """Per-slot multipliers adapting the theta draw to the window geometry.

    The stock U(0.5, 1.5) draw assumes O(1) pairwise statistics; delay
    windows have squared distances in the tens, which puts the periodic
    terms into a non-monotone regime and the length scales far off the
    median-heuristic sweet spot.  The probe uses an evenly strided row
    subset, so the scales are a deterministic function of the dataset.
    """
    step = max(1, dataset.n_pairs // probe_rows)
    S, _, Q = _self_stats(dataset.X[::step][:probe_rows])
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
    epochs: int = 500
    lr_theta: float = 0.1
    lr_alpha: float = 0.1
    batch_size: int = 200
    lambda1: float = 0.05
    lambda2: float = 0.0
    seed: int = 0
    zero_clamp: float = 1e-3
    failure_budget_fraction: float = 0.1
    # the loss ratio has a pole where the denominator quadratic form
    # crosses zero (possible with indefinite dictionary members); a
    # norm cap keeps those batches from catapulting the parameters
    max_grad_norm: float = 5.0
    # the ratio loss is nearly blind to the overall kernel magnitude
    # (it cancels except through the nugget), so the magnitude is set
    # after the epochs by a line search over these weight multipliers,
    # scored by one-step error on a held-back training tail
    scale_candidates: tuple = (1.0, 2.0, 4.0, 8.0, 16.0)
    calibration_rows: int = 1024

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        for name in ("lr_theta", "lr_alpha"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v}")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("lambda1 and lambda2 must be nonnegative")
        if self.zero_clamp < 0:
            raise ValueError("zero_clamp must be nonnegative")

    def to_dict(self) -> dict:
        return asdict(self)


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
    wall_time: float
    failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        # wall_time is intentionally not serialized: artifacts must be
        # byte-identical across reruns with the same config and seed
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
    """Draw batch indices and a nested half-size subset of them.

    Both draws are uniform without replacement; the subset draw is over
    the batch, so (Xc, Yc) rows are a subset of (Xb, Yb) rows by
    construction.
    """
    n = dataset.n_pairs
    if batch_size > n:
        raise ValueError(f"batch_size {batch_size} exceeds dataset size {n}")
    idx_b = rng.choice(n, size=batch_size, replace=False)
    idx_c = rng.choice(idx_b, size=batch_size // 2, replace=False)
    return idx_b, idx_c


def train(dataset: DelayDataset, init: KernelParams, config: TrainConfig) -> TrainReport:
    """Run the alternating loop and return the fitted dictionary.

    Deterministic: identical (dataset, init, config) reproduce the
    report bitwise apart from wall_time.
    """
    started = time.perf_counter()
    if config.epochs == 0:
        return TrainReport([], init, init.nnz, 0, time.perf_counter() - started)
    rng = np.random.default_rng(config.seed)
    alpha = np.array(init.alpha, dtype=float)
    theta = clamp_theta(init.theta)
    history: list[LossBreakdown | None] = []
    failures: list[dict] = []
    budget = int(np.ceil(config.failure_budget_fraction * config.epochs))

    for epoch in range(1, config.epochs + 1):
        idx_b, idx_c = sample_nested_batches(dataset, config.batch_size, rng)
        Xb, Yb = dataset.X[idx_b], dataset.Y[idx_b]
        Xc, Yc = dataset.X[idx_c], dataset.Y[idx_c]
        decay = 1.0 / np.sqrt(epoch)
        lr_t = config.lr_theta * decay
        lr_a = config.lr_alpha * decay
        alpha_in, theta_in = alpha.copy(), theta.copy()
        try:
            params = KernelParams(alpha, theta)
            _, _, _, _, g_theta = _nested_eval(params, Xb, Yb, Xc, Yc,
                                               config.lambda1, wrt_theta=True,
                                               require_positive=False)
            theta = clamp_theta(theta - lr_t * _clip_norm(g_theta, config.max_grad_norm))

            params = KernelParams(alpha, theta)
            _, _, _, g_alpha, _ = _nested_eval(params, Xb, Yb, Xc, Yc,
                                               config.lambda1, wrt_alpha=True,
                                               require_positive=False)
            alpha = soft_threshold(alpha - lr_a * _clip_norm(g_alpha, config.max_grad_norm),
                                   lr_a * config.lambda2)

            params = KernelParams(alpha, theta)
            rho_val, qf_c, qf_b, _, _ = _nested_eval(params, Xb, Yb, Xc, Yc,
                                                     config.lambda1,
                                                     require_positive=False)
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

    if config.zero_clamp > 0.0:
        alpha = np.where(np.abs(alpha) < config.zero_clamp, 0.0, alpha)
    alpha = _calibrate_scale(dataset, alpha, theta, config)
    final = KernelParams(alpha, theta)
    return TrainReport(
        loss_history=history,
        final_params=final,
        nnz_alpha=final.nnz,
        epochs_run=config.epochs,
        wall_time=time.perf_counter() - started,
        failures=failures,
    )


def _calibrate_scale(dataset: DelayDataset, alpha, theta, config: TrainConfig):
    """Line search over global weight multipliers on a training tail.

    Uses a contiguous recent slice: fit on its head, score one-step on
    its tail, keep the multiplier with the smallest error (ties keep the
    smallest multiplier).  Candidates whose fit fails are skipped.
    """
    candidates = tuple(config.scale_candidates)
    if not candidates or len(candidates) == 1 or not np.any(alpha != 0.0):
        return alpha
    from .forecast import fit, one_step_forecast
    from .metrics import smape

    n = dataset.n_pairs
    n_hold = max(16, n // 8)
    n_fit = min(config.calibration_rows, n - n_hold)
    if n_fit < 16:
        return alpha
    window = dataset.subset(slice(n - n_fit - n_hold, n))
    fit_part = window.subset(slice(0, n_fit))
    hold_part = window.subset(slice(n_fit, n_fit + n_hold))
    best_scale, best_err = 1.0, np.inf
    for scale in candidates:
        try:
            model = fit(KernelParams(scale * alpha, theta), fit_part, config.lambda1)
            err = smape(one_step_forecast(model, hold_part), hold_part.Y)
        except (FactorizationError, DegenerateBatchError, KernelEvalError, ValueError):
            continue
        if err < best_err or (err == best_err and scale < best_scale):
            best_scale, best_err = scale, err
    return best_scale * alpha


def train_regular(dataset: DelayDataset, init: KernelParams,
                  config: TrainConfig) -> TrainReport:
    """Dense variant: lambda2 = 0 and no final zero clamp."""
    return train(dataset, init, replace(config, lambda2=0.0, zero_clamp=0.0))
