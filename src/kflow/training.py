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

Zeros are absorbing.  A weight enters the kernel squared, so
d rho / d alpha_i = -2 alpha_i <B_i, M> is 0 at alpha_i = 0: a weight
that the proximal step (or the initialization) zeroes never returns.
The term's theta slots freeze with it, since their gradients carry the
factor alpha_i**2.  The threshold lr * lambda2 / sqrt(epoch) is largest
in the first epochs, so those epochs fix the support.  And on the
effective weight w_i = alpha_i**2 the penalty lambda2 |alpha_i| reads
lambda2 sqrt(w_i), which is not convex.

Both updates within an epoch reuse the same batch draw and one step
size, lr / sqrt(epoch).  The epoch logs the alpha-step's own loss: rho
and lambda2 ||alpha||_1 at the point that step starts from.  A batch
whose factorization fails is skipped and counted against a budget of
FAILURE_BUDGET_FRACTION of the epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .embedding import DelayDataset
from .kernels import (DICTIONARY, N_KERNELS, N_THETA, KernelEvalError, KernelParams,
                      NumericalError, _kernel_matrix, _pack, _packed_index, _packed_stats,
                      clamp_theta)
from .loss import FactorizationError, LossBreakdown, _Batch, _nested_eval


class TrainingAborted(NumericalError, RuntimeError):
    """Too many failed epochs (factorization/evaluation errors)."""


# the weight factor of the members flagged psd=False, which the initialization damps
# (five others are indefinite at init too, see DICTIONARY): four grow with distance
# (multiquadric, both power terms, the log term); the sigmoid neither grows with distance
# nor is conditionally negative definite.  At O(1) weights they make the shifted Gram
# indefinite and the loss ratio loses its norm meaning, so they start small; their
# gradients regrow them whenever they help.
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
# candidate solves against the one s = 1 Gram bit-exactly
SCALE_CANDIDATES = (1.0, 2.0, 4.0, 8.0, 16.0)
CALIBRATION_ROWS = 1024  # fit rows of that tail, at most
PROBE_ROWS = 256  # rows in geometry_scales' strided probe

# settings outside whose range a run fails or scores nothing: field -> (test, range in
# words); TrainConfig and evaluation.EvalProtocol check their fields on construction
_FINITE_NONNEGATIVE = (lambda v: 0.0 <= v < np.inf, "finite and nonnegative")
_RANGES = {"epochs": (lambda v: v >= 0, "nonnegative"),
           "batch_size": (lambda v: v >= 2, "at least 2"),
           "lr": (lambda v: 0.0 < v < np.inf, "finite and positive"),
           "lambda1": _FINITE_NONNEGATIVE,
           "lambda2": _FINITE_NONNEGATIVE,
           "zero_clamp": _FINITE_NONNEGATIVE,
           "tau": (lambda v: v >= 1, "at least 1"),
           "train_fraction": (lambda v: 0.0 < v < 1.0, "strictly between 0 and 1"),
           "cv_epochs": (lambda v: v >= 0, "nonnegative"),
           "rollout_steps": (lambda v: v >= 1, "at least 1"),
           "lambda2_grid": (lambda v: len(v) > 0 and all(0.0 <= g < np.inf for g in v),
                            "nonempty, each value finite and nonnegative")}


def check_range(key, value, name=None, error=ValueError):
    """value, unless it is set and outside field key's range: then ``error`` naming name (or key)."""
    test, words = _RANGES.get(key, (None, None))
    if test and value is not None and not test(value):
        raise error(f"setting {name or key!r} = {value!r}: must be {words}")
    return value


def geometry_scales(dataset: DelayDataset) -> np.ndarray:
    """Per-slot multipliers adapting the theta draw to the window geometry.

    The stock U(0.5, 1.5) draw assumes O(1) pairwise statistics; delay
    windows have squared distances in the tens, which puts the periodic
    terms into a non-monotone regime and the length scales far off the
    median-heuristic sweet spot.  The probe uses an evenly strided row
    subset, so the scales are a deterministic function of the dataset.
    """
    if dataset.n_pairs < 2:
        raise ValueError(f"geometry scales need at least 2 windows, got {dataset.n_pairs}")
    step = max(1, dataset.n_pairs // PROBE_ROWS)
    probe = dataset.X[::step][:PROBE_ROWS]
    s, _, q = _packed_stats(probe)
    rows = np.arange(len(probe))
    diag = _packed_index(rows, rows, len(probe))  # each row with itself: not a pair
    q_med, q_hi = np.percentile(np.delete(q, diag), [50.0, 95.0])
    s_hi = np.percentile(np.abs(np.delete(s, diag)), 95.0)
    q_med, q_hi = max(q_med, 1e-12), max(q_hi, 1e-12)
    r_med, r_hi = np.sqrt(q_med), np.sqrt(q_hi)
    s_hi = max(s_hi, 1e-12)

    rule = {  # a slot's multiplier, by the pair-geometry quantity it meets in its term
        "unit": 1.0,
        "sqrt_q": np.sqrt(q_med),            # squared, on the scale of q
        "sqrt_r": np.sqrt(r_med),            # squared, on the scale of r
        "period_q": 4.0 * q_hi,              # a period in q
        "period_r": 4.0 * r_hi,              # a period in r
        "inv_sqrt_q": 1.0 / np.sqrt(q_med),  # squared, it multiplies q
        "inv_sqrt_r": 1.0 / np.sqrt(r_med),  # squared, it multiplies r
        "inv_s": 1.0 / np.sqrt(s_hi),        # it multiplies s (t2 squared)
        # supports of the compactly supported terms should cover most pairs
        "support_q": np.sqrt(2.0 * q_hi),    # t29: support in q
        "support_r": np.sqrt(2.0 * r_hi),    # t30 in r; t34 in q, argument in r
    }
    return np.array([rule[name] for term in DICTIONARY for name in term.scales])


def default_init(dataset: DelayDataset, seed: int) -> KernelParams:
    """Seeded random initialization adapted to the dataset geometry.

    Weights draw from U(0.5, 1.0), times CND_INIT_SCALE for the members it
    damps (psd=False; the rest are not all PSD); theta draws from
    U(0.5, 1.5) times the geometry scales.
    """
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.5, 1.0, N_KERNELS)
    alpha[[i for i, term in enumerate(DICTIONARY) if not term.psd]] *= CND_INIT_SCALE
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
        for f in fields(self):
            check_range(f.name, getattr(self, f.name))


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
        batch = _Batch(dataset.X[idx_b], dataset.Y[idx_b], sub)
        decay = 1.0 / np.sqrt(epoch)
        lr = config.lr * decay
        alpha_in, theta_in = alpha.copy(), theta.copy()
        try:
            params = KernelParams(alpha, theta)
            _, _, _, _, g_theta = _nested_eval(params, batch, config.lambda1, wrt_theta=True)
            theta = clamp_theta(theta - lr * _clip_norm(g_theta, MAX_GRAD_NORM))

            params = KernelParams(alpha, theta)
            r, qf_c, qf_b, g_alpha, _ = _nested_eval(params, batch, config.lambda1, wrt_alpha=True)
            l1 = config.lambda2 * float(np.sum(np.abs(alpha)))
            alpha = soft_threshold(alpha - lr * _clip_norm(g_alpha, MAX_GRAD_NORM),
                                   lr * config.lambda2)
            history.append(LossBreakdown(r, l1, r + l1, qf_c, qf_b))
        except NumericalError as err:
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

    Multiplier s scales the kernel by s*s (weights enter squared), and
    s*s K + lambda1 I = s*s (K + lambda1/(s*s) I): for a power-of-two s,
    RidgeSystem(K, lambda1/(s*s)) solves to s*s times the s*alpha fit's
    coefficients, whose forecast is K_hold times them, bit for bit unless an
    entry is subnormal.  So no candidate makes a scaled n x n copy, and K is
    held packed: every candidate's system takes the same triangle.  One is
    skipped exactly where s*s max(|K|, |K_hold|) overflows, as the s*alpha
    kernel sum would.  An evaluation error returns alpha.

    Every candidate factorizes in the n x n buffer the Gram was evaluated
    in, which K is packed from and which lives until the search ends: the
    search holds 1.5 n_fit^2 floats from the Gram on and allocates no
    n_fit x n_fit array after it.
    """
    if not np.any(alpha != 0.0):
        return alpha
    from .forecast import RidgeSystem, cross_gram
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
        S = _kernel_matrix(params, fit_part.X)  # K on and above the diagonal
        K_hold = cross_gram(params, hold_part.X, fit_part.X)
    except KernelEvalError:
        return alpha
    K = _pack(S)  # after the cross-Gram, whose tiles' temporaries it would add to
    # glibc raises its mmap threshold to the size of any mmapped block it frees (up to
    # 32 MB) and trims the heap only when its free top exceeds twice that: had S been freed
    # before the candidates, their n x n buffers would come from the heap and leave it that
    # much larger, freed but resident.  So they factorize in S.T, which is column-major.
    buffer = S.T
    largest = float(max(K.max(), -K.min(), K_hold.max(), -K_hold.min()))
    best_scale, best_err = 1.0, np.inf
    for scale in SCALE_CANDIDATES:
        if scale * scale * largest == np.inf:
            continue  # the weighted sum overflows at this scale
        try:
            W = RidgeSystem(K, config.lambda1 / (scale * scale), buffer=buffer).solve(fit_part.Y)
            err = smape(K_hold @ W, hold_part.Y)
        except (FactorizationError, ValueError):
            continue
        if err < best_err:
            best_scale, best_err = scale, err
    return best_scale * alpha

