"""Kernel ridge forecasting from delay windows.

Fitting solves (K + lambda1 I) W = Y once; prediction is then the
kernel row of the query window against the training windows times W.
One-step forecasting is teacher-forced (every prediction conditions on
the true previous window); rollout feeds each prediction back into the
front of the window to run the learned map autonomously.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import DelayDataset
from .kernels import (KernelEvalError, KernelParams, NumericalError, _kernel_matrix, cross_gram,
                      gram)
from .loss import RidgeSystem


class RolloutDiverged(NumericalError, RuntimeError):
    """Autonomous rollout produced a non-finite state.

    Carries the truncated trajectory and the step at which it blew up
    rather than clamping it — a clamped trajectory would silently
    corrupt attractor-distance metrics.
    """

    def __init__(self, step: int, partial: np.ndarray):
        super().__init__(f"rollout diverged at step {step}")
        self.step = step
        self.partial = partial


@dataclass(frozen=True)
class TrainedModel:
    params: KernelParams
    train_X: np.ndarray
    coefficients: np.ndarray
    lambda1: float
    tau: int
    dim: int

    def to_dict(self) -> dict:
        return {
            "kernel": self.params.to_dict(),
            "lambda1": self.lambda1,
            "tau": self.tau,
            "train_X": self.train_X.tolist(),
            "coefficients": self.coefficients.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainedModel":
        """The model of a to_dict document.  A malformed document is a ValueError, a
        non-finite number in it too: a model file is data, not a numerical failure."""
        try:
            arrays = {"alpha": doc["kernel"]["alpha"], "theta": doc["kernel"]["theta"],
                      "train_X": doc["train_X"], "coefficients": doc["coefficients"]}
            arrays = {name: np.asarray(a, dtype=float) for name, a in arrays.items()}
            nonfinite = [name for name, a in arrays.items() if not np.isfinite(a).all()]
            if nonfinite:
                raise ValueError(f"model has non-finite entries in {', '.join(nonfinite)}")
            train_X, coeff = arrays["train_X"], arrays["coefficients"]
            if coeff.ndim != 2 or train_X.ndim != 2 or coeff.shape[0] != train_X.shape[0]:
                raise ValueError(f"coefficients of shape {coeff.shape} do not fit train_X of "
                                 f"shape {train_X.shape}: need one row per training window")
            return cls(
                params=KernelParams(arrays["alpha"], arrays["theta"]),
                train_X=train_X,
                coefficients=coeff,
                lambda1=float(doc["lambda1"]),
                tau=int(doc["tau"]),
                dim=coeff.shape[1],
            )
        except TypeError as err:  # JSON of the wrong type: null, a string, an object, ...
            raise ValueError(f"model has JSON of the wrong type: {err}") from err


def fit(params: KernelParams, dataset: DelayDataset, lambda1: float) -> TrainedModel:
    """Solve the residual-checked ridge system; keep what predicting needs.

    The Gram arrives packed (n^2 / 2 floats): its n x n buffer is gone
    before the system's factor buffer (n^2) exists, so a fit of n windows
    peaks at 1.5 n^2 floats.
    """
    W = RidgeSystem(gram(params, dataset.X), lambda1).solve(dataset.Y)
    return TrainedModel(
        params=params,
        train_X=np.array(dataset.X, dtype=float),
        coefficients=W,
        lambda1=lambda1,
        tau=dataset.tau,
        dim=dataset.Y.shape[1],
    )


def _window(model: TrainedModel, window) -> np.ndarray:
    window = np.asarray(window, dtype=float).ravel()
    if window.size != model.train_X.shape[1]:
        raise ValueError(f"window length {window.size} != tau*d = {model.train_X.shape[1]}")
    return window


def _predict(model: TrainedModel, window: np.ndarray, sq_train=None) -> np.ndarray:
    """Next state for a checked window; sq_train: the training windows' squared norms."""
    k_row = _kernel_matrix(model.params, window[None, :], model.train_X, sq_train)
    # rollout turns a non-finite prediction into RolloutDiverged
    with np.errstate(over="ignore", invalid="ignore"):
        return (k_row @ model.coefficients)[0]


def predict_one(model: TrainedModel, window) -> np.ndarray:
    """Next state for a single delay window (length tau*d, newest first)."""
    return _predict(model, _window(model, window))


def one_step_forecast(model: TrainedModel, test: DelayDataset) -> np.ndarray:
    """Teacher-forced forecast: row i predicts from the true window i."""
    if test.n_pairs == 0:
        return np.zeros((0, model.dim))
    if test.X.shape[1] != model.train_X.shape[1]:
        raise ValueError(
            f"test window length {test.X.shape[1]} != model's {model.train_X.shape[1]}"
        )
    K = cross_gram(model.params, test.X, model.train_X)
    return K @ model.coefficients


def rollout(model: TrainedModel, seed_window, steps: int) -> np.ndarray:
    """Autonomous forecast: feed each prediction back into the window.

    The window layout is newest-first, so the new state is prepended
    and the oldest d entries drop off the end.
    """
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    window = _window(model, seed_window).copy()
    sq_train = (model.train_X * model.train_X).sum(axis=1)  # as _kernel_matrix does
    d = model.dim
    out = np.empty((steps, d))
    for t in range(steps):
        try:
            state = _predict(model, window, sq_train)
        except KernelEvalError:
            # an overflowing window blows up inside the kernel itself
            raise RolloutDiverged(t, out[:t].copy()) from None
        if not np.all(np.isfinite(state)):
            raise RolloutDiverged(t, out[:t].copy())
        out[t] = state
        window = np.concatenate([state, window[:-d]])
    return out
