"""Delay embedding of a uniformly sampled time series.

A series x_1, ..., x_n in R^d becomes N = n - tau supervised pairs

    X_k = (x_{k+tau-1}, ..., x_k)   (window, newest state first)
    Y_k = x_{k+tau}                 (next state)

so next-state forecasting is regression on R^(tau*d) -> R^d.  The
newest-first window layout is part of the contract: the forecaster
shifts predictions into the front of the window during rollout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _checked_dt(dt) -> float:
    """dt as a float, or a ValueError naming it unless it is a number with 0 < dt < inf."""
    try:
        if 0.0 < float(dt) < np.inf:
            return float(dt)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"dt must be positive and finite, got {dt!r}")


@dataclass(frozen=True)
class TimeSeries:
    """Multivariate observations on a uniform time grid (rows = samples)."""

    values: np.ndarray
    dt: float
    name: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] < 2:
            raise ValueError(f"series needs at least 2 samples, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("series contains non-finite entries")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dt", _checked_dt(self.dt))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class DelayDataset:
    """Window/target pairs produced by :func:`build_delay_dataset`."""

    X: np.ndarray
    Y: np.ndarray
    tau: int

    def __post_init__(self):
        if self.X.shape[0] != self.Y.shape[0]:
            raise ValueError("X and Y row counts differ")

    @property
    def n_pairs(self) -> int:
        return self.X.shape[0]

    def subset(self, idx) -> "DelayDataset":
        """Row subset (used for batching and CV folds); order preserved."""
        return DelayDataset(self.X[idx], self.Y[idx], self.tau)


def build_delay_dataset(series: TimeSeries, tau: int) -> DelayDataset:
    """Unroll a series into delay windows and next-state targets.

    Window k concatenates states k+tau-1 down to k (newest first);
    target k is state k+tau.  Requires 1 <= tau < n.
    """
    if tau < 1:
        raise ValueError(f"tau must be a positive integer, got {tau}")
    if tau >= series.n:
        raise ValueError(f"tau={tau} leaves no pairs for a series of length {series.n}")
    v = series.values
    n_pairs = series.n - tau
    blocks = [v[tau - 1 - j: tau - 1 - j + n_pairs] for j in range(tau)]
    X = np.hstack(blocks)
    Y = v[tau:].copy()
    return DelayDataset(X, Y, tau)


def split_train_test(dataset: DelayDataset, train_fraction: float):
    """Contiguous temporal split: first floor(frac*N) rows train, rest test.

    No shuffling; a random split would leak future states into training.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    n = dataset.n_pairs
    n_train = int(np.floor(train_fraction * n))
    if n_train < 1 or n - n_train < 1:
        raise ValueError(
            f"split of {n} pairs at fraction {train_fraction} leaves an empty side"
        )
    return dataset.subset(slice(0, n_train)), dataset.subset(slice(n_train, n))
