"""Forecast scoring: symmetric MAPE and Hausdorff distance."""

from __future__ import annotations

import numpy as np


def smape(pred, truth) -> float:
    """Symmetric mean absolute percentage error, in percent.

    Averages |p - t| / ((|p| + |t|) / 2) over every coordinate of every
    row and multiplies by 100, so the result lies in [0, 200] for any
    output dimension.  Coordinates where both values are exactly zero
    contribute 0 (an identically-zero prediction of a zero is not an
    error).
    """
    pred = np.atleast_2d(np.asarray(pred, dtype=float))
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    if pred.shape[0] == 0:
        raise ValueError("need at least one row to score")
    half_scale = (np.abs(pred) + np.abs(truth)) / 2.0
    err = np.abs(pred - truth)
    ratio = np.divide(err, half_scale, out=np.zeros_like(err), where=half_scale > 0.0)
    return float(ratio.mean() * 100.0)


def _pairwise_distances(A, B):
    with np.errstate(over="ignore"):  # inf only where the distance exceeds the range
        diff = A[:, None, :] - B[None, :, :]
        sq = (diff * diff).sum(axis=-1)
        dist = np.sqrt(sq)
        # a difference below ~1e-154 squares to a subnormal or to 0, one above
        # ~1e154 to inf, so those pairs are recomputed with the difference
        # scaled to unit size; pairs with a normal sum of squares keep the
        # plain formula bit for bit
        rescale = (sq < np.finfo(float).tiny) | (np.isinf(sq) & np.isfinite(diff).all(axis=-1))
        if rescale.any():
            d = diff[rescale]
            scale = np.abs(d).max(axis=-1, keepdims=True)
            unit = np.divide(d, scale, out=np.zeros_like(d), where=scale > 0.0)
            dist[rescale] = scale[:, 0] * np.sqrt((unit * unit).sum(axis=-1))
    return dist


def hausdorff(A, B) -> float:
    """Hausdorff distance between two point sets in R^d.

    max of the two directed sup-inf distances, computed exactly from the
    full |A| x |B| distance matrix (point sets here are short forecast
    trajectories, so no spatial index is warranted).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise ValueError("point sets must be nonempty")
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    dm = _pairwise_distances(A, B)
    a_to_b = dm.min(axis=1).max()
    b_to_a = dm.min(axis=0).max()
    return float(max(a_to_b, b_to_a))
