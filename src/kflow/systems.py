"""Benchmark trajectory generation and CSV ingestion.

Built-in chaotic systems are integrated with fixed-step classical RK4:
deterministic, uniform sampling, no adaptive stepping.  Anything not
shipped here (delay equations, externally generated corpora) arrives
through :func:`load_csv`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .embedding import TimeSeries, _checked_dt
from .kernels import NumericalError


class IntegrationError(NumericalError, RuntimeError):
    """Trajectory left the finite domain (blow-up)."""


class DataFormatError(ValueError):
    """CSV body is not a rectangular numeric table."""


@dataclass(frozen=True)
class SystemSpec:
    """An autonomous vector field with integration defaults.

    ``rhs`` takes the state as a tuple of d floats and returns its derivative as
    a length-d sequence (a tuple or an ndarray).  An OverflowError it raises, or
    a ValueError on a non-finite state (``math.sin(inf)``), is reported as a blow-up.
    """

    name: str
    rhs: Callable[[tuple[float, ...]], Sequence[float]]
    default_ic: tuple = ()
    default_dt: float = 0.01
    transient_skip: int = 1000


# The recurrence runs on tuples of Python floats, which on 3- and 4-element
# states is several times faster than numpy, and is bit-identical to the
# array form: every stage keeps the array form's operation order, CPython
# fuses no multiply and add, and the built-ins' math.sin and float ** round
# as numpy's float64 scalar sin and ** (both libm) do.  Where numpy returned
# inf or nan, Python raises OverflowError (**) or ValueError (math.sin(inf),
# so only on a non-finite stage); both are reported as a blow-up of that
# step, and no RuntimeWarning escapes.
def _rk4_step(spec, state, dt, where, step):
    rhs = spec.rhs
    h = 0.5 * dt
    try:
        k1 = rhs(u := state)
        k2 = rhs(u := tuple([s + h * k for s, k in zip(state, k1)]))
        k3 = rhs(u := tuple([s + h * k for s, k in zip(state, k2)]))
        k4 = rhs(u := tuple([s + dt * k for s, k in zip(state, k3)]))
    except (OverflowError, ValueError) as err:
        if isinstance(err, ValueError) and all(map(math.isfinite, u)):
            raise  # the rhs's own error, such as a state of the wrong length
        raise IntegrationError(f"{spec.name}: blow-up {where} {step}") from err
    c = dt / 6.0
    state = tuple([s + c * (((a + 2.0 * b) + 2.0 * e) + f)
                   for s, a, b, e, f in zip(state, k1, k2, k3, k4)])
    if not all(map(math.isfinite, state)):
        raise IntegrationError(f"{spec.name}: blow-up {where} {step}")
    return state


def integrate_rk4(spec: SystemSpec, n_samples: int, dt: float | None = None) -> TimeSeries:
    """Integrate a system spec and record n_samples states after the transient.

    Bad n_samples or dt is a ValueError; a blow-up is an IntegrationError naming its step.
    """
    try:
        n_samples = operator.index(n_samples)
    except TypeError:
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}") from None
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    dt = _checked_dt(spec.default_dt if dt is None else dt)
    state = tuple(map(float, spec.default_ic))
    for step in range(spec.transient_skip):
        state = _rk4_step(spec, state, dt, "during transient at step", step)
    out = np.empty((n_samples, len(state)))
    out[0] = state
    for k in range(1, n_samples):
        out[k] = state = _rk4_step(spec, state, dt, "at recorded step", k)
    return TimeSeries(out, dt, spec.name)


# ---------------------------------------------------------------------------
# built-in systems
# ---------------------------------------------------------------------------

def _lorenz(sigma=10.0, rho=28.0, beta=8.0 / 3.0):
    def rhs(u):
        x, y, z = u
        return (sigma * (y - x), x * (rho - z) - y, x * y - beta * z)
    return rhs


def _rossler(a=0.2, b=0.2, c=5.7):
    def rhs(u):
        x, y, z = u
        return (-y - z, x + a * y, b + z * (x - c))
    return rhs


def _thomas(b=0.208186):
    def rhs(u):
        x, y, z = u
        return (math.sin(y) - b * x, math.sin(z) - b * y, math.sin(x) - b * z)
    return rhs


def _duffing(delta=0.3, alpha=-1.0, beta=1.0, gamma=0.5, omega=1.2):
    # periodic forcing carried as a phase pair (cos, sin) so the recorded
    # state stays bounded and the system is autonomous in R^4; x ** 3 stays
    # a libm pow, as the array form's scalar ** was (x * x * x rounds twice)
    def rhs(u):
        x, v, c, s = u
        return (
            v,
            -delta * v - alpha * x - beta * x ** 3 + gamma * c,
            -omega * s,
            omega * c,
        )
    return rhs


def builtin_systems() -> list[SystemSpec]:
    """Shipped benchmark systems with classical parameter values."""
    return [
        SystemSpec(
            name="lorenz", rhs=_lorenz(),
            default_ic=(-8.0, 7.0, 27.0), default_dt=0.01, transient_skip=1000,
        ),
        SystemSpec(
            name="rossler", rhs=_rossler(),
            default_ic=(1.0, 1.0, 0.0), default_dt=0.05, transient_skip=2000,
        ),
        SystemSpec(
            name="thomas", rhs=_thomas(),
            default_ic=(0.1, 0.0, 0.0), default_dt=0.1, transient_skip=2000,
        ),
        SystemSpec(
            name="duffing", rhs=_duffing(),
            default_ic=(1.0, 0.0, 1.0, 0.0), default_dt=0.05, transient_skip=2000,
        ),
    ]


def get_system(name: str) -> SystemSpec:
    for spec in builtin_systems():
        if spec.name == name.lower():
            return spec
    known = ", ".join(s.name for s in builtin_systems())
    raise KeyError(f"unknown system {name!r}; built-ins: {known}")


# ---------------------------------------------------------------------------
# CSV I/O
#
# Format: optional "# dt=<value>" comment lines, optional header row
# (auto-detected when the first non-comment row fails float parsing),
# then a rectangular numeric body.  Values are written with 17
# significant digits so a save/load round trip is exact.
# ---------------------------------------------------------------------------

def load_csv(path) -> TimeSeries:
    """Read a time series: rows = samples, columns = state coordinates."""
    rows = []
    header_skipped = False
    dt = 1.0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.startswith("dt="):
                    try:
                        dt = float(body[3:])
                    except ValueError:
                        raise DataFormatError(f"{path}:{lineno}: bad dt comment {line!r}") from None
                continue
            cells = [c.strip() for c in line.split(",")]
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                if not rows and not header_skipped:
                    header_skipped = True
                    continue
                raise DataFormatError(f"{path}:{lineno}: non-numeric cell in {line!r}") from None
            if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
                raise DataFormatError(
                    f"{path}:{lineno}: ragged row ({len(rows[-1])} cells, expected {len(rows[0])})"
                )
    if not rows:
        raise DataFormatError(f"{path}: no numeric data")
    return TimeSeries(np.asarray(rows, dtype=float), dt)


def save_csv(series: TimeSeries, path) -> None:
    """Write a series in the format :func:`load_csv` reads back exactly."""
    _write_csv(path, series.values, series.dt)


def _write_csv(path, values: np.ndarray, dt: float) -> None:
    """save_csv's format for any 2-d array of rows, also one too short to be a TimeSeries."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# dt={dt!r}\n")
        fh.write(",".join(f"x{i + 1}" for i in range(values.shape[1])) + "\n")
        for row in values:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Standardizer:
    """Per-coordinate affine map to zero mean, unit variance.

    Fitted on the training portion of a trajectory; the kernel
    dictionary's parameter initialization assumes O(1) coordinate
    scales.  Constant coordinates keep scale 1 so the map stays
    invertible.
    """

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, values: np.ndarray) -> "Standardizer":
        values = np.asarray(values, dtype=float)
        mean = values.mean(axis=0)
        scale = values.std(axis=0)
        scale = np.where(scale > 0.0, scale, 1.0)
        return cls(mean, scale)

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=float) - self.mean) / self.scale

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=float) * self.scale + self.mean

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "scale": self.scale.tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> "Standardizer":
        try:
            return cls(np.asarray(doc["mean"], dtype=float), np.asarray(doc["scale"], dtype=float))
        except TypeError as err:  # JSON of the wrong type: null, a string, an object, ...
            raise ValueError(f"standardization has JSON of the wrong type: {err}") from err
