"""Benchmark trajectory generation and CSV ingestion.

Built-in chaotic systems are integrated with fixed-step classical RK4:
deterministic, uniform sampling, no adaptive stepping.  Anything not
shipped here (delay equations, externally generated corpora) arrives
through :func:`load_csv`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .embedding import TimeSeries


class IntegrationError(RuntimeError):
    """Trajectory left the finite domain (blow-up)."""


class DataFormatError(ValueError):
    """CSV body is not a rectangular numeric table."""


@dataclass(frozen=True)
class SystemSpec:
    """An autonomous vector field with integration defaults."""

    name: str
    rhs: Callable[[np.ndarray], np.ndarray]
    default_ic: tuple = ()
    default_dt: float = 0.01
    transient_skip: int = 1000


def _rk4_step(rhs, state, dt):
    k1 = rhs(state)
    k2 = rhs(state + 0.5 * dt * k1)
    k3 = rhs(state + 0.5 * dt * k2)
    k4 = rhs(state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_rk4(spec: SystemSpec, n_samples: int, dt: float | None = None) -> TimeSeries:
    """Integrate a system spec and record n_samples states after the transient."""
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    dt = spec.default_dt if dt is None else float(dt)
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    state = np.asarray(spec.default_ic, dtype=float)
    for step in range(spec.transient_skip):
        state = _rk4_step(spec.rhs, state, dt)
        if not np.all(np.isfinite(state)):
            raise IntegrationError(f"{spec.name}: blow-up during transient at step {step}")
    out = np.empty((n_samples, state.size))
    out[0] = state
    for k in range(1, n_samples):
        state = _rk4_step(spec.rhs, state, dt)
        if not np.all(np.isfinite(state)):
            raise IntegrationError(f"{spec.name}: blow-up at recorded step {k}")
        out[k] = state
    return TimeSeries(out, dt, spec.name)


# ---------------------------------------------------------------------------
# built-in systems
# ---------------------------------------------------------------------------

def _lorenz(sigma=10.0, rho=28.0, beta=8.0 / 3.0):
    def rhs(u):
        x, y, z = u
        return np.array([sigma * (y - x), x * (rho - z) - y, x * y - beta * z])
    return rhs


def _rossler(a=0.2, b=0.2, c=5.7):
    def rhs(u):
        x, y, z = u
        return np.array([-y - z, x + a * y, b + z * (x - c)])
    return rhs


def _thomas(b=0.208186):
    def rhs(u):
        x, y, z = u
        return np.array([np.sin(y) - b * x, np.sin(z) - b * y, np.sin(x) - b * z])
    return rhs


def _duffing(delta=0.3, alpha=-1.0, beta=1.0, gamma=0.5, omega=1.2):
    # periodic forcing carried as a phase pair (cos, sin) so the recorded
    # state stays bounded and the system is autonomous in R^4
    def rhs(u):
        x, v, c, s = u
        return np.array([
            v,
            -delta * v - alpha * x - beta * x ** 3 + gamma * c,
            -omega * s,
            omega * c,
        ])
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# dt={series.dt!r}\n")
        fh.write(",".join(f"x{i + 1}" for i in range(series.dim)) + "\n")
        for row in series.values:
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
        return cls(np.asarray(doc["mean"], dtype=float), np.asarray(doc["scale"], dtype=float))
