"""Spans around the calls that cross a kflow module boundary.

The tracer never edits kflow's sources.  It replaces a name inside the
module that calls it (``kflow.forecast.gram`` is the ``gram`` that
``forecast.fit`` sees) with a wrapper that records a span, and puts every
original back on exit.  Spans live in memory: name, start, end, the index
of the enclosing span, the iteration they belong to, whether the call
raised, and a work count (rows, steps) where the boundary has one.

The workloads are single-threaded in Python, so one stack of open spans
gives each span its parent, and a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    parent: int | None
    iteration: int
    start: float = 0.0
    end: float = 0.0
    error: bool = False
    units: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans and counters, tagged with the current iteration.

    Set-up k is tagged ``-(k + 1)``; timed iteration i is tagged ``i``.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[int, Counter] = {}
        self.iteration = -1
        self._stack: list[int] = []
        self._own: list[float] = []

    def count(self, key: str, amount=1) -> None:
        self.counters.setdefault(self.iteration, Counter())[key] += amount

    def call(self, name: str, fn, args, kwargs, observe=None):
        """Run fn inside a span; observe(tracer, span, args, result, error)."""
        span = Span(name, self._stack[-1] if self._stack else None, self.iteration)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        result = error = None
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as err:
            error = err
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            span.error = error is not None
            if observe is not None:
                observe(self, span, args, result, error)

    def self_times(self) -> list[float]:
        """Each span's duration minus its direct children's (computed once
        per number of spans, since aggregation asks for it per iteration)."""
        if len(self._own) != len(self.spans):
            own = [s.duration for s in self.spans]
            for s in self.spans:
                if s.parent is not None:
                    own[s.parent] -= s.duration
            self._own = own
        return self._own

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def totals(self, iteration: int, outside: str | None = None) -> dict:
        """{span name: [inclusive s, self s, calls, errors, units]} for one iteration.

        With ``outside``, spans nested in a span of that name are left
        out: outside="evaluation.cv" keeps the CV cells' trainings out of
        the final trainings' time.
        """
        own = self.self_times()
        out: dict[str, list] = {}
        for i, s in enumerate(self.spans):
            if s.iteration != iteration or (outside and self.has_ancestor(i, outside)):
                continue
            acc = out.setdefault(s.name, [0.0, 0.0, 0, 0, 0])
            acc[0] += s.duration
            acc[1] += own[i]
            acc[2] += 1
            acc[3] += int(s.error)
            acc[4] += s.units
        return out

    def counts(self, iteration: int) -> Counter:
        return self.counters.get(iteration, Counter())


# ---------------------------------------------------------------------------
# boundaries
# ---------------------------------------------------------------------------

def _observe_train(tracer, span, args, report, error):
    # train(dataset, init, config) is called positionally throughout kflow
    span.units = args[2].epochs if len(args) > 2 else 0
    tracer.count("training.epochs", span.units)
    if report is not None:
        tracer.count("training.epochs_failed", len(report.failures))


def _observe_gram(tracer, span, args, result, error):
    if result is not None:
        span.units = result.size


def _observe_rows(tracer, span, args, result, error):
    if result is not None:
        span.units = result.shape[0]


def _observe_rollout(tracer, span, args, result, error):
    if result is not None:
        span.units = result.shape[0]
    elif hasattr(error, "step"):  # RolloutDiverged: steps made before it
        span.units = error.step


def _observe_factor(tracer, span, args, system, error):
    if system is not None and getattr(system, "_ldl", None) is not None:
        tracer.count("loss.factor_ldl")


def _observe_clip(tracer, span, args, result, error):
    g, cap = args[0], args[1]
    if cap > 0.0 and float(np.linalg.norm(g)) > cap:
        tracer.count("training.clip_events")


def _observe_cv(tracer, span, args, cv, error):
    if cv is not None:
        cells = np.asarray(cv.fold_smapes)
        tracer.count("evaluation.cv_cells", cells.size)
        tracer.count("evaluation.cv_cells_failed", int(np.count_nonzero(~np.isfinite(cells))))


# Each boundary: span name, the (owner, attribute) pairs it replaces, and
# an optional observer that turns arguments or results into counts.  A
# name is replaced in every module that calls it, so a call made through
# any of them lands in the same span.  The phase boundaries are the
# top-level calls of an iteration; the layer boundaries are the calls
# between kflow's modules below them.  Only a traced run installs them.
PHASE_BOUNDARIES = (
    ("training.train", (("kflow.training", "train"), ("kflow.evaluation", "train")),
     _observe_train),
    ("forecast.fit", (("kflow.forecast", "fit"), ("kflow.evaluation", "fit")), None),
    ("forecast.onestep", (("kflow.forecast", "one_step_forecast"),
                          ("kflow.evaluation", "one_step_forecast")), _observe_rows),
    ("forecast.rollout", (("kflow.forecast", "rollout"), ("kflow.evaluation", "rollout")),
     _observe_rollout),
    ("evaluation.cv", (("kflow.evaluation", "select_lambda2"),), _observe_cv),
)

LAYER_BOUNDARIES = (
    ("systems.integrate", (("kflow.systems", "integrate_rk4"), ("kflow.cli", "integrate_rk4")),
     None),
    ("embedding.build", (("kflow.evaluation", "build_delay_dataset"),), None),
    ("kernels.gram", (("kflow.forecast", "gram"), ("kflow.loss", "gram")), _observe_gram),
    ("kernels.cross_gram", (("kflow.forecast", "cross_gram"),), _observe_rows),
    ("kernels.block", (("kflow.loss", "_eval_block"),), None),
    ("kernels.grad_block", (("kflow.loss", "_grad_blocks"),), None),
    ("loss.nested_eval", (("kflow.training", "_nested_eval"),), None),
    ("loss.solve", (("kflow.loss.RidgeSystem", "solve"),), None),
    ("loss.solve_factored", (("kflow.loss.RidgeSystem", "_solve_factored"),), None),
    ("loss.factor", (("kflow.loss", "RidgeSystem"), ("kflow.forecast", "RidgeSystem")),
     _observe_factor),
    ("training.calibrate", (("kflow.training", "_calibrate_scale"),), None),
    ("training.clip", (("kflow.training", "_clip_norm"),), _observe_clip),
    ("metrics.hausdorff", (("kflow.metrics", "hausdorff"), ("kflow.evaluation", "hausdorff")),
     None),
    ("metrics.smape", (("kflow.metrics", "smape"), ("kflow.evaluation", "smape")), None),
    ("cli.report", (("kflow.cli", "emit_report"), ("kflow.cli", "emit_distribution_csv"),
                    ("kflow.cli", "_write_json")), None),
)


def _resolve(path: str):
    """A module, or a class inside one (``kflow.loss.RidgeSystem``)."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module_path, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module_path), attr)


def _make_wrapper(tracer, name, original, observe):
    # a plain function also binds as a method when set on a class
    def wrapper(*args, **kwargs):
        return tracer.call(name, original, args, kwargs, observe)
    wrapper.__wrapped__ = original
    return wrapper


class Boundaries:
    """Installs boundary wrappers and restores the originals on exit.

    A boundary whose target no longer exists in kflow is skipped and
    listed in ``missing``; the metrics it fed then read zero.
    """

    def __init__(self, tracer: Tracer, boundaries):
        self.tracer = tracer
        self.boundaries = boundaries
        self.missing: list[str] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for name, targets, observe in self.boundaries:
            for owner_path, attr in targets:
                try:
                    owner = _resolve(owner_path)
                    original = owner.__dict__[attr]
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(f"{owner_path}.{attr}")
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, _make_wrapper(self.tracer, name, original, observe))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False
