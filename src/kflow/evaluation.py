"""Regularization-path selection and the four-method benchmark.

The sparsity penalty lambda2 is chosen by 3-fold cross-validation on
contiguous blocks: for each candidate, the kernel is learned on the two
thirds that remain when one block is held out, the block is forecast
one step ahead, and the candidate with the smallest mean SMAPE wins
(ties prefer less regularization).

The benchmark compares, per system:

  RBF        fixed Gaussian kernel, sigma = 0.5, no training
  TrainedRBF Gaussian-only dictionary trained dense
  RegularKF  full dictionary, lambda2 = 0
  SparseKF   full dictionary, lambda2 from cross-validation

Every method fits a ridge regressor on the training windows, forecasts
the held-out tail one step ahead (SMAPE, raw units) and reruns the map
autonomously from the first test window (Hausdorff distance to the true
tail, standardized units).  Failures score +inf and never abort the
harness.

``kflow train --mode sparse`` runs SparseKF's recipe (select_lambda2, then
train), and both commands resolve their settings into one EvalProtocol.

Independent trainings run in forked workers, one per core of the CPU
affinity (``taskset`` limits them), bit-identical to serial at the same
BLAS thread count.  Per system, one pool runs the CV cells, then
TrainedRBF and RegularKF; the parent scores RBF, selects lambda2 from
the cells and trains, fits and scores SparseKF while the workers run the
dense methods.  With one usable core, no fork, or other threads in the
caller (forking those is unsafe), each task runs in the parent when asked.
Kernel tiles take no helper threads in a worker or beside live ones.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from .embedding import DelayDataset, TimeSeries, build_delay_dataset, split_train_test
from .forecast import RolloutDiverged, fit, one_step_forecast, rollout
from .kernels import KernelParams, N_KERNELS, N_THETA, NumericalError, _usable_cores
from .metrics import hausdorff, smape
from .systems import Standardizer
from .training import TrainConfig, check_range, default_init, train

DEFAULT_LAMBDA2_GRID = (0.0, 0.0001, 0.001, 0.01, 0.1, 1.0, 10.0)
METHOD_NAMES = ("RBF", "TrainedRBF", "RegularKF", "SparseKF")
RBF_SIGMA = 0.5

_RECOVERABLE = (NumericalError, ValueError)


def _start_worker(tasks) -> None:
    global _worker_tasks  # set in worker processes only
    _worker_tasks = tasks


def _run_in_worker(i: int):
    return _worker_tasks[i]()


@contextmanager
def _task_pool(tasks: list):
    """Yield result(i) = tasks[i](), computed in forked workers where safe.

    Workers take the tasks in list order; the tasks reach them by the fork
    and only indices and results are pickled.  An unrecoverable error
    re-raises from result(i) with its type; on leaving, pending tasks are
    cancelled and the pool is shut down.
    """
    workers = min(len(tasks), _usable_cores())
    if workers < 2 or threading.active_count() > 1 or not hasattr(os, "fork"):
        yield lambda i: tasks[i]()
        return
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(tasks,))
    try:
        futures = [pool.submit(_run_in_worker, i) for i in range(len(tasks))]
        yield lambda i: futures[i].result()
    finally:
        pool.shutdown(cancel_futures=True)


def _derive_seed(base: int, *keys: int) -> int:
    ss = np.random.SeedSequence([base & 0xFFFFFFFF, (base >> 32) & 0xFFFFFFFF, *keys])
    return int(ss.generate_state(1, np.uint64)[0])


def fixed_rbf_params() -> KernelParams:
    """Dictionary reduced to the Gaussian term exp(-r^2 / RBF_SIGMA^2)."""
    alpha = np.zeros(N_KERNELS)
    alpha[2] = 1.0
    theta = np.ones(N_THETA)
    theta[4] = RBF_SIGMA / np.sqrt(2.0)
    return KernelParams(alpha, theta)


def gaussian_only_init(full: KernelParams) -> KernelParams:
    """``full`` (a geometry-aware init) with only the Gaussian weight active."""
    alpha = np.zeros(N_KERNELS)
    alpha[2] = full.alpha[2]
    return KernelParams(alpha, full.theta)


@dataclass(frozen=True)
class CvResult:
    grid: tuple
    fold_smapes: np.ndarray
    mean_smapes: np.ndarray
    selected_lambda2: float

    def to_dict(self) -> dict:
        return {
            "grid": list(self.grid),
            "fold_smapes": self.fold_smapes.tolist(),
            "mean_smapes": self.mean_smapes.tolist(),
            "selected_lambda2": self.selected_lambda2,
        }


def _fold_blocks(n: int):
    """Three contiguous index blocks partitioning range(n)."""
    return [blk for blk in np.array_split(np.arange(n), 3)]


def _cv_cell(shared, task: int) -> float:
    """SMAPE of grid candidate task // 3 on fold task % 3; +inf if it fails."""
    dataset, blocks, init, grid, config = shared
    ci, fi = divmod(task, 3)
    fold_train = dataset.subset(np.setdiff1d(np.arange(dataset.n_pairs), blocks[fi]))
    fold_test = dataset.subset(blocks[fi])
    cell = replace(config, seed=_derive_seed(config.seed, ci, fi), lambda2=grid[ci])
    try:
        report = train(fold_train, init, cell)
        model = fit(report.final_params, fold_train, config.lambda1)
        return smape(one_step_forecast(model, fold_test), fold_test.Y)
    except _RECOVERABLE:
        return np.inf


def _cv_cells(dataset: DelayDataset, grid, config: TrainConfig):
    """(grid, its 3 * len(grid) _cv_cell tasks); ValueError if none can run."""
    grid = check_range("lambda2_grid", tuple(float(g) for g in grid))
    n = dataset.n_pairs
    if n < 9:
        raise ValueError(f"need at least 9 embedded pairs for 3 folds, got {n}")
    shared = (dataset, _fold_blocks(n), default_init(dataset, config.seed), grid, config)
    return grid, [partial(_cv_cell, shared, i) for i in range(3 * len(grid))]


def _select(grid: tuple, cell_smapes) -> CvResult:
    """CvResult of the cells: the smallest mean SMAPE wins, ties prefer the smaller lambda2."""
    fold_smapes = np.array(cell_smapes).reshape(len(grid), 3)
    mean_smapes = fold_smapes.mean(axis=1)
    best = np.inf
    selected = grid[0]
    for ci, lam2 in enumerate(grid):
        m = mean_smapes[ci]
        if m < best or (m == best and lam2 < selected):
            best, selected = m, lam2
    return CvResult(grid, fold_smapes, mean_smapes, float(selected))


def select_lambda2(dataset: DelayDataset, grid=DEFAULT_LAMBDA2_GRID,
                   config: TrainConfig = TrainConfig()) -> CvResult:
    """3-fold blocked cross-validation over the lambda2 grid.

    Folds partition the training windows in ``dataset``.  Each cell
    trains at its candidate lambda2, as the selected model is trained.
    A failed (candidate, fold) cell scores +inf instead of aborting the sweep.
    Deterministic given config.seed; every cell derives its own batch
    stream from it but shares the same initialization.
    """
    grid, cells = _cv_cells(dataset, grid, config)
    with _task_pool(cells) as result:
        return _select(grid, [result(i) for i in range(len(cells))])


@dataclass(frozen=True)
class EvalProtocol:
    """Resolved settings shared by ``kflow train`` and ``kflow benchmark``.

    train_config.lambda1 is the ridge nugget everywhere (each method sets
    lambda2); CV cells train cv_epochs epochs (None: train_config.epochs).
    """

    tau: int = 5
    train_fraction: float = 0.8
    lambda2_grid: tuple = DEFAULT_LAMBDA2_GRID
    train_config: TrainConfig = field(default_factory=TrainConfig)
    cv_epochs: int | None = None
    rollout_steps: int | None = None  # None: full test length

    def __post_init__(self):
        for f in fields(self):
            check_range(f.name, getattr(self, f.name))

    @property
    def cv_config(self) -> TrainConfig:
        if self.cv_epochs is None:
            return self.train_config
        return replace(self.train_config, epochs=self.cv_epochs)


@dataclass
class BenchmarkRow:
    system: str
    smapes: dict
    hausdorffs: dict
    best: str
    selected_lambda2: float | None = None
    nnz: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        doc = {"system": self.system}
        for m in METHOD_NAMES:
            doc[f"{m}_smape"] = self.smapes[m]
            doc[f"{m}_hd"] = self.hausdorffs[m]
        doc["best"] = self.best
        doc["selected_lambda2"] = self.selected_lambda2
        doc["nnz"] = self.nnz
        return doc


@dataclass(frozen=True)
class PreparedSeries:
    """Standardization and the embedded train/test split of a series."""

    standardizer: Standardizer
    train: DelayDataset
    test: DelayDataset


def prepare_series(series: TimeSeries, tau: int, train_fraction: float) -> PreparedSeries:
    """Standardize on the training portion, embed, and split in time.

    The statistics come from exactly the raw rows the training windows
    touch, so no test information leaks into the transform.  Training needs
    at least two windows: a kernel learns from pairs of them.
    """
    n_pairs = series.n - tau
    n_train = int(np.floor(train_fraction * n_pairs))
    if n_train < 2 or n_pairs - n_train < 1:
        raise ValueError(f"series too short for the requested split: {n_train} training and "
                         f"{n_pairs - n_train} test windows (need at least 2 and 1)")
    standardizer = Standardizer.fit(series.values[: n_train + tau])
    std = TimeSeries(standardizer.transform(series.values), series.dt, series.name)
    ds = build_delay_dataset(std, tau)
    train_ds, test_ds = split_train_test(ds, train_fraction)
    return PreparedSeries(standardizer, train_ds, test_ds)


def _method(prepared: PreparedSeries, protocol: EvalProtocol, init: KernelParams,
            lambda2: float | None = None):
    """(smape, hd, nnz) of one method, None if it fails: ``init`` trained at lambda2 (None:
    taken untrained), fitted on the training windows, then scored by its one-step SMAPE
    (raw units) and its rollout's HD (standardized units)."""
    config, test = protocol.train_config, prepared.test
    try:
        params = init
        if lambda2 is not None:
            params = train(prepared.train, init, replace(config, lambda2=lambda2)).final_params
        model = fit(params, prepared.train, config.lambda1)
        inv = prepared.standardizer.inverse
        s = smape(inv(one_step_forecast(model, test)), inv(test.Y))
        steps = min(protocol.rollout_steps or test.n_pairs, test.n_pairs)
        try:
            h = hausdorff(rollout(model, test.X[0], steps), test.Y[:steps])
        except RolloutDiverged:
            h = np.inf
        return s, h, params.nnz
    except _RECOVERABLE:
        return None


def benchmark_system(series: TimeSeries, protocol: EvalProtocol) -> BenchmarkRow:
    """Run the four methods on one system; failures score +inf."""
    smapes = {m: np.inf for m in METHOD_NAMES}
    hds = {m: np.inf for m in METHOD_NAMES}
    nnz = {}
    selected = None
    try:
        prepared = prepare_series(series, protocol.tau, protocol.train_fraction)
    except ValueError:
        return BenchmarkRow(series.name, smapes, hds, "none")

    full_init = default_init(prepared.train, protocol.train_config.seed)
    try:
        grid, cells = _cv_cells(prepared.train, protocol.lambda2_grid, protocol.cv_config)
    except ValueError:  # SparseKF cannot cross-validate and fails; the dense methods still run
        grid, cells = (), []
    dense = [partial(_method, prepared, protocol, init, 0.0)
             for init in (gaussian_only_init(full_init), full_init)]
    with _task_pool(cells + dense) as result:
        rbf = _method(prepared, protocol, fixed_rbf_params())
        sparse = None
        if cells:  # selected is recorded even when the final training fails
            selected = _select(grid, [result(i) for i in range(len(cells))]).selected_lambda2
            sparse = _method(prepared, protocol, full_init, selected)
        scores = (rbf, result(len(cells)), result(len(cells) + 1), sparse)
    for name, scored in zip(METHOD_NAMES, scores):
        if scored is not None:
            smapes[name], hds[name], nnz[name] = scored

    finite = [m for m in METHOD_NAMES if np.isfinite(smapes[m])]
    best = min(finite, key=lambda m: smapes[m]) if finite else "none"
    return BenchmarkRow(series.name, smapes, hds, best, selected, nnz)


def run_benchmark(series_list, protocol: EvalProtocol | None = None) -> list[BenchmarkRow]:
    """Benchmark every series; result order matches the input order."""
    protocol = protocol or EvalProtocol()
    return [benchmark_system(s, protocol) for s in series_list]


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

REPORT_HEADER_NOTE = (
    "SMAPE: one-step (teacher-forced) forecast error, percent, raw units. "
    "HD: Hausdorff distance of an autonomous rollout to the true test tail, "
    "standardized units."
)


def emit_report(rows) -> str:
    """The rows as csv, one line per system under the header, after a comment line
    holding the note; every score in repr form."""
    if not rows:
        raise ValueError("no rows to report")
    header = ["Name", *(f"{m}_{col}" for m in METHOD_NAMES for col in ("SMAPE", "HD")), "Best"]
    lines = ["# " + REPORT_HEADER_NOTE, ",".join(header)]
    for r in rows:
        scores = (repr(float(v)) for m in METHOD_NAMES for v in (r.smapes[m], r.hausdorffs[m]))
        lines.append(",".join([r.system, *scores, r.best]))
    return "\n".join(lines) + "\n"


def win_counts(rows) -> dict:
    counts = {m: 0 for m in METHOD_NAMES}
    counts["none"] = 0
    for r in rows:
        counts[r.best] += 1
    return counts
