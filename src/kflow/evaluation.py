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
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .embedding import DelayDataset, TimeSeries, build_delay_dataset, split_train_test
from .forecast import RolloutDiverged, fit, one_step_forecast, rollout
from .kernels import KernelEvalError, KernelParams, N_KERNELS, N_THETA
from .loss import DegenerateBatchError, FactorizationError
from .metrics import hausdorff, smape
from .systems import Standardizer
from .training import TrainConfig, TrainingAborted, default_init, train

DEFAULT_LAMBDA2_GRID = (0.0, 0.0001, 0.001, 0.01, 0.1, 1.0, 10.0)
METHOD_NAMES = ("RBF", "TrainedRBF", "RegularKF", "SparseKF")
RBF_SIGMA = 0.5

_RECOVERABLE = (FactorizationError, DegenerateBatchError, KernelEvalError,
                TrainingAborted, RolloutDiverged, ValueError)


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


def select_lambda2(dataset: DelayDataset, grid=DEFAULT_LAMBDA2_GRID,
                   config: TrainConfig = TrainConfig()) -> CvResult:
    """3-fold blocked cross-validation over the lambda2 grid.

    Folds partition the training windows in ``dataset``.  Each cell
    trains at its candidate lambda2, as the selected model is trained.
    A failed (candidate, fold) cell scores +inf instead of aborting the sweep.
    Deterministic given config.seed; every cell derives its own batch
    stream from it but shares the same initialization.
    """
    grid = tuple(float(g) for g in grid)
    if not grid:
        raise ValueError("lambda2 grid must be nonempty")
    n = dataset.n_pairs
    if n < 9:
        raise ValueError(f"need at least 9 embedded pairs for 3 folds, got {n}")
    blocks = _fold_blocks(n)
    init = default_init(dataset, config.seed)
    fold_smapes = np.full((len(grid), 3), np.inf)
    for ci, lam2 in enumerate(grid):
        for fi, block in enumerate(blocks):
            keep = np.setdiff1d(np.arange(n), block)
            fold_train = dataset.subset(keep)
            fold_test = dataset.subset(block)
            cell = replace(config, seed=_derive_seed(config.seed, ci, fi), lambda2=lam2)
            try:
                report = train(fold_train, init, cell)
                model = fit(report.final_params, fold_train, config.lambda1)
                pred = one_step_forecast(model, fold_test)
                fold_smapes[ci, fi] = smape(pred, fold_test.Y)
            except _RECOVERABLE:
                pass  # cell stays at +inf
    mean_smapes = fold_smapes.mean(axis=1)
    best = np.inf
    selected = grid[0]
    for ci, lam2 in enumerate(grid):
        m = mean_smapes[ci]
        if m < best or (m == best and lam2 < selected):
            best, selected = m, lam2
    return CvResult(grid, fold_smapes, mean_smapes, float(selected))


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
    touch, so no test information leaks into the transform.
    """
    n_pairs = series.n - tau
    n_train = int(np.floor(train_fraction * n_pairs))
    if n_train < 1 or n_pairs - n_train < 1:
        raise ValueError("series too short for the requested split")
    standardizer = Standardizer.fit(series.values[: n_train + tau])
    std = TimeSeries(standardizer.transform(series.values), series.dt, series.name)
    ds = build_delay_dataset(std, tau)
    train_ds, test_ds = split_train_test(ds, train_fraction)
    return PreparedSeries(standardizer, train_ds, test_ds)


def _score_method(model, prepared: PreparedSeries, rollout_steps: int | None):
    """(smape_raw, hd_standardized) for one fitted model."""
    test = prepared.test
    pred_std = one_step_forecast(model, test)
    inv = prepared.standardizer.inverse
    s = smape(inv(pred_std), inv(test.Y))
    steps = test.n_pairs if rollout_steps is None else min(rollout_steps, test.n_pairs)
    try:
        path = rollout(model, test.X[0], steps)
        h = hausdorff(path, test.Y[:steps])
    except RolloutDiverged:
        h = np.inf
    return s, h


def benchmark_system(series: TimeSeries, protocol: EvalProtocol) -> BenchmarkRow:
    """Run the four methods on one system; failures score +inf."""
    config = protocol.train_config
    smapes = {m: np.inf for m in METHOD_NAMES}
    hds = {m: np.inf for m in METHOD_NAMES}
    nnz = {}
    selected = None
    try:
        prepared = prepare_series(series, protocol.tau, protocol.train_fraction)
    except ValueError:
        return BenchmarkRow(series.name, smapes, hds, "none")

    train_ds = prepared.train
    full_init = default_init(train_ds, config.seed)
    rbf_init = gaussian_only_init(full_init)

    def run(name, params_fn):
        try:
            params = params_fn()
            model = fit(params, train_ds, config.lambda1)
            smapes[name], hds[name] = _score_method(model, prepared, protocol.rollout_steps)
            nnz[name] = params.nnz
        except _RECOVERABLE:
            pass

    run("RBF", fixed_rbf_params)
    dense = replace(config, lambda2=0.0)
    run("TrainedRBF", lambda: train(train_ds, rbf_init, dense).final_params)
    run("RegularKF", lambda: train(train_ds, full_init, dense).final_params)

    def sparse_params():
        nonlocal selected  # recorded even when the final training fails
        selected = select_lambda2(train_ds, protocol.lambda2_grid,
                                  protocol.cv_config).selected_lambda2
        return train(train_ds, full_init, replace(config, lambda2=selected)).final_params

    run("SparseKF", sparse_params)

    finite = [m for m in METHOD_NAMES if np.isfinite(smapes[m])]
    best = min(finite, key=lambda m: smapes[m]) if finite else "none"
    return BenchmarkRow(series.name, smapes, hds, best, selected, nnz)


def run_benchmark(series_list, protocol: EvalProtocol | None = None,
                  threads: int = 1) -> list[BenchmarkRow]:
    """Benchmark every series; result order matches the input order."""
    protocol = protocol or EvalProtocol()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda s: benchmark_system(s, protocol), series_list))
    return [benchmark_system(s, protocol) for s in series_list]


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

REPORT_HEADER_NOTE = (
    "SMAPE: one-step (teacher-forced) forecast error, percent, raw units. "
    "HD: Hausdorff distance of an autonomous rollout to the true test tail, "
    "standardized units."
)


def _fmt(v) -> str:
    return repr(float(v))


def _row_cells(row: BenchmarkRow):
    cells = [row.system]
    for m in METHOD_NAMES:
        cells.append(_fmt(row.smapes[m]))
        cells.append(_fmt(row.hausdorffs[m]))
    cells.append(row.best)
    return cells


def _csv_header():
    cols = ["Name"]
    for m in METHOD_NAMES:
        cols += [f"{m}_SMAPE", f"{m}_HD"]
    cols.append("Best")
    return cols


def emit_report(rows, format: str) -> str:
    """Render benchmark rows as json, csv or a markdown table."""
    if not rows:
        raise ValueError("no rows to report")
    if format == "json":
        import json
        doc = {"note": REPORT_HEADER_NOTE, "rows": [r.to_dict() for r in rows]}
        return json.dumps(doc, indent=2)
    if format == "csv":
        lines = ["# " + REPORT_HEADER_NOTE, ",".join(_csv_header())]
        lines += [",".join(_row_cells(r)) for r in rows]
        return "\n".join(lines) + "\n"
    if format == "markdown":
        header = _csv_header()
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join(["---"] * len(header)) + "|"]
        lines += ["| " + " | ".join(_row_cells(r)) + " |" for r in rows]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}")


def emit_distribution_csv(rows) -> str:
    """Per-method SMAPE columns, one row per system (box-plot input)."""
    if not rows:
        raise ValueError("no rows to report")
    lines = [",".join(METHOD_NAMES)]
    for r in rows:
        lines.append(",".join(_fmt(r.smapes[m]) for m in METHOD_NAMES))
    return "\n".join(lines) + "\n"


def win_counts(rows) -> dict:
    counts = {m: 0 for m in METHOD_NAMES}
    counts["none"] = 0
    for r in rows:
        counts[r.best] += 1
    return counts
