"""Sparse kernel-flow learning for chaotic time-series forecasting."""

import os

# before numpy loads: one BLAS thread unless set (the last bits depend on the count)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .embedding import DelayDataset, TimeSeries, build_delay_dataset, split_train_test
from .evaluation import (
    DEFAULT_LAMBDA2_GRID,
    CvResult,
    EvalProtocol,
    emit_report,
    run_benchmark,
    select_lambda2,
)
from .forecast import TrainedModel, fit, one_step_forecast, predict_one, rollout
from .kernels import KernelParams, NumericalError, cross_gram, gram
from .loss import LossBreakdown, RidgeSystem
from .metrics import hausdorff, smape
from .systems import SystemSpec, builtin_systems, integrate_rk4, load_csv, save_csv
from .training import TrainConfig, TrainReport, sample_nested_batches, soft_threshold, train

__all__ = [
    "__version__",
    "TimeSeries", "DelayDataset", "build_delay_dataset", "split_train_test",
    "KernelParams", "gram", "cross_gram", "RidgeSystem", "LossBreakdown", "NumericalError",
    "TrainConfig", "TrainReport", "soft_threshold", "sample_nested_batches", "train",
    "TrainedModel", "fit", "predict_one", "one_step_forecast", "rollout",
    "smape", "hausdorff",
    "SystemSpec", "builtin_systems", "integrate_rk4", "load_csv", "save_csv",
    "CvResult", "EvalProtocol", "DEFAULT_LAMBDA2_GRID", "select_lambda2",
    "run_benchmark", "emit_report",
]
