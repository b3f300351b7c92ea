"""The benchmark's workloads: configuration, set-up and one timed iteration.

Every workload runs against kflow's public modules and calls them
through the module (``forecast.fit``, not a name imported from it), so
the tracer's boundary wrappers see the calls in a traced run.  The data
are fixed trajectories of the built-in systems; the seed reaches kflow
only as ``TrainConfig.seed`` (and the initialization seed, as in
``kflow benchmark``), on every workload but fit-forecast-paper (see
there).

A workload times its own phases (train, fit, one-step forecast,
rollout) with ``time.perf_counter`` and counts its own calls and
operations, so an untraced run installs no wrappers at all.

Sizes are cut from the paper's so that several timed iterations fit in a
run on a 2-core machine; see README.md for the cut and the reasons.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from kflow import cli, evaluation, forecast, kernels, metrics, systems, training

TAU = 5
LAMBDA1 = 0.05
TRAIN_FRACTION = 0.8


def _no_reference(config: dict):
    return None


@dataclass(frozen=True)
class Workload:
    """setup(seed, work) -> state is timed as set-up; iterate(state,
    reference) -> Result is one timed iteration; reference(config) is
    computed once per worker, untimed, for iterate to check against."""

    name: str
    config: dict
    setup: Callable
    iterate: Callable
    reference: Callable = _no_reference


@dataclass
class Result:
    """What one timed iteration produced, for the correctness checks."""

    smape_pct: float | None     # None when the scored method failed
    hd: float | None            # None when the scored rollout diverged
    nnz_alpha: int
    lambda2: float
    digest: str
    calls: int = 0              # kflow calls of the timed section
    calls_failed: int = 0       # ... that raised, or (the CLI) exited non-zero
    operations: int = 0         # failed_frac's: epochs, fits, rollouts, scored methods
    operations_failed: int = 0  # skipped epochs, diverged rollouts, methods scoring inf
    phases: dict = field(default_factory=dict)  # seconds and work units per phase
    problems: list = field(default_factory=list)

    def outputs(self) -> dict:
        """The fields that must be identical across every run of a seed."""
        return {"smape_pct": self.smape_pct, "hd": self.hd, "nnz_alpha": self.nnz_alpha,
                "lambda2": self.lambda2, "digest": self.digest}


def _prepared(system: str, n: int):
    series = systems.integrate_rk4(systems.get_system(system), n)
    return evaluation.prepare_series(series, TAU, TRAIN_FRACTION)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _timed(phases: dict, name: str, fn, *args):
    t0 = time.perf_counter()
    try:
        return fn(*args)
    finally:
        phases[name] = time.perf_counter() - t0


def _fit_and_score(params, prepared, lambda2: float, phases: dict,
                   rollout: bool = True) -> Result:
    """Fit, then one-step SMAPE (raw units) and, if asked, rollout HD
    (standardized), checked."""
    model = _timed(phases, "fit_s", forecast.fit, params, prepared.train, LAMBDA1)
    test = prepared.test
    problems = []
    pred = _timed(phases, "onestep_s", forecast.one_step_forecast, model, test)
    phases["onestep_rows"] = pred.shape[0]
    if pred.shape != test.Y.shape or not np.all(np.isfinite(pred)):
        problems.append("one-step predictions are not finite or have the wrong shape")
    inv = prepared.standardizer.inverse
    smape = metrics.smape(inv(pred), inv(test.Y))
    if not 0.0 <= smape <= 200.0:
        problems.append(f"SMAPE {smape} outside [0, 200]")
    if not rollout:
        return Result(smape, None, params.nnz, lambda2, _digest(pred, params.alpha, params.theta),
                      calls=2, operations=1, phases=phases, problems=problems)
    try:
        path = _timed(phases, "rollout_s", forecast.rollout, model, test.X[0], test.n_pairs)
    except forecast.RolloutDiverged as err:
        path, hd = err.partial, None
    else:
        hd = metrics.hausdorff(path, test.Y)
        # the first rollout step and the first one-step prediction both
        # predict from the true first test window
        if not np.allclose(path[0], pred[0], rtol=1e-6, atol=1e-9):
            problems.append("rollout step 1 disagrees with the one-step forecast")
    phases["rollout_steps"] = path.shape[0]
    return Result(smape, hd, params.nnz, lambda2,
                  _digest(pred, path, params.alpha, params.theta),
                  calls=3, calls_failed=int(hd is None), operations=2,
                  operations_failed=int(hd is None), phases=phases, problems=problems)


def _add_epochs(result: Result, report) -> Result:
    result.operations += report.epochs_run
    result.operations_failed += len(report.failures)
    return result


# ---------------------------------------------------------------------------
# train-lorenz: the training loop dominates
# ---------------------------------------------------------------------------

# No rollout here: the kernel 30 epochs leave is still the full
# dictionary, and its 299-step rollout diverged (RolloutDiverged) on
# seeds 13 and 18 of 0-24, at steps 90 and 31; with 50 or 60 epochs
# seed 18 still diverged.  A workload must be one on which no call
# fails, whatever the seed, so the rollout is measured on
# fit-forecast-paper, whose kernel does not depend on the seed.

TRAIN_LORENZ = {"system": "lorenz", "n": 1500, "tau": TAU, "epochs": 30, "batch_size": 200,
                "lambda1": LAMBDA1, "lambda2": 0.01}


def _setup_train_lorenz(seed: int, work: Path) -> dict:
    c = TRAIN_LORENZ
    prepared = _prepared(c["system"], c["n"])
    config = training.TrainConfig(epochs=c["epochs"], batch_size=c["batch_size"],
                                  lambda1=c["lambda1"], lambda2=c["lambda2"], seed=seed)
    return {"prepared": prepared, "config": config,
            "init": training.default_init(prepared.train, seed)}


def _iterate_train_lorenz(state: dict, reference) -> Result:
    prepared, phases = state["prepared"], {}
    report = _timed(phases, "train_s", training.train, prepared.train, state["init"],
                    state["config"])
    result = _fit_and_score(report.final_params, prepared, state["config"].lambda2, phases,
                            rollout=False)
    result.calls += 1
    return _add_epochs(result, report)


# ---------------------------------------------------------------------------
# fit-forecast-paper: full-size Gram, factorization, forecasts; no epochs
# ---------------------------------------------------------------------------

# The kernel is trained with a fixed seed, whatever the run's seed: the
# trained kernel decides the factorization path, and over seeds 401-410
# two or three of ten took Cholesky (0.2 s) instead of LDL^T (1.1 s),
# which made wall_s bimodal across seeds.  Seed 0 takes LDL^T, the path
# a full-size fit with the full dictionary takes at the paper's size.
FIT_FORECAST = {"system": "lorenz", "n": 3000, "tau": TAU, "setup_epochs": 10,
                "batch_size": 200, "lambda1": LAMBDA1, "lambda2": 0.01, "train_seed": 0}


def _setup_fit_forecast(seed: int, work: Path) -> dict:
    c = FIT_FORECAST
    prepared = _prepared(c["system"], c["n"])
    config = training.TrainConfig(epochs=c["setup_epochs"], batch_size=c["batch_size"],
                                  lambda1=c["lambda1"], lambda2=c["lambda2"],
                                  seed=c["train_seed"])
    report = training.train(prepared.train,
                            training.default_init(prepared.train, c["train_seed"]), config)
    return {"prepared": prepared, "report": report, "lambda2": c["lambda2"]}


def _iterate_fit_forecast(state: dict, reference) -> Result:
    report = state["report"]
    result = _fit_and_score(report.final_params, state["prepared"], state["lambda2"], {})
    return _add_epochs(result, report)


# ---------------------------------------------------------------------------
# bench-rossler: the CLI's four-method benchmark, many short trainings
# ---------------------------------------------------------------------------

BENCH_ROSSLER = {"system": "rossler", "n": 600, "epochs": 20, "cv_epochs": 3,
                 "batch_size": 100}


def _quiet_cli(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _setup_bench_rossler(seed: int, work: Path) -> dict:
    """``kflow generate`` writes the trajectory; the manifest names its CSV."""
    c = BENCH_ROSSLER
    series = work / f"{c['system']}.csv"
    code = _quiet_cli(["generate", c["system"], "--n", str(c["n"]), "--out", str(series)])
    if code != 0:
        raise RuntimeError(f"kflow generate exited with {code}")
    manifest = work / "bench.manifest"
    manifest.write_text(f"{series}\n", encoding="utf-8")
    argv = ["benchmark", str(manifest), "--out-dir", str(work / "report"),
            "--epochs", str(c["epochs"]), "--cv-epochs", str(c["cv_epochs"]),
            "--batch-size", str(c["batch_size"]), "--seed", str(seed)]
    return {"argv": argv, "out": work / "report"}


def _reference_bench_rossler(config: dict) -> dict:
    """The report's fixed-RBF row involves no training and no seed, so it
    is recomputed independently of the CLI for the report to match."""
    prepared = _prepared(config["system"], config["n"])
    model = forecast.fit(evaluation.fixed_rbf_params(), prepared.train, LAMBDA1)
    inv = prepared.standardizer.inverse
    return {"rbf_smape": metrics.smape(inv(forecast.one_step_forecast(model, prepared.test)),
                                       inv(prepared.test.Y))}


# The timed call is one ``kflow benchmark`` command; it fails when it
# exits non-zero.  A method whose rollout diverges (or whose training
# aborts) does not fail the command: kflow scores it +inf in the report,
# by design.  That happens for some seeds: a RegularKF or SparseKF
# rollout diverged, at steps 7 to 31, on seeds 0, 22, 1000 and 424242 of
# 34 tried (at n=1500 and 100 epochs, too, such rollouts diverge on
# Rossler).  Such methods count as failed operations in failed_frac, and
# the report that scores them is checked like any other.


def _iterate_bench_rossler(state: dict, reference: dict) -> Result:
    shutil.rmtree(state["out"], ignore_errors=True)
    code = _quiet_cli(state["argv"])
    problems = [] if code == 0 else [f"kflow benchmark exited with {code}"]
    raw = (state["out"] / "report.json").read_bytes()
    row = json.loads(raw)["rows"][0]
    if row["system"] != BENCH_ROSSLER["system"]:
        problems.append(f"report row is {row['system']!r}, expected 'rossler'")
    if not np.isclose(row["RBF_smape"], reference["rbf_smape"], rtol=1e-9, atol=0.0):
        problems.append(f"RBF SMAPE {row['RBF_smape']} != recomputed {reference['rbf_smape']}")
    methods = evaluation.METHOD_NAMES
    scores = [row[f"{m}_{k}"] for m in methods for k in ("smape", "hd")]
    if any(np.isfinite(v) and not v >= 0.0 for v in scores):
        problems.append("a finite score is negative")
    failed = sum(1 for m in methods
                 if not (np.isfinite(row[f"{m}_smape"]) and np.isfinite(row[f"{m}_hd"])))
    smape, hd = row["SparseKF_smape"], row["SparseKF_hd"]
    return Result(smape if np.isfinite(smape) else None, hd if np.isfinite(hd) else None,
                  int(row["nnz"].get("SparseKF", -1)), float(row["selected_lambda2"]),
                  hashlib.sha256(raw).hexdigest(), calls=1, calls_failed=int(code != 0),
                  operations=len(methods), operations_failed=failed, problems=problems)


WORKLOADS = {
    "train-lorenz": Workload("train-lorenz", TRAIN_LORENZ,
                             _setup_train_lorenz, _iterate_train_lorenz),
    "fit-forecast-paper": Workload("fit-forecast-paper", FIT_FORECAST,
                                   _setup_fit_forecast, _iterate_fit_forecast),
    "bench-rossler": Workload("bench-rossler", BENCH_ROSSLER,
                              _setup_bench_rossler, _iterate_bench_rossler,
                              _reference_bench_rossler),
}


def micro_grams(config: dict, seed: int, repeats: int = 5) -> dict:
    """Milliseconds of ``gram`` on 200 training windows per one-hot weight.

    Uses the workload's system and size and the seed's initial theta.
    The first call of each term is a discarded warm-up (OpenBLAS pays its
    first-call cost there).
    """
    prepared = _prepared(config["system"], config["n"])
    X = prepared.train.X[:200]
    theta = training.default_init(prepared.train, seed).theta
    out = {}
    for i in range(kernels.N_KERNELS):
        alpha = np.zeros(kernels.N_KERNELS)
        alpha[i] = 1.0
        params = kernels.KernelParams(alpha, theta)
        kernels.gram(params, X)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            kernels.gram(params, X)
            times.append(time.perf_counter() - t0)
        out[f"kernels.k{i + 1:02d}_ms"] = float(np.median(times)) * 1e3
    return out
