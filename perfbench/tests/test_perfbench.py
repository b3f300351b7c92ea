"""Tests of the benchmark itself, at tiny workload sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import kflow.forecast
import kflow.loss
from perfbench import worker, workloads
from perfbench.tracer import LAYER_BOUNDARIES, PHASE_BOUNDARIES, Boundaries, Tracer

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload so a run takes about a second."""
    monkeypatch.setitem(workloads.TRAIN_LORENZ, "n", 400)
    monkeypatch.setitem(workloads.TRAIN_LORENZ, "epochs", 3)
    monkeypatch.setitem(workloads.FIT_FORECAST, "n", 500)
    monkeypatch.setitem(workloads.FIT_FORECAST, "setup_epochs", 2)
    monkeypatch.setitem(workloads.BENCH_ROSSLER, "n", 300)
    monkeypatch.setitem(workloads.BENCH_ROSSLER, "epochs", 2)
    monkeypatch.setitem(workloads.BENCH_ROSSLER, "cv_epochs", 1)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _spec(name, mode, seed=3):
    return {"workload": name, "seed": seed, "seconds": 0, "mode": mode, "work": "work"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_of_each_workload_is_quick_and_clean(tiny, name):
    t0 = time.perf_counter()
    doc = worker.run(_spec(name, "timed"))
    assert time.perf_counter() - t0 < 30.0
    assert doc["problems"] == []
    assert doc["missing_boundaries"] == []
    assert len(doc["outputs"]) == worker.MIN_ITERATIONS + 1  # and a warm-up
    assert len(doc["setup_s"]) == len(doc["outputs"])        # a set-up per iteration
    assert all(v > 0 for v in doc["e2e"].values())
    assert doc["attempted"] > 0 and doc["failed"] == 0
    assert doc["operations"] >= doc["operations_failed"] >= 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_are_bit_identical(tiny, name):
    untraced = worker.run(_spec(name, "timed"))
    traced = worker.run(_spec(name, "traced"))
    assert traced["outputs"] == untraced["outputs"]
    assert traced["missing_boundaries"] == []
    # the traced run restored every name it replaced
    assert kflow.forecast.gram is kflow.kernels.gram
    assert kflow.loss.RidgeSystem is kflow.forecast.RidgeSystem
    assert not hasattr(kflow.loss.RidgeSystem.solve, "__wrapped__")


def test_span_self_times_sum_to_no_more_than_wall(tiny):
    workload = workloads.WORKLOADS["train-lorenz"]
    tracer = Tracer()
    with Boundaries(tracer, PHASE_BOUNDARIES + LAYER_BOUNDARIES):
        state = workload.setup(1, Path("."))
        tracer.iteration = 0
        t0 = time.perf_counter()
        workload.iterate(state, workload.reference(workload.config))
        wall = time.perf_counter() - t0
    own = tracer.self_times()
    mine = [i for i, s in enumerate(tracer.spans) if s.iteration == 0]
    assert mine
    assert all(own[i] >= -1e-9 for i in mine)
    assert sum(own[i] for i in mine) <= wall
    for i in mine:
        parent = tracer.spans[i].parent
        if parent is not None:
            assert tracer.spans[parent].start <= tracer.spans[i].start
            assert tracer.spans[i].end <= tracer.spans[parent].end


def test_per_epoch_counts_at_full_dictionary(tiny):
    doc = worker.run(_spec("train-lorenz", "traced"))
    layers = doc["layers"]
    assert doc["outputs"][0]["nnz_alpha"] == 21
    assert layers["kernels.block_evals"] == 126
    assert layers["kernels.grad_block_evals"] == 42
    assert layers["loss.nested_eval_calls"] == 3
    assert all(layers[f"kernels.k{i:02d}_ms"] > 0 for i in range(1, 22))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    from_run = {"process.cpu_s", "process.tracing_overhead_pct", "accuracy.failed_frac"}
    computed = set(layers) | from_run
    assert computed == {m["name"] for m in declared}


def test_per_layer_values_exclude_the_set_up(tiny):
    # fit-forecast-paper's set-up trains (many RidgeSystem builds and
    # calibration fits); its measured iterations make one full-size fit
    layers = worker.run(_spec("fit-forecast-paper", "traced"))["layers"]
    assert layers["forecast.fit_calls"] == 1
    assert layers["loss.factor_calls"] == 1
    assert layers["kernels.gram_calls"] == 1
    assert layers["kernels.block_evals"] == 0
    assert layers["systems.integrate_s"] > 0 and layers["embedding.build_s"] > 0


def test_tracer_records_errors_and_restores_on_exception():
    tracer = Tracer()
    original = kflow.forecast.rollout
    with pytest.raises(ValueError):
        with Boundaries(tracer, PHASE_BOUNDARIES):
            kflow.forecast.rollout(None, [0.0], 0)
    assert kflow.forecast.rollout is original
    (span,) = tracer.spans
    assert span.name == "forecast.rollout" and span.error


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-lorenz",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
