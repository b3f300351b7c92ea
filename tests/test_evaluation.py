import json
import multiprocessing
import os
import threading
import time
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

import kflow.evaluation
import kflow.kernels
from kflow.embedding import TimeSeries, build_delay_dataset
from kflow.evaluation import (
    DEFAULT_LAMBDA2_GRID,
    METHOD_NAMES,
    BenchmarkRow,
    EvalProtocol,
    _derive_seed,
    _fold_blocks,
    _task_pool,
    benchmark_system,
    emit_report,
    fixed_rbf_params,
    prepare_series,
    run_benchmark,
    select_lambda2,
    win_counts,
)
from kflow.forecast import fit, one_step_forecast
from kflow.kernels import N_KERNELS, gram
from kflow.metrics import smape
from kflow.training import TrainConfig, default_init, train


@pytest.mark.parametrize("key, value", [("tau", 0), ("rollout_steps", 0),
                                        ("train_fraction", 1.5)])
def test_protocol_field_out_of_range_is_rejected(key, value):
    # a run at any of these would score every method inf and report best "none"
    with pytest.raises(ValueError, match=f"setting '{key}' = {value}: must be"):
        EvalProtocol(**{key: value})


@pytest.mark.parametrize("grid", [(), (0.0, -1.0), (0.0, float("nan")), (float("inf"),)],
                         ids=["empty", "negative", "nan", "inf"])
def test_lambda2_grid_must_be_nonempty_finite_and_nonnegative(rng, grid):
    # a bad value would fail every SparseKF cell, or write NaN into the report
    with pytest.raises(ValueError, match="setting 'lambda2_grid' = .*: must be nonempty"):
        EvalProtocol(lambda2_grid=grid)
    with pytest.raises(ValueError, match="setting 'lambda2_grid'"):
        select_lambda2(toy_dataset(rng), grid, quick_config())


def toy_series(rng, n=90, name="toy"):
    t = np.linspace(0.0, 9.0, n)
    values = np.column_stack([np.sin(t), np.cos(1.3 * t)])
    values += 0.01 * rng.normal(size=values.shape)
    return TimeSeries(values, 0.1, name)


def toy_dataset(rng, n=90, tau=3):
    return build_delay_dataset(toy_series(rng, n), tau)


def quick_config(epochs=4, seed=0):
    return TrainConfig(epochs=epochs, batch_size=16, lambda1=0.05, seed=seed)


def test_default_grid_values():
    assert DEFAULT_LAMBDA2_GRID == (0.0, 0.0001, 0.001, 0.01, 0.1, 1.0, 10.0)


def test_fold_blocks_n9():
    blocks = _fold_blocks(9)
    assert [b.tolist() for b in blocks] == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]


def test_fold_blocks_partition_any_n():
    for n in (9, 10, 11, 100):
        blocks = _fold_blocks(n)
        joined = np.concatenate(blocks)
        np.testing.assert_array_equal(joined, np.arange(n))


def test_single_candidate_grid_selected(rng):
    cv = select_lambda2(toy_dataset(rng), (0.01,), quick_config())
    assert cv.selected_lambda2 == 0.01
    assert cv.fold_smapes.shape == (1, 3)


def test_cv_determinism(rng):
    ds = toy_dataset(rng)
    a = select_lambda2(ds, (0.0, 0.1), quick_config(seed=5))
    b = select_lambda2(ds, (0.0, 0.1), quick_config(seed=5))
    np.testing.assert_array_equal(a.fold_smapes, b.fold_smapes)
    assert a.selected_lambda2 == b.selected_lambda2


def test_cv_selects_min_mean(rng):
    cv = select_lambda2(toy_dataset(rng), (0.0, 0.001, 1.0), quick_config())
    means = cv.mean_smapes
    best = means.min()
    winners = [g for g, m in zip(cv.grid, means) if m == best]
    assert cv.selected_lambda2 == min(winners)


def test_cv_cells_run_the_recipe_they_select(rng):
    # a lambda2 = 0 cell trains as the selected lambda2 = 0 model is
    # trained (dense, no zero clamp), so a clamp that would zero weights
    # leaves its score unchanged
    ds = toy_dataset(rng)
    config = replace(quick_config(seed=4), zero_clamp=0.5)
    cv = select_lambda2(ds, (0.0, 0.1), config)
    init = default_init(ds, config.seed)
    n = ds.n_pairs
    for fi, block in enumerate(_fold_blocks(n)):
        fold_train = ds.subset(np.setdiff1d(np.arange(n), block))
        fold_test = ds.subset(block)
        cell = replace(config, seed=_derive_seed(config.seed, 0, fi), lambda2=0.0)
        report = train(fold_train, init, cell)
        assert report.nnz_alpha == N_KERNELS
        model = fit(report.final_params, fold_train, config.lambda1)
        want = smape(one_step_forecast(model, fold_test), fold_test.Y)
        assert cv.fold_smapes[0, fi] == want


def test_cv_needs_nine_pairs(rng):
    short = build_delay_dataset(TimeSeries(rng.normal(size=(11, 1)), 0.1), 3)
    assert short.n_pairs == 8
    with pytest.raises(ValueError):
        select_lambda2(short, config=quick_config())


def test_fixed_rbf_kernel_width():
    params = fixed_rbf_params()
    assert params.nnz == 1
    assert params.alpha[2] == 1.0
    # exp(-q / (2 t5^2)) with t5 = sigma/sqrt(2) equals exp(-q / sigma^2)
    assert params.theta[4] == pytest.approx(0.5 / np.sqrt(2.0))


def test_prepare_series_no_test_leak(rng):
    series = toy_series(rng, n=60)
    prep = prepare_series(series, 3, 0.8)
    n_train = prep.train.n_pairs
    manual = series.values[: n_train + 3]
    np.testing.assert_allclose(prep.standardizer.mean, manual.mean(axis=0))
    assert prep.train.n_pairs + prep.test.n_pairs == series.n - 3


def test_benchmark_row_and_reports(rng):
    series = toy_series(rng, n=80)
    protocol = EvalProtocol(
        tau=3, train_fraction=0.8, lambda2_grid=(0.0, 0.1),
        train_config=quick_config(), cv_epochs=2,
        rollout_steps=5,
    )
    row = benchmark_system(series, protocol)
    assert set(row.smapes) == set(METHOD_NAMES)
    assert row.best in METHOD_NAMES + ("none",)
    finite = [m for m in METHOD_NAMES if np.isfinite(row.smapes[m])]
    if finite:
        assert row.best == min(finite, key=lambda m: row.smapes[m])

    lines = emit_report([row]).splitlines()
    assert len(lines) == 3 and lines[0].startswith("# SMAPE")
    cells = lines[2].split(",")
    assert cells[0] == "toy" and cells[-1] == row.best and len(cells) == 10
    assert [float(c) for c in cells[1:9:2]] == [row.smapes[m] for m in METHOD_NAMES]
    assert json.loads(json.dumps(row.to_dict()))["system"] == "toy"

    with pytest.raises(ValueError):
        emit_report([])


def test_benchmark_all_fail_best_none(rng):
    # a single embedded pair cannot split: every method records failure
    tiny = TimeSeries(rng.normal(size=(4, 1)), 0.1, "tiny")
    protocol = EvalProtocol(tau=3, train_config=quick_config())
    row = benchmark_system(tiny, protocol)
    assert row.best == "none"
    assert all(np.isinf(v) for v in row.smapes.values())


def test_run_benchmark_order_stable(rng):
    series = [toy_series(rng, n=70, name=f"s{i}") for i in range(3)]
    protocol = EvalProtocol(
        tau=3, lambda2_grid=(0.0,), train_config=quick_config(2),
        rollout_steps=3,
    )
    rows = run_benchmark(series, protocol)
    assert [r.system for r in rows] == ["s0", "s1", "s2"]
    counts = win_counts(rows)
    assert sum(counts.values()) == 3


def _usable_cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_task_pool_runs_forked_workers_in_task_order(monkeypatch):
    tasks = [partial(lambda shared, i: (shared + i, os.getpid()), 10, i) for i in range(5)]
    _usable_cores(monkeypatch, 2)
    with _task_pool(tasks) as result:
        got = [result(i) for i in range(5)]
    assert [value for value, _ in got] == [10, 11, 12, 13, 14]
    assert os.getpid() not in {pid for _, pid in got}
    assert multiprocessing.active_children() == []
    # serially, a task runs in the caller only when its result is asked for
    asked = []
    _usable_cores(monkeypatch, 1)
    with _task_pool([partial(asked.append, i) for i in range(3)]) as result:
        assert asked == []
        result(2)
        assert asked == [2]


def test_run_benchmark_pool_matches_serial(rng, monkeypatch):
    # s1 is too short to prepare, s4 has one training window (too few to learn from) and
    # s3 is too short to cross-validate
    series = [toy_series(rng, n=70, name="s0"), TimeSeries(rng.normal(size=(4, 2)), 0.1, "s1"),
              toy_series(rng, n=70, name="s2"), toy_series(rng, n=14, name="s3"),
              TimeSeries(rng.normal(size=(5, 2)), 0.1, "s4")]
    protocol = EvalProtocol(
        tau=3, lambda2_grid=(0.0,), train_config=quick_config(2),
        rollout_steps=3,
    )
    ds = toy_dataset(rng)
    runs = []
    for cores in (1, 2):
        _usable_cores(monkeypatch, cores)
        runs.append(([r.to_dict() for r in run_benchmark(series, protocol)],
                     select_lambda2(ds, (0.0, 0.1), quick_config()).fold_smapes.tobytes()))
        assert multiprocessing.active_children() == []
    assert runs[0] == runs[1]
    rows = runs[0][0]
    assert rows[1]["best"] == rows[4]["best"] == "none" and rows[3]["selected_lambda2"] is None
    assert all(np.isinf(v) for k, v in rows[4].items() if k.endswith(("_smape", "_hd")))
    assert np.isinf(rows[3]["SparseKF_smape"]) and "RegularKF" in rows[3]["nnz"]


def _record_trainings(monkeypatch, log):
    """Patch evaluation.train to append 'pid n_pairs init_nnz lambda2' lines to ``log``."""
    real_train = kflow.evaluation.train

    def recording(dataset, init, config):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {dataset.n_pairs} {init.nnz} {config.lambda2}\n")
        return real_train(dataset, init, config)

    monkeypatch.setattr(kflow.evaluation, "train", recording)


def test_benchmark_trains_sparse_kf_in_the_parent_and_the_rest_in_workers(
        rng, monkeypatch, tmp_path):
    # forked children cannot reach a closure in the parent, so pids go through a file
    series = toy_series(rng, n=70)
    protocol = EvalProtocol(tau=3, lambda2_grid=(0.1,), train_config=quick_config(2),
                            rollout_steps=3)
    n_train = prepare_series(series, 3, protocol.train_fraction).train.n_pairs
    parent = os.getpid()
    for cores in (2, 1):
        log = tmp_path / f"{cores}.log"
        _usable_cores(monkeypatch, cores)
        _record_trainings(monkeypatch, log)
        row = benchmark_system(series, protocol)
        assert row.selected_lambda2 == 0.1
        where = {}
        for line in log.read_text().splitlines():
            pid, n, nnz, lam2 = line.split()
            method = ("CV cell" if int(n) < n_train else "TrainedRBF" if nnz == "1"
                      else "SparseKF" if float(lam2) == 0.1 else "RegularKF")
            where.setdefault(method, []).append(int(pid))
        assert sorted(map(len, where.values())) == [1, 1, 1, 3]
        if cores == 1:
            assert {pid for pids in where.values() for pid in pids} == {parent}
        else:
            assert where["SparseKF"] == [parent]
            workers = set(where["CV cell"] + where["TrainedRBF"] + where["RegularKF"])
            assert parent not in workers and len(workers) <= cores  # one pool per system
        assert multiprocessing.active_children() == []


def test_kernel_tiles_start_no_thread_in_a_pool_or_beside_one(rng, monkeypatch, tmp_path):
    # forked children cannot reach a closure in the parent, so thread starts go through a file
    log = tmp_path / "threads.log"

    class Recorded(threading.Thread):
        def start(self):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            super().start()

    monkeypatch.setattr(kflow.kernels, "threading", SimpleNamespace(Thread=Recorded,
                                                                    Lock=threading.Lock))
    monkeypatch.setattr(kflow.kernels, "_TILE", 64)  # every kernel matrix here spans many tiles
    _usable_cores(monkeypatch, 2)
    protocol = EvalProtocol(tau=3, lambda2_grid=(0.1,), train_config=quick_config(2),
                            rollout_steps=3)
    # workers train the CV cells and the dense methods; the parent trains and fits SparseKF
    benchmark_system(toy_series(rng, n=70), protocol)
    assert not log.exists()
    assert multiprocessing.active_children() == []
    gram(fixed_rbf_params(), rng.normal(size=(20, 2)))  # no pool: the parent's tiles get a helper
    assert log.read_text().split() == [str(os.getpid())]


class WorkerFailure(Exception):
    pass


def test_worker_error_reaches_the_caller_and_no_worker_outlives_it(rng, monkeypatch, tmp_path):
    real_train = kflow.evaluation.train
    parent = os.getpid()

    def fail(*args):
        raise WorkerFailure("not a recoverable training failure")

    def fail_where(condition):
        def failing_train(dataset, init, config):
            if condition(dataset):
                fail()
            return real_train(dataset, init, config)
        return failing_train

    _usable_cores(monkeypatch, 2)
    monkeypatch.setattr(kflow.evaluation, "train", fail)
    with pytest.raises(WorkerFailure):
        select_lambda2(toy_dataset(rng), (0.0, 0.1), quick_config())
    assert multiprocessing.active_children() == []
    protocol = EvalProtocol(tau=3, lambda2_grid=(0.0,), train_config=quick_config(2))
    series = toy_series(rng, n=70)
    with pytest.raises(WorkerFailure):
        run_benchmark([series], protocol)
    assert multiprocessing.active_children() == []
    n_train = prepare_series(series, 3, protocol.train_fraction).train.n_pairs
    # the parent's final SparseKF training fails while the dense methods are queued or
    # running; then a dense method fails in a worker and surfaces when the parent collects it
    for condition in (lambda ds: os.getpid() == parent,
                      lambda ds: os.getpid() != parent and ds.n_pairs == n_train):
        monkeypatch.setattr(kflow.evaluation, "train", fail_where(condition))
        with pytest.raises(WorkerFailure):
            run_benchmark([series], protocol)
        assert multiprocessing.active_children() == []
    # an error in the caller cancels the tasks that no worker has taken
    log = tmp_path / "started"

    def slow_task():
        with open(log, "a") as f:
            f.write("started\n")
        time.sleep(0.2)

    with pytest.raises(WorkerFailure):
        with _task_pool([slow_task] * 10):
            fail()
    assert multiprocessing.active_children() == []
    assert len(log.read_text().splitlines() if log.exists() else []) < 10


def test_sparse_path_with_zero_lambda2_equals_regular(rng):
    # when CV picks 0, the sparse path must reduce to the dense scenario
    series = toy_series(rng, n=80)
    protocol = EvalProtocol(
        tau=3, lambda2_grid=(0.0,), train_config=quick_config(6),
        rollout_steps=4,
    )
    row = benchmark_system(series, protocol)
    assert row.selected_lambda2 == 0.0
    assert row.smapes["SparseKF"] == pytest.approx(row.smapes["RegularKF"], rel=1e-12)


def test_benchmark_row_to_dict_schema(rng):
    row = BenchmarkRow(
        system="x",
        smapes={m: 1.0 for m in METHOD_NAMES},
        hausdorffs={m: 2.0 for m in METHOD_NAMES},
        best="RBF",
    )
    doc = row.to_dict()
    assert doc["system"] == "x" and doc["best"] == "RBF"
    assert doc["RBF_smape"] == 1.0 and doc["SparseKF_hd"] == 2.0
