import json
from dataclasses import replace

import numpy as np
import pytest

from kflow.embedding import TimeSeries, build_delay_dataset
from kflow.evaluation import (
    DEFAULT_LAMBDA2_GRID,
    METHOD_NAMES,
    BenchmarkRow,
    EvalProtocol,
    _derive_seed,
    _fold_blocks,
    benchmark_system,
    emit_distribution_csv,
    emit_report,
    fixed_rbf_params,
    prepare_series,
    run_benchmark,
    select_lambda2,
    win_counts,
)
from kflow.forecast import fit, one_step_forecast
from kflow.kernels import N_KERNELS
from kflow.metrics import smape
from kflow.training import TrainConfig, default_init, train


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

    rows = [row]
    csv_text = emit_report(rows, "csv")
    data_line = csv_text.splitlines()[2]
    assert len(data_line.split(",")) == 10

    md = emit_report(rows, "markdown")
    md_cells = [c.strip() for c in md.splitlines()[2].strip("|").split("|")]
    csv_cells = data_line.split(",")
    assert md_cells == csv_cells  # markdown round-trips the csv values

    doc = json.loads(emit_report(rows, "json"))
    assert doc["rows"][0]["system"] == "toy"

    dist = emit_distribution_csv(rows)
    lines = dist.splitlines()
    assert lines[0] == ",".join(METHOD_NAMES)
    assert len(lines) == 2

    with pytest.raises(ValueError):
        emit_report(rows, "html")
    with pytest.raises(ValueError):
        emit_report([], "csv")


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
    rows = run_benchmark(series, protocol, threads=1)
    assert [r.system for r in rows] == ["s0", "s1", "s2"]
    counts = win_counts(rows)
    assert sum(counts.values()) == 3


def test_run_benchmark_threaded_matches_serial(rng):
    series = [toy_series(rng, n=70, name=f"s{i}") for i in range(2)]
    protocol = EvalProtocol(
        tau=3, lambda2_grid=(0.0,), train_config=quick_config(2),
        rollout_steps=3,
    )
    serial = run_benchmark(series, protocol, threads=1)
    threaded = run_benchmark(series, protocol, threads=2)
    for a, b in zip(serial, threaded):
        assert a.system == b.system
        for m in METHOD_NAMES:
            assert a.smapes[m] == pytest.approx(b.smapes[m], rel=1e-9, abs=1e-12)


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
