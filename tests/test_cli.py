import json
import os
import shutil
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import kflow
import kflow.cli
import kflow.evaluation
import kflow.kernels
from conftest import pin_usable_cores
from kflow.cli import main
from kflow.evaluation import EvalProtocol
from kflow.systems import load_csv
from kflow.training import TrainConfig, TrainReport


def run_cli(*argv):
    return main(list(argv))


def toy_csv(tmp_path, rng, n=90, d=2, name="toy.csv"):
    from kflow.embedding import TimeSeries
    from kflow.systems import save_csv
    t = np.linspace(0.0, 9.0, n)
    values = np.column_stack([np.sin(t), np.cos(1.3 * t)])[:, :d]
    values += 0.01 * rng.normal(size=(n, d))
    path = tmp_path / name
    save_csv(TimeSeries(values, 0.1), path)
    return path


FAST = ["--epochs", "4", "--cv-epochs", "2", "--batch-size", "16",
        "--tau", "3", "--lambda2-grid", "0,0.1"]


def test_generate_writes_csv(tmp_path, capsys):
    out = tmp_path / "lorenz.csv"
    assert run_cli("generate", "lorenz", "--n", "120", "--out", str(out)) == 0
    series = load_csv(out)
    assert series.n == 120 and series.dim == 3
    assert "lorenz" in capsys.readouterr().out


def test_generate_minimal_two_rows(tmp_path):
    out = tmp_path / "tiny.csv"
    assert run_cli("generate", "thomas", "--n", "2", "--out", str(out)) == 0
    assert load_csv(out).n == 2


@pytest.mark.parametrize("dt", ["inf", "-inf", "nan", "0"])
def test_generate_with_a_dt_that_is_not_positive_and_finite_is_a_data_error(tmp_path, capsys, dt):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("generate", "lorenz", "--n", "10", f"--dt={dt}", "--out", str(tmp_path / "x.csv"))
    assert code == 3
    assert capsys.readouterr().err.startswith("data error [ValueError]: dt must be positive")


def test_generate_unknown_system_lists_names(tmp_path, capsys):
    code = run_cli("generate", "nope", "--out", str(tmp_path / "x.csv"))
    assert code == 3
    err = capsys.readouterr().err
    assert "lorenz" in err and "duffing" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        run_cli("train")  # missing required arguments
    assert info.value.code == 2


def test_benchmark_has_no_threads_option(tmp_path):
    with pytest.raises(SystemExit) as info:
        run_cli("benchmark", str(tmp_path / "m.txt"), "--out-dir", str(tmp_path),
                "--threads", "2")
    assert info.value.code == 2


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _kflow_process(args, **blas):
    """Run python with ``args`` beside the imported kflow, the BLAS variables as given."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    return subprocess.run([sys.executable, *args], env={**env, **blas}, check=True,
                          capture_output=True, text=True,
                          cwd=Path(kflow.__file__).parents[1])


def test_import_pins_one_blas_thread_unless_the_environment_sets_one():
    probe = f"import os, kflow; print(*(os.environ[v] for v in {BLAS_VARS!r}))"
    assert _kflow_process(["-c", probe]).stdout.split() == ["1", "1", "1"]
    assert _kflow_process(["-c", probe], OPENBLAS_NUM_THREADS="2").stdout.split() == [
        "2", "1", "1"]


def test_import_leaves_the_scipy_linalg_package_unimported():
    # kflow binds scipy's compiled LAPACK and BLAS modules without scipy/linalg/__init__.py
    probe = "import sys, kflow, kflow.cli; print('scipy.linalg' in sys.modules)"
    assert _kflow_process(["-c", probe]).stdout.split() == ["False"]


def test_scipy_linalg_imported_after_kflow_has_its_extension_modules():
    # the package binds _flapack and _fblas as attributes, and hands out kflow's routines
    probe = ("import numpy, kflow.loss, scipy.linalg as sl; print(hasattr(sl, '_flapack'), "
             "hasattr(sl, '_fblas'), sl.get_lapack_funcs('potrf', dtype=numpy.float64) is "
             "kflow.loss._potrf, sl.get_blas_funcs('spmv', dtype=numpy.float64) is "
             "kflow.loss._spmv)")
    assert _kflow_process(["-c", probe]).stdout.split() == ["True"] * 4


def test_benchmark_report_is_the_same_with_blas_variables_unset_or_one(tmp_path, rng):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{toy_csv(tmp_path, rng)}\n")
    reports = []
    for name, blas in (("unset", {}), ("one", dict.fromkeys(BLAS_VARS, "1"))):
        _kflow_process(["-m", "kflow.cli", "benchmark", str(manifest), "--out-dir",
                        str(tmp_path / name), "--steps", "4", *FAST], **blas)
        reports.append((tmp_path / name / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_artifacts_are_byte_identical_at_one_and_two_usable_cores(tmp_path, rng, monkeypatch):
    # a small tile makes every kernel matrix span many tiles, so two cores thread them
    monkeypatch.setattr(kflow.kernels, "_TILE", 64)
    data = toy_csv(tmp_path, rng)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{data}\n")
    out, artifacts = tmp_path / "out", []  # one path: forecast artifacts record the model's
    for cores in (1, 2):
        pin_usable_cores(monkeypatch, cores)
        model = str(out / "model.json")
        assert run_cli("train", str(data), "--mode", "sparse", "--out", model, "--seed", "1",
                       *FAST) == 0
        for mode in ("onestep", "rollout"):
            assert run_cli("forecast", "--model", model, "--input", str(data), "--mode", mode,
                           "--out", str(out / f"{mode}.csv")) == 0
        assert run_cli("benchmark", str(manifest), "--out-dir", str(out / "bench"),
                       "--steps", "4", *FAST) == 0
        artifacts.append({str(p.relative_to(out)): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
        shutil.rmtree(out)
    assert "bench/report.json" in artifacts[0] and "rollout.csv" in artifacts[0]
    assert artifacts[0] == artifacts[1]


def test_train_forecast_pipeline(tmp_path, rng, capsys):
    data = toy_csv(tmp_path, rng)
    model_path = tmp_path / "model.json"
    assert run_cli("train", str(data), "--mode", "sparse", "--out",
                   str(model_path), "--seed", "1", *FAST) == 0
    doc = json.loads(model_path.read_text())
    assert doc["artifact"] == "model"
    assert doc["config"]["mode"] == "sparse"
    assert doc["input_digest"].startswith("sha256:")
    assert set(doc["model"]) == {"kernel", "lambda1", "tau", "train_X", "coefficients"}
    report = json.loads((tmp_path / "model_report.json").read_text())
    assert report["artifact"] == "train_report"
    assert len(report["report"]["loss_history"]) == 4
    assert (tmp_path / "model_loss.csv").exists()

    pred_path = tmp_path / "pred.csv"
    assert run_cli("forecast", "--model", str(model_path), "--input", str(data),
                   "--mode", "onestep", "--out", str(pred_path)) == 0
    scores = json.loads((tmp_path / "pred_scores.json").read_text())
    assert {"smape", "hausdorff", "n_test"} <= set(scores["scores"])
    pred = load_csv(pred_path)
    assert pred.dim == 2

    roll_path = tmp_path / "roll.csv"
    assert run_cli("forecast", "--model", str(model_path), "--input", str(data),
                   "--mode", "rollout", "--steps", "5", "--out", str(roll_path)) == 0
    roll = load_csv(roll_path)
    assert roll.n == 5
    # first rollout step is the one-step prediction from the same window
    np.testing.assert_allclose(roll.values[0], pred.values[0], rtol=1e-9)


def test_train_artifacts_byte_identical(tmp_path, rng):
    data = toy_csv(tmp_path, rng)
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out_a, out_b):
        assert run_cli("train", str(data), "--mode", "regular", "--out",
                       str(out), "--seed", "7", *FAST) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    a_rep = (tmp_path / "a_report.json").read_bytes()
    b_rep = (tmp_path / "b_report.json").read_bytes()
    assert a_rep == b_rep


def test_regular_mode_dense(tmp_path, rng, capsys):
    data = toy_csv(tmp_path, rng)
    out = tmp_path / "dense.json"
    assert run_cli("train", str(data), "--mode", "regular", "--out", str(out),
                   *FAST) == 0
    printed = capsys.readouterr().out
    assert "nnz_alpha=21" in printed


def test_config_file_flags_override(tmp_path, rng):
    data = toy_csv(tmp_path, rng)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": 3, "batch_size": 16, "tau": 3,
                                  "lambda2_grid": [0.0], "seed": 2}))
    out = tmp_path / "m.json"
    assert run_cli("train", str(data), "--mode", "regular", "--out", str(out),
                   "--config", str(config), "--epochs", "5") == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["epochs"] == 5      # flag wins
    assert doc["config"]["batch_size"] == 16  # config-file value


def test_config_block_round_trips_through_config_file(tmp_path, rng):
    # every setting an artifact records is one --config reads back
    data = toy_csv(tmp_path, rng)
    first = tmp_path / "first.json"
    assert run_cli("train", str(data), "--mode", "regular", "--out", str(first),
                   *FAST, "--lr", "0.05", "--seed", "6", "--lambda1", "0.1") == 0
    doc = json.loads(first.read_text())
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc["config"]))
    second = tmp_path / "second.json"
    assert run_cli("train", str(data), "--mode", "regular", "--out", str(second),
                   "--config", str(config)) == 0
    assert json.loads(second.read_text()) == doc


def test_sparse_config_block_has_no_lambda2_and_round_trips(tmp_path, rng):
    # sparse mode trains at the selected lambda2, which the artifact records
    # as selected_lambda2; the train config's lambda2 is never used
    data = toy_csv(tmp_path, rng)
    first = tmp_path / "first.json"
    assert run_cli("train", str(data), "--mode", "sparse", "--out", str(first),
                   *FAST, "--seed", "3", "--lambda2-grid", "0,0.1,1") == 0
    doc = json.loads(first.read_text())
    assert "lambda2" not in doc["config"]
    assert doc["selected_lambda2"] == 1.0
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc["config"]))
    second = tmp_path / "second.json"
    assert run_cli("train", str(data), "--mode", "sparse", "--out", str(second),
                   "--config", str(config)) == 0
    assert json.loads(second.read_text()) == doc


def test_train_and_benchmark_record_the_requested_batch_size(tmp_path):
    # 150 samples leave 116 training windows; training clamps the batch to
    # them, and both commands record the batch size that was asked for
    data = tmp_path / "lorenz.csv"
    assert run_cli("generate", "lorenz", "--n", "150", "--out", str(data)) == 0
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{data}\n")
    flags = ["--epochs", "2", "--cv-epochs", "1", "--lambda2-grid", "0,0.1"]
    model_path = tmp_path / "model.json"
    assert run_cli("train", str(data), "--mode", "regular", "--out", str(model_path),
                   *flags) == 0
    assert run_cli("benchmark", str(manifest), "--out-dir", str(tmp_path / "bench"),
                   "--steps", "4", *flags) == 0
    model = json.loads(model_path.read_text())
    report = json.loads((tmp_path / "bench" / "report.json").read_text())
    assert model["config"]["batch_size"] == report["config"]["batch_size"] == 200
    config = tmp_path / "config.json"
    config.write_text(json.dumps(model["config"]))
    second = tmp_path / "second.json"
    assert run_cli("train", str(data), "--mode", "regular", "--out", str(second),
                   "--config", str(config)) == 0
    assert json.loads(second.read_text()) == model


def test_train_svg_loss_curve(tmp_path, rng):
    data = toy_csv(tmp_path, rng)
    out = tmp_path / "m.json"
    assert run_cli("train", str(data), "--mode", "regular", "--out", str(out),
                   *FAST, "--epochs", "2", "--svg") == 0
    root = ET.parse(tmp_path / "m_loss.svg").getroot()
    assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == 2


def test_train_svg_without_epochs_draws_nothing(tmp_path, rng):
    data = toy_csv(tmp_path, rng)
    out = tmp_path / "m.json"
    assert run_cli("train", str(data), "--mode", "regular", "--out", str(out),
                   *FAST, "--epochs", "0", "--svg") == 0
    assert out.exists() and (tmp_path / "m_report.json").exists()
    assert not (tmp_path / "m_loss.svg").exists()


def test_diverged_rollout_scores_print_short(tmp_path, rng, capsys):
    data = toy_csv(tmp_path, rng)
    model_path = tmp_path / "model.json"
    assert run_cli("train", str(data), "--mode", "sparse", "--out",
                   str(model_path), "--seed", "1", *FAST) == 0
    doc = json.loads(model_path.read_text())
    doc["model"]["coefficients"] = (100.0 * np.array(doc["model"]["coefficients"])).tolist()
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("forecast", "--model", str(model_path), "--input", str(data),
                   "--mode", "rollout", "--steps", "80", "--out", str(tmp_path / "roll.csv")) == 0
    scores = json.loads((tmp_path / "roll_scores.json").read_text())
    assert scores["divergence_step"] is not None and scores["scores"]["hausdorff"] > 1e100
    line = capsys.readouterr().out.strip()
    assert line.startswith("mode=rollout") and len(line) < 80, line

def test_forecast_dimension_mismatch(tmp_path, rng, capsys):
    data = toy_csv(tmp_path, rng)
    model_path = tmp_path / "m.json"
    run_cli("train", str(data), "--mode", "regular", "--out", str(model_path), *FAST)
    other = toy_csv(tmp_path, rng, d=1, name="other.csv")
    code = run_cli("forecast", "--model", str(model_path), "--input", str(other),
                   "--mode", "onestep", "--out", str(tmp_path / "p.csv"))
    assert code == 3


def test_benchmark_manifest(tmp_path, rng, capsys):
    files = [toy_csv(tmp_path, rng, name=f"sys{i}.csv") for i in range(3)]
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("\n".join(str(f) for f in files) + "\n")
    out_dir = tmp_path / "bench"
    assert run_cli("benchmark", str(manifest), "--out-dir", str(out_dir),
                   "--steps", "4", *FAST) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["report.csv", "report.json"]
    report = json.loads((out_dir / "report.json").read_text())
    assert len(report["rows"]) == 3
    printed = capsys.readouterr().out
    # the win-count line partitions the scored systems
    line = next(ln for ln in printed.splitlines() if ln.startswith("win counts:"))
    counts = dict(part.split("=") for part in line.split(" (")[0].split()[2:])
    assert set(counts) == {"RBF", "TrainedRBF", "RegularKF", "SparseKF", "none"}
    assert sum(int(v) for v in counts.values()) == 3
    assert line.endswith("(scored systems: 3)")


def test_benchmark_honours_zero_clamp(tmp_path, rng):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{toy_csv(tmp_path, rng)}\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"zero_clamp": 0.5}))
    for source in (["--zero-clamp", "0.5"], ["--config", str(config)]):
        out_dir = tmp_path / source[0].lstrip("-")
        assert run_cli("benchmark", str(manifest), "--out-dir", str(out_dir),
                       "--steps", "4", *FAST, *source) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["config"]["zero_clamp"] == 0.5


def test_train_and_benchmark_share_the_sparse_recipe(tmp_path, rng):
    # train --mode sparse and benchmark's SparseKF pick the same lambda2
    # and learn the same dictionary from the same CSV and flags
    data = toy_csv(tmp_path, rng)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{data}\n")
    flags = [*FAST, "--seed", "3", "--lambda2-grid", "0,0.1,1"]
    model_path = tmp_path / "model.json"
    assert run_cli("train", str(data), "--mode", "sparse", "--out", str(model_path),
                   *flags) == 0
    assert run_cli("benchmark", str(manifest), "--out-dir", str(tmp_path / "bench"),
                   "--steps", "4", *flags) == 0
    model = json.loads(model_path.read_text())
    row = json.loads((tmp_path / "bench" / "report.json").read_text())["rows"][0]
    assert row["selected_lambda2"] == model["selected_lambda2"] == 1.0
    nnz = np.count_nonzero(model["model"]["kernel"]["alpha"])
    assert row["nnz"]["SparseKF"] == nnz < 21


@pytest.mark.parametrize("command", ["train", "benchmark"])
@pytest.mark.parametrize("key, value", [
    ("batch_size", None), ("tau", None), ("lr", [0.1]), ("lambda2_grid", 5),
    ("lambda2_grid", [[0.1]]), ("epochs", float("inf")), ("seed", "x"),
    ("epochs", 2.7), ("seed", True), ("tau", "4"), ("cv_epochs", 1.5),
    ("tau", 0), ("train_fraction", 1.5), ("cv_epochs", -1),
    ("lambda1", float("nan")), ("lambda1", float("inf")), ("zero_clamp", float("nan")),
    ("lambda2_grid", [0, -1]), ("lambda2_grid", [0, float("nan")]),
])
def test_config_value_of_the_wrong_type_is_a_data_error(tmp_path, rng, capsys,
                                                        command, key, value):
    data = toy_csv(tmp_path, rng)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    if command == "train":
        target = [str(data), "--out", str(tmp_path / "m.json")]
    else:
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"{data}\n")
        target = [str(manifest), "--out-dir", str(tmp_path / "bench")]
    assert run_cli(command, *target, "--config", str(config)) == 3
    assert f"setting {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists() and not (tmp_path / "bench").exists()


@pytest.mark.parametrize("steps", ["0", "-2"])
def test_steps_below_one_is_a_data_error(tmp_path, rng, capsys, steps):
    # before any training or scoring: no report where every method would score inf
    data = toy_csv(tmp_path, rng)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{data}\n")
    assert run_cli("benchmark", str(manifest), "--out-dir", str(tmp_path / "bench"),
                   "--steps", steps, *FAST) == 3
    assert "setting 'steps'" in capsys.readouterr().err
    assert not (tmp_path / "bench").exists()
    model_path = tmp_path / "model.json"
    assert run_cli("train", str(data), "--mode", "regular", "--out", str(model_path), *FAST) == 0
    capsys.readouterr()
    assert run_cli("forecast", "--model", str(model_path), "--input", str(data),
                   "--mode", "rollout", "--steps", steps, "--out", str(tmp_path / "roll.csv")) == 3
    assert "setting 'steps'" in capsys.readouterr().err
    assert not (tmp_path / "roll.csv").exists() and not (tmp_path / "roll_scores.json").exists()


def test_config_integer_settings_accept_integral_floats(tmp_path, rng):
    data = toy_csv(tmp_path, rng)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": 3.0, "tau": 3.0, "seed": 7}))
    out = tmp_path / "m.json"
    assert run_cli("train", str(data), "--mode", "regular", "--out", str(out),
                   "--config", str(config)) == 0
    recorded = json.loads(out.read_text())["config"]
    assert (recorded["epochs"], recorded["tau"], recorded["seed"]) == (3, 3, 7)
    assert all(type(recorded[k]) is int for k in ("epochs", "tau", "seed"))


def test_train_without_flags_records_the_defaults(tmp_path, rng, monkeypatch):
    # a config file's null lambda2_grid and cv_epochs also mean the defaults;
    # one usable core keeps the CV cells in this process, where `trained` counts them
    trained = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def no_epochs(dataset, init, config):
        trained.append(config)
        return TrainReport([], init, init.nnz, 0)

    monkeypatch.setattr(kflow.cli, "train", no_epochs)
    monkeypatch.setattr(kflow.evaluation, "train", no_epochs)
    data = toy_csv(tmp_path, rng)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lambda2_grid": None, "cv_epochs": None}))
    default = EvalProtocol()
    want = {"command": "train", "input": str(data), "mode": "sparse",
            "tau": default.tau, "train_fraction": default.train_fraction,
            "lambda2_grid": list(default.lambda2_grid), "cv_epochs": default.cv_epochs,
            **{k: v for k, v in asdict(TrainConfig()).items() if k != "lambda2"}}
    for extra in ([], ["--config", str(config)]):
        out = tmp_path / "m.json"
        trained.clear()
        assert run_cli("train", str(data), "--out", str(out), *extra) == 0
        assert json.loads(out.read_text())["config"] == want
        # every CV cell ties (no epochs), so the smallest lambda2, 0, is selected
        assert trained[-1] == TrainConfig()
        assert len(trained) == 3 * len(default.lambda2_grid) + 1


def test_one_training_window_is_data_error(tmp_path, capsys):
    # 7 samples at tau 5 give 2 windows, 1 of them for training: too few to learn from
    data = tmp_path / "s7.csv"
    assert run_cli("generate", "lorenz", "--n", "7", "--out", str(data)) == 0
    code = run_cli("train", str(data), "--mode", "regular", "--out", str(tmp_path / "m.json"),
                   "--epochs", "3")
    assert code == 3
    assert "1 training and 1 test windows" in capsys.readouterr().err


def test_a_csv_with_an_infinite_dt_is_a_data_error(tmp_path, rng, capsys):
    data = toy_csv(tmp_path, rng)
    text = data.read_text()
    assert text.startswith("# dt=0.1\n")
    data.write_text(text.replace("# dt=0.1\n", "# dt=inf\n", 1))
    assert run_cli("train", str(data), "--out", str(tmp_path / "m.json"), *FAST) == 3
    assert capsys.readouterr().err.startswith(
        "data error [ValueError]: dt must be positive and finite, got inf")


def test_missing_input_is_data_error(tmp_path, capsys):
    code = run_cli("train", str(tmp_path / "absent.csv"), "--out",
                   str(tmp_path / "m.json"), *FAST)
    assert code == 3


def test_directory_input_is_data_error(tmp_path, capsys):
    assert run_cli("train", str(tmp_path), "--out", str(tmp_path / "m.json"), *FAST) == 3
    assert capsys.readouterr().err.startswith("data error [IsADirectoryError]")


def test_empty_manifest_is_data_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("# nothing listed\n\n")
    assert run_cli("benchmark", str(manifest), "--out-dir", str(tmp_path / "b"), *FAST) == 3
    assert capsys.readouterr().err.startswith("data error: ")


@pytest.mark.parametrize("content", [b"{not json", b"[1, 2]", b"\xff\xfe{}"],
                         ids=["not-json", "json-array", "not-utf8"])
def test_config_that_is_not_a_json_object_is_a_usage_error(tmp_path, capsys, content):
    config = tmp_path / "config.json"
    config.write_bytes(content)
    assert run_cli("train", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "m.json"),
                   "--config", str(config)) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def _alpha_overflows(doc):
    # only term 1 active, at a weight whose square overflows the kernel sum
    doc["model"]["kernel"]["alpha"] = [1e200] + [0.0] * 20


def _theta_nan(doc):
    doc["model"]["kernel"]["theta"][0] = float("nan")


BAD_MODELS = {  # edit of a saved model doc -> (exit code, start of the message)
    "not-a-model": (lambda doc: doc.update(artifact="train_report"), 3, "data error: "),
    "alpha-length-5": (lambda doc: doc["model"]["kernel"].update(alpha=[1.0] * 5), 3,
                       "data error [ValueError]: alpha must have shape"),
    "coefficients-1d": (lambda doc: doc["model"].update(
        coefficients=[row[0] for row in doc["model"]["coefficients"]]), 3,
        "data error [ValueError]: coefficients of shape"),
    "lambda1-null": (lambda doc: doc["model"].update(lambda1=None), 3,
                     "data error [ValueError]: model has JSON of the wrong type"),
    "model-a-string": (lambda doc: doc.update(model="model"), 3,
                       "data error [ValueError]: model has JSON of the wrong type"),
    "mean-an-object": (lambda doc: doc["standardization"].update(mean={"x": 0.0}), 3,
                       "data error [ValueError]: standardization has JSON of the wrong type"),
    "alpha-overflows": (_alpha_overflows, 4, "numerical failure [KernelEvalError]"),
    "theta-nan": (_theta_nan, 4, "numerical failure [KernelEvalError]"),
}


@pytest.mark.parametrize("case", BAD_MODELS)
def test_bad_model_file_exits_with_its_documented_code(tmp_path, rng, capsys, case):
    edit, code, message = BAD_MODELS[case]
    data = toy_csv(tmp_path, rng)
    model_path = tmp_path / "model.json"
    assert run_cli("train", str(data), "--mode", "regular", "--out", str(model_path),
                   *FAST, "--epochs", "0") == 0
    doc = json.loads(model_path.read_text())
    edit(doc)
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("forecast", "--model", str(model_path), "--input", str(data),
                   "--out", str(tmp_path / "p.csv")) == code
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("content", ["# dt=0.1\n0.0,1.0\n", "[1, 2]"], ids=["csv", "json-array"])
def test_file_that_is_not_a_model_is_data_error(tmp_path, rng, capsys, content):
    data = toy_csv(tmp_path, rng)
    model_path = tmp_path / "model.json"
    model_path.write_text(content)
    assert run_cli("forecast", "--model", str(model_path), "--input", str(data),
                   "--out", str(tmp_path / "p.csv")) == 3
    assert capsys.readouterr().err.startswith("data error")


def test_benchmark_runs_builtin_manifest_entries(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("builtin:lorenz\n")
    out_dir = tmp_path / "bench"
    assert run_cli("benchmark", str(manifest), "--out-dir", str(out_dir), "--n", "60",
                   "--epochs", "1", "--cv-epochs", "1", "--batch-size", "10",
                   "--lambda2-grid", "0") == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["config"]["n"] == 60
    (row,) = report["rows"]
    assert row["system"] == "lorenz" and row["selected_lambda2"] == 0.0
    assert np.isfinite(row["RBF_smape"]) and row["best"] != "none"
    assert (out_dir / "report.csv").read_text().splitlines()[2].startswith("lorenz,")


def test_console_entry_point_runs():
    # run from the directory that holds the imported kflow, installed or not
    proc = subprocess.run([sys.executable, "-m", "kflow.cli", "--version"],
                          capture_output=True, text=True, cwd=Path(kflow.__file__).parents[1])
    assert proc.returncode == 0
