import kflow


def test_every_exported_name_resolves():
    missing = [name for name in kflow.__all__ if not hasattr(kflow, name)]
    assert missing == []


def test_forecast_calls_the_kernel_and_ridge_names_a_tracer_can_replace():
    # the benchmark's tracer replaces kernels.gram, kernels.cross_gram and the ridge system
    # where forecast (and, through it, the scale calibration) looks them up
    import kflow.forecast
    import kflow.kernels
    import kflow.loss

    assert kflow.forecast.gram is kflow.kernels.gram
    assert kflow.forecast.cross_gram is kflow.kernels.cross_gram
    assert kflow.forecast.RidgeSystem is kflow.loss.RidgeSystem


# The other names the benchmark's tracer replaces, as (caller, name, defining module): the
# tracer swaps the caller's module global (or class attribute), so a name that is renamed or
# no longer imported there leaves its per-layer metric reading 0 while every other test
# passes.  Two older targets are left out on purpose: kflow.loss.gram (the loss sums its
# packed K from elemental blocks and never calls gram) and kflow.cli.emit_distribution_csv
# (the function was deleted); the tracer skips both as missing.
TRACED_NAMES = (
    ("kflow.loss", "_eval_block", "kflow.kernels"),
    ("kflow.loss", "_grad_blocks", "kflow.kernels"),
    ("kflow.training", "_nested_eval", "kflow.loss"),
    ("kflow.training", "_calibrate_scale", "kflow.training"),
    ("kflow.training", "_clip_norm", "kflow.training"),
    ("kflow.evaluation", "train", "kflow.training"),
    ("kflow.evaluation", "fit", "kflow.forecast"),
    ("kflow.evaluation", "one_step_forecast", "kflow.forecast"),
    ("kflow.evaluation", "rollout", "kflow.forecast"),
    ("kflow.evaluation", "build_delay_dataset", "kflow.embedding"),
    ("kflow.evaluation", "hausdorff", "kflow.metrics"),
    ("kflow.evaluation", "smape", "kflow.metrics"),
    ("kflow.evaluation", "select_lambda2", "kflow.evaluation"),
    ("kflow.cli", "integrate_rk4", "kflow.systems"),
    ("kflow.cli", "emit_report", "kflow.evaluation"),
    ("kflow.cli", "_write_json", "kflow.cli"),
)


def test_every_traced_name_is_the_global_its_caller_looks_up():
    import importlib

    from kflow.loss import RidgeSystem

    for caller, name, home in TRACED_NAMES:
        found = vars(importlib.import_module(caller)).get(name)
        assert found is not None, f"{caller}.{name}"
        assert found is vars(importlib.import_module(home))[name], f"{caller}.{name}"
        assert found.__module__ == home, f"{caller}.{name}"
    for name in ("solve", "_solve_factored"):
        assert vars(RidgeSystem)[name].__qualname__ == f"RidgeSystem.{name}"


def test_every_kflow_error_is_numerical_or_bad_input():
    # the CLI maps NumericalError to exit 4 and ValueError to exit 3, and the benchmark
    # scores both as +inf: an error type that is neither would escape both as a traceback
    import importlib
    import pkgutil

    defined = [
        obj
        for info in pkgutil.iter_modules(kflow.__path__, "kflow.")
        for obj in vars(importlib.import_module(info.name)).values()
        if isinstance(obj, type) and issubclass(obj, BaseException)
        and obj.__module__ == info.name
    ]
    assert kflow.NumericalError in defined and len(defined) > 5
    stray = [cls.__qualname__ for cls in defined
             if not issubclass(cls, (kflow.NumericalError, ValueError))]
    assert stray == []
