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
