import numpy as np
import pytest

from kflow.embedding import TimeSeries
from kflow.systems import (
    DataFormatError,
    IntegrationError,
    Standardizer,
    SystemSpec,
    builtin_systems,
    get_system,
    integrate_rk4,
    load_csv,
    save_csv,
)


def test_zero_field_constant_series():
    spec = SystemSpec("still", 2, lambda u: np.zeros(2),
                      default_ic=(3.0, -1.0), default_dt=0.1, transient_skip=5)
    series = integrate_rk4(spec, 10)
    np.testing.assert_array_equal(series.values, np.tile([3.0, -1.0], (10, 1)))


def test_rk4_single_step_taylor_oracle():
    # dx/dt = x, one step of h=0.1: 1 + h + h^2/2 + h^3/6 + h^4/24
    spec = SystemSpec("exp", 1, lambda u: u, default_ic=(1.0,),
                      default_dt=0.1, transient_skip=0)
    series = integrate_rk4(spec, 2, 0.1)
    h = 0.1
    oracle = 1.0 + h + h ** 2 / 2 + h ** 3 / 6 + h ** 4 / 24
    assert series.values[1, 0] == pytest.approx(oracle, rel=1e-15)


def test_rk4_fourth_order_error_ratio():
    # halving dt must shrink the global error ~16x for dx/dt = x
    def global_error(dt):
        n = int(round(1.0 / dt)) + 1
        spec = SystemSpec("exp", 1, lambda u: u, default_ic=(1.0,),
                          default_dt=dt, transient_skip=0)
        series = integrate_rk4(spec, n, dt)
        return abs(series.values[-1, 0] - np.exp(1.0))

    ratio = global_error(0.02) / global_error(0.01)
    assert 12.0 <= ratio <= 20.0


def test_lorenz_trajectory_bounded():
    series = integrate_rk4(get_system("lorenz"), 7200)
    assert np.abs(series.values).max() < 100.0


def test_integration_determinism():
    a = integrate_rk4(get_system("rossler"), 500)
    b = integrate_rk4(get_system("rossler"), 500)
    assert (a.values == b.values).all()


def test_blowup_reports_step():
    def square(u):
        with np.errstate(over="ignore"):  # the blow-up integrate_rk4 must report
            return u * u

    spec = SystemSpec("explode", 1, square, default_ic=(2.0,),
                      default_dt=1.0, transient_skip=0)
    with pytest.raises(IntegrationError, match="step"):
        integrate_rk4(spec, 500, 1.0)


def test_builtin_names_and_smoke_runs():
    names = {spec.name for spec in builtin_systems()}
    assert {"lorenz", "rossler", "thomas", "duffing"} <= names
    for spec in builtin_systems():
        assert spec.transient_skip >= 1000
        series = integrate_rk4(spec, 7200)
        assert series.n == 7200
        assert np.all(np.isfinite(series.values))


def test_get_system_unknown():
    with pytest.raises(KeyError):
        get_system("not-a-system")


def test_duffing_phase_pair_on_unit_circle():
    series = integrate_rk4(get_system("duffing"), 2000)
    radius = series.values[:, 2] ** 2 + series.values[:, 3] ** 2
    np.testing.assert_allclose(radius, 1.0, atol=1e-3)


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def test_load_csv_plain_body(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    series = load_csv(path)
    assert series.n == 3 and series.dim == 2
    assert series.dt == 1.0


def test_load_csv_header_detected(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("x,y,z\n1,2,3\n4,5,6\n")
    series = load_csv(path)
    assert series.n == 2 and series.dim == 3


def test_load_csv_dt_comment(tmp_path):
    path = tmp_path / "dt.csv"
    path.write_text("# dt=0.01\nx,y\n1,2\n3,4\n")
    assert load_csv(path).dt == 0.01


def test_load_csv_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3,4,5\n")
    with pytest.raises(DataFormatError):
        load_csv(path)


def test_load_csv_bad_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(DataFormatError):
        load_csv(path)


def test_load_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataFormatError):
        load_csv(path)


def test_csv_round_trip_exact(tmp_path, rng):
    values = rng.normal(size=(50, 3)) * np.array([1e-7, 1.0, 1e6])
    series = TimeSeries(values, dt=0.0125, name="roundtrip")
    path = tmp_path / "rt.csv"
    save_csv(series, path)
    back = load_csv(path)
    assert (back.values == series.values).all()
    assert back.dt == series.dt


def test_save_csv_column_names(tmp_path):
    series = TimeSeries(np.ones((3, 2)), 0.5)
    path = tmp_path / "named.csv"
    save_csv(series, path, column_names=["a", "b"])
    assert "a,b" in path.read_text().splitlines()[1]
    with pytest.raises(ValueError):
        save_csv(series, path, column_names=["only-one"])


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------

def test_standardizer_round_trip(rng):
    values = rng.normal(size=(100, 3)) * [2.0, 5.0, 0.1] + [1.0, -3.0, 0.0]
    std = Standardizer.fit(values)
    z = std.transform(values)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(z.std(axis=0), 1.0, rtol=1e-12)
    np.testing.assert_allclose(std.inverse(z), values, rtol=1e-12)


def test_standardizer_constant_coordinate():
    values = np.column_stack([np.arange(10.0), np.full(10, 2.5)])
    std = Standardizer.fit(values)
    assert std.scale[1] == 1.0
    np.testing.assert_allclose(std.inverse(std.transform(values)), values, rtol=1e-12)


def test_standardizer_dict_round_trip(rng):
    std = Standardizer.fit(rng.normal(size=(30, 2)))
    back = Standardizer.from_dict(std.to_dict())
    assert (back.mean == std.mean).all() and (back.scale == std.scale).all()
