import math
import warnings
from dataclasses import replace

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
    spec = SystemSpec("still", lambda u: np.zeros(2),
                      default_ic=(3.0, -1.0), default_dt=0.1, transient_skip=5)
    series = integrate_rk4(spec, 10)
    np.testing.assert_array_equal(series.values, np.tile([3.0, -1.0], (10, 1)))


def test_rk4_single_step_taylor_oracle():
    # dx/dt = x, one step of h=0.1: 1 + h + h^2/2 + h^3/6 + h^4/24
    spec = SystemSpec("exp", lambda u: u, default_ic=(1.0,),
                      default_dt=0.1, transient_skip=0)
    series = integrate_rk4(spec, 2, 0.1)
    h = 0.1
    oracle = 1.0 + h + h ** 2 / 2 + h ** 3 / 6 + h ** 4 / 24
    assert series.values[1, 0] == pytest.approx(oracle, rel=1e-15)


def test_rk4_fourth_order_error_ratio():
    # halving dt must shrink the global error ~16x for dx/dt = x
    def global_error(dt):
        n = int(round(1.0 / dt)) + 1
        spec = SystemSpec("exp", lambda u: u, default_ic=(1.0,),
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
        return tuple(x * x for x in u)  # overflows to inf, the blow-up integrate_rk4 must report

    spec = SystemSpec("explode", square, default_ic=(2.0,),
                      default_dt=1.0, transient_skip=0)
    with pytest.raises(IntegrationError, match="step"):
        integrate_rk4(spec, 500, 1.0)


@pytest.mark.parametrize("n_samples", [2.5, 10.0, "10", None])
def test_non_integer_sample_count_is_a_value_error(n_samples):
    with pytest.raises(ValueError, match="n_samples must be an integer"):
        integrate_rk4(get_system("lorenz"), n_samples)


def test_numpy_integer_sample_count_is_accepted():
    assert integrate_rk4(get_system("lorenz"), np.int64(5)).n == 5


@pytest.mark.parametrize("dt", [math.inf, -math.inf, math.nan, 0.0, -0.01,
                                pytest.param(10**400, id="int-beyond-float"),
                                pytest.param([0.1], id="list")])
def test_dt_that_is_not_positive_and_finite_is_a_value_error(dt):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            integrate_rk4(get_system("lorenz"), 10, dt)


# ---------------------------------------------------------------------------
# oracle: RK4 over ndarrays, with the built-ins' right-hand sides as arrays.
# integrate_rk4 runs the same recurrence on tuples of floats and must match
# it bit for bit, blow-ups included.
# ---------------------------------------------------------------------------

def _array_rhs(name):
    def lorenz(u, sigma=10.0, rho=28.0, beta=8.0 / 3.0):
        x, y, z = u
        return np.array([sigma * (y - x), x * (rho - z) - y, x * y - beta * z])

    def rossler(u, a=0.2, b=0.2, c=5.7):
        x, y, z = u
        return np.array([-y - z, x + a * y, b + z * (x - c)])

    def thomas(u, b=0.208186):
        x, y, z = u
        return np.array([np.sin(y) - b * x, np.sin(z) - b * y, np.sin(x) - b * z])

    def duffing(u, delta=0.3, alpha=-1.0, beta=1.0, gamma=0.5, omega=1.2):
        x, v, c, s = u
        return np.array([
            v,
            -delta * v - alpha * x - beta * x ** 3 + gamma * c,
            -omega * s,
            omega * c,
        ])

    return {"lorenz": lorenz, "rossler": rossler, "thomas": thomas, "duffing": duffing}[name]


def _array_rk4_step(rhs, state, dt):
    k1 = rhs(state)
    k2 = rhs(state + 0.5 * dt * k1)
    k3 = rhs(state + 0.5 * dt * k2)
    k4 = rhs(state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _array_integrate(spec, n_samples, dt):
    """The trajectory as bytes, or the IntegrationError message of its blow-up."""
    rhs = _array_rhs(spec.name)
    state = np.asarray(spec.default_ic, dtype=float)
    with np.errstate(all="ignore"):
        for step in range(spec.transient_skip):
            state = _array_rk4_step(rhs, state, dt)
            if not np.all(np.isfinite(state)):
                return f"{spec.name}: blow-up during transient at step {step}"
        out = np.empty((n_samples, state.size))
        out[0] = state
        for k in range(1, n_samples):
            state = _array_rk4_step(rhs, state, dt)
            if not np.all(np.isfinite(state)):
                return f"{spec.name}: blow-up at recorded step {k}"
            out[k] = state
    return out.tobytes()


def _float_integrate(spec, n_samples, dt):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return integrate_rk4(spec, n_samples, dt).values.tobytes()
        except IntegrationError as err:
            return str(err)


@pytest.mark.parametrize("name", ["lorenz", "rossler", "thomas", "duffing"])
@pytest.mark.parametrize("dt_factor", [1.0, 0.5])
def test_builtin_trajectories_are_bitwise_the_array_recurrence(name, dt_factor):
    spec = get_system(name)
    dt = spec.default_dt * dt_factor
    want = _array_integrate(spec, 2000, dt)
    assert isinstance(want, bytes)
    assert _float_integrate(spec, 2000, dt) == want


@pytest.mark.parametrize("name", ["lorenz", "rossler", "thomas", "duffing"])
@pytest.mark.parametrize("dt", [1.0, 1e3, 1e300])
@pytest.mark.parametrize("transient", [True, False])
def test_builtin_blowups_match_the_array_recurrence_without_warnings(name, dt, transient):
    # without the transient a blow-up falls on a recorded step
    spec = get_system(name)
    if not transient:
        spec = replace(spec, transient_skip=0)
    want = _array_integrate(spec, 2000, dt)
    assert _float_integrate(spec, 2000, dt) == want
    if dt > 1.0:
        assert want.startswith(f"{name}: blow-up ")


def test_float_pow_and_sin_match_numpy_float64_scalars(rng):
    # the reasons the float recurrence is bitwise the array one: Python's float **
    # and math.sin round as numpy's float64 scalar ** and sin do
    values = rng.uniform(-1.0, 1.0, 20000) * 10.0 ** rng.uniform(-3.0, 15.0, 20000)
    for v in values:
        x = float(v)
        assert x ** 3 == float(v ** 3)
        assert math.sin(x) == float(np.sin(v))


def test_math_domain_error_on_the_last_stage_is_a_blowup():
    # the first three stages stay finite; s + dt * k3 overflows, and math.sin(inf) raises
    spec = SystemSpec("sine", lambda u: tuple(math.sin(x) + 2.0 for x in u),
                      default_ic=(0.0,), default_dt=1e308, transient_skip=0)
    with pytest.raises(IntegrationError, match="at recorded step 1"):
        integrate_rk4(spec, 5)


def test_rhs_error_on_a_finite_state_is_not_a_blowup():
    # lorenz unpacks three coordinates: a two-element state is the caller's error
    spec = replace(get_system("lorenz"), default_ic=(1.0, 2.0))
    with pytest.raises(ValueError, match="unpack"):
        integrate_rk4(spec, 10)


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
