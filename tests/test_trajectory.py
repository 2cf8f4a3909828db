import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shouldersim import DEFAULT_DT, JointLimits, QuinticRef, SineRef
from shouldersim.trajectory import (
    clamp_to_limits,
    differentiate_teach,
    load_teach_csv,
    quintic_eval,
    record_teach,
    sine_ref,
)

S1_LIMITS = JointLimits(theta_min=0.1745, theta_max=1.396)


def test_default_sample_period():
    assert DEFAULT_DT == 0.065


def test_limit_validation():
    with pytest.raises(ValueError):
        JointLimits(theta_min=1.0, theta_max=1.0)


def test_quintic_constant_when_endpoints_equal():
    for t in np.linspace(-1.0, 6.0, 29):
        assert quintic_eval(0.3, 0.3, 5.0, float(t)) == (0.3, 0.0, 0.0)


def test_unit_quintic_coefficients():
    # theta_d(t) = 10 t^3 - 15 t^4 + 6 t^5 on [0, 1], and its derivatives
    pos = np.polynomial.Polynomial([0, 0, 0, 10, -15, 6])
    for t in np.linspace(0.0, 1.0, 41):
        theta_d, theta_dot_d, theta_ddot_d = quintic_eval(0.0, 1.0, 1.0, float(t))
        assert theta_d == pytest.approx(pos(t), abs=1e-12)
        assert theta_dot_d == pytest.approx(pos.deriv(1)(t), abs=1e-12)
        assert theta_ddot_d == pytest.approx(pos.deriv(2)(t), abs=1e-12)


def test_quintic_midpoint_symmetry():
    theta_d, _, _ = quintic_eval(0.1745, 0.6981, 10.0, 5.0)
    assert abs(theta_d - 0.4363) < 1e-12


def test_quintic_eval_boundary_samples():
    start = quintic_eval(0.2, 0.9, 7.0, 0.0)
    end = quintic_eval(0.2, 0.9, 7.0, 7.0)
    assert start == pytest.approx((0.2, 0.0, 0.0))
    assert end == pytest.approx((0.9, 0.0, 0.0))


def test_unit_quintic_at_midpoint():
    theta_d, theta_dot_d, theta_ddot_d = quintic_eval(0.0, 1.0, 1.0, 0.5)
    assert abs(theta_d - 0.5) < 1e-9
    assert abs(theta_dot_d - 1.875) < 1e-9
    assert abs(theta_ddot_d) < 1e-9


def test_quintic_eval_holds_beyond_duration():
    theta_d, theta_dot_d, _ = quintic_eval(0.2, 0.9, 7.0, 12.0)
    assert theta_d == pytest.approx(0.9)
    assert theta_dot_d == pytest.approx(0.0)


# T and A are checked where a reference is declared (QuinticRef, SineRef), not
# again each time quintic_eval or sine_ref samples one.


def test_quintic_rejects_bad_duration():
    for T in (0.0, -3.0, math.nan):
        with pytest.raises(ValueError, match="T > 0"):
            QuinticRef(0.0, 1.0, T)


def test_quintic_boundary_residuals_property():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        theta0 = float(rng.uniform(0.1745, 1.396))
        thetaf = float(rng.uniform(0.1745, 1.396))
        T = float(rng.uniform(1.0, 30.0))
        start_d, start_dot_d, start_ddot_d = quintic_eval(theta0, thetaf, T, 0.0)
        end_d, end_dot_d, end_ddot_d = quintic_eval(theta0, thetaf, T, T)
        assert abs(start_d - theta0) < 1e-9
        assert abs(end_d - thetaf) < 1e-9
        assert abs(start_dot_d) < 1e-9 and abs(end_dot_d) < 1e-9
        assert abs(start_ddot_d) < 1e-9 and abs(end_ddot_d) < 1e-9


def test_quintic_derivative_consistency():
    h = 1e-3
    for t in np.linspace(0.5, 7.5, 15):
        ahead = quintic_eval(0.1745, 1.2, 8.0, t + h)
        behind = quintic_eval(0.1745, 1.2, 8.0, t - h)
        here = quintic_eval(0.1745, 1.2, 8.0, t)
        assert abs((ahead[0] - behind[0]) / (2 * h) - here[1]) < 1e-4
        assert abs((ahead[1] - behind[1]) / (2 * h) - here[2]) < 1e-4


def test_sine_zero_phase_starts_at_half_amplitude():
    theta_d, _, _ = sine_ref(A=1.0, f=1.6e-3, k=0.0, t=0.0, dt=DEFAULT_DT)
    assert theta_d == pytest.approx(0.5)


def test_sine_case_a_initial_value_and_range():
    # tick-index time base: t counts controller ticks, wall time is t*dt
    theta_d, _, _ = sine_ref(A=1.0, f=1.6e-3, k=300.0, t=0.0, dt=DEFAULT_DT)
    assert abs(theta_d - 0.00012208004942526607) < 1e-15
    for tick in range(0, 5000, 37):
        theta_d, _, _ = sine_ref(A=1.0, f=1.6e-3, k=300.0, t=float(tick), dt=DEFAULT_DT)
        assert 0.0 <= theta_d <= 1.0


def test_sine_crest():
    # f*t + k = pi/2 (mod 2 pi) puts the reference at its crest
    A, f, k = 1.0, 1.6e-3, 300.0
    t_crest = (math.pi / 2.0 - k + 2.0 * math.pi * 48) / f
    theta_d, theta_dot_d, _ = sine_ref(A, f, k, t_crest, DEFAULT_DT)
    assert theta_d == pytest.approx(A)
    assert theta_dot_d == pytest.approx(0.0, abs=1e-12)


def test_sine_wall_clock_derivatives():
    # emitted theta_dot_d is d(theta_d)/d(wall time), so a finite difference
    # across one tick must match it
    A, f, k, dt = 1.0, 2.6e-3, 300.0, 0.065
    for tick in (10.0, 250.0, 1000.0):
        ahead = sine_ref(A, f, k, tick + 1, dt)
        behind = sine_ref(A, f, k, tick - 1, dt)
        here = sine_ref(A, f, k, tick, dt)
        fd = (ahead[0] - behind[0]) / (2 * dt)
        assert abs(fd - here[1]) < 1e-6
        fd2 = (ahead[1] - behind[1]) / (2 * dt)
        assert abs(fd2 - here[2]) < 1e-6


def test_sine_rejects_non_positive_amplitude():
    with pytest.raises(ValueError, match="A > 0"):
        SineRef(A=0.0, f=1.6e-3, k=300.0)


def test_record_teach_constant_demo():
    tt = record_teach([(0.0, 0.2, 0.0), (5.0, 0.2, 0.0)])
    assert float(tt[-1, 0]) - float(tt[0, 0]) == 5.0
    theta_d, _, theta_ddot_d = differentiate_teach(tt, dt=0.065, n=77)  # a demonstration at rest shows no hold: n is its grid
    assert len(theta_d) == 77
    assert theta_d == pytest.approx(0.2)
    assert np.all(np.abs(theta_ddot_d) < 1e-12)


def test_differentiate_teach_rejects_demo_shorter_than_one_tick():
    tt = record_teach([(0.0, 0.3, 0.0), (0.01, 0.31, 0.1)])
    with pytest.raises(ValueError, match=r"lasts 0\.01 s, shorter than one tick of 0\.065 s"):
        differentiate_teach(tt, dt=0.065, n=10)
    # exactly one tick long gives the two grid samples, then the hold
    refs = differentiate_teach(record_teach([(0.0, 0.3, 0.0), (0.065, 0.31, 0.1)]), dt=0.065, n=4)
    assert [x.tolist() for x in refs] == [[0.3, 0.31, 0.31, 0.31], [0.0, 0.1, 0.0, 0.0], [0.1 / 0.065] * 2 + [0.0, 0.0]]
    assert_hold_from(refs, 2)


def assert_hold_from(refs, k):
    """The demonstration's grid ends at tick k - 1, still moving, and the hold at rest begins at tick k."""
    theta_d, theta_dot_d, theta_ddot_d = refs
    assert theta_dot_d[k - 1] != 0.0
    assert np.all(theta_d[k:] == theta_d[k - 1])
    assert not np.any(theta_dot_d[k:]) and not np.any(theta_ddot_d[k:])


def test_record_teach_rejects_bad_streams():
    with pytest.raises(ValueError, match="need at least 2 samples, got 0"):
        record_teach([])
    with pytest.raises(ValueError, match="need at least 2 samples, got 1"):
        record_teach([(0.0, 0.2, 0.0)])
    with pytest.raises(ValueError, match=r"strictly increasing, got 0\.5 then 0\.5$"):
        record_teach([(0.0, 0.2, 0.0), (0.5, 0.3, 0.0), (0.5, 0.3, 0.0), (0.4, 0.3, 0.0)])
    with pytest.raises(ValueError, match=r"rows, got shape \(2, 2\)"):
        record_teach([(0.0, 0.2), (1.0, 0.3)])
    # finiteness is checked before the count and the timestamps
    with pytest.raises(ValueError, match=r"teach sample 0 must be finite, got \(0\.0, nan, 0\.0\)"):
        record_teach([(0.0, float("nan"), 0.0)])
    for bad in (float("nan"), float("inf"), -float("inf")):
        for col in range(3):
            sample = [0.5, 0.6, 0.0]
            sample[col] = bad
            with pytest.raises(ValueError, match="teach sample 1 must be finite"):
                record_teach([(0.0, 0.5, 0.0), tuple(sample), (1.0, 0.7, 0.0)])


def test_differentiate_linear_velocity():
    # theta_dot(t) = t has unit acceleration at every interior point
    ts = np.arange(0.0, 4.0 + 1e-9, 0.1)
    tt = record_teach([(t, 0.5 * t * t, t) for t in ts])
    refs = differentiate_teach(tt, dt=0.1, n=50)
    theta_ddot_d = refs[2]
    assert len(theta_ddot_d) == 50
    assert_hold_from(refs, 41)
    assert np.all(np.abs(theta_ddot_d[1:40] - 1.0) < 1e-9)


def test_differentiate_sine_matches_analytic_acceleration():
    A, f, k, dt = 0.8, 1.6e-3, 300.0, 0.065
    demo = []
    for tick in range(120):
        theta_d, theta_dot_d, _ = sine_ref(A, f, k, float(tick), dt)
        demo.append((tick * dt, theta_d, theta_dot_d))
    refs = differentiate_teach(record_teach(demo), dt=dt, n=130)
    assert_hold_from(refs, 120)
    for tick, acc in enumerate(refs[2][1:119], start=1):
        _, _, truth = sine_ref(A, f, k, float(tick), dt)
        assert abs(acc - truth) < 1e-8


def test_teach_replay_round_trip():
    # a generator-produced demonstration replays within resampling error
    A, f, k, dt = 1.0, 2.6e-3, 300.0, 0.065
    demo = []
    for tick in range(100):
        theta_d, theta_dot_d, _ = sine_ref(A, f, k, float(tick), dt)
        demo.append((tick * dt, theta_d, theta_dot_d))
    refs = differentiate_teach(record_teach(demo), dt=dt, n=110)
    assert_hold_from(refs, 100)
    for tick, theta in enumerate(refs[0][:100]):
        truth, _, _ = sine_ref(A, f, k, float(tick), dt)
        assert abs(theta - truth) < 1e-3


def test_teach_round_trip_from_offgrid_samples():
    # band-limited demo sampled at 0.01 s, resampled onto the 0.065 s grid
    demo = []
    for i in range(501):
        t = i * 0.01
        theta_d, theta_dot_d, _ = quintic_eval(0.5, 0.58, 5.0, t)
        demo.append((t, theta_d, theta_dot_d))
    refs = differentiate_teach(record_teach(demo), dt=0.065, n=80)
    assert_hold_from(refs, 77)
    for i, theta in enumerate(refs[0][:77]):
        truth, _, _ = quintic_eval(0.5, 0.58, 5.0, i * 0.065)
        assert abs(theta - truth) < 1e-3


def test_smoothing_reduces_acceleration_noise():
    rng = np.random.default_rng(5)
    demo = []
    for i in range(124):
        t = i * 0.065
        theta_d, theta_dot_d, _ = quintic_eval(0.3, 0.9, 8.0, t)
        demo.append((t, theta_d, theta_dot_d + rng.normal(0.0, 1e-3)))
    tt = record_teach(demo)
    raw = differentiate_teach(tt, dt=0.065, n=130, smooth=False)
    smoothed = differentiate_teach(tt, dt=0.065, n=130, smooth=True)
    assert_hold_from(raw, 124)
    assert_hold_from(smoothed, 124)
    std_raw = np.std(raw[2][2:122])
    std_smooth = np.std(smoothed[2][2:122])
    assert std_smooth < std_raw


def test_clamp_below_floor():
    assert clamp_to_limits((0.05, 0.4, 0.1), S1_LIMITS) == (0.1745, 0.0, 0.0)


def test_clamp_leaves_in_range_samples_alone():
    ref = (0.5, 0.4, 0.1)
    assert clamp_to_limits(ref, S1_LIMITS) == ref


def test_clamp_idempotence_property():
    rng = np.random.default_rng(41)
    for _ in range(200):
        ref = (
            float(rng.uniform(-1.0, 2.5)),
            float(rng.uniform(-1.0, 1.0)),
            float(rng.uniform(-1.0, 1.0)),
        )
        once = clamp_to_limits(ref, S1_LIMITS)
        twice = clamp_to_limits(once, S1_LIMITS)
        assert once == twice


def test_full_swing_sine_flattens_in_valleys():
    # a unit-amplitude sine dips below the joint floor; clamping produces the
    # flat valley segments seen in the tracked trajectories
    flat = 0
    for tick in range(4000):
        theta_d, _, _ = clamp_to_limits(sine_ref(1.0, 1.6e-3, 300.0, float(tick), DEFAULT_DT), S1_LIMITS)
        assert theta_d >= 0.1745
        if theta_d == 0.1745:
            flat += 1
    assert flat > 500


@pytest.mark.parametrize("n_grid", [2, 3, 4, 5, 6])
def test_smoothing_needs_five_grid_samples(n_grid):
    # below 5 grid samples smooth=True is the raw pipeline, bit for bit
    dt = 0.065
    tt = record_teach([(k * dt, 0.1 * k, (-1.0) ** k) for k in range(n_grid)])
    raw = differentiate_teach(tt, dt=dt, n=n_grid + 3, smooth=False)
    smoothed = differentiate_teach(tt, dt=dt, n=n_grid + 3, smooth=True)
    assert_hold_from(raw, n_grid)
    same = all(np.array_equal(a, b) for a, b in zip(raw, smoothed))
    assert same == (n_grid < 5)


def test_teach_csv_round_trip(tmp_path):
    tt = record_teach([(0.0, 0.2, 0.0), (0.5, 0.25, 0.11), (1.25, 0.31, 0.02)])
    path = tmp_path / "demo.csv"
    path.write_text("t,theta,theta_dot\n" + "".join("%r,%r,%r\n" % tuple(row) for row in tt.tolist()))
    back = load_teach_csv(path)
    assert back.shape == (3, 3)
    assert back.tobytes() == tt.tobytes()
    assert float(back[-1, 0]) - float(back[0, 0]) == float(tt[-1, 0]) - float(tt[0, 0])
    with pytest.raises(ValueError):
        back[0, 1] = 9.0  # validated once, so read-only



def _same_bits(array_ref, scalar_refs):
    """True when a reference of arrays holds exactly the per-tick scalar samples."""
    per_tick = np.array([tuple(r) for r in scalar_refs], dtype=float).T
    return np.stack(array_ref).tobytes() == per_tick.tobytes()


_ANGLE = st.floats(-3.0, 3.0)


@settings(deadline=None)
@given(
    theta0=_ANGLE,
    thetaf=_ANGLE,
    T=st.floats(0.01, 50.0),
    times=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=20),
    A=st.floats(1e-3, 3.0),
    f=st.floats(-0.1, 0.1),
    k=st.floats(-1e3, 1e3),
    ticks=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=20),
    theta_d=st.lists(_ANGLE, min_size=1, max_size=20),
)
def test_array_references_equal_scalar_calls_bit_for_bit(theta0, thetaf, T, times, A, f, k, ticks, theta_d):
    # times reach outside [0, T] and theta_d outside the limits
    q = quintic_eval(theta0, thetaf, T, np.array(times))
    assert _same_bits(q, [quintic_eval(theta0, thetaf, T, t) for t in times])
    s = sine_ref(A, f, k, np.array(ticks), 0.065)
    assert _same_bits(s, [sine_ref(A, f, k, tick, 0.065) for tick in ticks])
    n = len(theta_d)
    rates = np.linspace(-1.0, 1.0, n)
    ref = (np.array(theta_d), rates, 2.0 * rates)
    scalars = list(zip(theta_d, rates.tolist(), (2.0 * rates).tolist()))
    assert _same_bits(clamp_to_limits(ref, S1_LIMITS), [clamp_to_limits(r, S1_LIMITS) for r in scalars])


def _whole_grid_then_hold(demo, dt, n, smooth):
    """The oracle of differentiate_teach: resample the demonstration's whole grid, then
    truncate it to n ticks or hold its final angle at rest up to n ticks."""
    duration = float(demo[-1, 0]) - float(demo[0, 0])
    m = int(math.floor(duration / dt + 1e-9)) + 1
    if m < 2:
        raise ValueError(f"demonstration lasts {duration!r} s, shorter than one tick of {dt!r} s")
    t_src = demo[:, 0] - demo[0, 0]
    t_grid = np.arange(m) * dt
    theta = np.interp(t_grid, t_src, demo[:, 1])
    theta_dot = np.interp(t_grid, t_src, demo[:, 2])
    if smooth and m >= 5:
        padded = np.concatenate([theta_dot[2:0:-1], theta_dot, theta_dot[-2:-4:-1]])
        theta_dot = np.convolve(padded, np.ones(5) / 5.0, mode="valid")
    acc = np.empty(m)
    acc[1:-1] = (theta_dot[2:] - theta_dot[:-2]) / (2.0 * dt)
    acc[0] = (theta_dot[1] - theta_dot[0]) / dt
    acc[-1] = (theta_dot[-1] - theta_dot[-2]) / dt
    pad = (0, max(n - m, 0))
    rates = (np.pad(x[:n], pad) for x in (theta_dot, acc))
    return (np.pad(theta[:n], pad, mode="edge"), *rates)


@settings(deadline=None, max_examples=300)
@given(
    t0=st.floats(-100.0, 100.0),
    rows=st.lists(st.tuples(st.floats(1e-3, 1.0), _ANGLE, st.floats(-5.0, 5.0)), min_size=2, max_size=60),
    dt=st.floats(0.01, 0.5),
    n=st.integers(2, 200),
    smooth=st.booleans(),
)
def test_differentiate_teach_equals_the_whole_grid_then_hold_bit_for_bit(t0, rows, dt, n, smooth):
    # irregular, offset timestamps; the run is shorter or longer than the demonstration
    t = t0 + np.cumsum([gap for gap, _, _ in rows])
    demo = record_teach([(ti, theta, rate) for ti, (_, theta, rate) in zip(t.tolist(), rows)])
    try:
        expected = _whole_grid_then_hold(demo, dt, n, smooth)
    except ValueError as ex:
        with pytest.raises(ValueError, match=re.escape(str(ex))):
            differentiate_teach(demo, dt, n, smooth)
        return
    got = differentiate_teach(demo, dt, n, smooth)
    assert np.stack(got).tobytes() == np.stack(expected).tobytes()


def test_differentiate_teach_resamples_no_more_than_the_run():
    # a 1e15 s demonstration has 1.5e16 grid points of 0.065 s; the run needs 155
    demo = record_teach([(0.0, 0.3, 0.0), (1e15, 0.4, 0.0)])
    refs = differentiate_teach(demo, 0.065, 155)
    assert [len(x) for x in refs] == [155, 155, 155]
    assert refs[0][0] == 0.3 and np.all(refs[0] <= 0.4)


@pytest.mark.parametrize("T", [1e-300, 1e-162, 5e-324])
def test_quintic_rejects_a_duration_whose_square_underflows(T):
    with pytest.raises(ValueError, match=re.escape(f"quintic reference T = {T!r} is too small: T * T underflows to 0")):
        QuinticRef(0.0, 1.0, T)


@pytest.mark.parametrize("T", [1e-161, 2e-154])
def test_quintic_rejects_a_duration_whose_acceleration_scale_overflows(T):
    # T * T is nonzero, but 60 * d / (T * T) is inf, and inf times s = 0 at tick 0 would be NaN
    message = f"quintic reference T = {T!r} is too small for a 0.2 rad move: 30 * d / T or 60 * d / (T * T) overflows"
    with pytest.raises(ValueError, match=re.escape(message)):
        QuinticRef(0.1745, 0.3745, T)


def test_quintic_evaluates_the_shortest_duration_whose_scales_are_finite():
    ref = quintic_eval(0.1745, 0.3745, 3e-154, np.arange(3) * 0.065)
    assert all(np.all(np.isfinite(x)) for x in ref)
    assert ref[0].tolist() == [0.1745, 0.3745, 0.3745]
