import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shouldersim import (
    DEFAULT_DT,
    JointLimits,
    RefSample,
    clamp_to_limits,
    differentiate_teach,
    load_teach_csv,
    quintic_eval,
    record_teach,
    save_teach_csv,
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
        s = quintic_eval(0.3, 0.3, 5.0, float(t))
        assert (s.theta_d, s.theta_dot_d, s.theta_ddot_d) == (0.3, 0.0, 0.0)


def test_unit_quintic_coefficients():
    # theta_d(t) = 10 t^3 - 15 t^4 + 6 t^5 on [0, 1], and its derivatives
    pos = np.polynomial.Polynomial([0, 0, 0, 10, -15, 6])
    for t in np.linspace(0.0, 1.0, 41):
        s = quintic_eval(0.0, 1.0, 1.0, float(t))
        assert s.theta_d == pytest.approx(pos(t), abs=1e-12)
        assert s.theta_dot_d == pytest.approx(pos.deriv(1)(t), abs=1e-12)
        assert s.theta_ddot_d == pytest.approx(pos.deriv(2)(t), abs=1e-12)


def test_quintic_midpoint_symmetry():
    mid = quintic_eval(0.1745, 0.6981, 10.0, 5.0)
    assert abs(mid.theta_d - 0.4363) < 1e-12


def test_quintic_eval_boundary_samples():
    start = quintic_eval(0.2, 0.9, 7.0, 0.0)
    end = quintic_eval(0.2, 0.9, 7.0, 7.0)
    assert (start.theta_d, start.theta_dot_d, start.theta_ddot_d) == pytest.approx((0.2, 0.0, 0.0))
    assert (end.theta_d, end.theta_dot_d, end.theta_ddot_d) == pytest.approx((0.9, 0.0, 0.0))


def test_unit_quintic_at_midpoint():
    mid = quintic_eval(0.0, 1.0, 1.0, 0.5)
    assert abs(mid.theta_d - 0.5) < 1e-9
    assert abs(mid.theta_dot_d - 1.875) < 1e-9
    assert abs(mid.theta_ddot_d) < 1e-9


def test_quintic_eval_holds_beyond_duration():
    held = quintic_eval(0.2, 0.9, 7.0, 12.0)
    assert held.theta_d == pytest.approx(0.9)
    assert held.theta_dot_d == pytest.approx(0.0)


def test_quintic_rejects_bad_duration():
    with pytest.raises(ValueError):
        quintic_eval(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        quintic_eval(0.0, 1.0, -3.0, 0.0)


def test_quintic_boundary_residuals_property():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        theta0 = float(rng.uniform(0.1745, 1.396))
        thetaf = float(rng.uniform(0.1745, 1.396))
        T = float(rng.uniform(1.0, 30.0))
        start = quintic_eval(theta0, thetaf, T, 0.0)
        end = quintic_eval(theta0, thetaf, T, T)
        assert abs(start.theta_d - theta0) < 1e-9
        assert abs(end.theta_d - thetaf) < 1e-9
        assert abs(start.theta_dot_d) < 1e-9 and abs(end.theta_dot_d) < 1e-9
        assert abs(start.theta_ddot_d) < 1e-9 and abs(end.theta_ddot_d) < 1e-9


def test_quintic_derivative_consistency():
    h = 1e-3
    for t in np.linspace(0.5, 7.5, 15):
        ahead = quintic_eval(0.1745, 1.2, 8.0, t + h)
        behind = quintic_eval(0.1745, 1.2, 8.0, t - h)
        here = quintic_eval(0.1745, 1.2, 8.0, t)
        assert abs((ahead.theta_d - behind.theta_d) / (2 * h) - here.theta_dot_d) < 1e-4
        assert abs((ahead.theta_dot_d - behind.theta_dot_d) / (2 * h) - here.theta_ddot_d) < 1e-4


def test_sine_zero_phase_starts_at_half_amplitude():
    s = sine_ref(A=1.0, f=1.6e-3, k=0.0, t=0.0)
    assert s.theta_d == pytest.approx(0.5)


def test_sine_case_a_initial_value_and_range():
    # tick-index time base: t counts controller ticks, wall time is t*dt
    s = sine_ref(A=1.0, f=1.6e-3, k=300.0, t=0.0)
    assert abs(s.theta_d - 0.00012208004942526607) < 1e-15
    for tick in range(0, 5000, 37):
        s = sine_ref(A=1.0, f=1.6e-3, k=300.0, t=float(tick))
        assert 0.0 <= s.theta_d <= 1.0


def test_sine_crest():
    # f*t + k = pi/2 (mod 2 pi) puts the reference at its crest
    A, f, k = 1.0, 1.6e-3, 300.0
    t_crest = (math.pi / 2.0 - k + 2.0 * math.pi * 48) / f
    s = sine_ref(A, f, k, t_crest)
    assert s.theta_d == pytest.approx(A)
    assert s.theta_dot_d == pytest.approx(0.0, abs=1e-12)


def test_sine_wall_clock_derivatives():
    # emitted theta_dot_d is d(theta_d)/d(wall time), so a finite difference
    # across one tick must match it
    A, f, k, dt = 1.0, 2.6e-3, 300.0, 0.065
    for tick in (10.0, 250.0, 1000.0):
        ahead = sine_ref(A, f, k, tick + 1, dt)
        behind = sine_ref(A, f, k, tick - 1, dt)
        here = sine_ref(A, f, k, tick, dt)
        fd = (ahead.theta_d - behind.theta_d) / (2 * dt)
        assert abs(fd - here.theta_dot_d) < 1e-6
        fd2 = (ahead.theta_dot_d - behind.theta_dot_d) / (2 * dt)
        assert abs(fd2 - here.theta_ddot_d) < 1e-6


def test_sine_rejects_non_positive_amplitude():
    with pytest.raises(ValueError):
        sine_ref(A=0.0, f=1.6e-3, k=300.0, t=0.0)


def test_record_teach_constant_demo():
    tt = record_teach([(0.0, 0.2, 0.0), (5.0, 0.2, 0.0)])
    assert tt.duration == 5.0
    refs = differentiate_teach(tt, dt=0.065)
    assert len(refs.theta_d) == 77
    assert refs.theta_d == pytest.approx(0.2)
    assert np.all(np.abs(refs.theta_ddot_d) < 1e-12)


def test_differentiate_teach_rejects_demo_shorter_than_one_tick():
    tt = record_teach([(0.0, 0.3, 0.0), (0.01, 0.31, 0.1)])
    with pytest.raises(ValueError, match=r"lasts 0\.01 s, shorter than one tick of 0\.065 s"):
        differentiate_teach(tt, dt=0.065)
    # exactly one tick long gives the two grid samples
    refs = differentiate_teach(record_teach([(0.0, 0.3, 0.0), (0.065, 0.31, 0.1)]), dt=0.065)
    assert refs.theta_d.tolist() == [0.3, 0.31]
    assert refs.theta_ddot_d.tolist() == [0.1 / 0.065] * 2


def test_record_teach_rejects_bad_streams():
    with pytest.raises(ValueError):
        record_teach([])
    with pytest.raises(ValueError):
        record_teach([(0.0, 0.2, 0.0)])
    with pytest.raises(ValueError):
        record_teach([(0.0, 0.2, 0.0), (0.0, 0.3, 0.0)])
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
    refs = differentiate_teach(tt, dt=0.1)
    assert len(refs.theta_ddot_d) == 41
    assert np.all(np.abs(refs.theta_ddot_d[1:-1] - 1.0) < 1e-9)


def test_differentiate_sine_matches_analytic_acceleration():
    A, f, k, dt = 0.8, 1.6e-3, 300.0, 0.065
    demo = []
    for tick in range(120):
        s = sine_ref(A, f, k, float(tick), dt)
        demo.append((tick * dt, s.theta_d, s.theta_dot_d))
    refs = differentiate_teach(record_teach(demo), dt=dt)
    assert len(refs.theta_ddot_d) == 120
    for tick, acc in enumerate(refs.theta_ddot_d[1:-1], start=1):
        truth = sine_ref(A, f, k, float(tick), dt)
        assert abs(acc - truth.theta_ddot_d) < 1e-8


def test_teach_replay_round_trip():
    # a generator-produced demonstration replays within resampling error
    A, f, k, dt = 1.0, 2.6e-3, 300.0, 0.065
    demo = []
    for tick in range(100):
        s = sine_ref(A, f, k, float(tick), dt)
        demo.append((tick * dt, s.theta_d, s.theta_dot_d))
    refs = differentiate_teach(record_teach(demo), dt=dt)
    assert len(refs.theta_d) == 100
    for tick, theta in enumerate(refs.theta_d):
        truth = sine_ref(A, f, k, float(tick), dt)
        assert abs(theta - truth.theta_d) < 1e-3


def test_teach_round_trip_from_offgrid_samples():
    # band-limited demo sampled at 0.01 s, resampled onto the 0.065 s grid
    demo = []
    for i in range(501):
        t = i * 0.01
        s = quintic_eval(0.5, 0.58, 5.0, t)
        demo.append((t, s.theta_d, s.theta_dot_d))
    refs = differentiate_teach(record_teach(demo), dt=0.065)
    assert len(refs.theta_d) == 77
    for i, theta in enumerate(refs.theta_d):
        truth = quintic_eval(0.5, 0.58, 5.0, i * 0.065)
        assert abs(theta - truth.theta_d) < 1e-3


def test_smoothing_reduces_acceleration_noise():
    rng = np.random.default_rng(5)
    demo = []
    for i in range(124):
        t = i * 0.065
        s = quintic_eval(0.3, 0.9, 8.0, t)
        demo.append((t, s.theta_d, s.theta_dot_d + rng.normal(0.0, 1e-3)))
    tt = record_teach(demo)
    raw = differentiate_teach(tt, dt=0.065, smooth=False)
    smoothed = differentiate_teach(tt, dt=0.065, smooth=True)
    assert len(raw.theta_ddot_d) == len(smoothed.theta_ddot_d) == 124
    std_raw = np.std(raw.theta_ddot_d[2:-2])
    std_smooth = np.std(smoothed.theta_ddot_d[2:-2])
    assert std_smooth < std_raw


def test_clamp_below_floor():
    clamped = clamp_to_limits(RefSample(0.05, 0.4, 0.1), S1_LIMITS)
    assert clamped.theta_d == 0.1745
    assert clamped.theta_dot_d == 0.0
    assert clamped.theta_ddot_d == 0.0


def test_clamp_leaves_in_range_samples_alone():
    ref = RefSample(0.5, 0.4, 0.1)
    assert clamp_to_limits(ref, S1_LIMITS) == ref


def test_clamp_idempotence_property():
    rng = np.random.default_rng(41)
    for _ in range(200):
        ref = RefSample(
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
        s = clamp_to_limits(sine_ref(1.0, 1.6e-3, 300.0, float(tick)), S1_LIMITS)
        assert s.theta_d >= 0.1745
        if s.theta_d == 0.1745:
            flat += 1
    assert flat > 500


def test_teach_csv_round_trip(tmp_path):
    tt = record_teach([(0.0, 0.2, 0.0), (0.5, 0.25, 0.11), (1.25, 0.31, 0.02)])
    path = tmp_path / "demo.csv"
    save_teach_csv(path, tt)
    back = load_teach_csv(path)
    assert back.samples == tt.samples
    assert back.duration == tt.duration



def _same_bits(array_ref, scalar_refs):
    """True when a RefSample of arrays holds exactly the per-tick scalar samples."""
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
    ref = RefSample(np.array(theta_d), rates, 2.0 * rates)
    scalars = [RefSample(*r) for r in zip(theta_d, rates.tolist(), (2.0 * rates).tolist())]
    assert _same_bits(clamp_to_limits(ref, S1_LIMITS), [clamp_to_limits(r, S1_LIMITS) for r in scalars])
