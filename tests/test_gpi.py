import re
import sys
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shouldersim import (
    GpiDesign,
    JointConfig,
    JointLimits,
    QuinticRef,
    SaturationLimits,
    Scenario,
    SecondOrderTf,
    closed_loop_char_poly,
    compute_gains,
    presets,
    run_scenario,
)
from shouldersim.gpi import control_step, feedforward, hurwitz_poly
from shouldersim.plant import step
from shouldersim.trajectory import quintic_eval

G1 = SecondOrderTf(gamma0=0.0005725, gamma1=0.05725, gamma2=0.044)
G2 = SecondOrderTf(gamma0=0.0003665, gamma1=0.213, gamma2=0.04079)
S1_DESIGN = GpiDesign(xi=0.9, wn=6.1)
S2_DESIGN = GpiDesign(xi=0.9, wn=10.25)
WIDE = SaturationLimits(u_min=-1e9, u_max=1e9)


def law_ref(tf, ref):
    """The float triple control_step takes for a (theta_d, theta_dot_d, theta_ddot_d) sample."""
    theta_d, theta_dot_d, _ = ref
    return theta_d, theta_dot_d, feedforward(tf, ref)


class State(NamedTuple):
    """control_step's successor tuple, in its documented field order, read by name."""

    int_e: float
    dint_e: float
    theta_int: float
    e0: float
    theta_dot0: float
    u_prev: float
    e_prev: float


def run_closed_loop(tf, design, theta0, thetaf, T, duration, dt, sat, rho_onset=None, rho=0.0):
    gains = compute_gains(design, tf)
    n = int(round(duration / dt)) + 1
    state = (theta0, 0.0)
    cs = None
    e_log = np.empty(n)
    u_log = np.empty(n)
    for i in range(n):
        ref = law_ref(tf, quintic_eval(theta0, thetaf, T, i * dt))
        u, cs = control_step(cs, gains, tf, state[0], ref, dt, sat)
        e_log[i] = state[0] - ref[0]
        u_log[i] = u
        if i < n - 1:
            r = rho if rho_onset is not None and i * dt >= rho_onset else 0.0
            state = step(state, tf, u, r, dt)
    return e_log, u_log


def test_design_validation():
    with pytest.raises(ValueError):
        GpiDesign(xi=0.0, wn=1.0)
    with pytest.raises(ValueError):
        GpiDesign(xi=1.0, wn=-2.0)
    with pytest.raises(ValueError):
        SaturationLimits(u_min=10.0, u_max=10.0)


def test_compute_gains_rejects_gains_that_overflow():
    with pytest.raises(ValueError, match=r"^k1 must be finite, got -inf$"):
        compute_gains(GpiDesign(0.9, 1e70), SecondOrderTf(1.0, 0.0, 1e300))


@pytest.mark.parametrize("wn", [1e-90, 1e-80])
def test_compute_gains_rejects_a_design_whose_wn_to_the_fourth_underflows(wn):
    # wn ** 4 is 0.0 at 1e-90 and the subnormal 1e-320 at 1e-80: k0 would be 0 or subnormal
    message = "^" + re.escape(f"wn = {wn!r} is too small: wn ** 4 underflows below {sys.float_info.min!r}") + "$"
    with pytest.raises(ValueError, match=message):
        hurwitz_poly(GpiDesign(0.9, wn))
    with pytest.raises(ValueError, match=message):
        compute_gains(GpiDesign(0.9, wn), SecondOrderTf(1.0, 0.0, 1.0))


def test_compute_gains_accepts_a_small_wn_whose_k0_is_normal():
    k0, _, _, k3 = compute_gains(GpiDesign(0.9, 1e-76), SecondOrderTf(1.0, 0.0, 1.0))
    assert k0 == 1e-76 ** 4 and k0 >= sys.float_info.min
    assert k3 > 0.0


def test_saturation_clamp():
    sat = SaturationLimits(u_min=0.0, u_max=100.0)
    assert sat.clamp(-5.0) == 0.0
    assert sat.clamp(105.0) == 100.0
    assert sat.clamp(42.0) == 42.0


def test_hurwitz_poly_examples():
    assert np.allclose(hurwitz_poly(GpiDesign(1.0, 1.0)), [1, 4, 6, 4, 1], atol=1e-12)
    assert np.allclose(
        hurwitz_poly(GpiDesign(0.9, 6.1)),
        [1.0, 21.96, 194.9804, 817.1316, 1384.5841],
        rtol=1e-9,
    )
    assert np.allclose(hurwitz_poly(GpiDesign(0.5, 2.0)), [1, 4, 12, 16, 16], atol=1e-9)


def test_gain_formulas_in_stiffness_free_limit():
    # with gamma1 = 0 and gamma2 -> 0 the gains reduce to k0=1, k1=4xi,
    # k2=2+4xi^2, k3=4xi at wn=1
    eps = 1e-15
    for xi in (0.3, 0.9, 1.7):
        k0, k1, k2, k3 = compute_gains(GpiDesign(xi=xi, wn=1.0), SecondOrderTf(1.0, 0.0, eps))
        assert abs(k0 - 1.0) < 1e-12
        assert abs(k1 - 4.0 * xi) < 1e-12
        assert abs(k2 - (2.0 + 4.0 * xi * xi)) < 1e-12
        assert abs(k3 - 4.0 * xi) < 1e-12


def test_gains_abad_joint():
    k0, k1, k2, k3 = compute_gains(S1_DESIGN, G1)
    assert abs(k0 - 1384.5841) < 1e-9
    assert abs(k1 - 816.167879) < 1e-9
    assert abs(k2 - 193.6824675625) < 1e-9
    assert abs(k3 - 21.90275) < 1e-9


def test_gains_fe_joint():
    k0, k1, k2, k3 = compute_gains(S2_DESIGN, G2)
    assert abs(k0 - 11038.12890625) < 1e-9
    assert abs(k1 - 3875.30978727) < 1e-8
    assert abs(k2 - 542.672379) < 1e-9
    assert abs(k3 - 36.687) < 1e-9


def test_gain_synthesis_rejects_overdamped_plant():
    with pytest.raises(ValueError, match="unstable compensator denominator"):
        compute_gains(GpiDesign(xi=0.1, wn=0.1), SecondOrderTf(1.0, 1.0, 0.5))


def test_char_poly_reproduces_target():
    gains = compute_gains(S1_DESIGN, G1)
    cp = closed_loop_char_poly(gains, G1)
    assert np.allclose(cp, [1.0, 21.96, 194.9804, 817.1316, 1384.5841], rtol=1e-9)
    assert abs(cp[1] - 4.0 * 0.9 * 6.1) < 1e-12


def test_char_poly_zero_gains():
    cp = closed_loop_char_poly((0.0, 0.0, 0.0, 0.0), SecondOrderTf(1.0, 0.0, 1e-15))
    assert np.allclose(cp, [1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_pole_placement_identity_property():
    rng = np.random.default_rng(19)
    for _ in range(100):
        design = GpiDesign(xi=float(rng.uniform(0.2, 2.0)), wn=float(rng.uniform(0.5, 20.0)))
        tf = SecondOrderTf(
            gamma0=float(rng.uniform(1e-4, 1.0)),
            gamma1=float(rng.uniform(0.0, 1.0)),
            gamma2=float(rng.uniform(1e-6, 1.0)),
        )
        cp = closed_loop_char_poly(compute_gains(design, tf), tf)
        target = hurwitz_poly(design)
        assert np.allclose(cp, target, rtol=1e-9, atol=1e-12)


def test_feedforward_examples():
    assert feedforward(G1, (0.0, 0.0, 0.0)) == 0.0
    assert abs(feedforward(G1, (1.0, 0.0, 0.0)) - 76.85589519650655) < 1e-9
    assert abs(feedforward(G2, (0.5585, 0.0, 0.0)) - 62.158840381991816) < 1e-9


# every finite float64 that a clamped reference can hold, with the edge cases drawn often
REF_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, -sys.float_info.min, 1e300, -1e300]
)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)  # subnormals included


@settings(deadline=None)
@given(
    g=st.tuples(POSITIVE, st.floats(min_value=0.0, allow_infinity=False), POSITIVE),
    ref=st.lists(st.tuples(REF_FLOATS, REF_FLOATS, REF_FLOATS), min_size=1, max_size=50),
)
@example(g=(1e-310, 0.05725, 0.044), ref=[(0.5, 0.0, 0.0), (1e300, -1e300, 1e300), (-0.0, 5e-324, -0.0)])
@example(g=(1.0, 1e10, 1e10), ref=[(1e300, -1e300, 0.0), (-1e300, 1e300, -0.0)])  # inf - inf
def test_feedforward_on_arrays_equals_the_per_tick_float_calls_bit_for_bit(g, ref):
    # run_scenario computes u_d once per joint on the reference arrays; the
    # control law used to compute it per tick on floats. Overflow (to inf)
    # and inf - inf (to nan) are part of the contract, so numpy is told not to warn.
    tf = SecondOrderTf(*g)
    arrays = tuple(np.array(column, dtype=float) for column in zip(*ref))
    with np.errstate(over="ignore", invalid="ignore"):
        got = feedforward(tf, arrays)
    want = np.array([feedforward(tf, tuple(map(float, sample))) for sample in ref])
    assert got.tobytes() == want.tobytes()


def test_perfect_tracking_returns_feedforward():
    # with zero error, zero integrals and the reconstruction pinned at the
    # reference velocity, every correction term vanishes and u equals u_d.
    # A mid-run state: the tick adds half of u_prev and half of u to
    # theta_int, so it starts half a step of u_d short of theta_dot_d
    gains = compute_gains(S1_DESIGN, G1)
    dt = 0.065
    for t in (0.0, 2.5, 5.0, 7.75):
        theta_d, theta_dot_d, u_d = ref = law_ref(G1, quintic_eval(0.1745, 0.6981, 10.0, t))
        cs = State(int_e=0.0, dint_e=0.0, theta_int=theta_dot_d - 0.5 * dt * u_d,
                   e0=0.0, theta_dot0=0.0, u_prev=0.0, e_prev=0.0)
        u, _ = control_step(cs, gains, G1, theta_d, ref, dt, WIDE)
        assert abs(u - u_d) < 1e-12


def test_constant_error_pure_proportional():
    gains = (0.0, 0.0, 1.0, 0.0)  # (k0, k1, k2, k3)
    tf = SecondOrderTf(1.0, 0.0, 1.0)
    ref = law_ref(tf, (0.0, 0.0, 0.0))
    sat = SaturationLimits(-10.0, 10.0)
    cs = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)  # mid-run, at rest, with e0 = 0
    for _ in range(20):
        u, cs = control_step(cs, gains, tf, 0.1, ref, 0.065, sat)
        assert abs(u - (-0.1)) < 1e-15


def test_trapezoidal_integrals_exact():
    # dyadic dt and values make the trapezoid sums exact in floating point
    gains = (0.0, 0.0, 0.0, 0.0)
    tf = SecondOrderTf(1.0, 0.0, 1.0)
    ref = law_ref(tf, (0.0, 0.0, 0.0))
    dt, n = 0.25, 16

    cs = None
    for _ in range(n + 1):
        _, cs = control_step(cs, gains, tf, 2.0, ref, dt, WIDE)
    cs = State._make(cs)
    assert cs.int_e == 2.0 * n * dt
    assert cs.dint_e == 2.0 * (n * dt) ** 2 / 2.0

    cs = None
    for i in range(n + 1):
        _, cs = control_step(cs, gains, tf, i * dt, ref, dt, WIDE)
    cs = State._make(cs)
    assert cs.int_e == (n * dt) ** 2 / 2.0


def test_first_tick_captures_initial_error():
    gains = compute_gains(S1_DESIGN, G1)
    ref = law_ref(G1, (0.5, 0.3, 0.0))
    u, nxt = control_step(None, gains, G1, 0.41, ref, 0.065, WIDE)
    nxt = State._make(nxt)
    assert nxt.e0 == pytest.approx(-0.09)
    # it also captures the reference velocity, and as the h = 0 case it
    # leaves every integral at 0
    assert nxt == (0.0, 0.0, 0.0, nxt.e0, 0.3, u, nxt.e0)
    # the captured offset persists
    nxt2 = State._make(control_step(nxt, gains, G1, 0.5, ref, 0.065, WIDE)[1])
    assert nxt2.e0 == nxt.e0


def test_rejects_non_finite_measurement():
    gains = compute_gains(S1_DESIGN, G1)
    ref = law_ref(G1, (0.5, 0.0, 0.0))
    with pytest.raises(ValueError, match="non-finite measurement rejected"):
        control_step(None, gains, G1, float("nan"), ref, 0.065, WIDE)


def test_saturation_safety_property():
    rng = np.random.default_rng(23)
    sat = SaturationLimits(0.0, 100.0)
    gains = compute_gains(S1_DESIGN, G1)
    cs = None
    for _ in range(300):
        ref = law_ref(G1, (float(rng.uniform(0.0, 1.4)), float(rng.uniform(-1, 1)),
                           float(rng.uniform(-1, 1))))
        meas = float(rng.uniform(-2.0, 2.0))
        u, cs = control_step(cs, gains, G1, meas, ref, 0.065, sat)
        assert 0.0 <= u <= 100.0


def test_anti_windup_freezes_error_integrals():
    gains = compute_gains(S1_DESIGN, G1)
    sat = SaturationLimits(0.0, 100.0)
    ref = law_ref(G1, (0.5, 0.0, 0.0))
    cs = State._make(control_step(None, gains, G1, 0.5, ref, 0.065, sat)[1])

    # a large positive error drives u_raw far below u_min: clamped tick
    u, nxt = control_step(cs, gains, G1, 1.5, ref, 0.065, sat)
    nxt = State._make(nxt)
    assert u == 0.0
    assert nxt.int_e == cs.int_e
    assert nxt.dint_e == cs.dint_e
    # the reconstruction still integrates the applied (clamped) input
    assert nxt.theta_int == cs.theta_int + 0.5 * 0.065 * (cs.u_prev + u)

    # an unsaturated tick advances the error integrals by the trapezoid rule
    cs = State._make(control_step(None, gains, G1, 0.5, ref, 0.065, WIDE)[1])
    nxt = State._make(control_step(cs, gains, G1, 0.5005, ref, 0.065, WIDE)[1])
    assert nxt.int_e == pytest.approx(cs.int_e + 0.5 * 0.065 * (0.0 + 0.0005))


def test_closed_loop_quintic_terminal_error():
    e_log, _ = run_closed_loop(
        G1, S1_DESIGN, 0.1745, 0.6981, T=10.0, duration=10.0, dt=0.065,
        sat=SaturationLimits(0.0, 100.0),
    )
    assert abs(e_log[-1]) <= 0.03


def test_tracking_error_shrinks_with_dt():
    # discretization is the only error source here, so halving dt must help
    kwargs = dict(theta0=0.1745, thetaf=0.6981, T=10.0, duration=10.0,
                  sat=SaturationLimits(0.0, 100.0))
    e_coarse, _ = run_closed_loop(G1, S1_DESIGN, dt=0.065, **kwargs)
    e_fine, _ = run_closed_loop(G1, S1_DESIGN, dt=0.0325, **kwargs)
    assert np.max(np.abs(e_fine)) < np.max(np.abs(e_coarse))


def test_step_disturbance_is_rejected():
    # double integral action drives the error from a constant input
    # disturbance back below 0.01 rad
    e_log, _ = run_closed_loop(
        G1, S1_DESIGN, 0.1745, 0.6981, T=10.0, duration=40.0, dt=0.065,
        sat=SaturationLimits(0.0, 100.0), rho_onset=20.0, rho=5.0,
    )
    t = np.arange(len(e_log)) * 0.065
    after = np.abs(e_log[t >= 25.0])
    assert np.max(after) < 0.01


def test_closed_loop_poles_match_design():
    gains = compute_gains(S1_DESIGN, G1)
    roots = np.roots(closed_loop_char_poly(gains, G1))
    # double roots are recovered to about sqrt(machine eps); compare the
    # real and imaginary parts as multisets
    assert np.allclose(np.sort(roots.real), [-5.49] * 4, atol=1e-5)
    assert np.allclose(
        np.sort(roots.imag),
        [-2.6589283556, -2.6589283556, 2.6589283556, 2.6589283556],
        atol=1e-5,
    )


def test_poles_analysis_quadruple_root():
    eps = 1e-15
    tf = SecondOrderTf(1.0, 0.0, eps)
    gains = compute_gains(GpiDesign(xi=1.0, wn=1.0), tf)
    roots = np.roots(closed_loop_char_poly(gains, tf))
    # a quadruple root is extracted with O(eps^(1/4)) accuracy at best
    assert np.max(np.abs(roots - (-1.0))) < 1e-3


PRESET_JOINTS = {
    "abad": (presets.ABAD_PLANT, presets.ABAD_DESIGN, presets.ABAD_LIMITS),
    "fe": (presets.FE_PLANT, presets.FE_DESIGN, presets.FE_LIMITS),
}


@st.composite
def holds(draw):
    """A preset joint and a constant reference angle inside its limits."""
    joint = draw(st.sampled_from(sorted(PRESET_JOINTS)))
    limits = PRESET_JOINTS[joint][2]
    return joint, draw(st.floats(limits.theta_min, limits.theta_max))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: k3 acts on ∫u, not ∫(u − u_d)")
@settings(max_examples=20, deadline=None)
@given(case=holds())
@example(case=("abad", 0.5))
@example(case=("fe", 0.3))
def test_a_constant_reference_is_held_with_u_equal_to_u_d(case):
    joint, theta0 = case
    plant, design, _ = PRESET_JOINTS[joint]
    cfg = JointConfig(
        plant=plant,
        design=design,
        limits=JointLimits(-10.0, 10.0),  # never clamps the reference
        saturation=WIDE,  # never reached
        reference=QuinticRef(theta0, theta0, 1.0),  # theta_d = theta0, zero rates
    )
    series = run_scenario(Scenario(joints={joint: cfg}, duration=20.0)).series[joint]
    u_d = feedforward(plant, (theta0, 0.0, 0.0))
    # Design: the gains are placed for the loop whose equilibrium on a
    # constant reference, started at rest on it, is e = 0 and u = u_d on every
    # tick. Roundoff: u_d = gamma2*theta0/gamma0 and the plant's gamma0*u_d are
    # each a few roundings from gamma2*theta0, so e may hold a few ulps of
    # theta0 and u a few ulps of u_d plus what the proportional gain k2/gamma0
    # makes of that e. 64 ulps of each leaves room to spare.
    eps = np.finfo(float).eps
    e_tol = 64 * eps * theta0
    u_tol = 64 * eps * abs(u_d) + compute_gains(design, plant)[2] / plant.gamma0 * e_tol
    assert np.max(np.abs(series.e)) <= e_tol
    assert np.max(np.abs(series.u - u_d)) <= u_tol


@st.composite
def model_references(draw):
    """A preset joint, a start angle and 20-200 admissible inputs whose plant response is the reference."""
    joint = draw(st.sampled_from(sorted(PRESET_JOINTS)))
    theta0 = draw(st.floats(0.2, 0.5))
    inputs = draw(st.lists(st.floats(20.0, 80.0), min_size=20, max_size=200))
    return joint, theta0, inputs


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: k3 acts on ∫u, not ∫(u − u_d)")
@settings(max_examples=20, deadline=None)
@given(case=model_references())
@example(case=("abad", 0.3, [50.0] * 20))
@example(case=("fe", 0.4, [20.0, 80.0] * 10))
def test_a_reference_generated_by_the_plant_is_tracked_exactly(case):
    joint, theta0, inputs = case
    plant, design, _ = PRESET_JOINTS[joint]
    gains = compute_gains(design, plant)
    sat = SaturationLimits(u_min=-1e6, u_max=1e6)  # never reached
    dt = presets.DEFAULT_DT
    # the reference is the plant's own response from rest at theta0, and u_d the input that made it
    ref = [(theta0, 0.0)]
    for u_d in inputs[:-1]:
        ref.append(step(ref[-1], plant, u_d, 0.0, dt))
    # Design: the gains are placed for the compensator of u - u_d. While e = 0
    # and u = u_d its integrals stay 0, so it returns u_d again and the plant
    # repeats the reference's own plant.step call: no tolerance is needed.
    state, cs = (theta0, 0.0), None
    for i, ((theta_d, theta_dot_d), u_d) in enumerate(zip(ref, inputs)):
        e = state[0] - theta_d
        u, cs = control_step(cs, gains, plant, state[0], (theta_d, theta_dot_d, u_d), dt, sat)
        assert e == 0.0, f"tick {i}: e = {e!r}"
        assert u == u_d, f"tick {i}: u = {u!r}, u_d = {u_d!r}"
        state = step(state, plant, u, 0.0, dt)
