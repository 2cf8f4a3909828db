import math

import numpy as np
import pytest

from shouldersim import DisturbanceSpec, SecondOrderTf
from shouldersim.plant import dc_gain, step

G1 = SecondOrderTf(gamma0=0.0005725, gamma1=0.05725, gamma2=0.044)
G2 = SecondOrderTf(gamma0=0.0003665, gamma1=0.213, gamma2=0.04079)


def closed_form_step(tf, u, t):
    # analytic response of the underdamped plant from rest to a constant input
    K = tf.gamma0 * u / tf.gamma2
    sigma = tf.gamma1 / 2.0
    wd = math.sqrt(tf.gamma2 - sigma * sigma)
    return K * (1.0 - math.exp(-sigma * t) * (math.cos(wd * t) + sigma / wd * math.sin(wd * t)))


def simulate_constant(tf, u, duration, dt, rho=0.0):
    state = (0.0, 0.0)
    for _ in range(int(round(duration / dt))):
        state = step(state, tf, u, rho, dt)
    return state


def test_coefficient_validation():
    with pytest.raises(ValueError):
        SecondOrderTf(0.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        SecondOrderTf(1.0, -0.1, 0.1)
    with pytest.raises(ValueError):
        SecondOrderTf(1.0, 0.1, 0.0)
    with pytest.raises(ValueError):
        SecondOrderTf(float("nan"), 0.1, 0.1)
    with pytest.raises(ValueError, match="plant state must be finite"):
        step((float("inf"), 0.0), G1, u=0.0, rho=0.0, dt=0.065)
    with pytest.raises(ValueError):
        DisturbanceSpec(magnitude=5.0, onset=-1.0)


def test_step_keeps_origin_fixed():
    theta, theta_dot = step((0.0, 0.0), G1, u=0.0, rho=0.0, dt=0.065)
    assert theta == 0.0
    assert theta_dot == 0.0


def test_step_rejects_bad_inputs():
    state = (0.0, 0.0)
    with pytest.raises(ValueError, match="non-finite input rejected"):
        step(state, G1, u=float("nan"), rho=0.0, dt=0.065)
    with pytest.raises(ValueError, match="non-finite input rejected"):
        step(state, G1, u=0.0, rho=float("inf"), dt=0.065)


def test_full_pwm_reaches_saturated_angle_abad():
    # gamma0*u/gamma2 = 0.0005725*100/0.044
    theta, _ = simulate_constant(G1, u=100.0, duration=600.0, dt=0.065)
    assert abs(theta - 1.3011363636363636) < 1e-4


def test_full_pwm_reaches_saturated_angle_fe():
    theta, _ = simulate_constant(G2, u=100.0, duration=600.0, dt=0.065)
    assert abs(theta - 0.8985045354253493) < 1e-6


def test_step_matches_closed_form_response():
    for tf in (G1, G2):
        state = (0.0, 0.0)
        dt = 0.05
        for i in range(400):
            state = step(state, tf, u=50.0, rho=0.0, dt=dt)
            t = (i + 1) * dt
            if t in (1.0, 5.0, 20.0):
                assert abs(state[0] - closed_form_step(tf, 50.0, t)) < 1e-8


def test_disturbance_adds_to_input():
    # rho enters exactly like u, so (u=30, rho=20) must equal (u=50, rho=0)
    a_theta, a_theta_dot = simulate_constant(G1, u=30.0, duration=5.0, dt=0.065, rho=20.0)
    b_theta, b_theta_dot = simulate_constant(G1, u=50.0, duration=5.0, dt=0.065, rho=0.0)
    assert a_theta == b_theta
    assert a_theta_dot == b_theta_dot


def test_dc_gain_values():
    assert dc_gain(SecondOrderTf(1.0, 1.0, 1.0)) == 1.0
    assert abs(dc_gain(G1) - 0.0130114) < 1e-7
    assert abs(dc_gain(G2) - 0.0089850) < 1e-7


def test_equilibrium_invariance_property():
    rng = np.random.default_rng(7)
    state = (0.0, 0.0)
    for _ in range(50):
        dt = float(rng.uniform(0.001, 0.5))
        theta, theta_dot = step(state, G1, u=0.0, rho=0.0, dt=dt)
        assert theta == 0.0 and theta_dot == 0.0


def test_final_value_property():
    # constant input settles to dc_gain*u within 0.1 % after 10 / |Re(pole)| s
    rng = np.random.default_rng(11)
    for _ in range(5):
        tf = SecondOrderTf(
            gamma0=float(rng.uniform(2e-4, 1e-3)),
            gamma1=float(rng.uniform(0.05, 0.25)),
            gamma2=float(rng.uniform(0.035, 0.06)),
        )
        u = float(rng.uniform(10.0, 100.0))
        horizon = 10.0 / abs(np.roots([1.0, tf.gamma1, tf.gamma2])[0].real)
        theta, _ = simulate_constant(tf, u, duration=horizon, dt=0.065)
        target = dc_gain(tf) * u
        assert abs(theta - target) <= 1e-3 * abs(target)


def test_rk4_order_of_accuracy():
    # single-step error against the analytic step response shrinks ~ dt^5
    tf = SecondOrderTf(1.0, 0.8, 4.0)
    dts = np.array([0.4, 0.2, 0.1, 0.05])
    errs = []
    for dt in dts:
        theta, _ = step((0.0, 0.0), tf, u=10.0, rho=0.0, dt=float(dt))
        errs.append(abs(theta - closed_form_step(tf, 10.0, float(dt))))
    slope = np.polyfit(np.log(dts), np.log(np.array(errs)), 1)[0]
    assert slope >= 3.5


def test_linearity_of_response():
    rng = np.random.default_rng(3)
    n = 200
    u1 = rng.uniform(0.0, 100.0, size=n)
    u2 = rng.uniform(0.0, 100.0, size=n)

    def run(u_seq):
        state = (0.0, 0.0)
        out = np.empty(n)
        for i in range(n):
            state = step(state, G1, float(u_seq[i]), 0.0, 0.065)
            out[i] = state[0]
        return out

    combined = run(u1 + u2)
    separate = run(u1) + run(u2)
    assert np.allclose(combined, separate, rtol=1e-9, atol=1e-12)
