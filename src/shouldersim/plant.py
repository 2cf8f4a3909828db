"""Second-order LTI models of the pneumatically driven joints.

Each degree of freedom is modeled as a spring-mass-damper transfer function

    G(s) = gamma0 / (s^2 + gamma1*s + gamma2)

mapping PWM duty (in percent) to joint angle (rad). The module provides a
deterministic fixed-step RK4 integrator for the equivalent ODE

    theta_dd = -gamma1*theta_d - gamma2*theta + gamma0*(u + rho)

where rho is an additive input disturbance in PWM-% equivalents.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SecondOrderTf:
    """Continuous plant gamma0 / (s^2 + gamma1*s + gamma2).

    gamma0 is the input gain (rad/s^2 per PWM-%), gamma1 the damping
    coefficient (1/s) and gamma2 the stiffness coefficient (1/s^2).
    gamma0 and gamma2 must be strictly positive so the DC gain is finite;
    gamma1 must be non-negative.
    """

    gamma0: float
    gamma1: float
    gamma2: float

    def __post_init__(self):
        for name in ("gamma0", "gamma1", "gamma2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.gamma0 <= 0.0:
            raise ValueError(f"gamma0 must be > 0, got {self.gamma0!r}")
        if self.gamma1 < 0.0:
            raise ValueError(f"gamma1 must be >= 0, got {self.gamma1!r}")
        if self.gamma2 <= 0.0:
            raise ValueError(f"gamma2 must be > 0, got {self.gamma2!r}")


@dataclass(frozen=True)
class PlantState:
    """Instantaneous joint state: angle (rad) and angular velocity (rad/s)."""

    theta: float
    theta_dot: float

    def __post_init__(self):
        for name in ("theta", "theta_dot"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class DisturbanceSpec:
    """Constant input disturbance of `magnitude` PWM-% switched on at t = onset."""

    magnitude: float
    onset: float

    def __post_init__(self):
        if not math.isfinite(self.magnitude):
            raise ValueError(f"magnitude must be finite, got {self.magnitude!r}")
        if not math.isfinite(self.onset) or self.onset < 0.0:
            raise ValueError(f"onset must be >= 0, got {self.onset!r}")


def to_state_space(tf: SecondOrderTf):
    """Controllable canonical realization (A, B, C) with x = [theta, theta_dot].

    A has characteristic polynomial s^2 + gamma1*s + gamma2, B injects the
    input into the acceleration row and C reads the angle.
    """
    A = np.array([[0.0, 1.0], [-tf.gamma2, -tf.gamma1]])
    B = np.array([0.0, tf.gamma0])
    C = np.array([1.0, 0.0])
    return A, B, C


def step(state: PlantState, tf: SecondOrderTf, u: float, rho: float, dt: float) -> PlantState:
    """Advance the plant ODE by one fixed RK4 step with zero-order-hold input.

    The caller is responsible for saturating u beforehand; u and rho are held
    constant over the step. Raises ValueError for non-finite input and for
    non-positive dt; PlantState already guarantees a finite state.
    """
    if dt <= 0.0 or not math.isfinite(dt):
        raise ValueError(f"dt must be > 0, got {dt!r}")
    if not (math.isfinite(u) and math.isfinite(rho)):
        raise ValueError("non-finite input rejected")

    g0, g1, g2 = tf.gamma0, tf.gamma1, tf.gamma2
    ue = u + rho

    def deriv(th, td):
        return td, g0 * ue - g1 * td - g2 * th

    th, td = state.theta, state.theta_dot
    k1 = deriv(th, td)
    k2 = deriv(th + 0.5 * dt * k1[0], td + 0.5 * dt * k1[1])
    k3 = deriv(th + 0.5 * dt * k2[0], td + 0.5 * dt * k2[1])
    k4 = deriv(th + dt * k3[0], td + dt * k3[1])

    theta = th + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    theta_dot = td + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return PlantState(theta=theta, theta_dot=theta_dot)


def dc_gain(tf: SecondOrderTf) -> float:
    """Steady-state angle per unit of constant input: gamma0 / gamma2."""
    if tf.gamma2 == 0.0:
        raise ValueError("marginal plant")
    return tf.gamma0 / tf.gamma2


def poles(tf: SecondOrderTf):
    """Roots of s^2 + gamma1*s + gamma2 as a (plus, minus) pair of complex numbers."""
    disc = cmath.sqrt(tf.gamma1 * tf.gamma1 - 4.0 * tf.gamma2)
    return ((-tf.gamma1 + disc) / 2.0, (-tf.gamma1 - disc) / 2.0)
