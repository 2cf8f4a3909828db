"""Second-order LTI models of the pneumatically driven joints.

Each degree of freedom is modeled as a spring-mass-damper transfer function

    G(s) = gamma0 / (s^2 + gamma1*s + gamma2)

mapping PWM duty (in percent) to joint angle (rad). The module provides a
deterministic fixed-step RK4 integrator for the equivalent ODE

    theta_dd = -gamma1*theta_d - gamma2*theta + gamma0*(u + rho)

where rho is an additive input disturbance in PWM-% equivalents.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import inf
from typing import NamedTuple


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


class PlantState(NamedTuple):
    """Instantaneous joint state: angle (rad) and angular velocity (rad/s).

    Not validated per instance: step checks the states it produces, and the
    initial state comes from validated input (a reference or a record).
    """

    theta: float
    theta_dot: float


# _new_tuple(PlantState, fields) builds the object PlantState(*fields)
# without the Python-level namedtuple __new__; step makes one per tick.
_new_tuple = tuple.__new__


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


def step(state: PlantState, tf: SecondOrderTf, u: float, rho: float, dt: float) -> PlantState:
    """Advance the plant ODE by one fixed RK4 step with zero-order-hold input.

    The caller is responsible for saturating u beforehand; u and rho are held
    constant over the step. Stage i evaluates the derivative (v_i, a_i) at
    the stage point, with a_i = gamma0*(u + rho) - gamma1*v_i - gamma2*th_i.
    Raises ValueError for non-finite input, for non-positive dt and for a
    successor state that is not finite.
    """
    # Chained comparisons are math.isfinite on every float: NaN fails both.
    if not 0.0 < dt < inf:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    if not (-inf < u < inf and -inf < rho < inf):
        raise ValueError("non-finite input rejected")

    g0, g1, g2 = tf.gamma0, tf.gamma1, tf.gamma2
    force = g0 * (u + rho)
    half = 0.5 * dt
    th, td = state
    a1 = force - g1 * td - g2 * th
    v2 = td + half * a1
    a2 = force - g1 * v2 - g2 * (th + half * td)
    v3 = td + half * a2
    a3 = force - g1 * v3 - g2 * (th + half * v2)
    v4 = td + dt * a3
    a4 = force - g1 * v4 - g2 * (th + dt * v3)

    sixth = dt / 6.0
    theta = th + sixth * (td + 2.0 * v2 + 2.0 * v3 + v4)
    theta_dot = td + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    if not (-inf < theta < inf and -inf < theta_dot < inf):
        raise ValueError(f"plant state must be finite, got theta={theta!r}, theta_dot={theta_dot!r}")
    return _new_tuple(PlantState, (theta, theta_dot))


def dc_gain(tf: SecondOrderTf) -> float:
    """Steady-state angle per unit of constant input: gamma0 / gamma2."""
    return tf.gamma0 / tf.gamma2
