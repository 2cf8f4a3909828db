"""Second-order LTI models of the pneumatically driven joints.

Each degree of freedom is modeled as a spring-mass-damper transfer function

    G(s) = gamma0 / (s^2 + gamma1*s + gamma2)

mapping PWM duty (in percent) to joint angle (rad). The module provides a
deterministic fixed-step RK4 integrator for the equivalent ODE

    theta_dd = -gamma1*theta_d - gamma2*theta + gamma0*(u + rho)

where rho is an additive input disturbance in PWM-% equivalents.
"""
from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from math import inf
from typing import Union, get_args, get_origin, get_type_hints

_WORDS = {float: "a number", int: "an integer", bool: "true or false", str: "a string", type(None): "None"}


@functools.cache
def field_types(cls) -> dict:
    """Field name -> type of dataclass cls, evaluated from its annotations once."""
    return get_type_hints(cls)


@functools.cache
def _accepted(hint) -> tuple:
    """The classes that a field typed hint takes (each member of a Union, the origin of a generic), and their wording."""
    classes = tuple(get_origin(t) or t for t in (get_args(hint) if get_origin(hint) is Union else (hint,)))
    return classes, " or ".join(_WORDS.get(t, t.__name__) for t in classes)


def check_fields(obj) -> None:
    """Check each field of frozen dataclass obj against its annotation, storing a number as a plain float or int.

    A float field takes a finite real number, an int field an integer or an integral float, neither a bool.
    """
    for name, hint in field_types(type(obj)).items():
        value, where = getattr(obj, name), f"{type(obj).__name__}.{name}"
        if hint in (float, int) and isinstance(value, numbers.Real) and not isinstance(value, bool) and not (hint is int and value % 1):
            try:
                value = hint(value)
            except OverflowError:  # the message leaves the value out: an int's repr can be too long to print
                raise ValueError(f"{where} must be finite, got a number too large for a float") from None
            if not -inf < value < inf:
                raise ValueError(f"{where} must be finite, got {value!r}")
            object.__setattr__(obj, name, value)
        elif hint in (float, int) or not isinstance(value, _accepted(hint)[0]):
            raise TypeError(f"{where}: expected {_accepted(hint)[1]}, got {value!r}")


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
        check_fields(self)
        if self.gamma0 <= 0.0:
            raise ValueError(f"gamma0 must be > 0, got {self.gamma0!r}")
        if self.gamma1 < 0.0:
            raise ValueError(f"gamma1 must be >= 0, got {self.gamma1!r}")
        if self.gamma2 <= 0.0:
            raise ValueError(f"gamma2 must be > 0, got {self.gamma2!r}")


@dataclass(frozen=True)
class DisturbanceSpec:
    """Constant input disturbance of `magnitude` PWM-% switched on at t = onset."""

    magnitude: float
    onset: float

    def __post_init__(self):
        check_fields(self)
        if self.onset < 0.0:
            raise ValueError(f"onset must be >= 0, got {self.onset!r}")


def step(state: tuple, tf: SecondOrderTf, u: float, rho: float, dt: float) -> tuple:
    """Advance the plant ODE by one fixed RK4 step with zero-order-hold input.

    state is a (theta, theta_dot) pair in rad and rad/s, not checked: it comes
    from validated input or a previous step. The successor is a new such pair.

    The caller is responsible for saturating u beforehand; u and rho are held
    constant over the step. Stage i evaluates the derivative (v_i, a_i) at
    the stage point, with a_i = gamma0*(u + rho) - gamma1*v_i - gamma2*th_i.
    Raises ValueError for a non-finite u or rho and for a successor state that
    is not finite. dt is not checked here: Scenario.dt and IoRecord.ts check
    it where it enters.
    """
    # Chained comparisons are math.isfinite on every float: NaN fails both.
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
    return theta, theta_dot


def dc_gain(tf: SecondOrderTf) -> float:
    """Steady-state angle per unit of constant input: gamma0 / gamma2."""
    return tf.gamma0 / tf.gamma2
