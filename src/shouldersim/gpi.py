"""Robust GPI controller: gain synthesis, discrete control law, closed-loop polynomial.

Gains k0..k3 are found by matching the closed-loop characteristic polynomial

    s^4 + (k3+g1)s^3 + (k2+k3*g1+g2)s^2 + (k3*g2+k1)s + k0

against the target Hurwitz polynomial (s^2 + 2*xi*wn*s + wn^2)^2, which places
two double poles at -xi*wn +/- wn*sqrt(1-xi^2)i.

The discrete law reconstructs the joint velocity from the integral of the
applied input (no velocity sensing) and applies iterated integrals of the
tracking error, all updated by the trapezoidal rule:

    u = u_d - k3*(theta_dot_int - theta_dot_d)
          + (1/gamma0) * (-k2*(e - e0) - k1*int(e) - k0*iint(e))

with theta_dot_int = int(u) - theta_dot0. Because the trapezoidal update of
int(u) at the current tick contains the not-yet-known u itself, the law is
solved implicitly: the u*dt/2 contribution is moved to the left-hand side,
dividing the explicit part by (1 + k3*dt/2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import inf

import numpy as np

from .plant import SecondOrderTf
from .trajectory import RefSample


@dataclass(frozen=True)
class GpiDesign:
    """Closed-loop design point: damping ratio xi and natural frequency wn."""

    xi: float
    wn: float

    def __post_init__(self):
        if not (math.isfinite(self.xi) and self.xi > 0.0):
            raise ValueError(f"xi must be > 0, got {self.xi!r}")
        if not (math.isfinite(self.wn) and self.wn > 0.0):
            raise ValueError(f"wn must be > 0, got {self.wn!r}")


@dataclass(frozen=True)
class GpiGains:
    """Controller gains k0..k3. Finite by construction; compute_gains
    additionally guarantees k0 > 0 and k3 > 0 for valid designs."""

    k0: float
    k1: float
    k2: float
    k3: float

    def __post_init__(self):
        for name in ("k0", "k1", "k2", "k3"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SaturationLimits:
    """Actuator command bounds in PWM-%."""

    u_min: float
    u_max: float

    def __post_init__(self):
        if not (math.isfinite(self.u_min) and math.isfinite(self.u_max)):
            raise ValueError("saturation limits must be finite")
        if not self.u_min < self.u_max:
            raise ValueError(f"u_min must be < u_max, got [{self.u_min!r}, {self.u_max!r}]")

    def clamp(self, u: float) -> float:
        # The value of min(max(u, u_min), u_max) for every float, NaN and
        # -0.0 included, without the two builtin calls.
        lo, hi = self.u_min, self.u_max
        return lo if u < lo else (hi if u > hi else u)


def hurwitz_poly(design: GpiDesign) -> np.ndarray:
    """Expansion of the target polynomial (s^2 + 2*xi*wn*s + wn^2)^2.

    Raises ValueError when a coefficient overflows the float range.
    """
    xi, wn = design.xi, design.wn
    try:  # float ** raises OverflowError where float * returns inf
        h = np.array([
            1.0,
            4.0 * xi * wn,
            2.0 * wn * wn + 4.0 * xi * xi * wn * wn,
            4.0 * xi * wn ** 3,
            wn ** 4,
        ])
    except OverflowError:
        h = None
    if h is None or not np.all(np.isfinite(h)):
        raise ValueError(f"target polynomial overflows for xi={xi!r}, wn={wn!r}")
    return h


def compute_gains(design: GpiDesign, tf: SecondOrderTf) -> GpiGains:
    """Pole-placement gains matching the closed loop to hurwitz_poly(design).

    Raises ValueError("unstable compensator denominator") when 4*xi*wn <= gamma1,
    since the compensator pole -k3 would not be strictly stable.
    """
    _, h1, h2, h3, h4 = map(float, hurwitz_poly(design))
    g1, g2 = tf.gamma1, tf.gamma2
    k3 = h1 - g1
    if k3 <= 0.0:
        raise ValueError("unstable compensator denominator")
    return GpiGains(k0=h4, k1=h3 - g2 * k3, k2=h2 - g1 * k3 - g2, k3=k3)


def closed_loop_char_poly(gains: GpiGains, tf: SecondOrderTf) -> np.ndarray:
    """Degree-4 characteristic polynomial of the closed loop (descending).

    Its roots, np.roots(closed_loop_char_poly(gains, tf)), are the closed-loop
    poles; they equal the target double poles of hurwitz_poly(design) when
    gains = compute_gains(design, tf).
    """
    g1, g2 = tf.gamma1, tf.gamma2
    return np.array([
        1.0,
        gains.k3 + g1,
        gains.k2 + gains.k3 * g1 + g2,
        gains.k3 * g2 + gains.k1,
        gains.k0,
    ])


def feedforward(tf: SecondOrderTf, ref: RefSample) -> float:
    """Nominal input u_d = (theta_ddot_d + gamma1*theta_dot_d + gamma2*theta_d) / gamma0.

    ref is any (theta_d, theta_dot_d, theta_ddot_d) triple.
    """
    theta_d, theta_dot_d, theta_ddot_d = ref
    return (theta_ddot_d + tf.gamma1 * theta_dot_d + tf.gamma2 * theta_d) / tf.gamma0


def control_step(
    cs,
    gains: GpiGains,
    tf: SecondOrderTf,
    theta_meas: float,
    ref: RefSample,
    dt: float,
    sat: SaturationLimits,
):
    """One tick of the discrete GPI law. Returns (u, successor state).

    cs is None on the first tick and, after that, the successor the previous
    tick returned: the plain tuple (int_e, dint_e, theta_int, e0, theta_dot0,
    u_prev, e_prev). int_e and dint_e are the trapezoidal single and double
    integrals of the tracking error, theta_int that of the applied input (the
    velocity reconstruction source), e0 the initial error offset of the
    proportional term, theta_dot0 the initial velocity estimate subtracted in
    the reconstruction, and u_prev/e_prev the previous tick's input and error.

    ref is any (theta_d, theta_dot_d, theta_ddot_d) triple of floats. All
    integrals advance by the trapezoidal rule over the interval h since the
    previous tick. The first tick has no preceding interval: it is the
    h = 0 case, so the integrals stay at 0 and the implicit correction
    vanishes, and it captures e0 and theta_dot0 from its own error and
    reference velocity. When the raw command exceeds the saturation
    limits, the error integrals are frozen for that tick (conditional
    integration anti-windup) while theta_int keeps integrating the actually
    applied, clamped input.
    """
    # Chained comparisons are math.isfinite on every float: NaN fails both.
    if not -inf < theta_meas < inf:
        raise ValueError("non-finite measurement rejected")
    if not 0.0 < dt < inf:
        raise ValueError(f"dt must be > 0, got {dt!r}")

    theta_d, theta_dot_d, _ = ref
    e = theta_meas - theta_d
    if cs is None:
        int_e_prev = dint_e_prev = theta_int_prev = h = u_prev = 0.0
        e0 = e_prev = e
        theta_dot0 = theta_dot_d
    else:
        int_e_prev, dint_e_prev, theta_int_prev, e0, theta_dot0, u_prev, e_prev = cs
        h = dt
    u_d = feedforward(tf, ref)
    k0, k1, k2, k3 = gains.k0, gains.k1, gains.k2, gains.k3

    int_e = int_e_prev + 0.5 * h * (e_prev + e)
    dint_e = dint_e_prev + 0.5 * h * (int_e_prev + int_e)
    theta_int_known = theta_int_prev + 0.5 * h * u_prev
    explicit = (
        u_d
        - k3 * (theta_int_known - theta_dot0 - theta_dot_d)
        + (-k2 * (e - e0) - k1 * int_e - k0 * dint_e) / tf.gamma0
    )
    u_raw = explicit / (1.0 + 0.5 * k3 * h)

    u = sat.clamp(u_raw)
    if u != u_raw:
        int_e = int_e_prev
        dint_e = dint_e_prev
    theta_int = theta_int_prev + 0.5 * h * (u_prev + u)
    return u, (int_e, dint_e, theta_int, e0, theta_dot0, u, e)
