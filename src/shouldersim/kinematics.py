"""Two-DoF shoulder kinematics: closed-form forward/inverse maps.

The arm is modeled as a single rigid link of length l_a from the shoulder
origin to the wrist, rotated by the abduction/adduction angle theta_s1 about
the vertical axis and the flexion/extension angle theta_s2 out of the
horizontal plane. The wrist therefore always lies on a sphere of radius l_a:

    x = l_a*cos(theta_s1)*cos(theta_s2)
    y = l_a*cos(theta_s2)*sin(theta_s1)
    z = -l_a*sin(theta_s2)

Angles are in rad, the wrist position (x, y, z) is in m in the
shoulder-origin frame, and l_a is the combined arm plus forearm length in m.
"""
from __future__ import annotations

import math

# How far (m) a wrist position may lie off the sphere of radius l_a: a position
# typed to 4 decimals in metres is within sqrt(3)*5e-5 m of its true value.
# An arm shorter than 1 cm gets 1 % of l_a: 1e-4 m would accept points far off its sphere.
_REACH_TOL = 1e-4


def _check_arm_length(l_a: float) -> None:
    if not (math.isfinite(l_a) and l_a > 0.0):
        raise ValueError(f"l_a must be > 0, got {l_a!r}")


def forward(theta_s1: float, theta_s2: float, l_a: float = 0.14) -> tuple:
    """Closed-form wrist position (x, y, z) for given shoulder angles."""
    if not (math.isfinite(theta_s1) and math.isfinite(theta_s2)):
        raise ValueError("shoulder angles must be finite")
    _check_arm_length(l_a)
    c1, s1 = math.cos(theta_s1), math.sin(theta_s1)
    c2, s2 = math.cos(theta_s2), math.sin(theta_s2)
    return l_a * c1 * c2, l_a * c2 * s1, -l_a * s2


def inverse(x: float, y: float, z: float, l_a: float = 0.14) -> tuple:
    """Recover the shoulder angles (theta_s1, theta_s2) from a wrist position.

    theta_s1 = atan2(y, x) and theta_s2 = asin(-z/l_a), with -z/l_a clipped
    to [-1, 1]. Raises ValueError("unreachable: ...") when |p| is more than
    min(1e-4 m, 1 % of l_a) away from the arm length and ValueError("singular (gimbal)
    configuration") when x = y = 0, where theta_s1 is undefined.
    """
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError("wrist position must be finite")
    _check_arm_length(l_a)
    radius, tol = math.hypot(x, y, z), min(_REACH_TOL, 0.01 * l_a)
    if abs(radius - l_a) > tol:
        raise ValueError(
            f"unreachable: |p| = {radius:.6g} m, but the wrist lies on the sphere "
            f"of radius l_a = {l_a:g} m (tolerance {tol:g} m)"
        )
    if x == 0.0 and y == 0.0:
        raise ValueError("singular (gimbal) configuration")
    sin_s2 = max(-1.0, min(1.0, -z / l_a))
    return math.atan2(y, x), math.asin(sin_s2)
