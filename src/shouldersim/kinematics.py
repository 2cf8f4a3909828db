"""Two-DoF shoulder kinematics: closed-form forward/inverse maps, workspace test.

The arm is modeled as a single rigid link of length l_a from the shoulder
origin to the wrist, rotated by the abduction/adduction angle theta_s1 about
the vertical axis and the flexion/extension angle theta_s2 out of the
horizontal plane. The wrist therefore always lies on a sphere of radius l_a:

    x = l_a*cos(theta_s1)*cos(theta_s2)
    y = l_a*cos(theta_s2)*sin(theta_s1)
    z = -l_a*sin(theta_s2)
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .trajectory import JointLimits


@dataclass(frozen=True)
class ShoulderAngles:
    """Joint angles in rad: theta_s1 abduction/adduction, theta_s2 flexion/extension."""

    theta_s1: float
    theta_s2: float

    def __post_init__(self):
        if not (math.isfinite(self.theta_s1) and math.isfinite(self.theta_s2)):
            raise ValueError("shoulder angles must be finite")


@dataclass(frozen=True)
class WristPosition:
    """Cartesian wrist position (m) in the shoulder-origin frame."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError("wrist position must be finite")


@dataclass(frozen=True)
class ArmLength:
    """Combined arm plus forearm length in m."""

    l_a: float = 0.14

    def __post_init__(self):
        if not (math.isfinite(self.l_a) and self.l_a > 0.0):
            raise ValueError(f"l_a must be > 0, got {self.l_a!r}")


DEFAULT_ARM = ArmLength()
# How far (m) a wrist position may lie off the sphere of radius l_a: a position
# typed to 4 decimals in metres is within sqrt(3)*5e-5 m of its true value.
_REACH_TOL = 1e-4


def forward(q: ShoulderAngles, arm: ArmLength = DEFAULT_ARM) -> WristPosition:
    """Closed-form wrist position for given shoulder angles."""
    c1, s1 = math.cos(q.theta_s1), math.sin(q.theta_s1)
    c2, s2 = math.cos(q.theta_s2), math.sin(q.theta_s2)
    return WristPosition(x=arm.l_a * c1 * c2, y=arm.l_a * c2 * s1, z=-arm.l_a * s2)


def inverse(p: WristPosition, arm: ArmLength = DEFAULT_ARM) -> ShoulderAngles:
    """Recover shoulder angles from a wrist position.

    theta_s1 = atan2(y, x) and theta_s2 = asin(-z/l_a), with -z/l_a clipped
    to [-1, 1]. Raises ValueError("unreachable: ...") when |p| is more than
    1e-4 m away from the arm length and ValueError("singular (gimbal)
    configuration") when x = y = 0, where theta_s1 is undefined.
    """
    radius = math.hypot(p.x, p.y, p.z)
    if abs(radius - arm.l_a) > _REACH_TOL:
        raise ValueError(
            f"unreachable: |p| = {radius:.6g} m, but the wrist lies on the sphere "
            f"of radius l_a = {arm.l_a:g} m (tolerance {_REACH_TOL:g} m)"
        )
    if p.x == 0.0 and p.y == 0.0:
        raise ValueError("singular (gimbal) configuration")
    sin_s2 = max(-1.0, min(1.0, -p.z / arm.l_a))
    return ShoulderAngles(theta_s1=math.atan2(p.y, p.x), theta_s2=math.asin(sin_s2))


def in_workspace(q: ShoulderAngles, lim_s1: JointLimits, lim_s2: JointLimits) -> bool:
    """True iff both angles lie within their closed joint intervals."""
    return (
        lim_s1.theta_min <= q.theta_s1 <= lim_s1.theta_max
        and lim_s2.theta_min <= q.theta_s2 <= lim_s2.theta_max
    )
