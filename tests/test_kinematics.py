import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shouldersim import (
    ArmLength,
    JointLimits,
    ShoulderAngles,
    WristPosition,
    forward,
    in_workspace,
    inverse,
)

S1_LIMITS = JointLimits(theta_min=0.1745, theta_max=1.396)
S2_LIMITS = JointLimits(theta_min=0.1745, theta_max=0.5585)


# Denavit-Hartenberg reference: the closed-form forward() must agree with the
# product of the two shoulder DH transforms.


@dataclass(frozen=True)
class DhRow:
    """One Denavit-Hartenberg row: joint angle theta, offset d, link length r, twist alpha."""

    theta: float
    d: float
    r: float
    alpha: float


def dh_matrix(row: DhRow) -> np.ndarray:
    """Standard DH homogeneous transform for one row."""
    ct, st = math.cos(row.theta), math.sin(row.theta)
    ca, sa = math.cos(row.alpha), math.sin(row.alpha)
    return np.array([
        [ct, -st * ca, st * sa, row.r * ct],
        [st, ct * ca, -ct * sa, row.r * st],
        [0.0, sa, ca, row.d],
        [0.0, 0.0, 0.0, 1.0],
    ])


def shoulder_dh_rows(q: ShoulderAngles, arm: ArmLength = ArmLength()):
    """DH rows for the two shoulder revolutes.

    The first twist angle must be -pi/2 (not +pi/2) so that positive flexion
    theta_s2 lowers the wrist: with +pi/2 the composition flips the sign of
    the z row and the wrist would rise instead.
    """
    return (
        DhRow(theta=q.theta_s1, d=0.0, r=0.0, alpha=-math.pi / 2.0),
        DhRow(theta=q.theta_s2, d=0.0, r=arm.l_a, alpha=0.0),
    )


def shoulder_transform(q: ShoulderAngles, arm: ArmLength = ArmLength()) -> np.ndarray:
    """Wrist-to-shoulder-origin homogeneous transform (product of the DH rows)."""
    r1, r2 = shoulder_dh_rows(q, arm)
    return dh_matrix(r1) @ dh_matrix(r2)


def test_arm_length_validation():
    assert ArmLength().l_a == 0.14
    with pytest.raises(ValueError):
        ArmLength(l_a=0.0)


def test_dh_identity_row():
    assert np.allclose(dh_matrix(DhRow(0.0, 0.0, 0.0, 0.0)), np.eye(4), atol=1e-15)


def test_dh_pure_translation_row():
    m = dh_matrix(DhRow(0.0, 0.0, 0.25, 0.0))
    expected = np.eye(4)
    expected[0, 3] = 0.25
    assert np.allclose(m, expected, atol=1e-15)


def test_shoulder_rows_shape():
    rows = shoulder_dh_rows(ShoulderAngles(0.3, 0.2))
    assert len(rows) == 2
    assert rows[0].theta == 0.3 and rows[1].theta == 0.2
    assert rows[1].r == 0.14


def test_transform_top_right_entry():
    rng = np.random.default_rng(13)
    for _ in range(50):
        q = ShoulderAngles(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5)))
        m = shoulder_transform(q)
        assert abs(m[0, 3] - 0.14 * math.cos(q.theta_s1) * math.cos(q.theta_s2)) < 1e-12


def test_forward_agrees_with_dh_product():
    rng = np.random.default_rng(17)
    for _ in range(100):
        q = ShoulderAngles(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5)))
        m = shoulder_transform(q)
        p = forward(q)
        assert abs(p.x - m[0, 3]) < 1e-12
        assert abs(p.y - m[1, 3]) < 1e-12
        assert abs(p.z - m[2, 3]) < 1e-12


def test_forward_arm_along_x():
    p = forward(ShoulderAngles(0.0, 0.0))
    assert (p.x, p.y, p.z) == pytest.approx((0.14, 0.0, 0.0))


def test_forward_pure_flexion():
    p = forward(ShoulderAngles(0.0, 0.3491))
    assert abs(p.x - 0.1316) < 1e-3
    assert abs(p.z - (-0.0479)) < 1e-3
    assert abs(p.y) < 1e-12


def test_forward_pure_abduction():
    p = forward(ShoulderAngles(0.6981, 0.0))
    assert abs(p.x - 0.1072) < 1e-3
    assert abs(p.y - 0.14 * math.sin(0.6981)) < 1e-12


def test_sphere_constraint_property():
    rng = np.random.default_rng(29)
    for _ in range(300):
        q = ShoulderAngles(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
        p = forward(q)
        assert abs(math.sqrt(p.x**2 + p.y**2 + p.z**2) - 0.14) < 1e-12


def test_inverse_arm_along_x():
    q = inverse(WristPosition(0.14, 0.0, 0.0))
    assert q.theta_s1 == pytest.approx(0.0)
    assert q.theta_s2 == pytest.approx(0.0)


def test_inverse_rejects_unreachable_point():
    with pytest.raises(ValueError, match="unreachable"):
        inverse(WristPosition(0.0, 0.0, 0.2))


@settings(max_examples=300)
@given(
    theta_s1=st.floats(-math.pi, math.pi),
    theta_s2=st.floats(-1.5, 1.5),
    l_a=st.floats(0.05, 2.0),
    offset=st.floats(-0.99e-4, 0.99e-4) | st.floats(1.01e-4, 10.0) | st.floats(-1.0, -1.01e-4),
)
def test_inverse_accepts_the_arm_sphere_and_rejects_points_off_it(theta_s1, theta_s2, l_a, offset):
    arm = ArmLength(l_a)
    p = forward(ShoulderAngles(theta_s1, theta_s2), arm)
    inverse(p, arm)  # every forward position is accepted
    # the same direction at radius l_a + offset; the tolerance is 1e-4 m
    offset = max(offset, -0.5 * l_a)
    scale = (l_a + offset) / l_a
    off = WristPosition(p.x * scale, p.y * scale, p.z * scale)
    if abs(offset) > 1e-4:
        with pytest.raises(ValueError, match="^unreachable: "):
            inverse(off, arm)
    else:
        inverse(off, arm)


def test_inverse_rejects_gimbal_pose():
    # wrist straight down: x = y = 0 leaves theta_s1 undefined
    with pytest.raises(ValueError, match="singular"):
        inverse(WristPosition(0.0, 0.0, -0.14))


def test_round_trip_property():
    rng = np.random.default_rng(37)
    for _ in range(1000):
        q = ShoulderAngles(
            float(rng.uniform(0.1745, 1.396)), float(rng.uniform(0.1745, 0.5585))
        )
        back = inverse(forward(q))
        assert abs(back.theta_s1 - q.theta_s1) < 1e-12
        assert abs(back.theta_s2 - q.theta_s2) < 1e-12


def test_workspace_membership():
    assert in_workspace(ShoulderAngles(0.6981, 0.3491), S1_LIMITS, S2_LIMITS)
    assert not in_workspace(ShoulderAngles(1.5, 0.3), S1_LIMITS, S2_LIMITS)
    # intervals are closed at both ends
    assert in_workspace(ShoulderAngles(1.396, 0.5585), S1_LIMITS, S2_LIMITS)
    assert in_workspace(ShoulderAngles(0.1745, 0.1745), S1_LIMITS, S2_LIMITS)
    assert not in_workspace(ShoulderAngles(0.1744, 0.3), S1_LIMITS, S2_LIMITS)
