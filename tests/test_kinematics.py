import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shouldersim import forward, inverse


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


def shoulder_dh_rows(theta_s1: float, theta_s2: float, l_a: float = 0.14):
    """DH rows for the two shoulder revolutes.

    The first twist angle must be -pi/2 (not +pi/2) so that positive flexion
    theta_s2 lowers the wrist: with +pi/2 the composition flips the sign of
    the z row and the wrist would rise instead.
    """
    return (
        DhRow(theta=theta_s1, d=0.0, r=0.0, alpha=-math.pi / 2.0),
        DhRow(theta=theta_s2, d=0.0, r=l_a, alpha=0.0),
    )


def shoulder_transform(theta_s1: float, theta_s2: float, l_a: float = 0.14) -> np.ndarray:
    """Wrist-to-shoulder-origin homogeneous transform (product of the DH rows)."""
    r1, r2 = shoulder_dh_rows(theta_s1, theta_s2, l_a)
    return dh_matrix(r1) @ dh_matrix(r2)


def test_arm_length_validation():
    # the default arm is 0.14 m: its wrist at theta = 0 is (0.14, 0, 0)
    assert forward(0.0, 0.0) == (0.14, 0.0, 0.0)
    assert inverse(0.14, 0.0, 0.0) == (0.0, 0.0)
    for l_a in (0.0, -1.0, math.nan, math.inf):
        message = f"^l_a must be > 0, got {re.escape(repr(l_a))}$"
        with pytest.raises(ValueError, match=message):
            forward(0.0, 0.0, l_a)
        with pytest.raises(ValueError, match=message):
            inverse(0.14, 0.0, 0.0, l_a)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_forward_and_inverse_reject_non_finite_input(bad):
    with pytest.raises(ValueError, match="^shoulder angles must be finite$"):
        forward(bad, 0.0)
    with pytest.raises(ValueError, match="^shoulder angles must be finite$"):
        forward(0.0, bad, 0.0)  # checked before the arm length
    for p in ((bad, 0.0, 0.0), (0.0, bad, 0.0), (0.0, 0.0, bad)):
        with pytest.raises(ValueError, match="^wrist position must be finite$"):
            inverse(*p)
        with pytest.raises(ValueError, match="^wrist position must be finite$"):
            inverse(*p, -1.0)


def test_dh_identity_row():
    assert np.allclose(dh_matrix(DhRow(0.0, 0.0, 0.0, 0.0)), np.eye(4), atol=1e-15)


def test_dh_pure_translation_row():
    m = dh_matrix(DhRow(0.0, 0.0, 0.25, 0.0))
    expected = np.eye(4)
    expected[0, 3] = 0.25
    assert np.allclose(m, expected, atol=1e-15)


def test_shoulder_rows_shape():
    rows = shoulder_dh_rows(0.3, 0.2)
    assert len(rows) == 2
    assert rows[0].theta == 0.3 and rows[1].theta == 0.2
    assert rows[1].r == 0.14


def test_transform_top_right_entry():
    rng = np.random.default_rng(13)
    for _ in range(50):
        theta_s1, theta_s2 = float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5))
        m = shoulder_transform(theta_s1, theta_s2)
        assert abs(m[0, 3] - 0.14 * math.cos(theta_s1) * math.cos(theta_s2)) < 1e-12


def test_forward_agrees_with_dh_product():
    rng = np.random.default_rng(17)
    for _ in range(100):
        theta_s1, theta_s2 = float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5))
        m = shoulder_transform(theta_s1, theta_s2)
        x, y, z = forward(theta_s1, theta_s2)
        assert abs(x - m[0, 3]) < 1e-12
        assert abs(y - m[1, 3]) < 1e-12
        assert abs(z - m[2, 3]) < 1e-12


def test_forward_arm_along_x():
    assert forward(0.0, 0.0) == pytest.approx((0.14, 0.0, 0.0))


def test_forward_pure_flexion():
    x, y, z = forward(0.0, 0.3491)
    assert abs(x - 0.1316) < 1e-3
    assert abs(z - (-0.0479)) < 1e-3
    assert abs(y) < 1e-12


def test_forward_pure_abduction():
    x, y, _ = forward(0.6981, 0.0)
    assert abs(x - 0.1072) < 1e-3
    assert abs(y - 0.14 * math.sin(0.6981)) < 1e-12


def test_sphere_constraint_property():
    rng = np.random.default_rng(29)
    for _ in range(300):
        x, y, z = forward(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
        assert abs(math.sqrt(x**2 + y**2 + z**2) - 0.14) < 1e-12


def test_inverse_arm_along_x():
    theta_s1, theta_s2 = inverse(0.14, 0.0, 0.0)
    assert theta_s1 == pytest.approx(0.0)
    assert theta_s2 == pytest.approx(0.0)


def test_inverse_rejects_unreachable_point():
    with pytest.raises(ValueError, match="unreachable"):
        inverse(0.0, 0.0, 0.2)


@settings(max_examples=300)
@given(
    theta_s1=st.floats(-math.pi, math.pi),
    theta_s2=st.floats(-1.5, 1.5),
    l_a=st.floats(0.05, 2.0),
    offset=st.floats(-0.99e-4, 0.99e-4) | st.floats(1.01e-4, 10.0) | st.floats(-1.0, -1.01e-4),
)
def test_inverse_accepts_the_arm_sphere_and_rejects_points_off_it(theta_s1, theta_s2, l_a, offset):
    p = forward(theta_s1, theta_s2, l_a)
    inverse(*p, l_a)  # every forward position is accepted
    # the same direction at radius l_a + offset; the tolerance is 1e-4 m
    offset = max(offset, -0.5 * l_a)
    scale = (l_a + offset) / l_a
    off = [v * scale for v in p]
    if abs(offset) > 1e-4:
        with pytest.raises(ValueError, match="^unreachable: "):
            inverse(*off, l_a)
    else:
        inverse(*off, l_a)


@settings(max_examples=300)
@given(
    theta_s1=st.floats(-math.pi, math.pi),
    theta_s2=st.floats(-1.5, 1.5),
    l_a=st.floats(1e-9, 0.05),
    offset=st.floats(-0.99, 0.99) | st.floats(1.01, 1e3) | st.floats(-50.0, -1.01),
)
def test_inverse_holds_an_arm_shorter_than_1_cm_to_1_percent_of_its_length(theta_s1, theta_s2, l_a, offset):
    # offset is in units of the tolerance, which is 1 % of l_a below l_a = 1 cm
    tol = min(1e-4, 0.01 * l_a)
    p = forward(theta_s1, theta_s2, l_a)
    inverse(*p, l_a)
    scale = max(l_a + offset * tol, 0.5 * l_a) / l_a
    off = [v * scale for v in p]
    if abs(offset) > 1.0:
        with pytest.raises(ValueError, match=re.escape(f"(tolerance {tol:g} m)")):
            inverse(*off, l_a)
    else:
        inverse(*off, l_a)


def test_inverse_rejects_gimbal_pose():
    # wrist straight down: x = y = 0 leaves theta_s1 undefined
    with pytest.raises(ValueError, match="singular"):
        inverse(0.0, 0.0, -0.14)


def test_round_trip_property():
    rng = np.random.default_rng(37)
    for _ in range(1000):
        theta_s1, theta_s2 = float(rng.uniform(0.1745, 1.396)), float(rng.uniform(0.1745, 0.5585))
        back_s1, back_s2 = inverse(*forward(theta_s1, theta_s2))
        assert abs(back_s1 - theta_s1) < 1e-12
        assert abs(back_s2 - theta_s2) < 1e-12
