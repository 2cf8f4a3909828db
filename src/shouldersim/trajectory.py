"""Reference generators: quintic point-to-point, parametric sine, teach-and-repeat.

All generators emit RefSample values carrying the desired angle and its first
two time derivatives, so the controller never differentiates measurements.

Note on the sine generator: its frequency f and phase k are expressed per
controller tick, not per second (the hardware convention this mirrors used
tick counters). Wall-clock derivatives therefore divide by the tick period.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

DEFAULT_DT = 0.065


@dataclass(frozen=True)
class JointLimits:
    """Allowed joint angle interval in rad."""

    theta_min: float
    theta_max: float

    def __post_init__(self):
        if not (math.isfinite(self.theta_min) and math.isfinite(self.theta_max)):
            raise ValueError("joint limits must be finite")
        if not self.theta_min < self.theta_max:
            raise ValueError(
                f"theta_min must be < theta_max, got [{self.theta_min!r}, {self.theta_max!r}]"
            )


@dataclass(frozen=True)
class RefSample:
    """Desired angle (rad), velocity (rad/s) and acceleration (rad/s^2)."""

    theta_d: float
    theta_dot_d: float
    theta_ddot_d: float

    def __post_init__(self):
        for name in ("theta_d", "theta_dot_d", "theta_ddot_d"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class TaughtTrajectory:
    """A recorded demonstration: (t, theta, theta_dot) samples, verbatim."""

    samples: Tuple[Tuple[float, float, float], ...]
    duration: float


def quintic_eval(theta0: float, thetaf: float, T: float, t: float) -> RefSample:
    """Rest-to-rest quintic from theta0 to thetaf over [0, T], sampled at time t.

    The closed form theta0 + (thetaf - theta0)(10 s^3 - 15 s^4 + 6 s^5) with
    s = t/T has zero velocity and acceleration at both ends. Outside [0, T]
    the nearest boundary sample is held.
    """
    if T <= 0:
        raise ValueError(f"T must be > 0, got {T!r}")
    s = min(max(t, 0.0), T) / T
    r = 1.0 - s
    d = thetaf - theta0
    return RefSample(
        theta_d=theta0 + d * s * s * s * (10.0 + s * (-15.0 + 6.0 * s)),
        theta_dot_d=30.0 * d / T * s * s * r * r,
        theta_ddot_d=60.0 * d / (T * T) * s * r * (1.0 - 2.0 * s),
    )


def sine_ref(A: float, f: float, k: float, t: float, dt: float = DEFAULT_DT) -> RefSample:
    """Offset sine reference theta_d = (A/2) sin(f*t + k) + A/2.

    t is the controller tick index and f, k are per-tick quantities; the
    derivatives are taken with respect to wall-clock time (tick * dt).
    """
    if A <= 0:
        raise ValueError(f"A must be > 0, got {A!r}")
    phase = f * t + k
    half = 0.5 * A
    w = f / dt
    return RefSample(
        theta_d=half * math.sin(phase) + half,
        theta_dot_d=half * w * math.cos(phase),
        theta_ddot_d=-half * w * w * math.sin(phase),
    )


def record_teach(samples: Iterable[Sequence[float]]) -> TaughtTrajectory:
    """Store a (t, theta, theta_dot) demonstration verbatim.

    Requires at least two finite samples with strictly increasing timestamps.
    """
    stored = tuple((float(s[0]), float(s[1]), float(s[2])) for s in samples)
    for i, sample in enumerate(stored):
        if not all(map(math.isfinite, sample)):
            raise ValueError(f"teach sample {i} must be finite, got {sample!r}")
    if len(stored) < 2:
        raise ValueError(f"need at least 2 samples, got {len(stored)}")
    for prev, cur in zip(stored, stored[1:]):
        if cur[0] <= prev[0]:
            raise ValueError(f"timestamps must be strictly increasing, got {prev[0]!r} then {cur[0]!r}")
    return TaughtTrajectory(samples=stored, duration=stored[-1][0] - stored[0][0])


def differentiate_teach(tt: TaughtTrajectory, dt: float, smooth: bool = False) -> List[RefSample]:
    """Resample a demonstration onto a uniform dt grid and estimate acceleration.

    Angle and velocity are linearly interpolated; acceleration comes from
    central finite differences of the resampled velocity, with one-sided
    differences at the endpoints. Sample i lies i*dt after the first
    demonstration sample. With smooth=True a 5-tap moving average is applied to the velocity
    before differencing (off by default: the raw pipeline is the baseline).
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    data = np.asarray(tt.samples, dtype=float)
    t_src = data[:, 0] - data[0, 0]
    n = int(math.floor(tt.duration / dt + 1e-9)) + 1
    t_grid = np.arange(n) * dt
    theta = np.interp(t_grid, t_src, data[:, 1])
    theta_dot = np.interp(t_grid, t_src, data[:, 2])
    if smooth and n >= 5:
        kernel = np.ones(5) / 5.0
        padded = np.concatenate([theta_dot[2:0:-1], theta_dot, theta_dot[-2:-4:-1]])
        theta_dot = np.convolve(padded, kernel, mode="valid")
    acc = np.empty(n)
    if n >= 3:
        acc[1:-1] = (theta_dot[2:] - theta_dot[:-2]) / (2.0 * dt)
    acc[0] = (theta_dot[1] - theta_dot[0]) / dt
    acc[-1] = (theta_dot[-1] - theta_dot[-2]) / dt
    return [
        RefSample(theta_d=theta[i], theta_dot_d=theta_dot[i], theta_ddot_d=acc[i])
        for i in range(n)
    ]


def clamp_to_limits(ref: RefSample, lim: JointLimits) -> RefSample:
    """Clamp the desired angle into the joint interval.

    A clamped sample gets zero velocity and acceleration: the reference is
    parked at the limit, not moving through it.
    """
    if lim.theta_min <= ref.theta_d <= lim.theta_max:
        return ref
    clamped = min(max(ref.theta_d, lim.theta_min), lim.theta_max)
    return RefSample(theta_d=clamped, theta_dot_d=0.0, theta_ddot_d=0.0)


def save_teach_csv(path, tt: TaughtTrajectory) -> None:
    """Write a demonstration as CSV with header t,theta,theta_dot."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "theta", "theta_dot"])
        for t, theta, theta_dot in tt.samples:
            writer.writerow([repr(t), repr(theta), repr(theta_dot)])


def load_teach_csv(path) -> TaughtTrajectory:
    """Read a t,theta,theta_dot CSV demonstration."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty teach file")
        expected = ["t", "theta", "theta_dot"]
        if [h.strip() for h in header] != expected:
            raise ValueError(f"{path}: expected header {','.join(expected)}, got {','.join(header)}")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}: line {reader.line_num}: expected 3 values, got {len(row)}")
            rows.append((float(row[0]), float(row[1]), float(row[2])))
    return record_teach(rows)
