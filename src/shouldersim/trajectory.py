"""Reference generators: quintic point-to-point, parametric sine, teach-and-repeat.

All generators return (theta_d, theta_dot_d, theta_ddot_d), floats or arrays: the desired angle
and its first two time derivatives, so the controller never differentiates measurements.

Note on the sine generator: its frequency f and phase k are expressed per
controller tick, not per second (the hardware convention this mirrors used
tick counters). Wall-clock derivatives therefore divide by the tick period.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .plant import check_fields

DEFAULT_DT = 0.065


@dataclass(frozen=True)
class JointLimits:
    """Allowed joint angle interval in rad."""

    theta_min: float
    theta_max: float

    def __post_init__(self):
        check_fields(self)
        if not self.theta_min < self.theta_max:
            raise ValueError(
                f"theta_min must be < theta_max, got [{self.theta_min!r}, {self.theta_max!r}]"
            )


def quintic_eval(theta0: float, thetaf: float, T: float, t) -> tuple:
    """Rest-to-rest quintic from theta0 to thetaf over [0, T], sampled at time t.

    The closed form theta0 + (thetaf - theta0)(10 s^3 - 15 s^4 + 6 s^5) with
    s = t/T has zero velocity and acceleration at both ends. Outside [0, T]
    the nearest boundary sample is held. t is a float or an array of times.
    T is not checked here: QuinticRef rejects a T that is not > 0, whose square
    underflows, or so small that a velocity or acceleration scale overflows.
    """
    s = np.clip(t, 0.0, T) / T
    r = 1.0 - s
    d = thetaf - theta0
    return (
        theta0 + d * s * s * s * (10.0 + s * (-15.0 + 6.0 * s)),
        30.0 * d / T * s * s * r * r,
        60.0 * d / (T * T) * s * r * (1.0 - 2.0 * s),
    )


def sine_ref(A: float, f: float, k: float, t, dt: float) -> tuple:
    """Offset sine reference theta_d = (A/2) sin(f*t + k) + A/2.

    t is the controller tick index (or an array of them) and f, k are
    per-tick quantities; the derivatives are taken with respect to
    wall-clock time (tick * dt). A is not checked here: SineRef requires A > 0.
    """
    phase = f * t + k
    half = 0.5 * A
    w = f / dt
    return (
        half * np.sin(phase) + half,
        half * w * np.cos(phase),
        -half * w * w * np.sin(phase),
    )


def record_teach(samples) -> np.ndarray:
    """A (t, theta, theta_dot) demonstration, verbatim, as a read-only (n, 3) array.

    Requires at least two finite samples with strictly increasing timestamps.
    """
    data = np.array(samples, dtype=float)
    if data.size == 0:
        data = data.reshape(0, 3)
    if data.ndim != 2 or data.shape[1] != 3:
        raise ValueError(f"teach samples must be (t, theta, theta_dot) rows, got shape {data.shape}")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if len(bad):
        raise ValueError(f"teach sample {bad[0]} must be finite, got {tuple(data[bad[0]].tolist())!r}")
    if len(data) < 2:
        raise ValueError(f"need at least 2 samples, got {len(data)}")
    t = data[:, 0]
    bad = np.flatnonzero(t[1:] <= t[:-1])
    if len(bad):
        prev, cur = t[bad[0]:bad[0] + 2].tolist()
        raise ValueError(f"timestamps must be strictly increasing, got {prev!r} then {cur!r}")
    data.flags.writeable = False
    return data


def differentiate_teach(demo: np.ndarray, dt: float, n: int, smooth: bool = False) -> tuple:
    """Resample a record_teach demonstration onto a run's n ticks of dt and estimate acceleration.

    Angle and velocity are linearly interpolated; acceleration comes from
    central finite differences of the resampled velocity, with one-sided
    differences at the endpoints. Sample i lies i*dt after the first
    demonstration sample. With smooth=True a 5-tap moving average is applied to the velocity
    before differencing (off by default: the raw pipeline is the baseline).
    Smoothing needs at least 5 grid samples: below that, smooth=True returns
    the raw velocity, without a warning. The demonstration must last at least
    one tick. One longer than the run replays its first n ticks; past the end
    of a shorter one the reference is held at its final angle with zero
    velocity and acceleration. dt > 0 is Scenario's check, not repeated here.
    """
    duration = float(demo[-1, 0]) - float(demo[0, 0])
    # ticks n..n+2 feed only tick n-1's central difference and 5-tap window: n + 3 points suffice
    m = math.floor(min(duration / dt + 1e-9, n + 2)) + 1
    if m < 2:
        raise ValueError(f"demonstration lasts {duration!r} s, shorter than one tick of {dt!r} s")
    t_src = demo[:, 0] - demo[0, 0]
    t_grid = np.arange(m) * dt
    theta = np.interp(t_grid, t_src, demo[:, 1])
    theta_dot = np.interp(t_grid, t_src, demo[:, 2])
    if smooth and m >= 5:
        kernel = np.ones(5) / 5.0
        padded = np.concatenate([theta_dot[2:0:-1], theta_dot, theta_dot[-2:-4:-1]])
        theta_dot = np.convolve(padded, kernel, mode="valid")
    acc = np.gradient(theta_dot, dt)
    hold = (0, max(n - m, 0))
    return np.pad(theta[:n], hold, mode="edge"), np.pad(theta_dot[:n], hold), np.pad(acc[:n], hold)


def clamp_to_limits(ref: tuple, lim: JointLimits) -> tuple:
    """Clamp the desired angle of a (theta_d, theta_dot_d, theta_ddot_d) tuple into the joint interval.

    A clamped sample gets zero velocity and acceleration: the reference is
    parked at the limit, not moving through it. Works per tick or on arrays.
    """
    inside = (lim.theta_min <= ref[0]) & (ref[0] <= lim.theta_max)
    rates = (np.where(inside, x, 0.0)[()] for x in ref[1:])  # [()]: a float stays a float
    return np.clip(ref[0], lim.theta_min, lim.theta_max), *rates


def read_csv_rows(path, header: Sequence[str], what: str) -> Tuple[List[int], np.ndarray]:
    """Line numbers and (n, len(header)) float array of the rows of a numeric CSV file.

    Blank lines are skipped. A missing or different header, a row of another
    width and a non-numeric value raise ValueError; the last two name the
    file and line.
    """
    lines, rows = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found is None:
            raise ValueError(f"{path}: empty {what} file")
        if [h.strip() for h in found] != list(header):
            raise ValueError(f"{path}: expected header {','.join(header)}, got {','.join(found)}")
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} values, got {len(row)}")
                rows.append(list(map(float, row)))
            except ValueError as ex:
                raise ValueError(f"{path}: line {reader.line_num}: {ex}") from None
            lines.append(reader.line_num)
    return lines, np.array(rows, dtype=float).reshape(-1, len(header))


def load_teach_csv(path) -> np.ndarray:
    """Read a t,theta,theta_dot CSV demonstration as record_teach's array."""
    return record_teach(read_csv_rows(path, ("t", "theta", "theta_dot"), "teach")[1])
