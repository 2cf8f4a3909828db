"""Second-order transfer-function identification from PWM/angle records.

The pipeline is ARX(2,1) least squares on the sampled record,

    theta[k] = -a1*theta[k-1] - a2*theta[k-2] + b0*u[k-1],

followed by an inverse bilinear (Tustin) map back to the continuous
gamma0 / (s^2 + gamma1*s + gamma2) form. The fit applies a bias-compensation
iteration to the normal equations (white measurement noise on the output
inflates the autoregressive block of Phi'Phi; subtracting the estimated noise
variance removes the systematic shrinkage of a1/a2). On a noiseless record the
compensation term vanishes and the result coincides with the plain
least-squares fit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .plant import PlantState, SecondOrderTf, step as plant_step
from .trajectory import read_csv_rows

_BIAS_ITERATIONS = 50


@dataclass(frozen=True)
class IoRecord:
    """A sampled input/output record: u in PWM-%, theta in rad, period ts seconds."""

    u: np.ndarray
    theta: np.ndarray
    ts: float = 0.065

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        theta = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "theta", theta)
        if u.ndim != 1 or theta.ndim != 1 or len(u) != len(theta):
            raise ValueError(f"u and theta must be equal-length 1-d sequences, got {u.shape} and {theta.shape}")
        if len(u) < 10:
            raise ValueError(f"record too short: {len(u)} samples, need >= 10")
        if not (math.isfinite(self.ts) and self.ts > 0.0):
            raise ValueError(f"ts must be > 0, got {self.ts!r}")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(theta))):
            raise ValueError("record contains non-finite samples")

    def __len__(self):
        return len(self.u)


@dataclass(frozen=True)
class DiscreteArx2:
    """Discrete model theta[k] = -a1*theta[k-1] - a2*theta[k-2] + b0*u[k-1]."""

    a1: float
    a2: float
    b0: float

    def __post_init__(self):
        for name in ("a1", "a2", "b0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def fit_arx2(rec: IoRecord) -> DiscreteArx2:
    """ARX(2,1) least-squares fit with iterative bias compensation for white output noise.

    Starting from the plain least-squares solution, alternately estimate the
    output-noise variance from the residual and re-solve the normal equations
    with the noise contribution removed from the autoregressive block, for at
    most 50 rounds. Raises ValueError("insufficient excitation")
    when the regressor matrix is rank deficient (e.g. constant input and
    output).
    """
    y = rec.theta
    Y = y[2:]
    Phi = np.column_stack([-y[1:-1], -y[:-2], rec.u[1:-1]])
    if np.linalg.matrix_rank(Phi) < 3:
        raise ValueError("insufficient excitation")
    n = len(Y)
    G = Phi.T @ Phi
    rhs = Phi.T @ Y
    correction = np.diag([1.0, 1.0, 0.0])

    theta, *_ = np.linalg.lstsq(Phi, Y, rcond=None)
    sig2 = 0.0
    for _ in range(_BIAS_ITERATIONS):
        res = Y - Phi @ theta
        a1, a2 = theta[0], theta[1]
        sig2_new = float(res @ res) / n / (1.0 + a1 * a1 + a2 * a2)
        try:
            theta_new = np.linalg.solve(G - n * sig2_new * correction, rhs)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(theta_new)):
            break
        converged = abs(sig2_new - sig2) <= 1e-12 * max(sig2_new, 1e-30)
        theta, sig2 = theta_new, sig2_new
        if converged:
            break
    return DiscreteArx2(a1=float(theta[0]), a2=float(theta[1]), b0=float(theta[2]))


def discretize(tf: SecondOrderTf, ts: float) -> DiscreteArx2:
    """Forward bilinear (Tustin) map of a continuous plant onto the ARX(2,1) form.

    The denominator comes from the exact Tustin substitution; b0 is chosen so
    that to_continuous inverts the map exactly (same DC gain).
    """
    if ts <= 0:
        raise ValueError(f"ts must be > 0, got {ts!r}")
    k = 2.0 / ts
    d0 = k * k + tf.gamma1 * k + tf.gamma2
    a1 = (-2.0 * k * k + 2.0 * tf.gamma2) / d0
    a2 = (k * k - tf.gamma1 * k + tf.gamma2) / d0
    b0 = 4.0 * tf.gamma0 / d0
    return DiscreteArx2(a1=a1, a2=a2, b0=b0)


def to_continuous(d: DiscreteArx2, ts: float) -> SecondOrderTf:
    """Inverse bilinear (Tustin) map back to gamma form.

    A discrete pole at z = -1 maps to infinite frequency and makes the
    substitution singular; that raises ValueError("Tustin singularity").
    A pole at z -> 1 drives gamma2 -> 0, which is rejected by the
    SecondOrderTf invariants rather than silently accepted.
    """
    if ts <= 0:
        raise ValueError(f"ts must be > 0, got {ts!r}")
    edge = 1.0 - d.a1 + d.a2
    if abs(edge) < 1e-12:
        raise ValueError("Tustin singularity")
    c = (ts * ts / 4.0) * edge
    return SecondOrderTf(
        gamma0=d.b0 / c,
        gamma1=ts * (1.0 - d.a2) / c,
        gamma2=(1.0 + d.a1 + d.a2) / c,
    )


def fit_percent(y, yhat) -> float:
    """Normalized-RMSE fit: 100*(1 - ||y - yhat|| / ||y - mean(y)||).

    100 means a perfect match, 0 means no better than the mean. Raises
    ValueError("undefined fit") for constant y.
    """
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape or y.ndim != 1 or len(y) == 0:
        raise ValueError(f"sequences must be equal-length and nonempty, got {y.shape} and {yhat.shape}")
    denom = np.linalg.norm(y - y.mean())
    if denom == 0.0:
        raise ValueError("undefined fit")
    return 100.0 * (1.0 - np.linalg.norm(y - yhat) / denom)


def simulate_record(tf: SecondOrderTf, rec: IoRecord) -> np.ndarray:
    """RK4 response of a plant to the record's input, from (theta[0], 0) at rest."""
    out = np.empty(len(rec))
    state = PlantState(theta=float(rec.theta[0]), theta_dot=0.0)
    out[0] = state.theta
    for k in range(1, len(rec)):
        state = plant_step(state, tf, float(rec.u[k - 1]), 0.0, rec.ts)
        out[k] = state.theta
    return out


def estimate_tf(rec: IoRecord):
    """Identify a SecondOrderTf from a record and report the fit percentage.

    Fits the bias-compensated ARX(2,1) model, maps it to continuous time, then
    simulates the estimate against the record's own input and scores the
    reproduction with fit_percent. Records of any length >= 10 are accepted
    whole; no truncation or windowing is applied.
    """
    d = fit_arx2(rec)
    tf = to_continuous(d, rec.ts)
    yhat = simulate_record(tf, rec)
    return tf, fit_percent(rec.theta, yhat)


def decimate_record(rec: IoRecord, m: int) -> IoRecord:
    """Block-average a record by factor m (mean over non-overlapping blocks).

    Useful before identification when the plant is sampled far above its
    bandwidth: averaging trades excess rate for lower noise, moving the
    discrete poles away from z = 1. Trailing samples that do not fill a
    block are dropped.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m!r}")
    if m == 1:
        return rec
    n = (len(rec) // m) * m
    if n < 10 * m:
        raise ValueError(f"record too short to decimate by {m}")
    u = rec.u[:n].reshape(-1, m).mean(axis=1)
    theta = rec.theta[:n].reshape(-1, m).mean(axis=1)
    return IoRecord(u=u, theta=theta, ts=rec.ts * m)


def multisine_profile(n: int, seed: int = 0) -> np.ndarray:
    """Band-limited excitation: slow sinusoids with random phases around 50 PWM-%.

    The spectral lines sit at and below typical plant natural frequencies
    (0.05 to 0.8 rad/s at ts = 0.065 s) so the record carries information
    where a second-order joint model actually responds.
    """
    rng = np.random.default_rng(seed)
    lines = ((0.05, 12.0), (0.11, 10.0), (0.23, 9.0), (0.44, 7.0), (0.8, 5.0))
    t = np.arange(n) * 0.065
    u = np.full(n, 50.0)
    for w, amp in lines:
        u = u + amp * np.sin(w * t + rng.uniform(0.0, 2.0 * np.pi))
    return np.clip(u, 0.0, 100.0)


def multistep_profile(n: int, seed: int = 0, hold: int = 80) -> np.ndarray:
    """Seeded piecewise-constant PWM profile in [0, 100], held `hold` samples per level."""
    rng = np.random.default_rng(seed)
    levels = rng.uniform(0.0, 100.0, size=n // hold + 1)
    return np.repeat(levels, hold)[:n]


def load_io_csv(path, ts: float = 0.065) -> IoRecord:
    """Read a t,u,theta CSV into an IoRecord sampled at ts.

    Every step of the t column must equal ts to within 1e-6 * ts.
    """
    rows = read_csv_rows(path, ("t", "u", "theta"), "record")
    data = np.array([values for _, values in rows]).reshape(-1, 3)
    rec = IoRecord(u=data[:, 1], theta=data[:, 2], ts=ts)
    with np.errstate(invalid="ignore"):
        steps = np.diff(data[:, 0])
        bad = np.flatnonzero(~(np.abs(steps - ts) <= 1e-6 * ts))
    if len(bad):
        line, step = rows[bad[0] + 1][0], float(steps[bad[0]])
        raise ValueError(f"{path}: line {line}: t step {step!r} s differs from ts = {ts!r} s")
    return rec
