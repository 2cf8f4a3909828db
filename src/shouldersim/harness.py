"""Scenario-driven closed-loop simulation, metrics and persistence.

A Scenario declares, per joint, the plant model, controller design point,
joint limits, saturation bounds, the reference (quintic endpoints, sine
parameters, or a taught-demonstration file) and an optional input
disturbance, plus the shared tick period, run duration, measurement-noise
amplitude and RNG seed. run_scenario executes each joint's loop
independently (the joints are decoupled SISO systems) and deterministically:
the same scenario always produces bit-identical results.

A taught demonstration is read and validated once, when its TeachRef is
built, so a malformed demonstration fails load_scenario with its file and
line. A run reads no files: it is a function of the Scenario value alone.

Per joint the runner samples the whole reference, clamps it to the joint limits,
computes its feedforward u_d and draws the measurement noise, each once, on arrays.
Then per tick it reads the plant angle (plus that tick's noise), runs the control
law and advances the plant by one RK4 step with the applied, saturated command.
"""
from __future__ import annotations

import json
import math
import os
import re
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Union

import numpy as np

from . import plotting
from .gpi import (
    GpiDesign,
    SaturationLimits,
    compute_gains,
    control_step,
    feedforward,
)
from .plant import DisturbanceSpec, SecondOrderTf, check_fields, field_types, step as plant_step
from .trajectory import (
    DEFAULT_DT,
    JointLimits,
    clamp_to_limits,
    differentiate_teach,
    load_teach_csv,
    quintic_eval,
    read_csv_rows,
    sine_ref,
)

SETTLE_BAND = 0.03
# Noise is drawn from [-a, a]: a larger amplitude overflows the width 2a of that range.
_MAX_NOISE = sys.float_info.max / 2.0
# Joint names become file names and SVG ids, so they are kept to safe characters.
_JOINT_NAME = re.compile(r"[A-Za-z0-9_-]+")


def _checked_names(joints: Mapping) -> Mapping:
    """joints itself, once each of its keys is found to be a safe joint name; else TypeError or ValueError."""
    for joint in joints:
        if not isinstance(joint, str):
            raise TypeError(f"joint name {joint!r} must be a str matching {_JOINT_NAME.pattern}, got {type(joint).__name__}")
        if not _JOINT_NAME.fullmatch(joint):
            raise ValueError(f"joint name {joint!r} must match {_JOINT_NAME.pattern}")
    return joints


@dataclass(frozen=True)
class QuinticRef:
    """Rest-to-rest quintic from theta0 to thetaf over T seconds."""

    theta0: float
    thetaf: float
    T: float

    def __post_init__(self):
        check_fields(self)
        if not self.T > 0.0:
            raise ValueError(f"quintic reference needs finite values and T > 0, got {self!r}")
        if self.T * self.T == 0.0:  # quintic_eval divides by T * T
            raise ValueError(f"quintic reference T = {self.T!r} is too small: T * T underflows to 0")
        d, T = self.thetaf - self.theta0, self.T  # an infinite d is build_reference's to report
        if math.isfinite(d) and not (math.isfinite(30.0 * d / T) and math.isfinite(60.0 * d / (T * T))):
            raise ValueError(f"quintic reference T = {T!r} is too small for a {d:.6g} rad move: 30 * d / T or 60 * d / (T * T) overflows")


@dataclass(frozen=True)
class SineRef:
    """Offset sine (A/2)sin(f*tick + k) + A/2 with per-tick frequency f."""

    A: float
    f: float
    k: float

    def __post_init__(self):
        check_fields(self)
        if not self.A > 0.0:
            raise ValueError(f"sine reference needs finite values and A > 0, got {self!r}")


@dataclass(frozen=True)
class TeachRef:
    """Replay of a t,theta,theta_dot demonstration file, read and validated when built.

    file is kept as an absolute path, so the reference and its JSON form name
    the same demonstration whatever the working or the scenario directory.
    """

    file: str
    smooth: bool = False

    def __post_init__(self):
        object.__setattr__(self, "file", os.fspath(self.file) if isinstance(self.file, os.PathLike) else self.file)
        check_fields(self)
        if not Path(self.file).exists():
            raise ValueError(f"teach file not found: {self.file}")
        object.__setattr__(self, "file", os.path.abspath(self.file))
        # demo is not a field: equality, repr and the JSON form stay file and smooth
        object.__setattr__(self, "demo", load_teach_csv(self.file))

    def __setstate__(self, state):  # pickle and deepcopy give numpy copies that are writeable
        state["demo"].flags.writeable = False
        self.__dict__.update(state)


ReferenceSpec = Union[QuinticRef, SineRef, TeachRef]


@dataclass(frozen=True)
class JointConfig:
    plant: SecondOrderTf
    design: GpiDesign
    limits: JointLimits
    saturation: SaturationLimits
    reference: ReferenceSpec
    disturbance: Optional[DisturbanceSpec] = None

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class Scenario:
    """Declarative description of one closed-loop experiment."""

    joints: Mapping[str, JointConfig]
    dt: float = DEFAULT_DT
    duration: float = 10.0
    noise_amplitude: float = 0.0
    seed: int = 0
    name: str = ""

    def __post_init__(self):
        # a read-only view of the scenario's own copy: the checked names cannot change later
        object.__setattr__(self, "joints", MappingProxyType(dict(self.joints)))
        check_fields(self)
        if not self.joints:
            raise ValueError("scenario needs at least one joint")
        for joint, cfg in _checked_names(self.joints).items():
            if not isinstance(cfg, JointConfig):
                raise TypeError(f"joint {joint} must be a JointConfig, got {type(cfg).__name__}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt!r}")
        if not self.duration >= self.dt:
            raise ValueError(f"duration must be >= dt, got {self.duration!r}")
        if not 0.0 <= self.noise_amplitude <= _MAX_NOISE:
            raise ValueError(f"noise amplitude must be in [0, {_MAX_NOISE!r}], got {self.noise_amplitude!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")

    def __reduce__(self):  # a mappingproxy does not pickle: pickle and deepcopy rebuild from a dict
        return type(self), (dict(self.joints), self.dt, self.duration, self.noise_amplitude, self.seed, self.name)

    @property
    def n_samples(self) -> int:
        return math.ceil(self.duration / self.dt - 1e-9) + 1


@dataclass
class JointSeries:
    """Logged time series of one joint's loop."""

    t: np.ndarray
    theta_d: np.ndarray
    theta_meas: np.ndarray
    u: np.ndarray
    e: np.ndarray


_SERIES_HEADER = tuple(f.name for f in fields(JointSeries))


@dataclass
class SimResult:
    series: Dict[str, JointSeries]
    metrics: Dict[str, Dict[str, float]]


@np.errstate(all="ignore")  # an overflow is reported by the finiteness check, not warned
def build_reference(ref: ReferenceSpec, dt: float, n: int) -> tuple:
    """Sample a reference spec at ticks 0..n-1 as a (theta_d, theta_dot_d, theta_ddot_d) tuple of arrays.

    A reference that is not finite at some tick (it overflowed) raises
    ValueError.
    """
    if isinstance(ref, QuinticRef):
        out = quintic_eval(ref.theta0, ref.thetaf, ref.T, np.arange(n) * dt)
    elif isinstance(ref, SineRef):
        out = sine_ref(ref.A, ref.f, ref.k, np.arange(n), dt)
    else:  # a TeachRef: JointConfig admits no other kind
        out = differentiate_teach(ref.demo, dt, n, smooth=ref.smooth)
    for name, values in zip(("theta_d", "theta_dot_d", "theta_ddot_d"), out):
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            raise ValueError(f"reference {name} is not finite at tick {bad[0]}: {float(values[bad[0]])!r}")
    return out


def run_scenario(s: Scenario) -> SimResult:
    """Simulate every joint loop of a scenario. Deterministic given the seed.

    A ValueError raised on some tick (a diverging plant, say) is re-raised
    with the joint, the tick and its time in front of the message. A run
    too long to allocate raises ValueError naming its samples per joint.
    """
    try:
        n = s.n_samples
        t = np.arange(n) * s.dt
    except (OverflowError, MemoryError, ValueError) as ex:  # numpy: "Maximum allowed size exceeded"
        raise ValueError(
            f"{s.duration / s.dt:.3g} samples per joint (duration / dt) are too many to allocate"
        ) from ex
    series: Dict[str, JointSeries] = {}
    for idx, (joint, cfg) in enumerate(s.joints.items()):
        try:
            theta_d, theta_dot_d, _ = ref = clamp_to_limits(build_reference(cfg.reference, s.dt, n), cfg.limits)
            gains = compute_gains(cfg.design, cfg.plant)
        except ValueError as ex:
            raise ValueError(f"joint {joint}: {ex}") from ex
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite u_d reaches the law as float arithmetic gives it
            u_d = feedforward(cfg.plant, ref)

        a = abs(s.noise_amplitude)  # Scenario accepts -0.0, and uniform(0.0, -0.0) is rejected
        noise = np.random.default_rng([s.seed, idx]).uniform(-a, a, size=n)
        dist = cfg.disturbance or DisturbanceSpec(0.0, 0.0)
        rho = np.where(t >= dist.onset - 1e-12, dist.magnitude, 0.0)

        theta_meas = np.empty(n)
        u_log = np.empty(n)
        state = (float(theta_d[0]), 0.0)
        cs = None
        ticks = zip(zip(theta_d.tolist(), theta_dot_d.tolist(), u_d.tolist()), noise.tolist(), rho.tolist())
        try:
            for i, (ref_i, noise_i, rho_i) in enumerate(ticks):
                meas = state[0] + noise_i
                u, cs = control_step(cs, gains, cfg.plant, meas, ref_i, s.dt, cfg.saturation)
                theta_meas[i] = meas
                u_log[i] = u
                if i < n - 1:
                    state = plant_step(state, cfg.plant, u, rho_i, s.dt)
        except ValueError as ex:
            raise ValueError(f"joint {joint}: tick {i} (t = {t[i]:g} s): {ex}") from ex

        series[joint] = JointSeries(
            t=t, theta_d=theta_d, theta_meas=theta_meas, u=u_log, e=theta_meas - theta_d
        )
    metrics = {joint: compute_metrics(js) for joint, js in series.items()}
    return SimResult(series=series, metrics=metrics)


@np.errstate(over="ignore")  # an error too large to square gives an infinite mse, not a warning
def compute_metrics(series: JointSeries) -> Dict[str, float]:
    """Tracking-quality summary of one joint's logged series, as a dict of floats.

    Its keys are mse, rmse, max_abs_error, steady_state_error (the mean |e|
    over the final 10 % of samples) and settle_time (the time at which |e|
    enters the 0.03 rad band and stays inside until the end; math.inf when
    that never happens).
    """
    e = series.e
    n = len(e)
    mse = float(np.mean(e * e))
    rmse = math.sqrt(mse)
    max_abs = float(np.max(np.abs(e)))
    window = max(1, math.ceil(0.1 * n))
    sse = float(np.mean(np.abs(e[-window:])))
    outside = np.where(np.abs(e) > SETTLE_BAND)[0]
    if len(outside) == 0:
        settle = 0.0
    elif outside[-1] == n - 1:
        settle = math.inf
    else:
        settle = float(series.t[outside[-1] + 1])
    return {"mse": mse, "rmse": rmse, "max_abs_error": max_abs, "steady_state_error": sse, "settle_time": settle}


def _atomic_write(path: Path, text: str) -> None:
    """Write text to a temp file of this call's own next to path, then rename it over path.

    The temp name is random and created with O_EXCL, so concurrent writers of
    one path never share it and a reader sees one writer's whole file. The
    file mode comes from the umask, as with open(). The temp file is removed
    only if this write fails. A missing directory of path is created first.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", newline="") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as ex:
        raise OSError(f"cannot write {path}: {ex}") from ex


def export_csv(r: SimResult, out_dir) -> List[Path]:
    """Write one full-precision CSV per joint into out_dir; returns the paths.

    The columns are the JointSeries fields. Files are written atomically
    (temp file, then rename) with LF line endings and float repr precision,
    so re-importing reproduces the series bit-exactly. A joint name that a
    Scenario would reject raises ValueError before any file is written.
    """
    out_dir = Path(out_dir)
    row_format = ",".join(["%r"] * len(_SERIES_HEADER)) + "\n"
    written = []
    for joint, series in _checked_names(r.series).items():
        # One %-format over the row-major (n, 5) table keeps the per-row work in C.
        table = np.column_stack([getattr(series, name) for name in _SERIES_HEADER])
        body = (row_format * len(table)) % tuple(table.ravel().tolist())
        path = out_dir / f"{joint}.csv"
        _atomic_write(path, ",".join(_SERIES_HEADER) + "\n" + body)
        written.append(path)
    return written


def load_series_csv(path) -> JointSeries:
    """Read back a CSV written by export_csv."""
    _, data = read_csv_rows(path, _SERIES_HEADER, "series")
    return JointSeries(*data.T.copy())


def export_plot(r: SimResult, path) -> Path:
    """Render the run as a stacked-panel SVG (one panel per joint); an unsafe joint name raises ValueError."""
    path = Path(path)
    _atomic_write(path, plotting.render_svg(_checked_names(r.series)))
    return path


def metrics_to_dict(metrics: Dict[str, Dict[str, float]]) -> dict:
    """Strict-JSON form of per-joint metrics: a non-finite value becomes None (null)."""
    return {
        joint: {name: value if math.isfinite(value) else None for name, value in m.items()}
        for joint, m in metrics.items()
    }


def write_artifacts(r: SimResult, out_dir) -> List[Path]:
    """Write <joint>.csv per joint, plot.svg and metrics.json into out_dir.

    Returns the written paths in that order.
    """
    out_dir = Path(out_dir)
    metrics_path = out_dir / "metrics.json"
    paths = [*export_csv(r, out_dir), export_plot(r, out_dir / "plot.svg"), metrics_path]
    _atomic_write(metrics_path, json.dumps(metrics_to_dict(r.metrics), indent=2, allow_nan=False) + "\n")
    return paths


_REFERENCE_KINDS = {"quintic": QuinticRef, "sine": SineRef, "teach": TeachRef}
_KIND_OF = {cls: kind for kind, cls in _REFERENCE_KINDS.items()}


def scenario_to_dict(obj) -> dict:
    """JSON form of a Scenario (the schema in the README) or of any part of one.

    Built field by field; a reference gets its "kind" first, and a None field
    (no disturbance) is left out.
    """
    out = {"kind": _KIND_OF[type(obj)]} if type(obj) in _KIND_OF else {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, Mapping):
            value = {key: scenario_to_dict(item) for key, item in value.items()}
        elif is_dataclass(value):
            value = scenario_to_dict(value)
        if value is not None:
            out[f.name] = value
    return out


def _from_dict(cls, d: dict, base_dir):
    """Build dataclass cls from a JSON object, decoding each field by its type; a scalar goes to cls as it is.

    A key that is absent takes the field's default. A key that is not a field, a required field that
    is absent and a value of the wrong type raise ValueError naming the class and key; d itself not
    being an object raises TypeError, which the caller names.
    """
    _expect_object(d)
    for key in d:
        if key not in field_types(cls):
            raise ValueError(f"{cls.__name__}: unknown field {key!r}")
    kwargs = {}
    for f in fields(cls):
        if f.name in d:
            t, value = field_types(cls)[f.name], d[f.name]
            try:
                kwargs[f.name] = _from_dict(t, value, base_dir) if is_dataclass(t) else _DECODERS.get(t, lambda v, _: v)(value, base_dir)
            except TypeError as ex:
                raise ValueError(f"{cls.__name__}.{f.name}: {ex}") from None
        elif f.default is MISSING:
            raise ValueError(f"{cls.__name__}.{f.name}: required field missing")
    try:
        return cls(**kwargs)
    except TypeError as ex:  # check_fields: the CLI prints a ValueError
        raise ValueError(str(ex)) from None


def _expect_object(v) -> dict:
    if not isinstance(v, dict):
        raise TypeError(f"expected an object, got {v!r}")
    return v


def _reference_from_dict(d: dict, base_dir) -> ReferenceSpec:
    d = dict(_expect_object(d))
    kind = d.pop("kind", None)
    if kind not in _REFERENCE_KINDS:
        raise ValueError(f"unknown reference kind {kind!r}")
    if kind == "teach" and isinstance(d.get("file"), str) and base_dir is not None:
        d["file"] = str(Path(base_dir) / d["file"])  # an absolute file stays as it is
    return _from_dict(_REFERENCE_KINDS[kind], d, base_dir)


def _joint_from_dict(joint: str, d, base_dir) -> JointConfig:
    """_from_dict for one joint; any error decoding it names the joint first, as run_scenario does."""
    try:
        return _from_dict(JointConfig, d, base_dir)
    except (TypeError, ValueError, OSError) as ex:  # OSError: a teach file that cannot be read
        raise ValueError(f"joint {joint}: {ex}") from ex


# Field type -> decoder of the field's JSON value, for the fields that are neither
# scalars (cls checks those) nor typed by a dataclass (_from_dict decodes those).
_DECODERS = {
    ReferenceSpec: _reference_from_dict,
    Optional[DisturbanceSpec]: lambda v, b: None if v is None else _from_dict(DisturbanceSpec, v, b),
    Mapping[str, JointConfig]: lambda v, b: {k: _joint_from_dict(k, c, b) for k, c in _expect_object(v).items()},
}


def scenario_from_dict(d: dict, base_dir=None) -> Scenario:
    """Build a Scenario from parsed JSON; teach files resolve against base_dir."""
    try:
        _expect_object(d)
    except TypeError as ex:
        raise ValueError(f"Scenario: {ex}") from None
    return _from_dict(Scenario, d, base_dir)


def load_scenario(path) -> Scenario:
    """Load a scenario JSON file; referenced files are checked for existence."""
    path = Path(path)
    with open(path) as fh:
        data = json.load(fh)
    return scenario_from_dict(data, base_dir=path.parent)


def save_scenario(s: Scenario, path) -> Path:
    path = Path(path)
    _atomic_write(path, json.dumps(scenario_to_dict(s), indent=2) + "\n")
    return path
