"""The per-tick layers against their frozen-dataclass originals, bit for bit.

gpi.control_step and plant.step run on floats. control_step starts from
None and then takes back the plain 7-tuple it returned, and it takes the
reference as (theta_d, theta_dot_d, u_d) with u_d = feedforward(tf, sample);
plant.step takes and returns a plain (theta, theta_dot) pair. The dataclass
versions they replaced are kept below, unchanged, as the oracle:
OracleControllerState/oracle_control_step (with the attribute-access
feedforward on an OracleRef sample) and OraclePlantState/oracle_step. The oracle starts from
OracleControllerState(theta_dot0=<the first reference velocity>), the state
that control_step's None stands for. Whole closed-loop runs over random
designs, plants, saturation bounds, references, noise, rho and dt must give
the same u, measured angle, final states and errors.

The oracle clamps with min(max(...)) and guards with math.isfinite, as the
originals did; SaturationLimits.clamp and the per-tick guards use plain
comparisons instead, and the properties at the end hold them to those
originals on every float: NaN of either sign, +-inf, +-0.0, subnormals
and +-max. dt is not a per-tick guard: Scenario.dt and IoRecord.ts check it
where it enters, so those properties draw it from the values they admit.
"""
import math
import struct
import sys
from dataclasses import astuple, dataclass, is_dataclass, replace
from typing import NamedTuple, Optional

import numpy as np
from hypothesis import example, given, settings, strategies as st

from shouldersim import (
    GpiDesign,
    IoRecord,
    SaturationLimits,
    SecondOrderTf,
    compute_gains,
    simulate_record,
)
from shouldersim.gpi import control_step, feedforward
from shouldersim.plant import step


class OracleRef(NamedTuple):
    """The oracle's reference sample, read by name."""

    theta_d: float
    theta_dot_d: float
    theta_ddot_d: float


@dataclass(frozen=True)
class OracleControllerState:
    int_e: float = 0.0
    dint_e: float = 0.0
    theta_int: float = 0.0
    e0: Optional[float] = None
    theta_dot0: float = 0.0
    u_prev: Optional[float] = None
    e_prev: Optional[float] = None


@dataclass(frozen=True)
class OraclePlantState:
    theta: float
    theta_dot: float

    def __post_init__(self):
        for name in ("theta", "theta_dot"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


def oracle_feedforward(tf, ref):
    return (ref.theta_ddot_d + tf.gamma1 * ref.theta_dot_d + tf.gamma2 * ref.theta_d) / tf.gamma0


def oracle_control_step(cs, gains, tf, theta_meas, ref, dt, sat):
    if not math.isfinite(theta_meas):
        raise ValueError("non-finite measurement rejected")
    if dt <= 0.0 or not math.isfinite(dt):
        raise ValueError(f"dt must be > 0, got {dt!r}")

    e = theta_meas - ref.theta_d
    e0 = cs.e0 if cs.e0 is not None else e
    u_d = oracle_feedforward(tf, ref)
    k0, k1, k2, k3 = gains

    if cs.u_prev is None:
        h, e_prev, u_prev = 0.0, e, 0.0
    else:
        h, e_prev, u_prev = dt, cs.e_prev, cs.u_prev
    int_e = cs.int_e + 0.5 * h * (e_prev + e)
    dint_e = cs.dint_e + 0.5 * h * (cs.int_e + int_e)
    theta_int_known = cs.theta_int + 0.5 * h * u_prev
    explicit = (
        u_d
        - k3 * (theta_int_known - cs.theta_dot0 - ref.theta_dot_d)
        + (-k2 * (e - e0) - k1 * int_e - k0 * dint_e) / tf.gamma0
    )
    u_raw = explicit / (1.0 + 0.5 * k3 * h)

    u = min(max(u_raw, sat.u_min), sat.u_max)
    if u != u_raw:
        int_e = cs.int_e
        dint_e = cs.dint_e
    theta_int = cs.theta_int + 0.5 * h * (u_prev + u)

    nxt = replace(
        cs,
        int_e=int_e,
        dint_e=dint_e,
        theta_int=theta_int,
        e0=e0,
        u_prev=u,
        e_prev=e,
    )
    return u, nxt


def oracle_step(state, tf, u, rho, dt):
    if dt <= 0.0 or not math.isfinite(dt):
        raise ValueError(f"dt must be > 0, got {dt!r}")
    if not (math.isfinite(u) and math.isfinite(rho)):
        raise ValueError("non-finite input rejected")

    g0, g1, g2 = tf.gamma0, tf.gamma1, tf.gamma2
    ue = u + rho

    def deriv(th, td):
        return td, g0 * ue - g1 * td - g2 * th

    th, td = state.theta, state.theta_dot
    k1 = deriv(th, td)
    k2 = deriv(th + 0.5 * dt * k1[0], td + 0.5 * dt * k1[1])
    k3 = deriv(th + 0.5 * dt * k2[0], td + 0.5 * dt * k2[1])
    k4 = deriv(th + dt * k3[0], td + dt * k3[1])

    theta = th + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    theta_dot = td + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return OraclePlantState(theta=theta, theta_dot=theta_dot)


def law_ref(tf, ref):
    """The (theta_d, theta_dot_d, u_d) triple that control_step takes for a reference sample."""
    return ref[0], ref[1], feedforward(tf, ref)


def oracle_ref(tf, ref):
    return OracleRef._make(ref)


def pair(theta, theta_dot):
    """The plain (theta, theta_dot) state that run_scenario starts plant.step from."""
    return theta, theta_dot


def fields_of(state):
    return astuple(state) if is_dataclass(state) else tuple(state)


def closed_loop(cs, ctrl, plant_state, plant, case, wrap_ref):
    """The run_scenario loop from controller state cs; returns the log, the
    final states and the tick and layer of the ValueError that ended it, if
    any. Floats are logged as repr, so -0.0 and nan compare by their bits."""
    gains = compute_gains(case["design"], case["tf"])
    refs, noise, rho, dt = case["refs"], case["noise"], case["rho"], case["dt"]
    state = plant_state(theta=refs[0][0], theta_dot=0.0)
    log, error = [], None
    for i, ref in enumerate(refs):
        meas = fields_of(state)[0] + noise[i]
        try:
            u, cs = ctrl(cs, gains, case["tf"], meas, wrap_ref(case["tf"], ref), dt, case["sat"])
        except ValueError:
            error = (i, "control")
            break
        log.append(repr((meas, u)))
        if i < len(refs) - 1:
            try:
                state = plant(state, case["tf"], u, rho[i], dt)
            except ValueError:
                error = (i, "plant")
                break
    return log, repr(fields_of(cs)), repr(fields_of(state)), error


@st.composite
def loop_cases(draw):
    tf = SecondOrderTf(
        gamma0=draw(st.floats(1e-5, 1.0)),
        gamma1=draw(st.floats(0.0, 2.0)),
        gamma2=draw(st.floats(1e-3, 4.0)),
    )
    design = GpiDesign(xi=draw(st.floats(0.3, 2.0)), wn=draw(st.floats(0.5, 15.0)))
    if 4.0 * design.xi * design.wn <= tf.gamma1:
        design = GpiDesign(xi=1.0, wn=tf.gamma1 + 1.0)
    u_min = draw(st.floats(-200.0, 60.0))
    n = draw(st.integers(2, 60))
    finite = st.floats(-3.0, 3.0)
    return {
        "tf": tf,
        "design": design,
        "sat": SaturationLimits(u_min, u_min + draw(st.floats(1.0, 300.0))),
        "dt": draw(st.floats(1e-3, 0.5)),
        "refs": draw(st.lists(st.tuples(finite, finite, finite), min_size=n, max_size=n)),
        "noise": draw(st.lists(st.floats(-0.01, 0.01), min_size=n, max_size=n)),
        "rho": draw(st.lists(st.floats(-20.0, 20.0), min_size=n, max_size=n)),
    }


@settings(deadline=None, max_examples=150)
@given(case=loop_cases())
def test_control_step_and_step_equal_the_dataclass_oracle(case):
    oracle_start = OracleControllerState(theta_dot0=case["refs"][0][1])
    want = closed_loop(oracle_start, oracle_control_step, OraclePlantState, oracle_step,
                       case, oracle_ref)
    got = closed_loop(None, control_step, pair, step, case, law_ref)
    assert got == want


@settings(deadline=None, max_examples=100)
@given(case=loop_cases())
def test_successors_are_plain_tuples_and_rewrapping_them_changes_nothing(case):
    class Successor(NamedTuple):  # control_step's documented field order
        int_e: float
        dint_e: float
        theta_int: float
        e0: float
        theta_dot0: float
        u_prev: float
        e_prev: float

    def control_step_rewrapped(*args):
        u, nxt = control_step(*args)
        assert type(nxt) is tuple and len(nxt) == len(Successor._fields)
        return u, Successor._make(nxt)

    def step_rewrapped(*args):
        nxt = step(*args)
        assert type(nxt) is tuple and len(nxt) == 2
        return nxt

    plain = closed_loop(None, control_step, pair, step, case, law_ref)
    rewrapped = closed_loop(None, control_step_rewrapped, pair, step_rewrapped, case, law_ref)
    assert rewrapped == plain


@settings(deadline=None)
@given(
    theta=st.floats(-1e300, 1e300),
    theta_dot=st.floats(-1e300, 1e300),
    u=st.floats(-1e3, 1e3),
    dt=st.floats(1e-3, 1e3),
    gamma1=st.floats(0.0, 1e300),
)
# only the last RK4 stage overflows: theta stays finite, theta_dot is -inf
@example(theta=0.0, theta_dot=0.0, u=1.0, dt=0.01, gamma1=1e105)
def test_step_raises_where_the_oracle_state_was_rejected(theta, theta_dot, u, dt, gamma1):
    tf = SecondOrderTf(1.0, gamma1, 2.0)
    try:
        want = repr(astuple(oracle_step(OraclePlantState(theta, theta_dot), tf, u, 0.0, dt)))
    except ValueError:
        want = ValueError
    try:
        got = repr(tuple(step((theta, theta_dot), tf, u, 0.0, dt)))
    except ValueError:
        got = ValueError
    assert got == want


@settings(deadline=None)
@given(
    g=st.tuples(st.floats(1e-5, 1.0), st.floats(0.0, 2.0), st.floats(1e-3, 4.0)),
    u=st.lists(st.floats(0.0, 100.0), min_size=10, max_size=80),
    theta0=st.floats(-2.0, 2.0),
    ts=st.floats(1e-3, 0.5),
)
def test_simulate_record_equals_the_oracle_loop(g, u, theta0, ts):
    tf = SecondOrderTf(*g)
    theta = np.zeros(len(u))
    theta[0] = theta0
    want = [theta0]
    state = OraclePlantState(theta=theta0, theta_dot=0.0)
    for u_k in u[:-1]:
        state = oracle_step(state, tf, u_k, 0.0, ts)
        want.append(state.theta)
    got = simulate_record(tf, IoRecord(u=np.array(u), theta=theta, ts=ts))
    assert got.tobytes() == np.array(want).tobytes()


SPECIAL_FLOATS = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    sys.float_info.min, -sys.float_info.min, sys.float_info.max, -sys.float_info.max,
]
any_float = st.floats() | st.sampled_from(SPECIAL_FLOATS)
finite_float = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [x for x in SPECIAL_FLOATS if math.isfinite(x)]
)
valid_dt = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False) | st.sampled_from(
    [x for x in SPECIAL_FLOATS if 0.0 < x < math.inf]
)


def bits(x):
    return struct.pack("<d", x)


def raised(call):
    try:
        call()
    except ValueError as ex:
        return str(ex)
    return None


@settings(max_examples=500)
@given(bounds=st.lists(finite_float, min_size=2, max_size=2, unique=True), u=any_float)
@example(bounds=[-0.0, 1.0], u=0.0)  # +0.0 is not below a -0.0 bound: it passes through
@example(bounds=[0.0, 1.0], u=-0.0)  # and -0.0 not below a +0.0 bound
@example(bounds=[-1.0, -0.0], u=0.0)  # nor +0.0 above a -0.0 bound
def test_clamp_equals_min_of_max_bit_for_bit(bounds, u):
    lo, hi = sorted(bounds)
    got = SaturationLimits(lo, hi).clamp(u)
    assert bits(got) == bits(min(max(u, lo), hi))


TF = SecondOrderTf(0.0005725, 0.05725, 0.044)
GAINS = compute_gains(GpiDesign(0.9, 6.1), TF)
SAT = SaturationLimits(0.0, 100.0)


@settings(max_examples=300)
@given(theta_meas=any_float, dt=valid_dt, first_tick=st.booleans())
def test_control_step_guards_raise_where_isfinite_rejects(theta_meas, dt, first_tick):
    want = None if math.isfinite(theta_meas) else "non-finite measurement rejected"
    cs = None if first_tick else (0.1, 0.01, 2.0, 0.0, 0.0, 50.0, 0.0)
    ref = (0.3, 0.01, 0.0)
    assert raised(lambda: control_step(cs, GAINS, TF, theta_meas, ref, dt, SAT)) == want


@settings(max_examples=300)
@given(u=any_float, rho=any_float, dt=valid_dt)
def test_step_guards_raise_where_isfinite_rejects(u, rho, dt):
    state = (0.3, -0.02)
    if not (math.isfinite(u) and math.isfinite(rho)):
        want = "non-finite input rejected"
    else:
        want = raised(lambda: oracle_step(OraclePlantState(*state), TF, u, rho, dt))
    got = raised(lambda: step(state, TF, u, rho, dt))
    if want is not None and want.startswith("theta"):
        # the oracle's state check words its message per field
        assert got.startswith("plant state must be finite, got theta=")
    else:
        assert got == want
