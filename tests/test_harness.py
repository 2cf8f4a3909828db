import copy
import dataclasses
import json
import math
import pickle
import re
import sys
import threading
import warnings
import xml.etree.ElementTree as ET
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings, strategies as st

from shouldersim import (
    DisturbanceSpec,
    GpiDesign,
    IoRecord,
    JointConfig,
    JointLimits,
    JointSeries,
    QuinticRef,
    SaturationLimits,
    Scenario,
    SecondOrderTf,
    SimResult,
    SineRef,
    TeachRef,
    export_csv,
    export_plot,
    load_scenario,
    load_series_csv,
    presets,
    run_scenario,
    save_scenario,
)
from shouldersim import harness, sysid, trajectory
from shouldersim.gpi import feedforward
from shouldersim.harness import (
    build_reference,
    compute_metrics,
    metrics_to_dict,
    scenario_from_dict,
    scenario_to_dict,
    write_artifacts,
)
from shouldersim.plant import field_types, step
from shouldersim.plotting import render_svg
from shouldersim.trajectory import DEFAULT_DT, quintic_eval


def default_scenario(reference, joint="abad", duration=10.0, disturbance=None, **kwargs):
    return Scenario(
        joints={
            joint: JointConfig(
                plant=presets.ABAD_PLANT,
                design=presets.ABAD_DESIGN,
                limits=presets.ABAD_LIMITS,
                saturation=presets.DEFAULT_SATURATION,
                reference=reference,
                disturbance=disturbance,
            )
        },
        duration=duration,
        **kwargs,
    )


def bundled(name):
    return presets.scenario_dir() / f"{name}.json"


def test_scenario_validation():
    ref = QuinticRef(0.1745, 0.6981, 10.0)
    with pytest.raises(ValueError):
        Scenario(joints={})
    with pytest.raises(ValueError):
        default_scenario(ref, dt=0.0)
    with pytest.raises(ValueError):
        default_scenario(ref, duration=0.01)
    with pytest.raises(ValueError):
        default_scenario(ref, noise_amplitude=-0.1)
    # bool is an Integral, but no seed: the constructor refuses it with the JSON decoder's words
    for seed in (True, False):
        with pytest.raises(TypeError, match=f"^Scenario.seed: expected an integer, got {seed}$"):
            default_scenario(ref, seed=seed)
    # nan < 0 is False, so a sign check alone would let these through
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            default_scenario(ref, noise_amplitude=bad)
        with pytest.raises(ValueError):
            QuinticRef(0.1745, bad, 10.0)
        with pytest.raises(ValueError):
            QuinticRef(0.1745, 0.6981, bad)
        with pytest.raises(ValueError):
            SineRef(1.0, bad, 300.0)
        with pytest.raises(ValueError):
            SineRef(bad, 1.6e-3, 300.0)
    with pytest.raises(ValueError):
        QuinticRef(0.1745, 0.6981, 0.0)
    with pytest.raises(ValueError):
        SineRef(0.0, 1.6e-3, 300.0)


ABAD_JOINT = default_scenario(QuinticRef(0.1745, 0.6981, 10.0)).joints["abad"]


@pytest.mark.parametrize(
    "changes, case",
    [
        ({"plant": None}, "JointConfig.plant must be SecondOrderTf, got NoneType"),
        ({"design": (0.9, 6.1)}, "JointConfig.design must be GpiDesign, got tuple"),
        ({"limits": presets.DEFAULT_SATURATION}, "JointConfig.limits must be JointLimits, got SaturationLimits"),
        ({"saturation": presets.ABAD_LIMITS}, "JointConfig.saturation must be SaturationLimits, got JointLimits"),
        ({"reference": (0.1, 0.2, 5.0)}, "JointConfig.reference must be QuinticRef or SineRef or TeachRef, got tuple"),
        ({"disturbance": 5.0}, "JointConfig.disturbance must be DisturbanceSpec or None, got float"),
    ],
)
def test_joint_config_rejects_a_field_of_another_type(changes, case):
    # a case reads as the rule and the type of the wrong value; the message shows the value itself
    field, expected, got = re.fullmatch(r"JointConfig\.(\w+) must be (.+), got (\w+)", case).groups()
    assert type(changes[field]).__name__ == got
    message = f"JointConfig.{field}: expected {expected}, got {changes[field]!r}"
    with pytest.raises(TypeError, match="^" + re.escape(message) + "$"):
        dataclasses.replace(ABAD_JOINT, **changes)


def test_scenario_rejects_a_joint_that_is_not_a_joint_config():
    with pytest.raises(TypeError, match=r"^joint abad must be a JointConfig, got int$"):
        Scenario(joints={"abad": 3})
    with pytest.raises(TypeError, match=r"^joint fe must be a JointConfig, got dict$"):
        Scenario(joints={"abad": ABAD_JOINT, "fe": dataclasses.asdict(ABAD_JOINT)})


def test_scenario_and_teach_ref_reject_what_load_scenario_would_reject(tmp_path):
    # save_scenario would write them, and load_scenario refuse the file
    with pytest.raises(TypeError, match=r"^Scenario.name: expected a string, got 5$"):
        Scenario(joints={"abad": ABAD_JOINT}, name=5)
    demo = str(_write_demo(tmp_path / "demo.csv", scale=1.0))
    with pytest.raises(TypeError, match=r"^TeachRef.smooth: expected true or false, got 1$"):
        TeachRef(file=demo, smooth=1)


def test_a_numpy_float_plant_runs_and_is_saved_as_a_python_float(tmp_path):
    # np.float32 times a Python float stays np.float32: held as such, it ran part of the law in float32
    s = load_scenario(bundled("reach_q1"))

    def with_abad_gamma0(g0):
        joint = s.joints["abad"]
        abad = dataclasses.replace(joint, plant=dataclasses.replace(joint.plant, gamma0=g0))
        return dataclasses.replace(s, joints={**s.joints, "abad": abad})

    single, double = with_abad_gamma0(np.float32(0.0005725)), with_abad_gamma0(float(np.float32(0.0005725)))
    assert type(single.joints["abad"].plant.gamma0) is float
    a, b = run_scenario(single).series["abad"], run_scenario(double).series["abad"]
    assert a.theta_meas.tobytes() == b.theta_meas.tobytes() and a.u.tobytes() == b.u.tobytes()
    assert load_scenario(save_scenario(single, tmp_path / "s.json")) == single


@pytest.mark.parametrize(
    "build, where",
    [
        (lambda big: SecondOrderTf(big, 0.1, 0.1), "SecondOrderTf.gamma0"),
        (lambda big: GpiDesign(0.9, big), "GpiDesign.wn"),
        (lambda big: QuinticRef(0.0, big, 5.0), "QuinticRef.thetaf"),
    ],
)
@pytest.mark.parametrize("big", [10**400, 10**5000], ids=["400-digits", "5000-digits"])
def test_an_integer_too_large_for_a_float_is_a_value_error_naming_the_field(build, where, big):
    # 10**5000 has too many digits for Python to print: the message leaves the value out
    message = f"{where} must be finite, got a number too large for a float"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        build(big)


def test_a_numpy_integer_seed_is_saved_loaded_and_run_as_an_int(tmp_path):
    s = dataclasses.replace(load_scenario(bundled("reach_q1")), noise_amplitude=1e-3, seed=np.int64(3))
    assert type(s.seed) is int
    back = load_scenario(save_scenario(s, tmp_path / "s.json"))
    assert back == s
    assert _same_run(run_scenario(back), run_scenario(dataclasses.replace(s, seed=3)))


def old_quintic_eval_guard(theta0, thetaf, T):
    """Whether quintic_eval raised for T before it left the check of T to QuinticRef."""
    d = thetaf - theta0
    return not T > 0 or T * T == 0.0 or not (math.isfinite(30.0 * d / T) and math.isfinite(60.0 * d / (T * T)))


def raises(call):
    try:
        call()
    except ValueError:
        return True
    return False


# nan, +-inf, +-0.0, subnormals, negatives, a T whose square underflows (1e-162)
# and T whose rate scales overflow for a 0.2 rad move (1e-161, 2e-154)
boundary_float = st.floats() | st.sampled_from([
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, sys.float_info.min,
    -1.0, sys.float_info.max, 1e-162, 1e-161, 2e-154, 3e-154,
])


@settings(max_examples=500)
@given(x=boundary_float, thetaf=st.sampled_from([0.1745, 0.3745, 1.396]))
def test_the_boundary_rejects_exactly_the_constants_that_the_layers_no_longer_check(x, thetaf):
    # control_step, plant.step, differentiate_teach and to_continuous trust dt (ts);
    # quintic_eval trusts T and sine_ref trusts A
    positive = 0.0 < x < math.inf
    assert raises(lambda: Scenario({"abad": ABAD_JOINT}, dt=x, duration=sys.float_info.max)) is not positive
    assert raises(lambda: IoRecord(u=np.ones(10), theta=np.zeros(10), ts=x)) is not positive
    quintic_rejected = not math.isfinite(x) or old_quintic_eval_guard(0.1745, thetaf, x)
    assert raises(lambda: QuinticRef(0.1745, thetaf, x)) is quintic_rejected
    assert raises(lambda: SineRef(A=x, f=1.6e-3, k=300.0)) is not positive


def test_sample_count_for_ten_second_run():
    s = default_scenario(QuinticRef(0.1745, 0.6981, 10.0))
    assert s.n_samples == 155


def test_reference_builders():
    refs = build_reference(QuinticRef(0.2, 0.9, 5.0), dt=0.065, n=120)
    assert [len(x) for x in refs] == [120, 120, 120]
    theta_d, theta_dot_d, _ = refs
    assert theta_d[0] == pytest.approx(0.2)
    # beyond the quintic duration the reference parks at the target
    assert theta_d[-1] == pytest.approx(0.9)
    assert theta_dot_d[-1] == pytest.approx(0.0)

    refs = build_reference(SineRef(1.0, 1.6e-3, 300.0), dt=0.065, n=50)
    assert [len(x) for x in refs] == [50, 50, 50]


@pytest.mark.parametrize(
    "spec", [SineRef(A=1e300, f=1e200, k=0.0), QuinticRef(-1e308, 1e308, 5.0)], ids=["sine", "quintic"]
)
def test_build_reference_rejects_overflowing_reference(spec):
    # the spec is finite, but its samples overflow to inf or nan
    with pytest.raises(ValueError, match="is not finite at tick"):
        build_reference(spec, dt=0.065, n=50)


def test_teach_reference_holds_after_demo_ends():
    demo = presets.scenario_dir() / "taught_demo.csv"
    refs = build_reference(TeachRef(file=str(demo)), dt=0.065, n=200)
    assert [len(x) for x in refs] == [200, 200, 200]
    # the demo covers 5 s = 77 grid samples; the tail holds the final angle
    theta_d, theta_dot_d, theta_ddot_d = refs
    assert np.all(theta_d[76:] == theta_d[76])
    assert np.all(theta_dot_d[77:] == 0.0) and np.all(theta_ddot_d[77:] == 0.0)
    # a run shorter than the demo takes its first n samples
    head = build_reference(TeachRef(file=str(demo)), dt=0.065, n=10)
    assert all(np.array_equal(h, r[:10]) for h, r in zip(head, refs))


def _write_demo(path, scale):
    rows = [f"{0.05 * k!r},{scale * 0.01 * k!r},{scale * 0.2!r}" for k in range(101)]
    path.write_text("t,theta,theta_dot\n" + "\n".join(rows) + "\n")
    return path


def test_rerun_after_the_demo_file_changes_is_bit_identical(tmp_path):
    # the demonstration is read when the reference is built, never by a run
    demo = _write_demo(tmp_path / "demo.csv", scale=1.0)
    s = default_scenario(TeachRef(file=str(demo)), duration=5.0)
    first = run_scenario(s)
    _write_demo(demo, scale=2.0)
    second = run_scenario(s)
    for name in ("theta_d", "theta_meas", "u", "e"):
        assert np.array_equal(getattr(first.series["abad"], name), getattr(second.series["abad"], name))
    # a new reference reads the new file
    changed = run_scenario(default_scenario(TeachRef(file=str(demo)), duration=5.0))
    assert not np.array_equal(changed.series["abad"].theta_d, first.series["abad"].theta_d)


def test_a_loaded_teach_scenario_runs_without_reading_files():
    s = load_scenario(bundled("teach_repeat"))
    expected = run_scenario(load_scenario(bundled("teach_repeat")))
    with mock.patch.object(trajectory, "read_csv_rows", side_effect=AssertionError("a run read a file")):
        r = run_scenario(s)
    assert np.array_equal(r.series["abad"].u, expected.series["abad"].u)


def _same_run(a, b):
    """True when two SimResults hold the same joints and bit-identical series."""
    return a.series.keys() == b.series.keys() and all(
        getattr(a.series[j], name).tobytes() == getattr(b.series[j], name).tobytes()
        for j in a.series
        for name in ("t", "theta_d", "theta_meas", "u", "e")
    )


def test_a_copied_teach_scenario_keeps_its_demo_read_only():
    # numpy gives pickled and deep-copied arrays a writeable flag
    s = load_scenario(bundled("teach_repeat"))
    expected = run_scenario(s)
    with mock.patch.object(trajectory, "read_csv_rows", side_effect=AssertionError("a copy read a file")):
        copies = [pickle.loads(pickle.dumps(s)), copy.deepcopy(s)]
    for copied in copies:
        demo = copied.joints["abad"].reference.demo
        assert not demo.flags.writeable
        with pytest.raises(ValueError):
            demo[0, 1] = 9.0
        assert _same_run(run_scenario(copied), expected)


def test_save_scenario_keeps_a_relative_teach_file_pointing_at_its_demo(tmp_path, monkeypatch):
    # load_scenario resolves a relative teach file against the JSON file's
    # directory, and the working directory may change after the reference is built
    _write_demo(tmp_path / "demo.csv", scale=1.0)
    monkeypatch.chdir(tmp_path)
    s = default_scenario(TeachRef(file="demo.csv"), duration=5.0)
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    path = save_scenario(s, Path("out") / "s.json")
    saved = json.loads(path.read_text())["joints"]["abad"]["reference"]["file"]
    assert Path(saved).is_absolute() and Path(saved).samefile(tmp_path / "demo.csv")
    assert _same_run(run_scenario(load_scenario(path)), run_scenario(s))


def test_teach_reference_validates_its_file_when_built(tmp_path):
    with pytest.raises(ValueError, match="teach file not found: nope.csv"):
        TeachRef(file="nope.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("t,theta,theta_dot\n0.0,0.5,0.0\n0.1,abc,0.0\n")
    with pytest.raises(ValueError, match=re.escape(f"{bad}: line 3: could not convert string to float")):
        TeachRef(file=str(bad))
    ref = TeachRef(file=str(_write_demo(tmp_path / "demo.csv", scale=1.0)), smooth=True)
    assert ref.demo.shape == (101, 3) and not ref.demo.flags.writeable
    # demo is not a field: equality, repr and replace see file and smooth only
    assert ref == TeachRef(file=ref.file, smooth=True)
    assert repr(ref) == f"TeachRef(file={ref.file!r}, smooth=True)"
    assert np.array_equal(dataclasses.replace(ref, smooth=False).demo, ref.demo)


def test_malformed_demo_fails_load_scenario_with_its_file_and_line(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,theta,theta_dot\n0.0,0.5,0.0\n0.1,0.6\n")
    data = json.loads(bundled("teach_repeat").read_text())
    data["joints"]["abad"]["reference"]["file"] = "bad.csv"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=re.escape(f"{bad}: line 3: expected 3 values, got 2")):
        load_scenario(path)


def test_joint_table_is_read_only_after_validation(tmp_path):
    s = load_scenario(bundled("reach_q1"))
    with pytest.raises(TypeError):
        s.joints["../escaped"] = s.joints["fe"]
    # the scenario keeps its own copy of the table it was given
    table = dict(s.joints)
    kept = Scenario(joints=table)
    table["../escaped"] = table.pop("fe")
    assert set(kept.joints) == {"abad", "fe"}
    out = tmp_path / "out"
    write_artifacts(run_scenario(s), out)
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert sorted(p.name for p in out.iterdir()) == ["abad.csv", "fe.csv", "metrics.json", "plot.svg"]
    assert scenario_from_dict(scenario_to_dict(s)) == s
    # the read-only table still pickles and deep-copies, through the constructor
    for copied in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert copied == s and isinstance(copied.joints, MappingProxyType)


def test_run_quintic_reach_tracks():
    s = load_scenario(bundled("reach_q1"))
    r = run_scenario(s)
    m = r.metrics["abad"]
    assert set(r.series) == {"abad", "fe"}
    assert len(r.series["abad"].t) == s.n_samples
    assert abs(r.series["abad"].e[-1]) < 5e-4
    assert m["max_abs_error"] < 1e-3
    assert m["settle_time"] == 0.0


def counting(monkeypatch, module, name, key):
    """Replace module.name by a pass-through that counts its calls per key(args)."""
    calls = {}
    original = getattr(module, name)

    def counted(*args):
        calls[key(args)] = calls.get(key(args), 0) + 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_per_tick_layers_are_called_once_per_tick(monkeypatch):
    # the benchmark attributes time to the per-tick layers by wrapping these
    # three module bindings, so each must be called once per tick
    controls = counting(monkeypatch, harness, "control_step", lambda args: args[2])
    plants = counting(monkeypatch, harness, "plant_step", lambda args: args[1])
    s = load_scenario(bundled("reach_q1"))
    run_scenario(s)
    n = s.n_samples
    assert controls == {cfg.plant: n for cfg in s.joints.values()}
    assert plants == {cfg.plant: n - 1 for cfg in s.joints.values()}

    records = counting(monkeypatch, sysid, "plant_step", lambda args: args[1])
    u = sysid.multisine_profile(300, seed=2)
    sysid.simulate_record(presets.FE_PLANT, sysid.IoRecord(u=u, theta=np.zeros(300), ts=0.065))
    assert records == {presets.FE_PLANT: 299}


def test_zero_length_reference_at_rest_angle():
    # holding an angle whose feedforward is zero is an exact fixed point of
    # the whole loop: u and e stay identically zero
    s = Scenario(
        joints={
            "abad": JointConfig(
                plant=presets.ABAD_PLANT,
                design=presets.ABAD_DESIGN,
                limits=JointLimits(-1.0, 1.0),
                saturation=presets.DEFAULT_SATURATION,
                reference=QuinticRef(0.0, 0.0, 10.0),
            )
        },
        duration=10.0,
    )
    se = run_scenario(s).series["abad"]
    assert np.all(se.u == 0.0)
    assert np.all(se.e == 0.0)


def test_zero_length_reference_at_raised_angle():
    # with a nonzero hold angle the input integral ramps up from zero, so the
    # loop shows a sub-millirad transient before the double error integral
    # absorbs it and the command settles back onto the feedforward value
    s = default_scenario(QuinticRef(0.5, 0.5, 10.0), duration=20.0)
    se = run_scenario(s).series["abad"]
    u_d = feedforward(presets.ABAD_PLANT, (0.5, 0.0, 0.0))
    assert np.max(np.abs(se.e)) < 2e-3
    assert abs(se.e[-1]) < 1e-9
    assert abs(se.u[-1] - u_d) < 1e-9


def test_a_plant_whose_u_d_overflows_runs_saturated_without_a_warning():
    # gamma0 = 1e-310 makes u_d = (... + gamma2 * theta_d) / gamma0 overflow to
    # inf on every tick, so u is u_max from tick 0. u_d is computed on the whole
    # reference at once, and numpy must stay as silent as the per-tick float division was
    plant = SecondOrderTf(1e-310, presets.ABAD_PLANT.gamma1, presets.ABAD_PLANT.gamma2)
    cfg = JointConfig(plant=plant, design=presets.ABAD_DESIGN, limits=presets.ABAD_LIMITS,
                      saturation=presets.DEFAULT_SATURATION, reference=QuinticRef(0.5, 1.0, 10.0))
    s = Scenario(joints={"abad": cfg})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = run_scenario(s).series["abad"]
    assert np.all(series.u == presets.DEFAULT_SATURATION.u_max)
    # gamma0 * u is 1e-308: the plant swings from rest at 0.5 rad as if it had no input
    state, swing = (0.5, 0.0), []
    for _ in range(s.n_samples):
        swing.append(state[0])
        state = step(state, plant, 100.0, 0.0, s.dt)
    assert series.theta_meas.tolist() == swing


def test_determinism_with_noise():
    s = default_scenario(QuinticRef(0.1745, 0.6981, 10.0), noise_amplitude=0.002, seed=5)
    a = run_scenario(s)
    b = run_scenario(s)
    assert np.array_equal(a.series["abad"].theta_meas, b.series["abad"].theta_meas)
    assert np.array_equal(a.series["abad"].u, b.series["abad"].u)

    c = run_scenario(
        default_scenario(QuinticRef(0.1745, 0.6981, 10.0), noise_amplitude=0.002, seed=6)
    )
    assert not np.array_equal(a.series["abad"].theta_meas, c.series["abad"].theta_meas)


def test_gain_failure_names_the_joint():
    s = Scenario(
        joints={
            "fe": JointConfig(
                plant=presets.FE_PLANT,
                design=GpiDesign(xi=0.05, wn=1.0),
                limits=presets.FE_LIMITS,
                saturation=presets.DEFAULT_SATURATION,
                reference=QuinticRef(0.1745, 0.3491, 10.0),
            )
        },
        duration=10.0,
    )
    with pytest.raises(ValueError, match="joint fe: unstable compensator denominator"):
        run_scenario(s)


def test_disturbance_rejection_end_to_end():
    s = default_scenario(
        QuinticRef(0.1745, 0.6981, 10.0),
        duration=28.0,
        disturbance=DisturbanceSpec(magnitude=5.0, onset=16.0),
    )
    se = run_scenario(s).series["abad"]
    # the load step nudges the settled joint off the reference (orders of
    # magnitude above the pre-step residual), then the loop absorbs it again
    before = np.max(np.abs(se.e[(se.t >= 15.0) & (se.t < 16.0)]))
    bump = np.max(np.abs(se.e[(se.t >= 16.0) & (se.t < 21.0)]))
    assert bump > 100.0 * before
    assert np.max(np.abs(se.e[se.t >= 21.0])) < 0.01


def _unclamped_quintic_series(theta0, thetaf, T, duration=None):
    """Both preset joints tracking one quintic, with limits and saturation out of reach."""
    joints = {
        joint: JointConfig(
            plant=plant,
            design=design,
            limits=JointLimits(-1e6, 1e6),
            saturation=SaturationLimits(-1e12, 1e12),
            reference=QuinticRef(theta0, thetaf, T),
        )
        for joint, plant, design in (
            ("abad", presets.ABAD_PLANT, presets.ABAD_DESIGN),
            ("fe", presets.FE_PLANT, presets.FE_DESIGN),
        )
    }
    return run_scenario(Scenario(joints=joints, duration=T + 2.0 if duration is None else duration)).series


_ANGLE = st.floats(-2.0, 2.0)


@settings(max_examples=200, deadline=None)
@given(a=st.tuples(_ANGLE, _ANGLE), b=st.tuples(_ANGLE, _ANGLE), T=st.floats(0.5, 20.0))
def test_unsaturated_loop_superposes(a, b, T):
    """With no clamp acting and no noise, the closed loop is linear in the reference.

    Plant, control law, initial state and velocity estimate are all linear in
    the quintic's endpoints, so the run for the summed endpoints equals the
    sum of the two runs. On 200 random draws the worst relative error was
    3.6e-11; the bound 1e-8 * (1 + max|.|) covers rounding, while an active
    clamp (saturation at the preset [0, 100]) or a constant offset in the law
    (u_d + 1) gives an error of order 1.
    """
    sa, sb = _unclamped_quintic_series(*a, T), _unclamped_quintic_series(*b, T)
    both = _unclamped_quintic_series(a[0] + b[0], a[1] + b[1], T)
    for joint, s in both.items():
        for name in ("theta_meas", "u"):
            got = getattr(s, name)
            want = getattr(sa[joint], name) + getattr(sb[joint], name)
            assert np.max(np.abs(got - want)) <= 1e-8 * (1.0 + np.max(np.abs(got))), (joint, name)


@settings(max_examples=100, deadline=None)
@given(a=st.tuples(_ANGLE, _ANGLE), T=st.floats(0.5, 20.0), k=st.integers(0, 40))
@example(a=(0.0, 1.5), T=3.0, k=40)
def test_unsaturated_loop_is_time_shift_invariant(a, T, k):
    """Delaying the quintic by k ticks delays the unclamped closed loop by k ticks,
    up to the start-up transient of holding theta0.

    The per-tick loop is driven on quintic_eval(theta0, thetaf, T, (i - k) dt),
    which holds theta0 for the first k ticks. The loop is linear and time
    invariant, but resting on theta0 != 0 is not an equilibrium of it:
    theta_int integrates the hold command gamma2*theta0/gamma0, and the k3
    term turns that into a transient of about 1.2e-3 rad per rad of theta0
    on abad (4.6e-4 on fe) that has died out after 60 s. By superposition
    the delayed run minus the undelayed one is therefore the hold run
    (constant reference theta0) minus itself delayed; for theta0 = 0 the
    hold run is zero and the runs are plain shifts of each other. Same
    settings and bound as the superposition test.
    """
    theta0, thetaf = a
    base = _unclamped_quintic_series(theta0, thetaf, T)
    hold = _unclamped_quintic_series(theta0, theta0, T, duration=T + 2.0 + (k + 1) * DEFAULT_DT)

    def delayed(ref, dt, n_ticks):
        return quintic_eval(ref.theta0, ref.thetaf, ref.T, (np.arange(n_ticks) - k) * dt)

    with mock.patch.object(harness, "build_reference", delayed):
        shifted = _unclamped_quintic_series(theta0, thetaf, T, duration=T + 2.0 + (k + 1) * DEFAULT_DT)
    n = len(base["abad"].t)
    for joint, s in base.items():
        for name in ("theta_meas", "u"):
            want = getattr(s, name)
            got = getattr(shifted[joint], name)[k : k + n]
            h = getattr(hold[joint], name)
            assert len(got) == n
            if theta0 == 0.0:
                assert not np.any(h)
            d = (got - want) - (h[k : k + n] - h[:n])
            assert np.max(np.abs(d)) <= 1e-8 * (1.0 + np.max(np.abs(want))), (joint, name, k)


def test_metrics_zero_error():
    t = np.arange(50) * 0.065
    zeros = np.zeros(50)
    series = JointSeries(t=t, theta_d=zeros + 0.3, theta_meas=zeros + 0.3, u=zeros, e=zeros)
    m = compute_metrics(series)
    assert m["mse"] == 0.0 and m["rmse"] == 0.0
    assert m["max_abs_error"] == 0.0
    assert m["steady_state_error"] == 0.0
    assert m["settle_time"] == 0.0


def test_metrics_constant_offset():
    t = np.arange(50) * 0.065
    e = np.full(50, 0.1)
    series = JointSeries(t=t, theta_d=np.zeros(50), theta_meas=e, u=np.zeros(50), e=e)
    m = compute_metrics(series)
    assert m["rmse"] == pytest.approx(0.1)
    assert m["mse"] == pytest.approx(0.01)
    assert m["max_abs_error"] == pytest.approx(0.1)
    assert m["steady_state_error"] == pytest.approx(0.1)
    assert math.isinf(m["settle_time"])
    # the JSON form uses None as the infinite-settle sentinel
    d = metrics_to_dict({"abad": m})
    assert d["abad"]["settle_time"] is None
    json.dumps(d)


def test_metric_sanity_properties():
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(10, 200))
        e = rng.normal(0.0, 0.05, size=n)
        series = JointSeries(
            t=np.arange(n) * 0.065, theta_d=np.zeros(n), theta_meas=e, u=np.zeros(n), e=e
        )
        m = compute_metrics(series)
        assert m["steady_state_error"] <= m["max_abs_error"] + 1e-15
        assert m["rmse"] <= m["max_abs_error"] + 1e-15
        assert m["rmse"]**2 == pytest.approx(m["mse"])


@settings(deadline=None)
@given(e=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=60))
@example(e=[1e200, -1e200])  # e * e overflows: mse and rmse are infinite
def test_metrics_dict_is_strict_json(e):
    # filterwarnings = error also makes an overflow warning from compute_metrics fail
    e = np.array(e)
    series = JointSeries(t=np.arange(len(e)) * 0.065, theta_d=np.zeros(len(e)), theta_meas=e,
                         u=np.zeros(len(e)), e=e)
    m = compute_metrics(series)
    d = metrics_to_dict({"abad": m})
    json.dumps(d, allow_nan=False)
    for name, value in m.items():
        assert d["abad"][name] == (value if math.isfinite(value) else None)


def test_metrics_keys_are_the_keys_of_metrics_json(tmp_path):
    r = run_scenario(load_scenario(bundled("reach_q1")))
    write_artifacts(r, tmp_path)
    written = json.loads((tmp_path / "metrics.json").read_text())
    for joint, series in r.series.items():
        keys = list(compute_metrics(series))
        assert keys == ["mse", "rmse", "max_abs_error", "steady_state_error", "settle_time"]
        assert list(written[joint]) == keys


def test_settle_time_meaning():
    r = run_scenario(load_scenario(bundled("reach_q2")))
    for joint, m in r.metrics.items():
        se = r.series[joint]
        if math.isinf(m["settle_time"]):
            assert abs(se.e[-1]) > 0.03
        else:
            assert np.all(np.abs(se.e[se.t >= m["settle_time"]]) <= 0.03)


def test_csv_round_trip_bit_exact(tmp_path):
    r = run_scenario(load_scenario(bundled("reach_q1")))
    paths = export_csv(r, tmp_path)
    assert sorted(p.name for p in paths) == ["abad.csv", "fe.csv"]
    for path in paths:
        joint = path.stem
        back = load_series_csv(path)
        for field in ("t", "theta_d", "theta_meas", "u", "e"):
            assert np.array_equal(getattr(back, field), getattr(r.series[joint], field))
    raw = (tmp_path / "abad.csv").read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "t,theta_d,theta_meas,u,e"
    assert len(lines) == 156  # header + 155 samples


def test_csv_export_of_empty_series_is_header_only(tmp_path):
    empty = JointSeries(
        t=np.array([]),
        theta_d=np.array([]),
        theta_meas=np.array([]),
        u=np.array([]),
        e=np.array([]),
    )
    result = SimResult(series={"abad": empty}, metrics={})
    (path,) = export_csv(result, tmp_path)
    assert path.read_text() == "t,theta_d,theta_meas,u,e\n"


@pytest.mark.parametrize("export", ["write_artifacts", "export_csv", "export_plot"])
@pytest.mark.parametrize("joint", ["../escaped", 'a" onload="x'])
def test_export_rejects_a_joint_name_that_a_scenario_rejects(tmp_path, joint, export):
    # SimResult and JointSeries are public, so the exporters can be handed a name
    # that no Scenario checked: here a file name outside out/ or markup in an SVG id
    js = JointSeries(*np.zeros((5, 3)))
    result = SimResult(series={"abad": js, joint: js}, metrics={})
    out = tmp_path / "out"
    calls = {
        "write_artifacts": lambda: write_artifacts(result, out),
        "export_csv": lambda: export_csv(result, out),
        "export_plot": lambda: export_plot(result, out / "plot.svg"),
    }
    message = "^" + re.escape(f"joint name {joint!r} must match [A-Za-z0-9_-]+") + "$"
    with pytest.raises(ValueError, match=message):
        calls[export]()
    assert list(tmp_path.rglob("*")) == []


@pytest.mark.parametrize("caller", ["Scenario", "export_csv", "export_plot"])
@pytest.mark.parametrize("joint", [1, b"abad"], ids=["int", "bytes"])
def test_a_joint_name_that_is_not_a_str_is_named_in_a_type_error(tmp_path, joint, caller):
    # the name check reports the key and its type itself, not re's "expected
    # string or bytes-like object", and before any file is written
    js = JointSeries(*np.zeros((5, 3)))
    result = SimResult(series={"abad": js, joint: js}, metrics={})
    out = tmp_path / "out"
    calls = {
        "Scenario": lambda: Scenario(joints={"abad": ABAD_JOINT, joint: ABAD_JOINT}),
        "export_csv": lambda: export_csv(result, out),
        "export_plot": lambda: export_plot(result, out / "plot.svg"),
    }
    message = f"joint name {joint!r} must be a str matching [A-Za-z0-9_-]+, got {type(joint).__name__}"
    with pytest.raises(TypeError, match="^" + re.escape(message) + "$"):
        calls[caller]()
    assert list(tmp_path.rglob("*")) == []


def test_concurrent_exports_to_one_path_publish_whole_files(tmp_path):
    """Writers that export to the same path at once each succeed, and the file
    is always one writer's whole text; no temp file is left behind.

    Each writer has a temp file of its own. With one shared temp name a writer
    truncated another's temp file, published a file still being written, and
    removed the other's temp file under it ("cannot write").
    """
    n = 4000
    results = [
        SimResult(series={"abad": JointSeries(*np.full((5, n), float(w)))}, metrics={})
        for w in range(4)
    ]
    header = "t,theta_d,theta_meas,u,e\n"
    whole = {header + f"{w}.0,{w}.0,{w}.0,{w}.0,{w}.0\n" * n for w in range(4)}
    errors, torn = [], []

    def writer(result):
        for _ in range(25):
            try:
                (path,) = export_csv(result, tmp_path)
                text = path.read_text()
            except OSError as ex:
                errors.append(str(ex))
                continue
            if text not in whole:
                torn.append(len(text))

    threads = [threading.Thread(target=writer, args=(r,)) for r in results]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
    assert not any(th.is_alive() for th in threads)
    assert errors == [] and torn == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["abad.csv"]


def test_csv_loader_rejects_wrong_header(tmp_path):
    bad = tmp_path / "x.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        load_series_csv(bad)


@pytest.mark.parametrize(
    "row, message",
    [
        ("0.065,0.1,0.1,50.0,0.0,7.0", "expected 5 values, got 6"),
        ("0.065,0.1,0.1", "expected 5 values, got 3"),
        ("0.065,0.1,abc,50.0,0.0", "could not convert string to float: 'abc'"),
    ],
    ids=["six-values", "three-values", "non-numeric"],
)
def test_csv_loader_names_file_and_line_of_a_bad_row(tmp_path, row, message):
    bad = tmp_path / "abad.csv"
    bad.write_text(f"t,theta_d,theta_meas,u,e\n0.0,0.1,0.1,50.0,0.0\n\n{row}\n")
    with pytest.raises(ValueError) as info:
        load_series_csv(bad)
    assert str(info.value) == f"{bad}: line 4: {message}"


def test_plot_is_well_formed_svg(tmp_path):
    r = run_scenario(load_scenario(bundled("reach_q5")))
    path = export_plot(r, tmp_path / "plot.svg")
    root = ET.fromstring(path.read_text())
    assert root.tag.endswith("svg")
    ids = [g.get("id") for g in root.iter() if g.get("id")]
    assert "panel-abad" in ids and "panel-fe" in ids


def test_plot_handles_constant_series(tmp_path):
    s = Scenario(
        joints={
            "abad": JointConfig(
                plant=presets.ABAD_PLANT,
                design=presets.ABAD_DESIGN,
                limits=JointLimits(-1.0, 1.0),
                saturation=presets.DEFAULT_SATURATION,
                reference=QuinticRef(0.0, 0.0, 5.0),
            )
        },
        duration=5.0,
    )
    path = export_plot(run_scenario(s), tmp_path / "flat.svg")
    ET.fromstring(path.read_text())


def test_render_svg_rejects_empty_input():
    with pytest.raises(ValueError, match="nothing to plot"):
        render_svg({})


def _finite(lo=None, hi=None):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


def _number(lo=None, hi=None):
    """A finite float in [lo, hi] as a float, an np.float64, an np.float32 or a rounded int; now and then a bool.

    A float32 or an int may fall outside [lo, hi] and a bool is no number: the constructors decide.
    """
    x = _finite(lo, hi)
    forms = st.one_of(x, x.map(np.float64), x.filter(lambda v: abs(v) < 1e38).map(np.float32), x.map(round))
    return st.integers(0, 39).flatmap(lambda k: st.booleans() if k == 0 else forms)


_POSITIVE = _number(1e-6, 1e6)


def _built(cls, *args, **kwargs):
    """st.builds(cls, ...), with the draw rejected where the constructor refuses it: there is no file."""
    def build(*a, **kw):
        try:
            return cls(*a, **kw)
        except (TypeError, ValueError):
            reject()
    return st.builds(build, *args, **kwargs)


def _interval(cls):
    return _built(lambda lo, width: cls(lo, lo + width), _number(-1e3, 1e3), _number(1e-3, 1e3))


_DEMO = (presets.scenario_dir() / "taught_demo.csv").resolve()
_JOINTS = st.builds(
    JointConfig,
    plant=_built(SecondOrderTf, _POSITIVE, _number(0.0, 1e6), _POSITIVE),
    design=_built(GpiDesign, _POSITIVE, _POSITIVE),
    limits=_interval(JointLimits),
    saturation=_interval(SaturationLimits),
    reference=st.one_of(
        _built(QuinticRef, _number(), _number(), _POSITIVE),
        _built(SineRef, _POSITIVE, _number(), _number()),
        st.builds(TeachRef, st.sampled_from([str(_DEMO), _DEMO]), st.booleans()),
    ),
    disturbance=st.none() | _built(DisturbanceSpec, _number(), _number(0.0, 1e6)),
)


def _scenario_or_none(joints, dt, extra, **kw):
    try:
        return Scenario(joints=joints, dt=dt, duration=dt + extra, **kw)
    except (TypeError, ValueError):
        return None  # the constructor refused it, so there is no file to round-trip


_SCENARIOS = st.builds(
    _scenario_or_none,
    joints=st.dictionaries(st.sampled_from(["abad", "fe"]), _JOINTS, min_size=1),
    dt=_number(1e-4, 1.0),
    extra=_number(0.0, 1e3),
    noise_amplitude=_number(0.0, 1.0),
    seed=st.integers(0, 2**63) | st.integers(0, 2**63 - 1).map(np.int64) | st.integers(0, 2**32 - 1).map(np.uint32)
    | st.booleans(),
    name=st.text(max_size=20),
)


def _numbers(spec):
    """(where, annotation, value) of each float or int field of a spec and of the specs inside it."""
    for name, hint in field_types(type(spec)).items():
        value = getattr(spec, name)
        if hint in (float, int):
            yield f"{type(spec).__name__}.{name}", hint, value
        for inner in value.values() if isinstance(value, Mapping) else [value]:
            if dataclasses.is_dataclass(inner):
                yield from _numbers(inner)


@settings(deadline=None)
@given(_SCENARIOS)
def test_scenario_json_round_trip(s):
    # if the constructor accepts a scenario, it holds plain numbers and its file round-trips
    assume(s is not None)
    assert [(where, type(value)) for where, hint, value in _numbers(s) if type(value) is not hint] == []
    assert scenario_from_dict(json.loads(json.dumps(scenario_to_dict(s)))) == s


def test_missing_teach_file_is_reported(tmp_path):
    # TeachRef(file="nope.csv") raises at once, so the file is written as JSON
    data = scenario_to_dict(default_scenario(QuinticRef(0.1745, 0.6981, 5.0), duration=5.0))
    data["joints"]["abad"]["reference"] = {"kind": "teach", "file": "nope.csv"}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="teach file not found"):
        load_scenario(path)


def test_bundled_scenarios_all_load(tmp_path):
    names = presets.bundled_scenarios()
    assert len(names) == 15
    assert "reach_q1" in names and "sine_f" in names and "teach_repeat" in names
    for name in names:
        s = load_scenario(bundled(name))
        assert s.n_samples >= 2
        assert s.name == name
        assert load_scenario(save_scenario(s, tmp_path / f"{name}.json")) == s


def test_bundled_teach_repeat_tracks():
    r = run_scenario(load_scenario(bundled("teach_repeat")))
    m = r.metrics["abad"]
    assert m["max_abs_error"] < 0.005
    assert m["rmse"] < 0.002
    assert m["settle_time"] == 0.0
    # the replayed demonstration never drives the pumps to either limit
    u = r.series["abad"].u
    assert np.min(u) > 0.0 and np.max(u) < 100.0


def test_sine_valleys_flatten_and_recover():
    r = run_scenario(load_scenario(bundled("sine_a")))
    se = r.series["abad"]
    flat = se.theta_d == 0.1745
    assert np.sum(flat) > 500

    # first valley: the run starts parked on the floor and stays converged
    idx = np.where(flat)[0]
    gap = np.where(np.diff(idx) > 1)[0]
    first_block = idx[: gap[0] + 1] if len(gap) else idx
    assert np.max(np.abs(se.e[first_block])) < 1e-3

    # later valley entries overshoot downward: the pumps can only release,
    # so the command rides the lower bound while the error bleeds off
    tail_block = idx[idx > first_block[-1]]
    assert len(tail_block) > 0
    assert np.min(se.u[tail_block]) == 0.0
    assert np.max(np.abs(se.e[tail_block])) < 0.15
