import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shouldersim import (
    DisturbanceSpec,
    GpiDesign,
    JointConfig,
    JointLimits,
    JointSeries,
    QuinticRef,
    RefSample,
    SaturationLimits,
    Scenario,
    SecondOrderTf,
    SimResult,
    SineRef,
    TeachRef,
    build_reference,
    compute_metrics,
    export_csv,
    export_plot,
    feedforward,
    load_scenario,
    load_series_csv,
    presets,
    run_scenario,
    save_scenario,
)
from shouldersim.harness import metrics_to_dict, scenario_from_dict, scenario_to_dict
from shouldersim.plotting import render_svg


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


def test_sample_count_for_ten_second_run():
    s = default_scenario(QuinticRef(0.1745, 0.6981, 10.0))
    assert s.n_samples == 155


def test_reference_builders():
    refs = build_reference(QuinticRef(0.2, 0.9, 5.0), dt=0.065, n=120)
    assert [len(x) for x in refs] == [120, 120, 120]
    assert refs.theta_d[0] == pytest.approx(0.2)
    # beyond the quintic duration the reference parks at the target
    assert refs.theta_d[-1] == pytest.approx(0.9)
    assert refs.theta_dot_d[-1] == pytest.approx(0.0)

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
    assert np.all(refs.theta_d[76:] == refs.theta_d[76])
    assert np.all(refs.theta_dot_d[77:] == 0.0) and np.all(refs.theta_ddot_d[77:] == 0.0)
    # a run shorter than the demo takes its first n samples
    head = build_reference(TeachRef(file=str(demo)), dt=0.065, n=10)
    assert all(np.array_equal(h, r[:10]) for h, r in zip(head, refs))


def test_run_quintic_reach_tracks():
    r = run_scenario(load_scenario(bundled("reach_q1")))
    m = r.metrics["abad"]
    assert set(r.series) == {"abad", "fe"}
    assert len(r.series["abad"].t) == r.scenario.n_samples
    assert abs(r.series["abad"].e[-1]) < 5e-4
    assert m.max_abs_error < 1e-3
    assert m.settle_time == 0.0


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
    u_d = feedforward(presets.ABAD_PLANT, RefSample(0.5, 0.0, 0.0))
    assert np.max(np.abs(se.e)) < 2e-3
    assert abs(se.e[-1]) < 1e-9
    assert abs(se.u[-1] - u_d) < 1e-9


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


def test_metrics_zero_error():
    t = np.arange(50) * 0.065
    zeros = np.zeros(50)
    series = JointSeries(t=t, theta_d=zeros + 0.3, theta_meas=zeros + 0.3, u=zeros, e=zeros)
    m = compute_metrics(SimResult(scenario=None, series={"abad": series}, metrics={}))["abad"]
    assert m.mse == 0.0 and m.rmse == 0.0
    assert m.max_abs_error == 0.0
    assert m.steady_state_error == 0.0
    assert m.settle_time == 0.0


def test_metrics_constant_offset():
    t = np.arange(50) * 0.065
    e = np.full(50, 0.1)
    series = JointSeries(t=t, theta_d=np.zeros(50), theta_meas=e, u=np.zeros(50), e=e)
    m = compute_metrics(SimResult(scenario=None, series={"abad": series}, metrics={}))["abad"]
    assert m.rmse == pytest.approx(0.1)
    assert m.mse == pytest.approx(0.01)
    assert m.max_abs_error == pytest.approx(0.1)
    assert m.steady_state_error == pytest.approx(0.1)
    assert math.isinf(m.settle_time)
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
        m = compute_metrics(SimResult(scenario=None, series={"j": series}, metrics={}))["j"]
        assert m.steady_state_error <= m.max_abs_error + 1e-15
        assert m.rmse <= m.max_abs_error + 1e-15
        assert m.rmse**2 == pytest.approx(m.mse)


def test_settle_time_meaning():
    r = run_scenario(load_scenario(bundled("reach_q2")))
    for joint, m in r.metrics.items():
        se = r.series[joint]
        if math.isinf(m.settle_time):
            assert abs(se.e[-1]) > 0.03
        else:
            assert np.all(np.abs(se.e[se.t >= m.settle_time]) <= 0.03)


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
    result = SimResult(scenario=None, series={"abad": empty}, metrics={})
    (path,) = export_csv(result, tmp_path)
    assert path.read_text() == "t,theta_d,theta_meas,u,e\n"


def test_csv_loader_rejects_wrong_header(tmp_path):
    bad = tmp_path / "x.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        load_series_csv(bad)


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
        render_svg([])


def _finite(lo=None, hi=None):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


_POSITIVE = _finite(1e-6, 1e6)


def _interval(cls):
    return st.builds(lambda lo, width: cls(lo, lo + width), _finite(-1e3, 1e3), _finite(1e-3, 1e3))


_JOINTS = st.builds(
    JointConfig,
    plant=st.builds(SecondOrderTf, _POSITIVE, _finite(0.0, 1e6), _POSITIVE),
    design=st.builds(GpiDesign, _POSITIVE, _POSITIVE),
    limits=_interval(JointLimits),
    saturation=_interval(SaturationLimits),
    reference=st.one_of(
        st.builds(QuinticRef, _finite(), _finite(), _POSITIVE),
        st.builds(SineRef, _POSITIVE, _finite(), _finite()),
        st.builds(
            TeachRef,
            st.just(str((presets.scenario_dir() / "taught_demo.csv").resolve())),
            st.booleans(),
        ),
    ),
    disturbance=st.none() | st.builds(DisturbanceSpec, _finite(), _finite(0.0, 1e6)),
)

_SCENARIOS = st.builds(
    lambda joints, dt, extra, **kw: Scenario(joints=joints, dt=dt, duration=dt + extra, **kw),
    joints=st.dictionaries(st.sampled_from(["abad", "fe"]), _JOINTS, min_size=1),
    dt=_finite(1e-4, 1.0),
    extra=_finite(0.0, 1e3),
    noise_amplitude=_finite(0.0, 1.0),
    seed=st.integers(0, 2**63),
    name=st.text(max_size=20),
)


@settings(deadline=None)
@given(_SCENARIOS)
def test_scenario_json_round_trip(s):
    assert scenario_from_dict(json.loads(json.dumps(scenario_to_dict(s)))) == s


def test_missing_teach_file_is_reported(tmp_path):
    s = default_scenario(TeachRef(file="nope.csv"), duration=5.0)
    path = tmp_path / "scenario.json"
    save_scenario(s, path)
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
    assert m.max_abs_error < 0.005
    assert m.rmse < 0.002
    assert m.settle_time == 0.0
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
