import argparse
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import shouldersim
from shouldersim import IoRecord, load_series_csv, multisine_profile, presets, simulate_record, trajectory
from shouldersim.cli import build_parser, main
from shouldersim.kinematics import forward

SCENARIOS = presets.scenario_dir()
README = Path(__file__).resolve().parents[1] / "README.md"


def printed_value(out: str, key: str) -> float:
    for line in out.splitlines():
        if line.startswith(f"{key} ="):
            return float(line.split("=", 1)[1].split()[0])
    raise AssertionError(f"no line for {key!r} in output:\n{out}")


def test_gains_subcommand(capsys):
    rc = main(
        [
            "gains",
            "--xi", "0.9", "--wn", "6.1",
            "--g0", "0.0005725", "--g1", "0.05725", "--g2", "0.044",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert printed_value(out, "k0") == pytest.approx(1384.5841, rel=1e-9)
    assert printed_value(out, "k1") == pytest.approx(816.167879, rel=1e-6)
    assert printed_value(out, "k2") == pytest.approx(193.6824675625, rel=1e-9)
    assert printed_value(out, "k3") == pytest.approx(21.90275, rel=1e-9)
    assert "closed-loop poles:" in out
    assert "-5.490000" in out


def test_gains_rejects_weak_damping(capsys):
    rc = main(
        [
            "gains",
            "--xi", "0.05", "--wn", "1.0",
            "--g0", "0.0003665", "--g1", "0.213", "--g2", "0.04079",
        ]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")
    assert "unstable compensator denominator" in err


def test_fk_arm_along_x(capsys):
    rc = main(["fk", "--theta1", "0", "--theta2", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert printed_value(out, "x") == pytest.approx(0.14, abs=1e-6)
    assert printed_value(out, "y") == pytest.approx(0.0, abs=1e-6)
    assert printed_value(out, "z") == pytest.approx(0.0, abs=1e-6)


def test_ik_round_trips_fk(capsys):
    x, y, z = forward(0.6981, 0.3491)
    rc = main(["ik", "--x", repr(x), "--y", repr(y), "--z", repr(z)])
    out = capsys.readouterr().out
    assert rc == 0
    assert printed_value(out, "theta_s1") == pytest.approx(0.6981, abs=1e-6)
    assert printed_value(out, "theta_s2") == pytest.approx(0.3491, abs=1e-6)


def test_ik_unreachable_point(capsys):
    rc = main(["ik", "--x", "0.05", "--y", "0", "--z", "-0.2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")
    assert "unreachable" in err


def test_ik_rejects_a_point_off_the_arm_sphere(capsys):
    # the wrist of theta_s1 = theta_s2 = 0 is (0.14, 0, 0), 9.86 m from (10, 0, 0)
    err = one_line_error(capsys, ["ik", "--x", "10", "--y", "0", "--z", "0"]).err
    assert err.startswith("error: unreachable: |p| = 10 m, but the wrist lies on the sphere")
    # the README example is typed to 4 decimals, 4.4e-5 m off the sphere
    assert main(["ik", "--x", "0.1008", "--y", "0.0846", "--z", "-0.0479"]) == 0
    assert printed_value(capsys.readouterr().out, "theta_s1") == pytest.approx(0.698241, abs=1e-6)


def test_ik_rejects_a_point_off_the_sphere_of_an_arm_shorter_than_its_default_tolerance(capsys):
    # |p| = 7.07e-5 m is 6e-5 m off a 1e-5 m arm: within 1e-4 m, but not within 1 % of l_a
    err = one_line_error(capsys, ["ik", "--x", "0", "--y", "0.00005", "--z=-0.00005", "--la", "0.00001"]).err
    assert err == (
        "error: unreachable: |p| = 7.07107e-05 m, but the wrist lies on the sphere "
        "of radius l_a = 1e-05 m (tolerance 1e-07 m)\n"
    )


_FK = ["fk", "--theta1", "0", "--theta2", "0"]
_IK = ["ik", "--x", "0.14", "--y", "0", "--z", "0"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fk", "--theta1", "nan", "--theta2", "0"], "shoulder angles must be finite"),
        (["fk", "--theta1", "0", "--theta2=-inf"], "shoulder angles must be finite"),
        (["fk", "--theta1", "nan", "--theta2", "0", "--la", "0"], "shoulder angles must be finite"),
        (["ik", "--x", "nan", "--y", "0", "--z", "0"], "wrist position must be finite"),
        (["ik", "--x", "0", "--y", "0", "--z", "nan", "--la", "0"], "wrist position must be finite"),
    ]
    + [
        (argv + ["--la", la], f"l_a must be > 0, got {float(la)!r}")
        for la in ("0", "-1", "nan", "inf")
        for argv in (_FK, _IK)
    ],
)
def test_kinematics_rejects_bad_input_in_one_line(capsys, argv, message):
    # the angles (or the position) are checked before the arm length
    captured = one_line_error(capsys, argv)
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_run_produces_artifacts(tmp_path, capsys):
    rc = main(["run", "--scenario", str(SCENARIOS / "reach_q1.json"), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "scenario reach_q1: 155 samples per joint" in out
    for name in ("abad.csv", "fe.csv", "plot.svg", "metrics.json"):
        assert (tmp_path / name).exists()
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert set(metrics) == {"abad", "fe"}
    for joint in metrics.values():
        assert set(joint) == {"mse", "rmse", "max_abs_error", "steady_state_error", "settle_time"}


def test_run_leaves_a_foreign_tmp_file_alone(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    foreign = out / "abad.csv.tmp"
    foreign.write_text("another writer's data\n")
    rc = main(["run", "--scenario", str(SCENARIOS / "reach_q1.json"), "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    assert foreign.read_text() == "another writer's data\n"
    assert sorted(p.name for p in out.iterdir()) == ["abad.csv", "abad.csv.tmp", "fe.csv", "metrics.json", "plot.svg"]


def test_run_outputs_get_the_mode_that_open_gives(tmp_path, capsys):
    """Outputs are created like open() creates files (mode from the umask), not 0600."""
    probe = tmp_path / "probe"
    probe.write_text("")
    rc = main(["run", "--scenario", str(SCENARIOS / "reach_q1.json"), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert rc == 0
    for path in (tmp_path / "out").iterdir():
        assert path.stat().st_mode == probe.stat().st_mode, path.name


def test_run_failed_write_leaves_no_temp_file(tmp_path, capsys):
    (tmp_path / "plot.svg").mkdir()
    err = one_line_error(capsys, ["run", "--scenario", str(SCENARIOS / "reach_q1.json"), "--out", str(tmp_path)]).err
    assert f"cannot write {tmp_path / 'plot.svg'}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["abad.csv", "fe.csv", "plot.svg"]


def test_run_missing_scenario(tmp_path, capsys):
    rc = main(["run", "--scenario", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")


def test_run_rejects_non_finite_noise(tmp_path, capsys):
    data = json.loads((SCENARIOS / "reach_q1.json").read_text())
    data["noise_amplitude"] = float("inf")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))  # written as the JSON token Infinity
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: Scenario.noise_amplitude must be finite, got inf\n"


def test_run_rejects_a_noise_amplitude_whose_range_overflows(tmp_path, capsys):
    # uniform(-a, a) needs a finite width 2a
    err = run_edited_scenario(tmp_path, capsys, lambda d: d.update(noise_amplitude=1e308)).err
    assert err == f"error: noise amplitude must be in [0, {sys.float_info.max / 2!r}], got 1e+308\n"
    assert not (tmp_path / "out").exists()


def test_run_writes_strict_json_metrics_when_the_error_overflows(tmp_path, capsys):
    data = json.loads((SCENARIOS / "reach_q1.json").read_text())
    data["noise_amplitude"] = 1e200  # e * e overflows: mse and rmse are infinite
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert capsys.readouterr().err == ""

    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text(), parse_constant=reject)
    for m in metrics.values():
        assert m["mse"] is None and m["rmse"] is None and m["settle_time"] is None
        assert m["max_abs_error"] > 1e199


def test_sysid_recovers_plant(tmp_path, capsys):
    truth = presets.ABAD_PLANT
    n = 2000
    u = multisine_profile(n, seed=3)
    theta = simulate_record(truth, IoRecord(u=u, theta=np.zeros(n), ts=0.065))
    path = tmp_path / "record.csv"
    lines = ["t,u,theta"]
    for k in range(n):
        lines.append(f"{k * 0.065!r},{float(u[k])!r},{float(theta[k])!r}")
    path.write_text("\n".join(lines) + "\n")

    rc = main(["sysid", "--csv", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert printed_value(out, "gamma0") == pytest.approx(truth.gamma0, rel=0.01)
    assert printed_value(out, "gamma1") == pytest.approx(truth.gamma1, rel=0.01)
    assert printed_value(out, "gamma2") == pytest.approx(truth.gamma2, rel=0.01)
    assert printed_value(out, "fit") > 99.0


@pytest.mark.parametrize("joint", ["abad", "fe"])
def test_sysid_decimates_a_noisy_record_that_fails_at_full_rate(tmp_path, capsys, joint):
    # criterion 8's noise level: 7,000 samples at 0.065 s with Gaussian output
    # noise at 2 % of the clean output's standard deviation
    truth = {"abad": presets.ABAD_PLANT, "fe": presets.FE_PLANT}[joint]
    ts, n = 0.065, 7000
    for seed in range(3):
        u = multisine_profile(n, seed=seed)
        clean = simulate_record(truth, IoRecord(u=u, theta=np.zeros(n), ts=ts))
        theta = clean + np.random.default_rng(seed).normal(0.0, 0.02 * float(np.std(clean)), size=n)
        path = tmp_path / f"record{seed}.csv"
        rows = "".join(f"{k * ts!r},{float(u[k])!r},{float(theta[k])!r}\n" for k in range(n))
        path.write_text("t,u,theta\n" + rows)
        rc = main(["sysid", "--csv", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("decimated by ")
        assert printed_value(out, "fit") >= 89.0


def test_teach_summary(capsys):
    rc = main(["teach", "--record", str(SCENARIOS / "taught_demo.csv")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "demonstration: 501 samples over 5.000 s" in out


def test_teach_without_out_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["teach", "--record", str(SCENARIOS / "taught_demo.csv"), "--smooth"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert captured.out == "demonstration: 501 samples over 5.000 s, angle range [0.5000, 0.5800] rad\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, unrecognized",
    [
        (["sysid", "--csv", "record.csv", "--ts", "0.065"], "--ts 0.065"),
        (["teach", "--record", "demo.csv", "--repeat", "--out", "o"], "--repeat"),
    ],
    ids=["sysid-ts", "teach-repeat"],
)
def test_the_removed_period_and_replay_options_are_usage_errors(capsys, argv, unrecognized):
    # the period is the record's first t step, and --out alone asks for the replay
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {unrecognized}\n")


def test_teach_repeat_writes_artifacts(tmp_path, capsys):
    rc = main(
        [
            "teach",
            "--record", str(SCENARIOS / "taught_demo.csv"),
            "--out", str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "repeat: rmse" in out
    for name in ("abad.csv", "plot.svg", "metrics.json"):
        assert (tmp_path / name).exists()
        assert f"wrote {tmp_path / name}" in out
    assert set(json.loads((tmp_path / "metrics.json").read_text())) == {"abad"}


def test_teach_repeat_reads_the_demonstration_once(tmp_path, capsys):
    mine = tmp_path / "mine.csv"
    shutil.copy(SCENARIOS / "taught_demo.csv", mine)
    reader = mock.patch.object(trajectory, "read_csv_rows", wraps=trajectory.read_csv_rows)
    with reader as read:
        rc = main(["teach", "--record", str(mine), "--out", str(tmp_path / "out")])
    assert rc == 0, capsys.readouterr().err
    reads = Counter(Path(call.args[0]).resolve() for call in read.call_args_list)
    # the user's file once; the bundled demo not at all
    assert reads == Counter({mine.resolve(): 1, (SCENARIOS / "taught_demo.csv").resolve(): 0})


def one_line_error(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1, captured.err
    return captured


def test_teach_rejects_short_row(tmp_path, capsys):
    path = tmp_path / "demo.csv"
    path.write_text("t,theta,theta_dot\n0.0,0.5,0.0\n0.1,0.6\n")
    err = one_line_error(capsys, ["teach", "--record", str(path)]).err
    assert f"{path}: line 3: expected 3 values, got 2" in err


def test_sysid_rejects_short_row(tmp_path, capsys):
    path = tmp_path / "record.csv"
    path.write_text("t,u,theta\n0.0,50\n0.065,50,0.0\n")
    err = one_line_error(capsys, ["sysid", "--csv", str(path)]).err
    assert f"{path}: line 2: expected 3 values, got 2" in err


def test_teach_rejects_non_numeric_value(tmp_path, capsys):
    path = tmp_path / "demo.csv"
    path.write_text("t,theta,theta_dot\n0.0,0.5,0.0\n0.1,abc,0.0\n")
    err = one_line_error(capsys, ["teach", "--record", str(path)]).err
    assert f"error: {path}: line 3: could not convert string to float: 'abc'" in err


def test_sysid_rejects_non_numeric_value(tmp_path, capsys):
    path = tmp_path / "record.csv"
    path.write_text("t,u,theta\n0.0,50,0.0\n0.065,50,x1\n")
    err = one_line_error(capsys, ["sysid", "--csv", str(path)]).err
    assert f"error: {path}: line 3: could not convert string to float: 'x1'" in err


def write_record(path, times, u, theta):
    rows = "".join(f"{t!r},{float(u_k)!r},{float(theta_k)!r}\n" for t, u_k, theta_k in zip(times, u, theta))
    path.write_text("t,u,theta\n" + rows)


def test_sysid_rejects_record_sampled_at_another_period(tmp_path, capsys):
    # the first t step is the period: a record sampled at 0.13 s identifies at
    # 0.13 s, and one whose step changes partway is rejected at that line
    n = 2000
    u = multisine_profile(n, seed=3)
    theta = simulate_record(presets.ABAD_PLANT, IoRecord(u=u, theta=np.zeros(n), ts=0.13))
    path = tmp_path / "record.csv"
    times = [k * 0.13 for k in range(n)]
    write_record(path, times, u, theta)
    rc = main(["sysid", "--csv", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert printed_value(out, "gamma0") == pytest.approx(presets.ABAD_PLANT.gamma0, rel=0.01)
    times = [k * 0.065 for k in range(1000)] + [999 * 0.065 + k * 0.13 for k in range(1, n - 999)]
    write_record(path, times, u, theta)
    err = one_line_error(capsys, ["sysid", "--csv", str(path)]).err
    step = times[1000] - times[999]
    assert err == f"error: {path}: line 1002: t step {step!r} s differs from the first step, ts = 0.065 s\n"


def test_sysid_rejects_a_period_whose_square_underflows(tmp_path, capsys):
    # every block average is as short a period: 2e-170 to 1e-169 s square to 0 too
    ts = 1e-170
    u = multisine_profile(200, seed=3)
    theta = simulate_record(presets.ABAD_PLANT, IoRecord(u=u, theta=np.zeros(200), ts=0.065))
    path = tmp_path / "record.csv"
    write_record(path, [k * ts for k in range(200)], u, theta)
    err = one_line_error(capsys, ["sysid", "--csv", str(path)]).err
    assert err == (
        "error: no block average of m = 1, 2, 5, 10 samples gave a valid plant; at full rate: "
        "ts = 1e-170 is too small: ts * ts / 4 * (1 - a1 + a2) underflows to 0\n"
    )


def test_sysid_names_the_block_averages_it_tried_on_a_constant_record(tmp_path, capsys):
    path = tmp_path / "record.csv"
    write_record(path, [k * 0.065 for k in range(200)], np.full(200, 50.0), np.full(200, 0.3))
    err = one_line_error(capsys, ["sysid", "--csv", str(path)]).err
    assert err == (
        "error: no block average of m = 1, 2, 5, 10 samples gave a valid plant; at full rate: insufficient excitation\n"
    )


def test_teach_repeat_rejects_demo_shorter_than_one_tick(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("t,theta,theta_dot\n0.0,0.3,0.0\n0.01,0.31,0.1\n")
    err = one_line_error(capsys, ["teach", "--record", str(path), "--out", str(tmp_path / "o")]).err
    assert "demonstration lasts 0.01 s, shorter than one tick of 0.065 s" in err
    assert not (tmp_path / "o").exists()


def run_edited_scenario(tmp_path, capsys, edit, name="reach_q1"):
    data = json.loads((SCENARIOS / f"{name}.json").read_text())
    edit(data)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return one_line_error(capsys, ["run", "--scenario", str(path), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize(
    "seed, message",
    [
        (-1, "seed must be a non-negative integer, got -1"),
        (1.5, "Scenario.seed: expected an integer, got 1.5"),
        ("3", "Scenario.seed: expected an integer, got '3'"),
        (True, "Scenario.seed: expected an integer, got True"),
    ],
)
def test_run_rejects_bad_seed(tmp_path, capsys, seed, message):
    err = run_edited_scenario(tmp_path, capsys, lambda d: d.update(seed=seed)).err
    assert message in err
    assert not (tmp_path / "out").exists()


# Only sizes that numpy refuses at once (PiB and beyond) are tried, so nothing
# is really allocated.
@pytest.mark.parametrize(
    "changes, samples",
    [
        ({"duration": 1e15}, "1.54e+16"),
        ({"duration": 1e300}, "1.54e+301"),
        ({"dt": 1e-300}, "1e+301"),
        ({"duration": 1e300, "dt": 1e-300}, "inf"),
    ],
    ids=["PiB", "duration-1e300", "dt-1e-300", "ratio-overflows"],
)
def test_run_too_long_to_allocate_is_one_error_line(tmp_path, capsys, changes, samples):
    err = run_edited_scenario(tmp_path, capsys, lambda d: d.update(changes)).err
    assert err == f"error: {samples} samples per joint (duration / dt) are too many to allocate\n"
    assert not (tmp_path / "out").exists()


def _set_joint_field(field, value):
    return lambda d: d["joints"]["abad"].update({field: value})


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(joints=[]), "Scenario.joints: expected an object, got []"),
        (lambda d: d.update(joints="x"), "Scenario.joints: expected an object, got 'x'"),
        (lambda d: d["joints"].update(abad=3), "joint abad: expected an object, got 3"),
        (_set_joint_field("plant", [1, 2]), "joint abad: JointConfig.plant: expected an object, got [1, 2]"),
        (_set_joint_field("reference", [1]), "joint abad: JointConfig.reference: expected an object, got [1]"),
        (_set_joint_field("disturbance", "x"), "joint abad: JointConfig.disturbance: expected an object, got 'x'"),
    ],
    ids=["joints-list", "joints-str", "joint-int", "plant-list", "reference-list", "disturbance-str"],
)
def test_run_rejects_non_object_value(tmp_path, capsys, edit, message):
    err = run_edited_scenario(tmp_path, capsys, edit).err
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def _edit_joint(*path, **changes):
    def edit(d):
        node = d["joints"]["abad"]
        for key in path:
            node = node[key]
        node.update(changes)
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(noise_amplitde=0.01), "Scenario: unknown field 'noise_amplitde'"),
        (_edit_joint(gains={}), "joint abad: JointConfig: unknown field 'gains'"),
        (_edit_joint("plant", gamma3=1.0), "joint abad: SecondOrderTf: unknown field 'gamma3'"),
        (_edit_joint("reference", Tf=5.0), "joint abad: QuinticRef: unknown field 'Tf'"),
        (lambda d: d.update(name=None), "Scenario.name: expected a string, got None"),
        (lambda d: d.update(name=5), "Scenario.name: expected a string, got 5"),
        (_set_joint_field("reference", {"kind": "teach", "file": 5}), "joint abad: TeachRef.file: expected a string, got 5"),
        (lambda d: d["joints"]["abad"].pop("plant"), "joint abad: JointConfig.plant: required field missing"),
        (lambda d: d["joints"]["abad"]["reference"].pop("T"), "joint abad: QuinticRef.T: required field missing"),
    ],
    ids=[
        "unknown-top", "unknown-joint", "unknown-plant", "unknown-reference",
        "name-null", "name-int", "file-int", "missing-plant", "missing-T",
    ],
)
def test_run_rejects_malformed_field(tmp_path, capsys, edit, message):
    err = run_edited_scenario(tmp_path, capsys, edit).err
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def _edit_fe(part, **changes):
    return lambda d: d["joints"]["fe"][part].update(changes)


@pytest.mark.parametrize(
    "edit, message",
    [
        (_edit_fe("plant", gamma0=-1), "joint fe: gamma0 must be > 0, got -1.0"),
        (_edit_fe("plant", gamma0="x"), "joint fe: SecondOrderTf.gamma0: expected a number, got 'x'"),
        (
            _edit_fe("reference", T=0),
            "joint fe: quintic reference needs finite values and T > 0, "
            "got QuinticRef(theta0=0.1745, thetaf=0.3491, T=0.0)",
        ),
    ],
    ids=["gamma0-negative", "gamma0-string", "T-zero"],
)
def test_run_names_the_joint_of_a_scenario_error(tmp_path, capsys, edit, message):
    err = run_edited_scenario(tmp_path, capsys, edit, name="reach_q5").err
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_run_rejects_an_integer_too_large_for_a_float(tmp_path, capsys):
    # json reads the 401-digit gamma0 as a Python int, which float() cannot hold
    err = run_edited_scenario(tmp_path, capsys, _edit_joint("plant", gamma0=10**400)).err
    assert err == "error: joint abad: SecondOrderTf.gamma0 must be finite, got a number too large for a float\n"
    assert not (tmp_path / "out").exists()


def test_run_rejects_a_quintic_whose_square_duration_underflows(tmp_path, capsys):
    err = run_edited_scenario(tmp_path, capsys, _edit_fe("reference", T=1e-300), name="reach_q5").err
    assert err == "error: joint fe: quintic reference T = 1e-300 is too small: T * T underflows to 0\n"
    assert not (tmp_path / "out").exists()


def test_run_rejects_a_quintic_whose_acceleration_scale_overflows(tmp_path, capsys):
    # 60 * d / (T * T) overflows to inf: the file is rejected when loaded, naming T
    err = run_edited_scenario(tmp_path, capsys, _edit_fe("reference", T=1e-161), name="reach_q5").err
    assert err == (
        "error: joint fe: quintic reference T = 1e-161 is too small for a 0.1746 rad move: "
        "30 * d / T or 60 * d / (T * T) overflows\n"
    )
    assert not (tmp_path / "out").exists()


def _run_with_fe_teach(tmp_path, capsys, rows):
    """Run reach_q5 with a demonstration of rows as fe's reference; returns its exit code."""
    demo = tmp_path / "demo.csv"
    demo.write_text("t,theta,theta_dot\n" + "".join(f"{t!r},{theta!r},{rate!r}\n" for t, theta, rate in rows))
    data = json.loads((SCENARIOS / "reach_q5.json").read_text())
    data["joints"]["fe"]["reference"] = {"kind": "teach", "file": str(demo)}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert capsys.readouterr().err == ""
    return rc


def test_run_replays_only_the_first_ticks_of_a_demonstration_far_longer_than_the_run(tmp_path, capsys):
    # 1.5e16 ticks of 0.065 s: resampling the whole demonstration cannot be allocated
    assert _run_with_fe_teach(tmp_path, capsys, [(0.0, 0.3, 0.0), (1e15, 0.4, 0.0)]) == 0
    assert len(load_series_csv(tmp_path / "out" / "fe.csv").t) == 155


def test_run_replays_a_demonstration_whose_duration_overflows(tmp_path, capsys):
    # t[-1] - t[0] is infinite: the run's 155 ticks are still resampled
    assert _run_with_fe_teach(tmp_path, capsys, [(-1e308, 0.3, 0.0), (1e308, 0.4, 0.0)]) == 0


def test_run_with_negative_zero_noise_writes_the_bytes_of_zero_noise(tmp_path, capsys):
    outputs = []
    for amplitude in (0.0, -0.0):
        data = json.loads((SCENARIOS / "reach_q1.json").read_text())
        data["noise_amplitude"] = amplitude
        path = tmp_path / f"{amplitude!r}.json"
        path.write_text(json.dumps(data))
        out = tmp_path / f"out{amplitude!r}"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    capsys.readouterr()
    assert outputs[0] == outputs[1]


def test_run_names_the_joint_whose_teach_file_is_missing(tmp_path, capsys):
    def edit(d):
        d["joints"]["fe"]["reference"] = {"kind": "teach", "file": "nope.csv"}

    err = run_edited_scenario(tmp_path, capsys, edit, name="reach_q5").err
    assert err == f"error: joint fe: teach file not found: {tmp_path / 'nope.csv'}\n"


def test_run_names_the_joint_whose_teach_file_cannot_be_read(tmp_path, capsys):
    (tmp_path / "demo.csv").mkdir()

    def edit(d):
        d["joints"]["abad"]["reference"]["file"] = str(tmp_path / "demo.csv")

    err = run_edited_scenario(tmp_path, capsys, edit, name="teach_repeat").err
    assert err.startswith("error: joint abad: [Errno ") and str(tmp_path / "demo.csv") in err


@pytest.mark.parametrize("top", [[1, 2], "x", 3, None])
def test_run_rejects_non_object_file(tmp_path, capsys, top):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(top))
    err = one_line_error(capsys, ["run", "--scenario", str(path), "--out", str(tmp_path / "out")]).err
    assert err == f"error: Scenario: expected an object, got {top!r}\n"


@pytest.mark.parametrize("smooth", ["false", 0, None])
def test_run_rejects_non_boolean_smooth(tmp_path, capsys, smooth):
    def edit(d):
        d["joints"]["abad"]["reference"]["file"] = str(SCENARIOS / "taught_demo.csv")
        d["joints"]["abad"]["reference"]["smooth"] = smooth

    err = run_edited_scenario(tmp_path, capsys, edit, name="teach_repeat").err
    assert f"TeachRef.smooth: expected true or false, got {smooth!r}" in err


@pytest.mark.parametrize(
    "reference",
    [
        {"kind": "sine", "A": 1e300, "f": 1e200, "k": 0.0},
        {"kind": "quintic", "theta0": -1e308, "thetaf": 1e308, "T": 5.0},
    ],
    ids=["sine", "quintic"],
)
def test_run_rejects_overflowing_reference(tmp_path, capsys, reference):
    # a numpy RuntimeWarning would fail this test (warnings are errors)
    err = run_edited_scenario(tmp_path, capsys, lambda d: d["joints"]["abad"].update(reference=reference)).err
    assert "joint abad: reference theta_" in err and "is not finite at tick" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("joint", ["../escaped", "a/b", "a<b", 'x"y', "", "."])
def test_run_rejects_unsafe_joint_name(tmp_path, capsys, joint):
    # joint names become file names and SVG markup: one that could leave
    # --out or break the XML is rejected before anything is written
    def rename(d):
        d["joints"][joint] = d["joints"].pop("abad")

    err = run_edited_scenario(tmp_path, capsys, rename).err
    assert err == f"error: joint name {joint!r} must match [A-Za-z0-9_-]+\n"
    assert [p.name for p in tmp_path.rglob("*")] == ["scenario.json"]


@pytest.mark.parametrize("xi, wn", [(0.9, 1e80), (1e200, 1e200), (1e300, 1e10)])
def test_gains_rejects_overflowing_design(capsys, xi, wn):
    argv = ["gains", "--xi", str(xi), "--wn", str(wn), "--g0", "0.0005725", "--g1", "0.05725", "--g2", "0.044"]
    err = one_line_error(capsys, argv).err
    assert err == f"error: target polynomial overflows for xi={xi!r}, wn={wn!r}\n"


@pytest.mark.parametrize("wn", ["1e-90", "1e-80"])
def test_gains_rejects_a_design_whose_wn_to_the_fourth_underflows(capsys, wn):
    argv = ["gains", "--xi", "0.9", "--wn", wn, "--g0", "1", "--g1", "0", "--g2", "1"]
    captured = one_line_error(capsys, argv)
    assert captured.err == f"error: wn = {float(wn)!r} is too small: wn ** 4 underflows below {sys.float_info.min!r}\n"
    assert captured.out == ""
    assert main(argv[:4] + ["1e-76"] + argv[5:]) == 0
    assert printed_value(capsys.readouterr().out, "k0") == 1e-76 ** 4


def test_gains_rejects_a_design_whose_gains_overflow(capsys):
    # the target polynomial is finite, but k1 = h3 - g2 * k3 overflows to -inf
    argv = ["gains", "--xi", "0.9", "--wn", "1e70", "--g0", "1", "--g1", "0", "--g2", "1e300"]
    captured = one_line_error(capsys, argv)
    assert captured.err == "error: k1 must be finite, got -inf\n"
    assert captured.out == ""


def test_run_rejects_overflowing_design(tmp_path, capsys):
    err = run_edited_scenario(tmp_path, capsys, _edit_joint("design", wn=1e80)).err
    assert err == "error: joint abad: target polynomial overflows for xi=0.9, wn=1e+80\n"
    assert not (tmp_path / "out").exists()


def test_run_names_the_joint_and_tick_where_the_plant_diverges(tmp_path, capsys):
    # dt = 1 s with gamma2 = 100 puts the RK4 step outside its stability region
    def diverge(d):
        d.update(dt=1.0, duration=2000)
        d["joints"]["fe"]["plant"]["gamma2"] = 100

    err = run_edited_scenario(tmp_path, capsys, diverge).err
    assert err == (
        "error: joint fe: tick 118 (t = 118 s): "
        "plant state must be finite, got theta=nan, theta_dot=nan\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("repeat", [False, True])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_teach_rejects_non_finite_samples(tmp_path, capsys, bad, repeat):
    path = tmp_path / "demo.csv"
    path.write_text(f"t,theta,theta_dot\n0.0,0.5,0.0\n0.1,{bad},0.0\n0.2,0.7,0.0\n")
    argv = ["teach", "--record", str(path)]
    if repeat:
        argv += ["--out", str(tmp_path / "out")]
    captured = one_line_error(capsys, argv)
    assert "teach sample 1 must be finite" in captured.err
    assert captured.out == ""


def test_the_readme_names_the_parsers_commands_and_options():
    text = README.read_text()
    parser = build_parser()
    usage = re.search(r"^## Quick start \(CLI\)\n+```\n(.*?)^```", text, re.M | re.S).group(1)
    commands = [line for line in usage.splitlines() if line.startswith("shouldersim ")]
    assert commands
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"the README's usage line does not parse: {line}")
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    options = {
        option
        for sub in subcommands.values()
        for action in sub._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert sorted(option for option in options if not re.search(rf"{option}\b", text)) == []


def test_no_arguments_is_a_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_python_m_entry_point_runs():
    env = dict(os.environ, PYTHONPATH=str(Path(shouldersim.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "shouldersim", "fk", "--theta1", "0.6981", "--theta2", "0.3491"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "x = 0.100780 m" in proc.stdout


def test_installed_entry_point_runs():
    exe = shutil.which("shouldersim")
    assert exe is not None
    proc = subprocess.run(
        [exe, "fk", "--theta1", "0.6981", "--theta2", "0.3491"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "x = 0.100780 m" in proc.stdout
