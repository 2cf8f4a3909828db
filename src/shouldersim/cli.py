"""Command-line interface.

Subcommands:
    run    simulate a scenario JSON and export CSV/SVG/metrics
    gains  pole-placement gains and closed-loop poles for a design point
    fk     forward kinematics of the wrist
    ik     inverse kinematics from a wrist position
    sysid  identify a second-order plant from a t,u,theta CSV record
    teach  inspect a demonstration CSV; with --out, replay it closed-loop

Every subcommand exits 0 on success and nonzero with a one-line diagnostic
on stderr for any error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import harness, presets, sysid
from .gpi import GpiDesign, closed_loop_char_poly, compute_gains
from .kinematics import forward, inverse
from .plant import SecondOrderTf
from .trajectory import DEFAULT_DT


def _cmd_run(args) -> int:
    scenario = harness.load_scenario(args.scenario)
    result = harness.run_scenario(scenario)
    paths = harness.write_artifacts(result, args.out)
    label = scenario.name or Path(args.scenario).stem
    print(f"scenario {label}: {scenario.n_samples} samples per joint")
    for joint, m in result.metrics.items():
        settle = "never" if m["settle_time"] == float("inf") else f"{m['settle_time']:.3f} s"
        print(
            f"  {joint}: rmse {m['rmse']:.6g} rad, max|e| {m['max_abs_error']:.6g} rad, "
            f"steady-state {m['steady_state_error']:.6g} rad, settle {settle}"
        )
    for path in paths:
        print(f"  wrote {path}")
    return 0


def _cmd_gains(args) -> int:
    design = GpiDesign(xi=args.xi, wn=args.wn)
    plant = SecondOrderTf(gamma0=args.g0, gamma1=args.g1, gamma2=args.g2)
    gains = compute_gains(design, plant)
    for name, value in zip(("k0", "k1", "k2", "k3"), gains):
        print(f"{name} = {value!r}")
    poles = np.sort_complex(np.roots(closed_loop_char_poly(gains, plant)))
    formatted = ", ".join(f"{p.real:.6f}{p.imag:+.6f}j" for p in poles)
    print(f"closed-loop poles: {formatted}")
    return 0


def _cmd_fk(args) -> int:
    x, y, z = forward(args.theta1, args.theta2, args.la)
    print(f"x = {x:.6f} m")
    print(f"y = {y:.6f} m")
    print(f"z = {z:.6f} m")
    return 0


def _cmd_ik(args) -> int:
    theta_s1, theta_s2 = inverse(args.x, args.y, args.z, args.la)
    print(f"theta_s1 = {theta_s1:.6f} rad")
    print(f"theta_s2 = {theta_s2:.6f} rad")
    return 0


def _cmd_sysid(args) -> int:
    record = sysid.load_io_csv(args.csv)
    factors = (1, 2, 5, 10)
    first_error = None
    # output noise on a record sampled far above the plant's bandwidth can drive
    # the full-rate (m = 1) fit to a negative gamma; block averaging lowers it
    for m in factors:
        try:
            tf, fit = sysid.estimate_tf(sysid.decimate_record(record, m))
            break
        except ValueError as ex:
            first_error = first_error or ex
    else:
        raise ValueError(f"no block average of m = {', '.join(map(str, factors))} samples gave a valid plant; at full rate: {first_error}")
    if m > 1:
        print(f"decimated by {m}")
    for name in ("gamma0", "gamma1", "gamma2"):
        print(f"{name} = {getattr(tf, name)!r}")
    print(f"fit = {fit:.2f} %")
    return 0


def _cmd_teach(args) -> int:
    ref = harness.TeachRef(file=str(args.record), smooth=args.smooth)
    thetas = ref.demo[:, 1]
    duration = float(ref.demo[-1, 0]) - float(ref.demo[0, 0])
    print(
        f"demonstration: {len(thetas)} samples over {duration:.3f} s, "
        f"angle range [{thetas.min():.4f}, {thetas.max():.4f}] rad"
    )
    if args.out is None:
        return 0
    # the bundled teach_repeat scenario with this demonstration: the abad presets at DEFAULT_DT
    abad = harness.JointConfig(
        presets.ABAD_PLANT, presets.ABAD_DESIGN, presets.ABAD_LIMITS, presets.DEFAULT_SATURATION, ref
    )
    scenario = harness.Scenario(joints={"abad": abad}, duration=max(duration, DEFAULT_DT))
    result = harness.run_scenario(scenario)
    paths = harness.write_artifacts(result, args.out)
    m = result.metrics["abad"]
    print(f"repeat: rmse {m['rmse']:.6g} rad, max|e| {m['max_abs_error']:.6g} rad")
    for path in paths:
        print(f"  wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shouldersim",
        description="Closed-loop simulation of a two-DoF pneumatic shoulder under GPI control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario JSON file")
    p_run.add_argument("--scenario", required=True, help="path to scenario JSON")
    p_run.add_argument("--out", required=True, help="output directory for CSV/SVG/metrics")
    p_run.set_defaults(func=_cmd_run)

    p_gains = sub.add_parser("gains", help="pole-placement gains for a design point")
    p_gains.add_argument("--xi", type=float, required=True, help="damping ratio")
    p_gains.add_argument("--wn", type=float, required=True, help="natural frequency (rad/s)")
    p_gains.add_argument("--g0", type=float, required=True, help="plant gamma0")
    p_gains.add_argument("--g1", type=float, required=True, help="plant gamma1")
    p_gains.add_argument("--g2", type=float, required=True, help="plant gamma2")
    p_gains.set_defaults(func=_cmd_gains)

    p_fk = sub.add_parser("fk", help="forward kinematics")
    p_fk.add_argument("--theta1", type=float, required=True, help="abad angle (rad)")
    p_fk.add_argument("--theta2", type=float, required=True, help="fe angle (rad)")
    p_fk.add_argument("--la", type=float, default=0.14, help="arm length (m)")
    p_fk.set_defaults(func=_cmd_fk)

    p_ik = sub.add_parser("ik", help="inverse kinematics")
    p_ik.add_argument("--x", type=float, required=True)
    p_ik.add_argument("--y", type=float, required=True)
    p_ik.add_argument("--z", type=float, required=True)
    p_ik.add_argument("--la", type=float, default=0.14, help="arm length (m)")
    p_ik.set_defaults(func=_cmd_ik)

    p_sysid = sub.add_parser("sysid", help="identify a plant from a t,u,theta CSV")
    p_sysid.add_argument("--csv", required=True, help="record file")
    p_sysid.set_defaults(func=_cmd_sysid)

    p_teach = sub.add_parser("teach", help="inspect or replay a demonstration CSV")
    p_teach.add_argument("--record", required=True, help="t,theta,theta_dot demonstration file")
    p_teach.add_argument("--smooth", action="store_true", help="5-tap velocity smoothing before differencing")
    p_teach.add_argument("--out", help="replay closed-loop on the abad joint and write CSV/SVG/metrics here")
    p_teach.set_defaults(func=_cmd_teach)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as ex:  # json.JSONDecodeError is a ValueError
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
