"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Every test prints `criterion N: PASS/FAIL - detail` before asserting, so the
suite output doubles as a checklist. Criteria 3 and 4 fail under the shipped
actuator model and are left failing on purpose: with the pump ceiling at
100 PWM-% the abduction joint cannot hold any angle above
gamma0*u_max/gamma2 = 1.301 rad, so the 1.3963 rad endpoints are physically
out of reach (terminal error 0.110 rad, peak 0.226 rad), and the 1.0472 rad
endpoint still carries 0.044 rad of saturation lag when its 10 s quintic
ends. Those tests state the required bounds and report the measured values
rather than masking them.
"""
import time

import numpy as np

from shouldersim import (
    DisturbanceSpec,
    GpiDesign,
    IoRecord,
    JointConfig,
    QuinticRef,
    Scenario,
    SecondOrderTf,
    closed_loop_char_poly,
    compute_gains,
    decimate_record,
    estimate_tf,
    fit_percent,
    load_scenario,
    multisine_profile,
    presets,
    run_scenario,
    simulate_record,
)
from shouldersim.gpi import hurwitz_poly
from shouldersim.trajectory import differentiate_teach, quintic_eval, record_teach, sine_ref
from shouldersim.kinematics import forward, inverse

SCENARIOS = presets.scenario_dir()


def report(num: int, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def both_joints_scenario(thetaf_abad, thetaf_fe, duration, disturbance=None):
    return Scenario(
        joints={
            "abad": JointConfig(
                plant=presets.ABAD_PLANT,
                design=presets.ABAD_DESIGN,
                limits=presets.ABAD_LIMITS,
                saturation=presets.DEFAULT_SATURATION,
                reference=QuinticRef(0.1745, thetaf_abad, 10.0),
                disturbance=disturbance,
            ),
            "fe": JointConfig(
                plant=presets.FE_PLANT,
                design=presets.FE_DESIGN,
                limits=presets.FE_LIMITS,
                saturation=presets.DEFAULT_SATURATION,
                reference=QuinticRef(0.1745, thetaf_fe, 10.0),
                disturbance=disturbance,
            ),
        },
        duration=duration,
    )


def test_criterion_01_pole_placement_identity():
    t_start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        design = GpiDesign(xi=float(rng.uniform(0.2, 2.0)), wn=float(rng.uniform(0.5, 20.0)))
        tf = SecondOrderTf(
            gamma0=float(rng.uniform(1e-4, 1e-2)),
            gamma1=float(rng.uniform(0.0, 0.3)),
            gamma2=float(rng.uniform(1e-6, 1.0)),
        )
        target = hurwitz_poly(design)
        actual = closed_loop_char_poly(compute_gains(design, tf), tf)
        worst = max(worst, float(np.max(np.abs(actual - target) / np.abs(target))))
    elapsed = time.perf_counter() - t_start
    ok = worst <= 1e-9 and elapsed < 1.0
    report(1, ok, f"100 random designs, worst coefficient error {worst:.2e} rel, {elapsed:.2f} s")


def test_criterion_02_design_point_gains():
    gains = dict(zip(("k0", "k1", "k2", "k3"), compute_gains(presets.ABAD_DESIGN, presets.ABAD_PLANT)))
    expected = {
        "k0": 1384.5841,
        "k1": 816.167879,
        "k2": 193.6824675625,
        "k3": 21.90275,
    }
    errs = {
        name: abs(gains[name] - want) / want for name, want in expected.items()
    }
    worst = max(errs.values())
    ok = worst <= 1e-9
    report(2, ok, f"xi=0.9, wn=6.1 gains match hand-derived values, worst {worst:.2e} rel")


def test_criterion_03_endpoint_tracking():
    t_start = time.perf_counter()
    over = []
    ceiling_case_saturates = False
    for i in range(1, 9):
        r = run_scenario(load_scenario(SCENARIOS / f"reach_q{i}.json"))
        for joint, se in r.series.items():
            e_T = abs(float(se.e[-1]))
            if e_T > 0.03:
                over.append(f"q{i}/{joint} |e_T|={e_T:.3f}")
        if i == 4:
            ceiling_case_saturates = bool(np.any(r.series["fe"].u == 100.0))
    elapsed = time.perf_counter() - t_start
    ok = not over and ceiling_case_saturates and elapsed < 5.0
    detail = (
        f"8 endpoint runs in {elapsed:.2f} s, 0.5585 rad flexion case hits u=100: "
        f"{ceiling_case_saturates}; "
        + ("all terminal errors <= 0.03 rad" if not over else "over bound: " + ", ".join(over))
    )
    report(3, ok, detail)


def test_criterion_04_combined_error_bound():
    cases = {}
    for i in range(5, 9):
        r = run_scenario(load_scenario(SCENARIOS / f"reach_q{i}.json"))
        max_e = max(m["max_abs_error"] for m in r.metrics.values())
        # saturated means the run demanded maximum effort (u=100) at some
        # tick; the single u=0 clamp every loop shows at startup while the
        # input integral ramps is a reconstruction artifact, not effort
        saturated = any(bool(np.any(se.u == 100.0)) for se in r.series.values())
        cases[f"q{i}"] = (max_e, saturated)
    over = [name for name, (m, _) in cases.items() if m > 0.2]
    unsat = [name for name, (_, sat) in cases.items() if not sat]
    tight = all(cases[name][0] <= 0.05 for name in unsat)
    ok = not over and len(unsat) >= 3 and tight
    listing = ", ".join(
        f"{name}={m:.3f}" + ("*" if sat else "") for name, (m, sat) in cases.items()
    )
    report(
        4,
        ok,
        f"combined max|e| {listing} (*=saturated); over 0.2 rad: "
        f"{', '.join(over) if over else 'none'}; unsaturated runs within 0.05 rad: "
        f"{len(unsat)}/4, need >= 3",
    )


def test_criterion_05_disturbance_rejection():
    s = both_joints_scenario(
        0.6981, 0.3491, duration=30.0, disturbance=DisturbanceSpec(magnitude=5.0, onset=15.0)
    )
    r = run_scenario(s)
    worst = max(
        float(np.max(np.abs(se.e[se.t >= 20.0]))) for se in r.series.values()
    )
    ok = worst < 0.01
    report(5, ok, f"rho=5 PWM-% at 15 s, worst |e| after 20 s is {worst:.2e} rad < 0.01")


def test_criterion_06_kinematics_round_trip_and_endpoint_table():
    s1 = np.linspace(0.1745, 1.396, 50)
    s2 = np.linspace(0.1745, 0.5585, 50)
    worst_rt = 0.0
    for a in s1:
        for b in s2:
            back_s1, back_s2 = inverse(*forward(float(a), float(b)))
            worst_rt = max(worst_rt, abs(back_s1 - a), abs(back_s2 - b))

    # tabulated wrist positions for the eight commanded endpoints (y cells
    # excluded: that column just repeats x). Rows 5 and 6 are stated as None
    # because their tabulated x cells repeat the 1.0472 rad abduction values
    # (0.0658, 0.0594) instead of cos(0.6981)-consistent ones; those two are
    # checked against the forward map itself, the authority everywhere else.
    rows = [
        (0.6981, 0.0, 0.1072, 0.0),
        (1.0472, 0.0, 0.0700, 0.0),
        (0.0, 0.3491, 0.1316, -0.0479),
        (0.0, 0.5585, 0.1187, -0.0742),
        (0.6981, 0.3491, None, -0.0479),
        (0.6981, 0.5585, None, -0.0742),
        (1.3963, 0.3491, 0.0228, -0.0479),
        (1.3963, 0.5585, 0.0206, -0.0742),
    ]
    map_x_for_inconsistent_rows = iter((0.100780, 0.090953))
    worst_cell = 0.0
    for theta1, theta2, x_cell, z_cell in rows:
        x, _, z = forward(theta1, theta2)
        expected_x = x_cell if x_cell is not None else next(map_x_for_inconsistent_rows)
        worst_cell = max(worst_cell, abs(x - expected_x), abs(z - z_cell))

    ok = worst_rt <= 1e-12 and worst_cell <= 1e-3
    report(
        6,
        ok,
        f"50x50 grid round-trip worst {worst_rt:.2e} rad; endpoint table worst "
        f"cell error {worst_cell:.2e} m (2 internally inconsistent x cells "
        f"checked against the forward map)",
    )


def test_criterion_07_quintic_boundary_residuals():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(1000):
        theta0, thetaf = map(float, rng.uniform(-1.5, 1.5, size=2))
        T = float(rng.uniform(0.5, 30.0))
        start_d, start_dot_d, start_ddot_d = quintic_eval(theta0, thetaf, T, 0.0)
        end_d, end_dot_d, end_ddot_d = quintic_eval(theta0, thetaf, T, T)
        worst = max(
            worst,
            abs(start_d - theta0),
            abs(start_dot_d),
            abs(start_ddot_d),
            abs(end_d - thetaf),
            abs(end_dot_d),
            abs(end_ddot_d),
        )
    ok = worst < 1e-9
    report(7, ok, f"1000 random endpoint pairs, worst boundary residual {worst:.2e}")


def test_criterion_08_sysid_recovery():
    ts, n, m = 0.065, 7000, 10
    worst_gamma = 0.0
    worst_fit = 100.0
    for truth in (presets.ABAD_PLANT, presets.FE_PLANT):
        u = multisine_profile(n, seed=0)
        clean = simulate_record(truth, IoRecord(u=u, theta=np.zeros(n), ts=ts))
        est, _ = estimate_tf(decimate_record(IoRecord(u=u, theta=clean, ts=ts), m))
        worst_gamma = max(
            worst_gamma,
            abs(est.gamma0 - truth.gamma0) / truth.gamma0,
            abs(est.gamma1 - truth.gamma1) / truth.gamma1,
            abs(est.gamma2 - truth.gamma2) / truth.gamma2,
        )
        sigma = 0.02 * float(np.std(clean))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            noisy = IoRecord(u=u, theta=clean + rng.normal(0.0, sigma, size=n), ts=ts)
            dec = decimate_record(noisy, m)
            est_n, fit_dec = estimate_tf(dec)
            fit_full = fit_percent(noisy.theta, simulate_record(est_n, noisy))
            worst_fit = min(worst_fit, float(fit_dec), float(fit_full))
    ok = worst_gamma <= 0.01 and worst_fit >= 89.0
    report(
        8,
        ok,
        f"noiseless gamma recovery worst {100 * worst_gamma:.2f} % rel; with 2 % "
        f"output noise (5 seeds x 2 plants) worst fit {worst_fit:.2f} % >= 89",
    )


def test_criterion_09_teach_round_trip():
    dt = 0.065
    # on-grid band-limited demonstration
    demo = []
    for tick in range(154):
        theta_d, theta_dot_d, _ = sine_ref(0.8, 2.2e-3, 300.0, float(tick), dt)
        demo.append((tick * dt, theta_d, theta_dot_d))
    theta_d, theta_dot_d, _ = differentiate_teach(record_teach(demo), dt=dt, n=160)
    assert theta_dot_d[153] != 0.0 and not np.any(theta_dot_d[154:])  # the hold begins at tick 154
    worst_grid = max(
        abs(theta - sine_ref(0.8, 2.2e-3, 300.0, float(i), dt)[0])
        for i, theta in enumerate(theta_d[:154])
    )

    # off-grid demonstration sampled at 10 ms, replayed on the control grid
    demo = []
    for i in range(601):
        t = i * 0.01
        theta_d, theta_dot_d, _ = quintic_eval(0.3, 0.42, 6.0, t)
        demo.append((t, theta_d, theta_dot_d))
    theta_d, theta_dot_d, _ = differentiate_teach(record_teach(demo), dt=dt, n=100)
    assert theta_dot_d[92] != 0.0 and not np.any(theta_dot_d[93:])  # the hold begins at tick 93
    worst_offgrid = max(
        abs(theta - quintic_eval(0.3, 0.42, 6.0, i * dt)[0])
        for i, theta in enumerate(theta_d[:93])
    )

    ok = worst_grid <= 1e-3 and worst_offgrid <= 1e-3
    report(
        9,
        ok,
        f"replayed reference vs demonstration: on-grid worst {worst_grid:.2e} rad, "
        f"resampled worst {worst_offgrid:.2e} rad",
    )


def test_criterion_10_determinism_and_runtime(session_t0):
    s = Scenario(
        joints={
            "abad": JointConfig(
                plant=presets.ABAD_PLANT,
                design=presets.ABAD_DESIGN,
                limits=presets.ABAD_LIMITS,
                saturation=presets.DEFAULT_SATURATION,
                reference=QuinticRef(0.1745, 0.6981, 10.0),
            )
        },
        duration=10.0,
        noise_amplitude=0.002,
        seed=11,
    )
    a, b = run_scenario(s), run_scenario(s)
    repeatable = np.array_equal(a.series["abad"].u, b.series["abad"].u) and np.array_equal(
        a.series["abad"].theta_meas, b.series["abad"].theta_meas
    )
    other = run_scenario(
        Scenario(joints=s.joints, duration=10.0, noise_amplitude=0.002, seed=12)
    )
    seeded = not np.array_equal(a.series["abad"].theta_meas, other.series["abad"].theta_meas)
    profiles = np.array_equal(multisine_profile(500, seed=7), multisine_profile(500, seed=7))
    elapsed = time.perf_counter() - session_t0
    ok = repeatable and seeded and profiles and elapsed < 60.0
    report(
        10,
        ok,
        f"seeded reruns bit-identical: {repeatable and profiles}, seeds distinguish "
        f"runs: {seeded}, suite elapsed {elapsed:.1f} s < 60",
    )
