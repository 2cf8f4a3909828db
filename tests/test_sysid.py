import numpy as np
import pytest

from shouldersim import (
    DiscreteArx2,
    IoRecord,
    SecondOrderTf,
    decimate_record,
    discretize,
    estimate_tf,
    fit_arx2,
    fit_percent,
    load_io_csv,
    multisine_profile,
    multistep_profile,
    simulate_record,
    to_continuous,
)

G1 = SecondOrderTf(gamma0=0.0005725, gamma1=0.05725, gamma2=0.044)
G2 = SecondOrderTf(gamma0=0.0003665, gamma1=0.213, gamma2=0.04079)
TS = 0.065


def make_record(tf, n, seed, noise_rel=0.0, ts=TS):
    u = multisine_profile(n, seed=seed)
    theta = simulate_record(tf, IoRecord(u=u, theta=np.zeros(n), ts=ts))
    if noise_rel > 0.0:
        rng = np.random.default_rng(seed)
        theta = theta + rng.normal(0.0, noise_rel * float(np.std(theta)), size=n)
    return IoRecord(u=u, theta=theta, ts=ts)


def max_rel_gamma_error(est, truth):
    return max(
        abs(est.gamma0 - truth.gamma0) / truth.gamma0,
        abs(est.gamma1 - truth.gamma1) / truth.gamma1,
        abs(est.gamma2 - truth.gamma2) / truth.gamma2,
    )


def test_record_validation():
    with pytest.raises(ValueError):
        IoRecord(u=np.zeros(5), theta=np.zeros(5), ts=TS)
    with pytest.raises(ValueError):
        IoRecord(u=np.zeros(20), theta=np.zeros(19), ts=TS)
    with pytest.raises(ValueError):
        IoRecord(u=np.full(20, np.nan), theta=np.zeros(20), ts=TS)
    with pytest.raises(ValueError):
        IoRecord(u=np.zeros(20), theta=np.zeros(20), ts=0.0)
    rec = IoRecord(u=np.zeros(20), theta=np.zeros(20), ts=TS)
    assert len(rec) == 20


def test_fit_recovers_known_difference_equation():
    # y[k] = 0.5 y[k-1] + 0.1 u[k-1]  ->  (a1, a2, b0) = (-0.5, 0, 0.1)
    rng = np.random.default_rng(2)
    n = 400
    u = rng.normal(0.0, 1.0, size=n)
    y = np.zeros(n)
    for k in range(1, n):
        y[k] = 0.5 * y[k - 1] + 0.1 * u[k - 1]
    d = fit_arx2(IoRecord(u=u, theta=y, ts=TS))
    assert abs(d.a1 - (-0.5)) < 1e-9
    assert abs(d.a2) < 1e-9
    assert abs(d.b0 - 0.1) < 1e-9


def test_fit_rejects_unexcited_data():
    rec = IoRecord(u=np.zeros(50), theta=np.zeros(50), ts=TS)
    with pytest.raises(ValueError, match="insufficient excitation"):
        fit_arx2(rec)


def test_discretize_spot_values():
    d = discretize(G1, TS)
    assert abs(d.a1 - (-1.996100287142391)) < 1e-12
    assert abs(d.a2 - 0.9962858332873379) < 1e-12


def test_bilinear_round_trip_both_joints():
    for tf in (G1, G2):
        back = to_continuous(discretize(tf, TS), TS)
        assert abs(back.gamma0 - tf.gamma0) < 1e-9
        assert abs(back.gamma1 - tf.gamma1) < 1e-9
        assert abs(back.gamma2 - tf.gamma2) < 1e-9


def test_bilinear_round_trip_property():
    rng = np.random.default_rng(43)
    for _ in range(20):
        tf = SecondOrderTf(
            gamma0=float(rng.uniform(1e-4, 1e-2)),
            gamma1=float(rng.uniform(0.0, 2.0)),
            gamma2=float(rng.uniform(0.01, 100.0)),  # wn*ts < 0.65
        )
        back = to_continuous(discretize(tf, TS), TS)
        assert abs(back.gamma0 - tf.gamma0) / tf.gamma0 < 1e-9
        assert abs(back.gamma1 - tf.gamma1) < 1e-9 * max(1.0, tf.gamma1)
        assert abs(back.gamma2 - tf.gamma2) / tf.gamma2 < 1e-9


def test_to_continuous_flags_singular_poles():
    # a double pole at z = -1 maps to infinite frequency
    with pytest.raises(ValueError, match="Tustin singularity"):
        to_continuous(DiscreteArx2(a1=2.0, a2=1.0, b0=0.1), TS)
    # a pole pinned at z = 1 implies zero stiffness, which is rejected
    with pytest.raises(ValueError):
        to_continuous(DiscreteArx2(a1=-1.8, a2=0.8, b0=0.1), TS)


def test_fit_percent_bounds():
    y = np.array([0.1, 0.4, -0.2, 0.9, 0.3])
    assert fit_percent(y, y) == 100.0
    assert fit_percent(y, np.full_like(y, np.mean(y))) == pytest.approx(0.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        yhat = y + rng.normal(0.0, 0.1, size=len(y))
        assert fit_percent(y, yhat) < 100.0
    with pytest.raises(ValueError, match="undefined fit"):
        fit_percent(np.ones(5), np.ones(5))


def test_estimate_noiseless_both_joints():
    # single-tap numerator versus the zero-order-hold truth caps the
    # resimulation fit just below 99.8 at this sampling rate
    for tf in (G1, G2):
        rec = make_record(tf, 700, seed=0)
        est, fit = estimate_tf(rec)
        assert max_rel_gamma_error(est, tf) < 0.01
        assert fit > 99.5


def test_estimate_consistency_across_plants():
    rng = np.random.default_rng(47)
    for _ in range(3):
        tf = SecondOrderTf(
            gamma0=float(rng.uniform(3e-4, 6e-4)),
            gamma1=float(rng.uniform(0.05, 0.22)),
            gamma2=float(rng.uniform(0.04, 0.05)),
        )
        rec = make_record(tf, 500, seed=1)
        est, _ = estimate_tf(rec)
        assert max_rel_gamma_error(est, tf) < 0.01


def test_estimate_with_output_noise():
    # 2 % relative output noise, decimated before the fit; both the decimated
    # and the full-rate resimulation fits stay at or above 89
    for seed in (0, 1, 2):
        rec = make_record(G1, 7000, seed=seed, noise_rel=0.02)
        dec = decimate_record(rec, 10)
        est, fit_dec = estimate_tf(dec)
        fit_full = fit_percent(rec.theta, simulate_record(est, rec))
        assert fit_dec >= 89.0
        assert fit_full >= 89.0


def test_estimate_fe_joint_with_noise_stays_in_band():
    rec = make_record(G2, 7000, seed=4, noise_rel=0.02)
    dec = decimate_record(rec, 10)
    _, fit = estimate_tf(dec)
    assert 85.0 <= fit <= 100.0


def test_seven_hundred_point_record_is_used_whole():
    rec = make_record(G1, 700, seed=5)
    est, _ = estimate_tf(rec)
    yhat = simulate_record(est, rec)
    assert len(yhat) == 700


def test_decimation_block_averages():
    n = 205
    u = np.arange(n, dtype=float)
    theta = 2.0 * np.arange(n, dtype=float)
    rec = IoRecord(u=u, theta=theta, ts=TS)
    dec = decimate_record(rec, 10)
    assert len(dec) == 20  # trailing partial block dropped
    assert dec.ts == pytest.approx(0.65)
    assert dec.u[0] == pytest.approx(np.mean(u[:10]))
    assert dec.theta[3] == pytest.approx(np.mean(theta[30:40]))
    with pytest.raises(ValueError):
        decimate_record(IoRecord(u=np.ones(50), theta=np.ones(50), ts=TS), 10)


def test_excitation_profiles_are_deterministic_and_bounded():
    a = multisine_profile(500, seed=9)
    b = multisine_profile(500, seed=9)
    c = multisine_profile(500, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(a >= 0.0) and np.all(a <= 100.0)
    steps = multistep_profile(500, seed=9)
    assert np.all(steps >= 0.0) and np.all(steps <= 100.0)


def test_io_csv_round_trip(tmp_path):
    rec = make_record(G1, 50, seed=6)
    path = tmp_path / "run.csv"
    lines = ["t,u,theta"]
    for i in range(len(rec)):
        lines.append(f"{i * rec.ts!r},{float(rec.u[i])!r},{float(rec.theta[i])!r}")
    path.write_text("\n".join(lines) + "\n")
    back = load_io_csv(path, ts=TS)
    assert np.array_equal(back.u, rec.u)
    assert np.array_equal(back.theta, rec.theta)


def write_io_csv(path, rec, times):
    lines = ["t,u,theta"]
    for t, u, theta in zip(times, rec.u.tolist(), rec.theta.tolist()):
        lines.append(f"{t!r},{u!r},{theta!r}")
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("ts", [0.065, 0.01, 0.65])
def test_io_csv_accepts_timestamps_k_times_ts(tmp_path, ts):
    # t = k * ts accumulates no drift, but its steps differ from ts by roundoff
    rec = make_record(G1, 7000, seed=7, ts=ts)
    path = tmp_path / "run.csv"
    write_io_csv(path, rec, [k * ts for k in range(len(rec))])
    back = load_io_csv(path, ts=ts)
    assert back.ts == ts
    assert np.array_equal(back.u, rec.u) and np.array_equal(back.theta, rec.theta)


def test_io_csv_rejects_timestamps_off_ts(tmp_path):
    rec = make_record(G1, 50, seed=6)
    path = tmp_path / "run.csv"
    write_io_csv(path, rec, [k * 2 * TS for k in range(len(rec))])
    with pytest.raises(ValueError, match=r"line 3: t step 0\.13 s differs from ts = 0\.065 s"):
        load_io_csv(path, ts=TS)
    # the tolerance is 1e-6 * ts per step
    times = [k * TS for k in range(len(rec))]
    times[20] += 0.5e-6 * TS
    write_io_csv(path, rec, times)
    load_io_csv(path, ts=TS)
    times[20] += 2e-6 * TS
    write_io_csv(path, rec, times)
    with pytest.raises(ValueError, match="line 22: t step"):
        load_io_csv(path, ts=TS)
