"""Golden traces of the 15 bundled scenarios: refactors must not move the loop.

tests/golden/bundled_traces.json holds theta_meas and u of every joint at
every 10th tick and at the last tick. Regenerate it (only when a change is
meant to alter the simulated numbers, and say so in CHANGES.md) with

    PYTHONPATH=src python tests/test_golden_traces.py

Tolerances by reference kind:

- sine: exact. The sine scenarios are chaotic while the saturation limit
  cycle (ROADMAP item 1) is open: a roundoff-level change of operation
  order has moved them by up to 0.26 rad, so any difference at all means the
  per-tick arithmetic changed and only bit-identity proves it did not.
- teach: exact. Its reference comes from the numpy resampling in
  differentiate_teach, so only a change of that or of the loop arithmetic
  can move it.
- reach (quintic): |d theta| <= 1e-12 rad and |d u| <= 1e-6 PWM-%. The
  quintic may be evaluated in another algebraic form, and the k2/gamma0 gain
  turns a last-bit change of theta_d into about 1e-8 PWM-% of u.
"""
import json
import sys
from pathlib import Path

import pytest

from shouldersim import load_scenario, presets, run_scenario

GOLDEN = Path(__file__).parent / "golden" / "bundled_traces.json"
STRIDE = 10
REACH_THETA_TOL = 1e-12
REACH_U_TOL = 1e-6


def _ticks(n):
    ticks = list(range(0, n, STRIDE))
    if ticks[-1] != n - 1:
        ticks.append(n - 1)
    return ticks


def record(name):
    """Sampled theta_meas and u of every joint of bundled scenario `name`."""
    r = run_scenario(load_scenario(presets.scenario_dir() / f"{name}.json"))
    out = {}
    for joint, se in r.series.items():
        ticks = _ticks(len(se.t))
        out[joint] = {
            "n": len(se.t),
            "theta_meas": [float(se.theta_meas[i]) for i in ticks],
            "u": [float(se.u[i]) for i in ticks],
        }
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_bundled_scenario(golden):
    assert sorted(golden) == presets.bundled_scenarios()


@pytest.mark.parametrize("name", presets.bundled_scenarios())
def test_bundled_trace_matches_golden(golden, name):
    got = record(name)
    want = golden[name]
    assert sorted(got) == sorted(want)
    for joint, w in want.items():
        g = got[joint]
        assert g["n"] == w["n"]
        if name.startswith("reach"):
            d_theta = max(abs(a - b) for a, b in zip(g["theta_meas"], w["theta_meas"]))
            d_u = max(abs(a - b) for a, b in zip(g["u"], w["u"]))
            assert d_theta <= REACH_THETA_TOL, (joint, d_theta)
            assert d_u <= REACH_U_TOL, (joint, d_u)
        else:
            assert g["theta_meas"] == w["theta_meas"], joint
            assert g["u"] == w["u"], joint


if __name__ == "__main__":
    traces = {name: record(name) for name in presets.bundled_scenarios()}
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(traces, indent=1) + "\n")
    joint_ticks = sum(j["n"] for t in traces.values() for j in t.values())
    samples = sum(len(j["u"]) for t in traces.values() for j in t.values())
    print(f"wrote {GOLDEN}: {joint_ticks} joint-ticks, {samples} samples per field", file=sys.stderr)
