"""Golden output of sysid.simulate_record, the open-loop caller of plant.step.

tests/golden/simulate_record.json holds the simulated angle of both preset
plants on two records each, at every 10th sample and at the last one:

- "multisine": a seeded multisine_profile input from rest at theta[0] = 0;
- "offset": another seeded multisine input from rest at theta[0] != 0, so
  the initial angle enters the recursion.

Every sample must match exactly: the plant integrator is deterministic float
code, and any change of its operation order shows here. Regenerate the file
(only when a change is meant to alter the simulated numbers, and say so in
CHANGES.md) with

    PYTHONPATH=src python tests/test_golden_records.py
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from shouldersim import IoRecord, multisine_profile, presets, simulate_record

GOLDEN = Path(__file__).parent / "golden" / "simulate_record.json"
STRIDE = 10
N = 3000
PLANTS = {"abad": presets.ABAD_PLANT, "fe": presets.FE_PLANT}
RECORDS = {
    "multisine": (0.0, 21),
    "offset": (0.9, 22),
}


def record(plant, kind):
    """Sampled simulate_record output of preset `plant` on record `kind`."""
    theta0, seed = RECORDS[kind]
    theta = np.zeros(N)
    theta[0] = theta0
    rec = IoRecord(u=multisine_profile(N, seed=seed), theta=theta)
    out = simulate_record(PLANTS[plant], rec)
    ticks = list(range(0, N, STRIDE)) + [N - 1]
    return {"n": N, "theta": [float(out[i]) for i in ticks]}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(f"{p}/{k}" for p in PLANTS for k in RECORDS)


@pytest.mark.parametrize("kind", sorted(RECORDS))
@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_simulate_record_matches_golden(golden, plant, kind):
    assert record(plant, kind) == golden[f"{plant}/{kind}"]


if __name__ == "__main__":
    traces = {f"{p}/{k}": record(p, k) for p in PLANTS for k in RECORDS}
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(traces, indent=1) + "\n")
    print(f"wrote {GOLDEN}: {len(traces)} records of {N} samples", file=sys.stderr)
