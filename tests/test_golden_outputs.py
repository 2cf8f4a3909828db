"""Byte-identity gate of the exported files of the 15 bundled scenarios.

tests/golden/bundled_outputs.json holds the SHA-256 of every file that
`shouldersim run` writes for each bundled scenario: <joint>.csv, plot.svg and
metrics.json. An export change that claims to keep the output (a faster
formatter, a refactor of the writers) must pass this unchanged. Regenerate
the file (only when a change is meant to alter the exported bytes, and say so
in CHANGES.md) with

    PYTHONPATH=src python tests/test_golden_outputs.py
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from shouldersim import presets
from shouldersim.cli import main

GOLDEN = Path(__file__).parent / "golden" / "bundled_outputs.json"


def record(name, out_dir):
    """SHA-256 of every file that `shouldersim run` writes for bundled scenario `name`."""
    scenario = presets.scenario_dir() / f"{name}.json"
    rc = main(["run", "--scenario", str(scenario), "--out", str(out_dir)])
    assert rc == 0, name
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(Path(out_dir).iterdir())}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_bundled_scenario(golden):
    assert sorted(golden) == presets.bundled_scenarios()


@pytest.mark.parametrize("name", presets.bundled_scenarios())
def test_bundled_outputs_match_golden(golden, name, tmp_path, capsys):
    assert record(name, tmp_path) == golden[name]


if __name__ == "__main__":
    digests = {}
    for name in presets.bundled_scenarios():
        with tempfile.TemporaryDirectory() as out_dir, contextlib.redirect_stdout(io.StringIO()):
            digests[name] = record(name, out_dir)
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    files = sum(len(d) for d in digests.values())
    print(f"wrote {GOLDEN}: {files} file digests over {len(digests)} scenarios", file=sys.stderr)
