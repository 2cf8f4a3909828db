"""The package's public names, pinned: adding or removing one shows in the diff."""
import os
import subprocess
import sys
import types
from pathlib import Path

import shouldersim

PUBLIC_NAMES = [
    "DEFAULT_DT", "DisturbanceSpec", "GpiDesign",
    "IoRecord", "JointConfig", "JointLimits", "JointSeries",
    "QuinticRef", "RefSample", "SaturationLimits", "Scenario", "SecondOrderTf",
    "SimResult", "SineRef", "TeachRef",
    "build_reference", "clamp_to_limits", "closed_loop_char_poly", "compute_gains",
    "compute_metrics", "control_step", "dc_gain", "decimate_record", "differentiate_teach",
    "estimate_tf", "export_csv", "export_plot", "feedforward", "fit_arx2", "fit_percent",
    "forward", "hurwitz_poly", "inverse", "load_io_csv", "load_scenario",
    "load_series_csv", "load_teach_csv", "multisine_profile", "quintic_eval", "record_teach",
    "run_scenario", "save_scenario", "simulate_record", "sine_ref", "step", "to_continuous",
    "write_artifacts",
]


def test_public_names_are_pinned():
    # submodules become package attributes when anything imports them, so they are left out
    exported = sorted(
        name for name, value in vars(shouldersim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_NAMES


def test_the_package_imports_only_numpy_and_the_standard_library():
    # pyproject.toml declares numpy alone, so any other import fails on a clean install.
    # The check is against a snapshot: site may import third-party modules before any user code.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import shouldersim.cli, shouldersim.presets\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names) - {'numpy', 'shouldersim'}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(shouldersim.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
