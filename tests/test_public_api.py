"""The package's public names, pinned: adding or removing one shows in the diff."""
import types

import shouldersim

PUBLIC_NAMES = [
    "ArmLength", "ControllerState", "DEFAULT_DT", "DiscreteArx2", "DisturbanceSpec",
    "GpiDesign", "GpiGains", "IoRecord", "JointConfig", "JointLimits", "JointSeries",
    "Metrics", "QuinticRef", "RefSample", "SaturationLimits", "Scenario", "SecondOrderTf",
    "ShoulderAngles", "SimResult", "SineRef", "TeachRef", "WristPosition",
    "build_reference", "clamp_to_limits", "closed_loop_char_poly", "compute_gains",
    "compute_metrics", "control_step", "dc_gain", "decimate_record", "differentiate_teach",
    "estimate_tf", "export_csv", "export_plot", "feedforward", "fit_arx2", "fit_percent",
    "forward", "hurwitz_poly", "in_workspace", "inverse", "load_io_csv", "load_scenario",
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
