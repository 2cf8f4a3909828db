"""Closed-loop simulation of a two-DoF pneumatically actuated shoulder joint.

The package models each joint as an identified second-order transfer function,
tracks references with a robust generalized proportional integral (GPI)
controller synthesized by pole placement, and ships a scenario-driven harness
with CSV/SVG export plus tools for trajectory generation, kinematics and
transfer-function identification.

The root exports the scenario, model and identification API. The per-tick and
per-array layers under it (the control law, the plant step, the reference
samplers) are importable from their modules and free to change.
"""
from .plant import DisturbanceSpec, SecondOrderTf
from .gpi import GpiDesign, SaturationLimits, closed_loop_char_poly, compute_gains
from .trajectory import DEFAULT_DT, JointLimits
from .kinematics import forward, inverse
from .sysid import (
    IoRecord,
    decimate_record,
    estimate_tf,
    fit_percent,
    load_io_csv,
    multisine_profile,
    simulate_record,
)
from .harness import (
    JointConfig,
    JointSeries,
    QuinticRef,
    Scenario,
    SimResult,
    SineRef,
    TeachRef,
    export_csv,
    export_plot,
    load_scenario,
    load_series_csv,
    run_scenario,
    save_scenario,
    write_artifacts,
)

__version__ = "0.1.0"
