"""Closed-loop simulation of a two-DoF pneumatically actuated shoulder joint.

The package models each joint as an identified second-order transfer function,
tracks references with a robust generalized proportional integral (GPI)
controller synthesized by pole placement, and ships a scenario-driven harness
with CSV/SVG export plus tools for trajectory generation, kinematics and
transfer-function identification.
"""
from .plant import DisturbanceSpec, SecondOrderTf, dc_gain, step
from .gpi import (
    GpiDesign,
    GpiGains,
    SaturationLimits,
    closed_loop_char_poly,
    compute_gains,
    control_step,
    feedforward,
    hurwitz_poly,
)
from .trajectory import (
    DEFAULT_DT,
    JointLimits,
    RefSample,
    clamp_to_limits,
    differentiate_teach,
    load_teach_csv,
    quintic_eval,
    record_teach,
    sine_ref,
)
from .kinematics import (
    ArmLength,
    ShoulderAngles,
    WristPosition,
    forward,
    in_workspace,
    inverse,
)
from .sysid import (
    DiscreteArx2,
    IoRecord,
    decimate_record,
    estimate_tf,
    fit_arx2,
    fit_percent,
    load_io_csv,
    multisine_profile,
    simulate_record,
    to_continuous,
)
from .harness import (
    JointConfig,
    JointSeries,
    Metrics,
    QuinticRef,
    Scenario,
    SimResult,
    SineRef,
    TeachRef,
    build_reference,
    compute_metrics,
    export_csv,
    export_plot,
    load_scenario,
    load_series_csv,
    run_scenario,
    save_scenario,
    write_artifacts,
)

__version__ = "0.1.0"
