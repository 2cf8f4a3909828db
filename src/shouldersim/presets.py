"""Default plants, designs, limits and the bundled experiment catalog.

The two joints are abbreviated throughout as "abad" (shoulder
abduction/adduction) and "fe" (flexion/extension). Plant coefficients are the
identified second-order models of the pneumatic actuation chain; design
points place the closed-loop double poles per joint.
"""
from __future__ import annotations

from importlib import resources

from .gpi import GpiDesign, SaturationLimits
from .plant import SecondOrderTf
from .trajectory import DEFAULT_DT, JointLimits

ABAD_PLANT = SecondOrderTf(gamma0=0.0005725, gamma1=0.05725, gamma2=0.044)
FE_PLANT = SecondOrderTf(gamma0=0.0003665, gamma1=0.213, gamma2=0.04079)

ABAD_DESIGN = GpiDesign(xi=0.9, wn=6.1)
FE_DESIGN = GpiDesign(xi=0.9, wn=10.25)

ABAD_LIMITS = JointLimits(theta_min=0.1745, theta_max=1.396)
FE_LIMITS = JointLimits(theta_min=0.1745, theta_max=0.5585)

DEFAULT_SATURATION = SaturationLimits(u_min=0.0, u_max=100.0)

__all__ = [
    "ABAD_PLANT", "FE_PLANT", "ABAD_DESIGN", "FE_DESIGN",
    "ABAD_LIMITS", "FE_LIMITS", "DEFAULT_SATURATION", "DEFAULT_DT",
    "scenario_dir", "bundled_scenarios",
]


def scenario_dir():
    """Filesystem path of the bundled scenario files."""
    return resources.files("shouldersim") / "scenarios"


def bundled_scenarios():
    """Sorted names of the bundled scenario JSON files (without extension)."""
    return sorted(p.name[:-5] for p in scenario_dir().iterdir() if p.name.endswith(".json"))
