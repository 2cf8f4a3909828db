"""The package's public names and module layering, pinned: changing either shows in the diff.

The root exports what a user calls. The per-tick and per-array layers (the
control law, the plant step, the reference samplers) are importable from
their modules only, so they can change without changing this list. Every
spec dataclass checks its fields where it is built.
"""
import ast
import dataclasses
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import shouldersim
from shouldersim import presets
from shouldersim.plant import field_types

PUBLIC_NAMES = [
    "DEFAULT_DT", "DisturbanceSpec", "GpiDesign", "IoRecord", "JointConfig", "JointLimits", "JointSeries",
    "QuinticRef", "SaturationLimits", "Scenario", "SecondOrderTf", "SimResult", "SineRef", "TeachRef",
    "closed_loop_char_poly", "compute_gains", "decimate_record", "estimate_tf", "export_csv", "export_plot",
    "fit_percent", "forward", "inverse", "load_io_csv", "load_scenario", "load_series_csv",
    "multisine_profile", "run_scenario", "save_scenario", "simulate_record", "write_artifacts",
]
README = Path(__file__).resolve().parents[1] / "README.md"
# module -> the package modules it imports; the layers below a module never import it
LAYERS = {
    "plant": set(),
    "trajectory": {"plant"},
    "kinematics": set(),
    "plotting": set(),
    "gpi": {"plant"},
    "sysid": {"plant", "trajectory"},
    "presets": {"gpi", "plant", "trajectory"},
    "harness": {"gpi", "plant", "plotting", "trajectory"},
    "cli": {"gpi", "harness", "kinematics", "plant", "presets", "sysid", "trajectory"},
    "__init__": {"gpi", "harness", "kinematics", "plant", "sysid", "trajectory"},
    "__main__": {"cli"},
}


def test_public_names_are_pinned():
    # submodules become package attributes when anything imports them, so they are left out
    exported = sorted(
        name for name, value in vars(shouldersim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_NAMES


def test_every_public_name_is_listed_in_the_readme_library_api():
    # the section runs from its heading to the next level-2 heading
    section = re.search(r"^## Library API\n(.*?)(?=^## )", README.read_text(), re.M | re.S)
    assert section is not None, "README has no '## Library API' section"
    listed = set(re.findall(r"`(\w+)`", section.group(1)))
    assert [name for name in PUBLIC_NAMES if name not in listed] == []


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


def package_imports(source: str) -> set:
    """The shouldersim modules that a module's source imports, anywhere in it.

    Relative (from .gpi import x, from . import gpi) and absolute forms both
    count; each import is named by its first component under the package.
    """
    dotted = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["shouldersim", node.module])) if node.level else node.module
            dotted += [f"{base}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in dotted if name.startswith("shouldersim.")}


def test_package_imports_one_way():
    package = Path(shouldersim.__file__).resolve().parent
    imports = {path.stem: package_imports(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert imports == LAYERS


def _reach_q1():
    return shouldersim.load_scenario(presets.scenario_dir() / "reach_q1.json")


# class name -> a valid instance of it
EXAMPLES = {
    "SecondOrderTf": lambda: presets.ABAD_PLANT,
    "DisturbanceSpec": lambda: shouldersim.DisturbanceSpec(magnitude=5.0, onset=10.0),
    "GpiDesign": lambda: presets.ABAD_DESIGN,
    "SaturationLimits": lambda: presets.DEFAULT_SATURATION,
    "JointLimits": lambda: presets.ABAD_LIMITS,
    "QuinticRef": lambda: shouldersim.QuinticRef(0.1745, 0.6981, 10.0),
    "SineRef": lambda: shouldersim.SineRef(1.0, 1.6e-3, 300.0),
    "TeachRef": lambda: shouldersim.TeachRef(file=presets.scenario_dir() / "taught_demo.csv"),
    "JointConfig": lambda: _reach_q1().joints["abad"],
    "Scenario": _reach_q1,
    "IoRecord": lambda: shouldersim.IoRecord(u=np.linspace(0.0, 1.0, 10), theta=np.zeros(10)),
}
# fields that the constructor converts before it checks them: a list of pairs, a sequence of samples
CONVERTED_FIRST = {("Scenario", "joints"), ("IoRecord", "u"), ("IoRecord", "theta")}


def spec_classes() -> list:
    """Every frozen dataclass defined in a shouldersim module."""
    package = Path(shouldersim.__file__).resolve().parent
    modules = [importlib.import_module(f"shouldersim.{path.stem}") for path in sorted(package.glob("*.py"))]
    return sorted(
        {
            value for module in modules for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
            and dataclasses.is_dataclass(value) and value.__dataclass_params__.frozen
        },
        key=lambda cls: cls.__name__,
    )


@pytest.mark.parametrize("cls", spec_classes(), ids=lambda cls: cls.__name__)
def test_every_spec_dataclass_checks_its_fields(cls):
    # a new spec class needs an example here, so it cannot skip check_fields unnoticed
    assert cls.__name__ in EXAMPLES, f"no example of {cls.__name__} in EXAMPLES"
    example = EXAMPLES[cls.__name__]()
    for name, hint in field_types(cls).items():
        if hint is float:
            single = dataclasses.replace(example, **{name: np.float32(getattr(example, name))})
            assert type(getattr(single, name)) is float
            with pytest.raises(TypeError, match=f"^{cls.__name__}.{name}: expected a number, got True$"):
                dataclasses.replace(example, **{name: True})
        elif (cls.__name__, name) not in CONVERTED_FIRST:
            with pytest.raises(TypeError, match=f"^{cls.__name__}.{name}: expected .+, got 1j$"):
                dataclasses.replace(example, **{name: 1j})
