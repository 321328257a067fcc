"""Package exports: a pinned public list; each name is its defining module's object."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import outage_planner
from tests.conftest import DEMO_SCENARIO

EXPORTS = {
    "benchmarks": [
        "BenchmarkResult", "run_fly_hover_fly", "run_power_only", "run_trajectory_only",
    ],
    "channel": [
        "distance", "outage_indicator", "outage_probability", "snr", "snr_series",
    ],
    "pipeline": ["JointPlan", "plan_joint"],
    "power_recovery": [
        "RecoveredSchedule", "feasibility_for_subset", "max_active_upper_bound",
        "rank_slots", "recover_powers",
    ],
    "relaxed_optimum": [
        "GridSpec", "HoverPlan", "build_hover_plan", "dual_function",
        "maximize_dual", "powers_given_location", "solve_relaxed",
    ],
    "sca_planner": [
        "ScaState", "amplitude_lower_bound", "direct_flight", "init_shf",
        "itinerary_trajectory", "plan_sca", "power_step", "square_sum_lower_bound",
        "trajectory_step",
    ],
    "scenario": [
        "PowerSchedule", "Scenario", "ScenarioError", "SensorSite", "Trajectory",
        "db_to_linear", "dbm_to_watts", "linear_to_db", "load_scenario",
        "validate_plan", "watts_to_dbm",
    ],
}
HOME = {name: module for module, names in EXPORTS.items() for name in names}


def test_all_is_the_pinned_sorted_list():
    assert outage_planner.__all__ == sorted(HOME)


@pytest.mark.parametrize("name", sorted(HOME))
def test_export_resolves(name):
    module = importlib.import_module(f"outage_planner.{HOME[name]}")
    assert getattr(outage_planner, name) is getattr(module, name)


def test_package_and_cli_import_without_scipy():
    # scipy may serve the tests as an oracle, never the package itself
    src = str(Path(outage_planner.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, outage_planner, outage_planner.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_package_loads_scenarios_without_jsonschema():
    # jsonschema serves the tests as an oracle for load_scenario only
    src = str(Path(outage_planner.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys; sys.modules['jsonschema'] = None; "
        "import outage_planner, outage_planner.cli; "
        f"print(outage_planner.load_scenario({str(DEMO_SCENARIO)!r}).n_sensors)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "10"


# imported but never read: module attributes that perfbench/tracing.py
# wraps by name, and nothing else
UNREAD_IMPORTS = {
    ("benchmarks", "max_active_upper_bound"),
    ("power_recovery", "solve_barrier"),
    ("sca_planner", "solve_barrier"),
}


def unread_imports(tree: ast.Module) -> set[str]:
    """Names a module imports but never reads; ``__all__`` counts as read."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return imported - read


def test_every_import_is_read_but_the_traced_ones():
    package = Path(outage_planner.__file__).parent
    unread = {
        (path.stem, name)
        for path in sorted(package.glob("*.py"))
        for name in unread_imports(ast.parse(path.read_text()))
    }
    assert unread == UNREAD_IMPORTS
