"""Package exports: a pinned public list; each name is its defining module's object."""

import importlib

import pytest

import outage_planner

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
