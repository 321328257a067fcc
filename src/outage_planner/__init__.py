"""Planning toolkit for UAV-assisted data collection under distributed beamforming.

The package jointly designs a UAV trajectory and per-sensor transmit-power
schedules so that the fraction of time slots in outage (received SNR below a
threshold) is minimized, subject to per-sensor average-power budgets and a
UAV speed limit.

Submodules are imported lazily so the command line entry point can pin the
numerical thread count before numpy loads.
"""

import importlib

_EXPORTS = {
    "outage_planner.scenario": [
        "PowerSchedule",
        "Scenario",
        "ScenarioError",
        "SensorSite",
        "Trajectory",
        "db_to_linear",
        "dbm_to_watts",
        "linear_to_db",
        "load_scenario",
        "validate_plan",
        "watts_to_dbm",
    ],
    "outage_planner.channel": [
        "distance",
        "outage_indicator",
        "outage_probability",
        "snr",
        "snr_series",
    ],
    "outage_planner.relaxed_optimum": [
        "GridSpec",
        "HoverPlan",
        "build_hover_plan",
        "dual_function",
        "maximize_dual",
        "powers_given_location",
        "solve_relaxed",
    ],
    "outage_planner.sca_planner": [
        "ScaState",
        "amplitude_lower_bound",
        "direct_flight",
        "init_shf",
        "itinerary_trajectory",
        "plan_sca",
        "power_step",
        "square_sum_lower_bound",
        "trajectory_step",
    ],
    "outage_planner.power_recovery": [
        "RecoveredSchedule",
        "feasibility_for_subset",
        "max_active_upper_bound",
        "rank_slots",
        "recover_powers",
    ],
    "outage_planner.benchmarks": [
        "BenchmarkResult",
        "run_fly_hover_fly",
        "run_power_only",
        "run_trajectory_only",
    ],
    "outage_planner.pipeline": [
        "JointPlan",
        "plan_joint",
    ],
}

_NAME_TO_MODULE = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = sorted(_NAME_TO_MODULE)


def __getattr__(name):
    module = _NAME_TO_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
