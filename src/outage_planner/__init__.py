"""Planning toolkit for UAV-assisted data collection under distributed beamforming.

The package jointly designs a UAV trajectory and per-sensor transmit-power
schedules so that the fraction of time slots in outage (received SNR below a
threshold) is minimized, subject to per-sensor average-power budgets and a
UAV speed limit.
"""

from outage_planner.benchmarks import (
    BenchmarkResult, run_fly_hover_fly, run_power_only, run_trajectory_only,
)
from outage_planner.channel import (
    distance, outage_indicator, outage_probability, snr, snr_series,
)
from outage_planner.pipeline import JointPlan, plan_joint
from outage_planner.power_recovery import (
    RecoveredSchedule, feasibility_for_subset, max_active_upper_bound, rank_slots,
    recover_powers,
)
from outage_planner.relaxed_optimum import (
    GridSpec, HoverPlan, build_hover_plan, dual_function, maximize_dual,
    powers_given_location, solve_relaxed,
)
from outage_planner.sca_planner import (
    ScaState, amplitude_lower_bound, direct_flight, init_shf, itinerary_trajectory,
    plan_sca, power_step, square_sum_lower_bound, trajectory_step,
)
from outage_planner.scenario import (
    PowerSchedule, Scenario, ScenarioError, SensorSite, Trajectory, db_to_linear,
    dbm_to_watts, linear_to_db, load_scenario, validate_plan, watts_to_dbm,
)

__all__ = [
    "BenchmarkResult", "GridSpec", "HoverPlan", "JointPlan", "PowerSchedule",
    "RecoveredSchedule", "ScaState", "Scenario", "ScenarioError", "SensorSite",
    "Trajectory", "amplitude_lower_bound", "build_hover_plan", "db_to_linear",
    "dbm_to_watts", "direct_flight", "distance", "dual_function",
    "feasibility_for_subset", "init_shf", "itinerary_trajectory", "linear_to_db",
    "load_scenario", "max_active_upper_bound", "maximize_dual", "outage_indicator",
    "outage_probability", "plan_joint", "plan_sca", "power_step",
    "powers_given_location", "rank_slots", "recover_powers", "run_fly_hover_fly",
    "run_power_only", "run_trajectory_only", "snr", "snr_series", "solve_relaxed",
    "square_sum_lower_bound", "trajectory_step", "validate_plan", "watts_to_dbm",
]
