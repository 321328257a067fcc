"""End-to-end joint planning: relax, initialize, refine, recover.

The joint scheme solves the speed-unconstrained relaxation for hover
locations, initializes a hover-and-fly trajectory from them, refines
trajectory and powers by successive convex approximation, and finally
recovers an exact power schedule on the refined trajectory.  The
recovered schedule is the deliverable; the SCA powers are only an
intermediate (they are strictly interior and never declare outage), so
once recovery has ranked the slots with them ``JointPlan.sca`` drops them
and their amplitude sums and keeps the SCA trajectory, objective, status
and trace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from outage_planner.power_recovery import RecoveredSchedule, recover_powers
from outage_planner.relaxed_optimum import (
    DualPoint,
    GridSpec,
    HoverPlan,
    solve_relaxed,
)
from outage_planner.scenario import PowerSchedule, Scenario, Trajectory
from outage_planner.sca_planner import (
    DEFAULT_ROUNDS,
    ScaState,
    direct_flight,
    init_shf,
    plan_sca,
)


@dataclass(frozen=True, slots=True)
class JointPlan:
    """All stages of one joint planning run."""

    scenario: Scenario
    dual: DualPoint | None
    relaxed: HoverPlan | None
    init: Trajectory
    sca: ScaState
    recovered: RecoveredSchedule

    @property
    def trajectory(self) -> Trajectory:
        return self.sca.trajectory

    @property
    def schedule(self) -> PowerSchedule:
        return self.recovered.schedule

    @property
    def outage(self) -> float:
        return self.recovered.outage


def plan_joint(
    scenario: Scenario,
    grid: GridSpec | None = None,
    init: str = "shf",
    max_rounds: int = DEFAULT_ROUNDS,
    budget_norm: str = "horizon",
) -> JointPlan:
    """Run the full joint pipeline on a scenario.

    ``init`` picks the starting trajectory: "shf" (hover-and-fly through
    the relaxed plan's hover points, the default) or "direct".
    """
    dual = relaxed = None
    if init == "shf":
        dual, relaxed = solve_relaxed(scenario, grid)
        start = init_shf(scenario, relaxed)
    elif init == "direct":
        start = direct_flight(scenario)
    else:
        raise ValueError("init must be 'shf' or 'direct'")
    state = plan_sca(scenario, start, max_rounds=max_rounds)
    recovered = recover_powers(
        scenario, state.trajectory, budget_norm, schedule=state.schedule
    )
    return JointPlan(
        scenario, dual, relaxed, start,
        replace(state, powers=None, amplitude_sums=None), recovered,
    )
