"""Reference planning schemes the joint optimizer is compared against.

* trajectory-only: every sensor transmits at its full budget in every
  slot; only the trajectory is optimized (successive convex steps).
* power-only: the UAV flies the straight constant-speed path; the power
  schedule is recovered on it.
* fly-hover-fly: the UAV flies at maximum speed to a single hover point,
  waits there, then flies on to the finish; the hover point is picked by
  scanning a grid and recovering powers on each candidate itinerary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from outage_planner.channel import outage_probability
from outage_planner.power_recovery import (
    max_active_upper_bound,
    recover_powers,
)
from outage_planner.relaxed_optimum import GridSpec
from outage_planner.scenario import PowerSchedule, Scenario, Trajectory
from outage_planner.sca_planner import (
    DEFAULT_ROUNDS,
    direct_flight,
    itinerary_trajectory,
    plan_sca,
    trajectory_step,
)

FHF_GRID_POINTS = 41   # default via-point grid resolution per axis


@dataclass(frozen=True)
class BenchmarkResult:
    name: str
    trajectory: Trajectory
    schedule: PowerSchedule
    outage: float
    details: dict = field(default_factory=dict)


def _evaluated(name, trajectory, schedule, scenario, **details):
    out = outage_probability(trajectory, schedule, scenario)
    return BenchmarkResult(name, trajectory, schedule, out, dict(details))


def run_trajectory_only(
    scenario: Scenario, max_rounds: int = DEFAULT_ROUNDS
) -> BenchmarkResult:
    """Optimize only the trajectory; powers stay at the full budgets."""
    state = plan_sca(
        scenario,
        direct_flight(scenario),
        steps=(("trajectory", trajectory_step),),
        max_rounds=max_rounds,
    )
    return _evaluated(
        "trajectory_only",
        state.trajectory,
        state.schedule,
        scenario,
        steps=len(state.trace),
        objective=state.objective,
    )


def run_power_only(
    scenario: Scenario, budget_norm: str = "horizon"
) -> BenchmarkResult:
    """Recover powers on the straight constant-speed flight."""
    trajectory = direct_flight(scenario)
    recovered = recover_powers(scenario, trajectory, budget_norm)
    return _evaluated(
        "power_only",
        trajectory,
        recovered.schedule,
        scenario,
        n_active=recovered.n_active,
        budget_norm=budget_norm,
    )


def run_fly_hover_fly(
    scenario: Scenario,
    grid: GridSpec | None = None,
    budget_norm: str = "horizon",
) -> BenchmarkResult:
    """Best single-hover itinerary over a grid of candidate hover points.

    Ties in outage are broken by row-major grid order.  Candidates are
    visited by their solver-free bound on the served slots, largest first,
    and those whose bound cannot beat the incumbent are never recovered.
    """
    if grid is None:
        grid = GridSpec.from_scenario(scenario, resolution=FHF_GRID_POINTS)
    points = grid.points()
    q_i = np.asarray(scenario.q_start)
    q_f = np.asarray(scenario.q_final)
    v = scenario.v_max

    legs = np.linalg.norm(points - q_i[None, :], axis=1) + np.linalg.norm(
        q_f[None, :] - points, axis=1
    )
    hover = scenario.duration - legs / v
    reachable = np.flatnonzero(hover >= -1e-9 * scenario.duration)
    if reachable.size == 0:
        # no detour fits; degenerate to the straight flight
        recovered = recover_powers(
            scenario, direct_flight(scenario), budget_norm
        )
        return _evaluated(
            "fly_hover_fly",
            direct_flight(scenario),
            recovered.schedule,
            scenario,
            via=None,
            budget_norm=budget_norm,
        )

    def build(idx: int) -> Trajectory:
        return itinerary_trajectory(
            scenario, [points[idx]], [max(hover[idx], 0.0)]
        )

    bounds = {
        idx: max_active_upper_bound(scenario, build(idx), budget_norm)
        for idx in reachable
    }
    # best bound first: once a bound falls below the incumbent's served
    # count, no later candidate can beat it
    best_n, best_idx, best_rec, evaluations = -1, -1, None, 0
    for idx in sorted(reachable, key=lambda i: (-bounds[i], i)):
        if bounds[idx] < best_n:
            break
        if bounds[idx] == best_n and idx > best_idx:
            continue
        rec = recover_powers(scenario, build(idx), budget_norm)
        evaluations += 1
        if (rec.n_active, -idx) > (best_n, -best_idx):
            best_n, best_idx, best_rec = rec.n_active, idx, rec

    trajectory = build(best_idx)
    return _evaluated(
        "fly_hover_fly",
        trajectory,
        best_rec.schedule,
        scenario,
        via=tuple(np.round(points[best_idx], 12)),
        hover_s=float(max(hover[best_idx], 0.0)),
        n_active=best_rec.n_active,
        evaluations=evaluations,
        budget_norm=budget_norm,
    )
