"""Reference planning schemes the joint optimizer is compared against.

* trajectory-only: every sensor transmits at its full budget in every
  slot; only the trajectory is optimized (successive convex steps).
* power-only: the UAV flies the straight constant-speed path; the power
  schedule is recovered on it.
* fly-hover-fly: the UAV flies at maximum speed to a single hover point,
  waits there, then flies on to the finish; the hover point is the grid
  point whose itinerary recovery serves best.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from outage_planner.channel import outage_probability
# max_active_upper_bound is not called here, but stays a module attribute:
# the benchmark's tracer (perfbench/tracing.py) wraps it under this module
from outage_planner.power_recovery import (  # noqa: F401
    max_active_upper_bound,
    recover_powers,
    served_upper_bounds,
)
from outage_planner.relaxed_optimum import GridSpec
from outage_planner.scenario import PowerSchedule, Scenario, Trajectory
from outage_planner.sca_planner import (
    DEFAULT_ROUNDS,
    direct_flight,
    itinerary_trajectory,
    itinerary_waypoints,
    plan_sca,
    trajectory_step,
)

FHF_GRID_POINTS = 41   # default via-point grid resolution per axis
BOUND_BLOCK = 20_000   # slot-sensor entries per block of bounded candidates


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

    Ties in outage are broken by row-major grid order.  Every reachable
    candidate's served count is first bounded without a solver
    (``served_upper_bounds``: the upper end of recovery's bracket,
    ``power_recovery._prefix_bracket``), in blocks of ``BOUND_BLOCK``
    slot-sensor entries.  Candidates are then recovered by bound, largest
    first, until a bound falls below the best served count; the result is
    that of the full sweep.
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
    hover = np.maximum(hover, 0.0)
    per_block = max(1, BOUND_BLOCK // (scenario.n_slots * scenario.n_sensors))
    best_n, best_idx, best, evaluations = -1, -1, None, 0
    if reachable.size:         # np.concatenate needs at least one block
        bounds = np.concatenate([
            served_upper_bounds(
                scenario,
                itinerary_waypoints(
                    scenario, points[block][:, None], hover[block][:, None]
                )[:, 1:],
                budget_norm,
            )
            for block in np.split(
                reachable, range(per_block, reachable.size, per_block)
            )
        ])
        # best bound first: once a bound falls below the incumbent's
        # served count, no later candidate can beat it
        for j in np.lexsort((reachable, -bounds)):
            idx, bound = int(reachable[j]), int(bounds[j])
            if bound < best_n:
                break
            if bound == best_n and idx > best_idx:
                continue
            trajectory = itinerary_trajectory(
                scenario, [points[idx]], [hover[idx]]
            )
            rec = recover_powers(scenario, trajectory, budget_norm)
            evaluations += 1
            if (rec.n_active, -idx) > (best_n, -best_idx):
                best_n, best_idx, best = rec.n_active, idx, (trajectory, rec)

    if best is None:
        # no detour fits; degenerate to the straight flight
        trajectory = direct_flight(scenario)
        rec = recover_powers(scenario, trajectory, budget_norm)
        via, hover_s, evaluations = None, 0.0, 1
    else:
        trajectory, rec = best
        via = tuple(np.round(points[best_idx], 12))
        hover_s = float(hover[best_idx])
    return _evaluated(
        "fly_hover_fly",
        trajectory,
        rec.schedule,
        scenario,
        via=via,
        hover_s=hover_s,
        n_active=rec.n_active,
        evaluations=evaluations,
        budget_norm=budget_norm,
    )
