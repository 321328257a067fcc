"""Correctness gate and plan-quality figures for the planning calls.

Every plan a round emits must be sound:

* ``validate_plan`` flags no violated residual;
* every slot counted as served has SNR >= gamma_min in ``snr_series``, and
  the reported outage equals the outage the channel model evaluates;
* the outage is at least the dual lower bound minus ``BOUND_TOL``.
"""

from __future__ import annotations

import numpy as np

from outage_planner import relaxed_optimum
from outage_planner.channel import outage_probability, snr_series
from outage_planner.scenario import validate_plan

BOUND_TOL = 1e-9


def _residual_problems(scen, trajectory, schedule) -> list[str]:
    return [
        f"{r.constraint}[{r.index}] violated by {r.residual:.3g}"
        for r in validate_plan(scen, trajectory, schedule)
        if r.violated
    ]


def _schedule_problems(scen, trajectory, schedule, outage, served) -> list[str]:
    """Served slots meet the threshold and the outage matches the channel.

    ``served`` is the array of slots the planner counts as served, or only
    their number when the planner reports no more (None: not reported).
    """
    problems = _residual_problems(scen, trajectory, schedule)
    values = snr_series(trajectory, schedule, scen)
    n = scen.n_slots
    if isinstance(served, np.ndarray):
        missed = served[values[served] < scen.gamma_min]
        if missed.size:
            problems.append(f"served slots {missed.tolist()} miss gamma_min")
        served = served.size
    if served is not None:
        reached = int((values >= scen.gamma_min).sum())
        if reached < served:
            problems.append(f"{served} slots counted as served, {reached} reach gamma_min")
        if outage != (n - served) / n:
            problems.append(f"outage {outage} != (N - served) / N with {served} served")
    evaluated = outage_probability(trajectory, schedule, scen)
    if outage != evaluated:
        problems.append(f"reported outage {outage} != evaluated {evaluated}")
    return problems


def _bound_problems(outage: float, dual_value: float) -> list[str]:
    if outage < dual_value - BOUND_TOL:
        return [f"outage {outage} below the dual bound {dual_value}"]
    return []


def dual_values(inputs, rounds) -> list[list[float]]:
    """Dual lower bound of each call of each round (NaN where it raised).

    ``plan_joint`` computed it itself.  For the reference schemes it is
    computed here once, outside the timed rounds.
    """
    if inputs.workload == "schemes":
        dual, _ = relaxed_optimum.solve_relaxed(inputs.scenario)
        return [[dual.value] * len(calls) for calls in rounds]
    nan = float("nan")
    return [[nan if c.error else c.result.dual.value for c in calls] for calls in rounds]


def problems(inputs, calls, duals) -> dict[str, list[str]]:
    """Gate failures per call label; an empty list means the plan passed."""
    out = {}
    for call, dual in zip(calls, duals):
        if call.error is not None:
            out[call.label] = [f"raised {call.error}"]
            continue
        scen, res = call.scenario, call.result
        if inputs.workload == "joint":
            found = _schedule_problems(
                scen, res.trajectory, res.schedule, res.outage,
                res.recovered.active_slots,
            )
        else:
            found = _schedule_problems(
                scen, res.trajectory, res.schedule, res.outage,
                res.details.get("n_active"),
            )
        out[call.label] = found + _bound_problems(res.outage, dual)
    return out


def outages(calls) -> list[float | None]:
    return [None if c.error else c.result.outage for c in calls]


def quality(calls, duals) -> dict[str, float]:
    """Workload outage and its gap to the dual bound, averaged over calls."""
    delivered = np.array(outages(calls), dtype=float)
    outage = float(np.mean(delivered))
    gap = float(np.mean(delivered - np.array(duals)))
    return {"outage": outage, "bound_gap": gap}
