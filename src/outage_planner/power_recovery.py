"""Recover a transmit-power schedule for a fixed trajectory.

Given waypoints, the largest set of non-outage slots is found by ranking
slots by the SNR they reach under full-budget transmission and searching
for the longest feasible prefix of that ranking.  A slot subset is
feasible when every slot's summed received amplitude can reach
b = sqrt(gamma * noise) within the average-power budgets.

That question is decided in price space.  At prices nu >= 0 on the
sensors' budgets the cheapest powers meeting the threshold in slot n have
a closed form (the paper's per-slot optimal-power structure) and priced
cost 1 / s_n(nu) in budget shares, s_n = sum_k g_kn C_k / (b^2 nu_k), with
C_k the energy sensor k may spend.  By weak duality (Boyd & Vandenberghe,
*Convex Optimization*, §5) f(nu) = sum_n 1 / s_n(nu) on the price simplex
bounds the least worst-case budget share rho* from below, while the
closed-form powers' largest share max_k u_k(nu) bounds it from above.
Newton's method on the K-price concave program
(``convex_core.solve_price_feasibility``) tightens the sandwich until it
settles the verdict; a feasible verdict returns the closed-form powers
themselves, scaled into the budgets.

The threshold used by the test is inflated by a tiny relative margin so
that accepted slots clear the outage test strictly even after floating
point round-off in the plan/evaluation pipeline.

``budget_norm`` selects the denominator of the average-power constraint:

* ``"horizon"`` (default): powers average over all N slots, so energy not
  spent in outage slots can be banked for active ones;
* ``"active_slots"``: powers average over the active slots only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from outage_planner.channel import gain_at, snr_from_gains
# solve_barrier is not called here, but stays a module attribute: the
# benchmark's tracer (perfbench/tracing.py) wraps it under this module
from outage_planner.convex_core import (  # noqa: F401
    ACCEPT_USAGE,
    bisect_max_feasible,
    solve_barrier,
    solve_price_feasibility,
    start_prices,
)
from outage_planner.scenario import PowerSchedule, Scenario, ScenarioError, Trajectory

THRESH_INFLATION = 3e-9   # relative inflation of gamma inside the test
CERT_MARGIN = 1e-6        # slack for the closed-form equal-split certificate
RANK_CAP = 1 - 1e-6       # schedule SNR above RANK_CAP * gamma ranks as served

BUDGET_NORMS = ("horizon", "active_slots")


@dataclass(frozen=True)
class RecoveredSchedule:
    """Result of power recovery on a fixed trajectory.

    ``active_slots`` are the 0-based slots guaranteed non-outage (sorted);
    ``ranking`` is the full slot order searched (best SNR first).
    ``probes`` counts the feasibility tests solved (prefix lengths the
    equal-split certificate did not settle), and ``fallback_used`` is true
    when the bisection found the verdicts non-monotone and fell back to a
    linear scan.
    """

    schedule: PowerSchedule
    active_slots: np.ndarray
    ranking: np.ndarray
    outage: float
    probes: int = 0
    fallback_used: bool = False

    @property
    def n_active(self) -> int:
        return int(self.active_slots.size)


def rank_slots(snr_values) -> np.ndarray:
    """Slot indices ordered by SNR descending along the last axis, ties by
    slot index ascending."""
    return np.argsort(-np.asarray(snr_values, dtype=float), axis=-1, kind="stable")


def _solver_threshold(scenario: Scenario) -> float:
    return math.sqrt(
        scenario.gamma_min * (1.0 + THRESH_INFLATION) * scenario.noise_power
    )


def _spread(budget_norm: str, n_slots: int, served):
    """Slots each budget is averaged over when ``served`` slots are served."""
    if budget_norm == "horizon":
        return n_slots
    if budget_norm == "active_slots":
        return served
    raise ValueError(f"budget_norm must be one of {BUDGET_NORMS}")


def feasibility_for_subset(
    scenario: Scenario,
    trajectory: Trajectory,
    slots,
    budget_norm: str = "horizon",
) -> tuple[bool, np.ndarray | None]:
    """Test whether every slot in ``slots`` can be served without outage.

    Returns (feasible, powers); ``powers`` has shape (K, N) with zeros on
    inactive slots and is None when infeasible.  Raises ScenarioError when
    the trajectory does not fit the scenario.
    """
    trajectory.require_fit(scenario)
    slots = np.asarray(slots, dtype=int)
    n = scenario.n_slots
    k = scenario.n_sensors
    if slots.size == 0:
        return True, np.zeros((k, n))
    if slots.min() < 0 or slots.max() >= n or np.unique(slots).size < slots.size:
        raise ValueError("slots must be distinct indices in [0, n_slots)")

    capacity = scenario.power_budgets * _spread(budget_norm, n, slots.size)
    gains = gain_at(trajectory.slot_positions[slots], scenario).T    # (K, m)
    h = gains * capacity[:, None] / _solver_threshold(scenario) ** 2

    shares = solve_price_feasibility(h)
    if shares is None:
        return False, None
    powers = np.zeros((k, n))
    powers[:, slots] = shares * capacity[:, None]
    return True, powers


def _rank_and_gains(
    scenario: Scenario,
    slot_positions: np.ndarray,
    schedule: PowerSchedule | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ranking, channel gains, full-budget amplitudes) of M trajectories,
    shapes (M, N), (M, N, K) and (M, N), from slot positions (M, N, 2).

    Slots are ranked by full-budget SNR, or when a ``schedule`` is given
    (e.g. the SCA iterate's powers) by its SNR capped just below gamma
    first.  The cap ties every slot the schedule serves, so float noise in
    the schedule cannot reorder them; full-budget SNR, then slot index,
    break the ties.
    """
    m, n = slot_positions.shape[:2]
    gains = gain_at(slot_positions.reshape(m * n, 2), scenario).reshape(m, n, -1)
    amps = np.sqrt(gains * scenario.power_budgets).sum(axis=2)
    ranking = rank_slots(amps**2 / scenario.noise_power)
    if schedule is not None:
        capped = np.minimum(
            [snr_from_gains(schedule, g, scenario) for g in gains],
            scenario.gamma_min * RANK_CAP,
        )
        # a stable sort on the cap keeps the full-budget order within ties
        ranking = np.take_along_axis(
            ranking, rank_slots(np.take_along_axis(capped, ranking, 1)), 1
        )
    return ranking, gains, amps


def _leading_run(ok: np.ndarray) -> np.ndarray:
    """Length of the leading run of true values along the last axis."""
    pad = np.zeros(ok.shape[:-1] + (1,), dtype=bool)
    return np.argmin(np.concatenate((ok, pad), axis=-1), axis=-1)


def _prefix_bracket(
    scenario: Scenario,
    ranking: np.ndarray,
    gains: np.ndarray,
    amps: np.ndarray,
    budget_norm: str,
) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) around the served count v of each of M trajectories.

    Takes ``_rank_and_gains``' output; lo and hi have shape (M,).  lo is
    the largest v certified by the closed-form equal split: each budget
    spread evenly over the v best-ranked slots scales every full-budget
    amplitude by sqrt(spread / v), and the v-th worst scaled amplitude
    must clear the solver threshold with extra margin.

    hi is the smaller of two bounds on v:

    * pooled energy: Cauchy-Schwarz gives amp_n^2 <= (sum_k g_kn)(sum_k
      P_kn), so serving slot n needs total power >= gamma * noise /
      sum_k g_kn there, and the sum over the v best-ranked slots cannot
      exceed the energy the budgets allow.
    * priced, for any v slots: with h1_kn = g_kn B_k / b^2, a budget
      spread over ``spread`` slots gives h = spread * h1 in the price
      test, and at prices nu on the price simplex slot n costs
      c_n / spread, c_n = 1 / sum_k (h1_kn / nu_k).  By weak duality the
      costs of any v slots sum to at most rho*, their least worst-case
      budget share.  Recovery serves only subsets that the price test
      accepts (rho* <= max_k u_k <= ``ACCEPT_USAGE``) or the equal split
      certifies (rho* <= 1), so v is excluded once the v cheapest costs
      over spread exceed ``ACCEPT_USAGE``, with a 1e-9 relative margin
      for round-off.  The prices are the price test's own start
      (``start_prices``).

    Both bounds admit every certified v, so lo <= hi.
    """
    n = scenario.n_slots
    v = np.arange(1, n + 1)
    spread = _spread(budget_norm, n, v)
    budgets = scenario.power_budgets
    b = _solver_threshold(scenario)
    amps_ranked = np.take_along_axis(amps, ranking, axis=1)
    certified = (
        np.minimum.accumulate(amps_ranked, axis=1) * np.sqrt(spread / v)
        >= b * (1.0 + CERT_MARGIN)
    )

    need = scenario.gamma_min * scenario.noise_power / np.take_along_axis(
        gains.sum(axis=2), ranking, axis=1
    )
    pooled = np.cumsum(need, axis=1) <= spread * budgets.sum() * (1.0 + 1e-12)

    h1 = gains * budgets / b**2
    nu = start_prices(h1.swapaxes(1, 2))
    cost = np.sort(1.0 / (h1 / nu[:, None, :]).sum(axis=2), axis=1)
    priced = np.cumsum(cost, axis=1) / spread <= ACCEPT_USAGE * (1.0 + 1e-9)
    return _leading_run(certified), np.minimum(
        _leading_run(pooled), _leading_run(priced)
    )


def served_upper_bounds(
    scenario: Scenario,
    slot_positions: np.ndarray,
    budget_norm: str = "horizon",
) -> np.ndarray:
    """``max_active_upper_bound`` for M trajectories at once.

    ``slot_positions`` has shape (M, N, 2), the slot positions of each
    trajectory; the result holds the M bounds.  Every slot of every
    trajectory goes through one array pass, so keep M * N * K modest.
    Raises ScenarioError when N is not the scenario's slot count.
    """
    if slot_positions.shape[1] != scenario.n_slots:
        raise ScenarioError(
            "trajectory",
            f"slot positions have {slot_positions.shape[1]} slots, "
            f"scenario expects {scenario.n_slots}",
        )
    ranked = _rank_and_gains(scenario, slot_positions)
    return _prefix_bracket(scenario, *ranked, budget_norm)[1]


def max_active_upper_bound(
    scenario: Scenario,
    trajectory: Trajectory,
    budget_norm: str = "horizon",
) -> int:
    """Solver-free upper bound on the non-outage slots recovery can reach:
    the upper end of recovery's bracket (``_prefix_bracket``).  Raises
    ScenarioError when the trajectory does not fit the scenario."""
    trajectory.require_fit(scenario)
    return int(
        served_upper_bounds(scenario, trajectory.slot_positions[None], budget_norm)[0]
    )


def recover_powers(
    scenario: Scenario,
    trajectory: Trajectory,
    budget_norm: str = "horizon",
    schedule: PowerSchedule | None = None,
) -> RecoveredSchedule:
    """Maximize the number of non-outage slots on a fixed trajectory.

    Slots are ranked by SNR (of ``schedule`` if given, else full budgets)
    and the longest feasible prefix is located by bisection inside the
    solver-free bracket of ``_prefix_bracket``, so most prefix lengths
    never reach the solver.  Raises ScenarioError when the trajectory has
    a non-finite waypoint or does not fit the scenario.
    """
    trajectory.require_finite()
    trajectory.require_fit(scenario)
    n = scenario.n_slots
    k = scenario.n_sensors
    ranking, gains, amps = _rank_and_gains(
        scenario, trajectory.slot_positions[None], schedule
    )
    cert_v, hi = (
        int(end[0])
        for end in _prefix_bracket(scenario, ranking, gains, amps, budget_norm)
    )
    ranking = ranking[0]

    memo: dict[int, tuple[bool, np.ndarray | None]] = {}

    def solve(v: int) -> tuple[bool, np.ndarray | None]:
        if v not in memo:
            memo[v] = feasibility_for_subset(
                scenario, trajectory, ranking[:v], budget_norm
            )
        return memo[v]

    def probe(v: int) -> bool:
        return v <= cert_v or solve(v)[0]   # certified without a solve

    result = bisect_max_feasible(probe, hi)
    v_star = result.value

    feasible, powers = solve(v_star) if v_star else (True, np.zeros((k, n)))
    if not feasible:
        # the certificate guarantees the closed-form split works
        split = scenario.power_budgets * _spread(budget_norm, n, v_star) / v_star
        powers = np.zeros((k, n))
        powers[:, ranking[:v_star]] = split[:, None]

    active = np.sort(ranking[:v_star])
    return RecoveredSchedule(
        schedule=PowerSchedule(powers),
        active_slots=active,
        ranking=ranking,
        outage=(n - v_star) / n,
        probes=len(memo),
        fallback_used=result.fallback_used,
    )
