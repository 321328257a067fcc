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
Newton's method on the K-price concave program tightens the sandwich
until it settles the verdict; a feasible verdict returns the closed-form
powers themselves, scaled into the budgets.

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

from outage_planner.channel import gain_at, snr_series
# solve_barrier is not called here, but stays a module attribute: the
# benchmark's tracer (perfbench/tracing.py) wraps it under this module
from outage_planner.convex_core import (  # noqa: F401
    bisect_max_feasible,
    solve_barrier,
)
from outage_planner.scenario import PowerSchedule, Scenario, Trajectory

THRESH_INFLATION = 3e-9   # relative inflation of gamma inside the test
ACCEPT_USAGE = 1 + 2e-9   # max budget share still declared feasible: a
                          # 1e-9 amplitude shortfall, (1 - 1e-9)^-2 - 1
CERT_MARGIN = 1e-6        # slack for the closed-form equal-split certificate
RANK_CAP = 1 - 1e-6       # schedule SNR above RANK_CAP * gamma ranks as served
_PRICE_MAX_NEWTON = 30    # Newton steps of the price test before giving up
_ARMIJO_C = 0.01          # slope fraction of its backtracking search

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
    """Slot indices ordered by SNR descending, ties by slot index ascending."""
    snr_values = np.asarray(snr_values, dtype=float)
    return np.lexsort((np.arange(snr_values.size), -snr_values))


def _solver_threshold(scenario: Scenario) -> float:
    return math.sqrt(
        scenario.gamma_min * (1.0 + THRESH_INFLATION) * scenario.noise_power
    )


def _budget_capacity(
    scenario: Scenario, budget_norm: str, m: int
) -> np.ndarray:
    """Energy C_k each sensor may spend over m served slots, shape (K,)."""
    if budget_norm == "horizon":
        return scenario.power_budgets * scenario.n_slots
    if budget_norm == "active_slots":
        return scenario.power_budgets * m
    raise ValueError(f"budget_norm must be one of {BUDGET_NORMS}")


def feasibility_for_subset(
    scenario: Scenario,
    trajectory: Trajectory,
    slots,
    budget_norm: str = "horizon",
) -> tuple[bool, np.ndarray | None]:
    """Test whether every slot in ``slots`` can be served without outage.

    Returns (feasible, powers); ``powers`` has shape (K, N) with zeros on
    inactive slots and is None when infeasible.
    """
    slots = np.asarray(slots, dtype=int)
    n = scenario.n_slots
    k = scenario.n_sensors
    if slots.size == 0:
        return True, np.zeros((k, n))
    if slots.min() < 0 or slots.max() >= n or np.unique(slots).size < slots.size:
        raise ValueError("slots must be distinct indices in [0, n_slots)")

    capacity = _budget_capacity(scenario, budget_norm, slots.size)
    gains = gain_at(trajectory.slot_positions[slots], scenario).T    # (K, m)
    h = gains * capacity[:, None] / _solver_threshold(scenario) ** 2

    def priced(nu):
        # s_n = sum_k h_kn / nu_k; 1 / s_n is the priced cost of slot n
        s = (h / nu[:, None]).sum(axis=0)
        return float((1.0 / s).sum()), s

    # The cheapest threshold-meeting powers at prices nu spend the share
    # x_kn = h_kn / (nu_k s_n)^2 of C_k in slot n.  Their usage u = x 1 and
    # f(nu) = nu . u = sum_n 1 / s_n sandwich the least worst-case share
    # rho*: f(nu) <= rho* <= max_k u_k, with equality at the maximizer of
    # the concave f over the price simplex, which Newton's method seeks.
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, k] = kkt[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    nu = np.sqrt(h.sum(axis=1))
    nu /= nu.sum()
    for _ in range(_PRICE_MAX_NEWTON):
        f, s = priced(nu)
        a = h / (nu**2)[:, None]
        x = a / s**2
        usage = x.sum(axis=1)
        top = float(usage.max())
        if top <= ACCEPT_USAGE:
            powers = np.zeros((k, n))
            powers[:, slots] = x * (capacity / max(1.0, top))[:, None]
            return True, powers
        if f > ACCEPT_USAGE:
            return False, None

        # Newton step of max f subject to sum(nu) = 1; the gradient of f
        # is u, and f is homogeneous of degree one, so its Hessian is
        # singular along nu and only the bordered system is solvable
        kkt[:k, :k] = 2.0 * (a / s**3) @ a.T - np.diag(2.0 * usage / nu)
        rhs[:k] = -usage
        try:
            step = np.linalg.solve(kkt, rhs)[:k]
        except np.linalg.LinAlgError:
            break
        slope = float(usage @ step)
        if not slope > 1e-15 * f:
            break  # converged short of a verdict
        shrink = step < 0.0
        room = np.min(nu[shrink] / -step[shrink], initial=np.inf)
        alpha = min(1.0, 0.99 * float(room))  # fraction to the boundary
        for _ in range(60):
            cand = nu + alpha * step
            if priced(cand)[0] >= f + _ARMIJO_C * alpha * slope:
                break
            alpha *= 0.5
        else:
            break
        nu = cand / cand.sum()
    return False, None  # undecided: the conservative verdict


def _equal_split_prefix(
    scenario: Scenario, full_amp_ranked: np.ndarray, budget_norm: str
) -> int:
    """Largest v certified feasible by the closed-form equal split.

    Splitting each budget evenly over the v best slots scales every
    full-budget amplitude by sqrt(N / v) under horizon normalization (no
    scaling under active-slot normalization); the certificate checks the
    v-th worst amplitude against the solver threshold with extra margin.
    """
    n = scenario.n_slots
    b = _solver_threshold(scenario) * (1.0 + CERT_MARGIN)
    prefix_min = np.minimum.accumulate(full_amp_ranked)
    v_values = np.arange(1, n + 1)
    if budget_norm == "horizon":
        ok = prefix_min * np.sqrt(n / v_values) >= b
    else:
        ok = prefix_min >= b
    idx = np.flatnonzero(~ok)
    return int(idx[0]) if idx.size else n


def _pooled_energy_prefix(
    scenario: Scenario, gains_ranked: np.ndarray, budget_norm: str
) -> int:
    """Largest v not excluded by the pooled-energy necessary condition.

    Cauchy-Schwarz gives amp_n^2 <= (sum_k c_kn)(sum_k P_kn), so serving
    slot n needs total power >= gamma * noise / sum_k c_kn there; the sums
    over served slots cannot exceed the total energy the budgets allow.
    """
    n = scenario.n_slots
    need = scenario.gamma_min * scenario.noise_power / gains_ranked.sum(axis=1)
    cum = np.cumsum(need)
    total = scenario.power_budgets.sum()
    v_values = np.arange(1, n + 1)
    if budget_norm == "horizon":
        ok = cum <= n * total * (1.0 + 1e-12)
    else:
        ok = cum <= v_values * total * (1.0 + 1e-12)
    idx = np.flatnonzero(~ok)
    return int(idx[0]) if idx.size else n


def _rank_and_gains(
    scenario: Scenario,
    trajectory: Trajectory,
    schedule: PowerSchedule | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ranking, channel gains and full-budget amplitudes in rank order).

    Slots are ranked by full-budget SNR, or when a ``schedule`` is given
    (e.g. the SCA iterate's powers) by its SNR capped just below gamma
    first.  The cap ties every slot the schedule serves, so float noise in
    the schedule cannot reorder them; full-budget SNR, then slot index,
    break the ties.
    """
    n = scenario.n_slots
    k = scenario.n_sensors
    full = PowerSchedule(
        np.broadcast_to(scenario.power_budgets[:, None], (k, n)).copy()
    )
    full_snr = snr_series(trajectory, full, scenario)
    if schedule is None:
        ranking = rank_slots(full_snr)
    else:
        capped = np.minimum(
            snr_series(trajectory, schedule, scenario),
            scenario.gamma_min * RANK_CAP,
        )
        ranking = np.lexsort((np.arange(n), -full_snr, -capped))
    gains_ranked = gain_at(trajectory.slot_positions, scenario)[ranking]
    full_amp_ranked = np.sqrt(
        gains_ranked * scenario.power_budgets[None, :]
    ).sum(axis=1)
    return ranking, gains_ranked, full_amp_ranked


def max_active_upper_bound(
    scenario: Scenario,
    trajectory: Trajectory,
    budget_norm: str = "horizon",
) -> int:
    """Solver-free upper bound on the non-outage slots recovery can reach."""
    if budget_norm not in BUDGET_NORMS:
        raise ValueError(f"budget_norm must be one of {BUDGET_NORMS}")
    _, gains_ranked, _ = _rank_and_gains(scenario, trajectory)
    return _pooled_energy_prefix(scenario, gains_ranked, budget_norm)


def recover_powers(
    scenario: Scenario,
    trajectory: Trajectory,
    budget_norm: str = "horizon",
    schedule: PowerSchedule | None = None,
) -> RecoveredSchedule:
    """Maximize the number of non-outage slots on a fixed trajectory.

    Slots are ranked by SNR (of ``schedule`` if given, else full budgets)
    and the longest feasible prefix is located by bisection, bracketed
    below by the equal-split certificate and above by the pooled-energy
    bound so most prefix lengths never reach the solver.
    """
    if budget_norm not in BUDGET_NORMS:
        raise ValueError(f"budget_norm must be one of {BUDGET_NORMS}")
    n = scenario.n_slots
    k = scenario.n_sensors
    ranking, gains_ranked, full_amp_ranked = _rank_and_gains(
        scenario, trajectory, schedule
    )

    cert_v = _equal_split_prefix(scenario, full_amp_ranked, budget_norm)
    hi = _pooled_energy_prefix(scenario, gains_ranked, budget_norm)
    hi = max(hi, cert_v)

    memo: dict[int, tuple[bool, np.ndarray | None]] = {}

    def solve(v: int) -> tuple[bool, np.ndarray | None]:
        if v not in memo:
            memo[v] = feasibility_for_subset(
                scenario, trajectory, ranking[:v], budget_norm
            )
        return memo[v]

    def probe(v: int) -> bool:
        if v == 0 or (v <= cert_v and v not in memo):
            return True   # certified without a solve
        return solve(v)[0]

    result = bisect_max_feasible(probe, 0, hi)
    v_star = result.value

    powers = np.zeros((k, n))
    if v_star > 0:
        feasible, solved = solve(v_star)
        if feasible:
            powers = solved
        else:
            # certificate guarantees the closed-form split works
            split = _budget_capacity(scenario, budget_norm, v_star) / v_star
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
