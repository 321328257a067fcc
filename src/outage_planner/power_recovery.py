"""Recover a transmit-power schedule for a fixed trajectory.

Given waypoints, the largest set of non-outage slots is found by ranking
slots by the SNR they reach under full-budget transmission and searching
for the longest feasible prefix of that ranking.  Feasibility of a slot
subset is a convex program: each active slot needs summed received
amplitude at least sqrt(gamma * noise), concave in the powers, under the
average-power budgets.  It is solved in phase-1 form (minimize the
threshold shortfall t) with the log-barrier method.

The threshold used by the solver is inflated by a tiny relative margin so
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
from outage_planner.convex_core import (
    BoundBlock,
    GenericBlock,
    STATUS_OPTIMAL,
    SmoothConvexProgram,
    bisect_max_feasible,
    solve_barrier,
    solve_bordered,
)
from outage_planner.scenario import PowerSchedule, Scenario, Trajectory

THRESH_INFLATION = 3e-9   # relative inflation of gamma inside the solver
ACCEPT_SHORTFALL = 1e-9   # max phase-1 shortfall still declared feasible
CERT_MARGIN = 1e-6        # slack for the closed-form equal-split certificate

BUDGET_NORMS = ("horizon", "active_slots")


@dataclass(frozen=True)
class RecoveredSchedule:
    """Result of power recovery on a fixed trajectory.

    ``active_slots`` are the 0-based slots guaranteed non-outage (sorted);
    ``ranking`` is the full slot order searched (best SNR first).
    """

    schedule: PowerSchedule
    active_slots: np.ndarray
    ranking: np.ndarray
    outage: float

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


def _budget_cap(budget_norm: str, m: int, n: int) -> float:
    # cap on mean(p') where p' is power in units of budget * N / m
    if budget_norm == "horizon":
        return 1.0
    if budget_norm == "active_slots":
        return m / n
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

    m = slots.size
    cap_mean = _budget_cap(budget_norm, m, n)
    b = _solver_threshold(scenario)
    gains = gain_at(trajectory.slot_positions[slots], scenario)  # (m, K)
    scale = scenario.power_budgets * n / m                       # (K,)
    e_over_b = np.sqrt(gains * scale[None, :]).T / b             # (K, m)

    nv = k * m + 1
    idx_t = nv - 1

    def p_of(z):
        return z[: k * m].reshape(k, m)

    def thresh_value(z):
        # negative powers are rejected by the bound block; clip so the
        # amplitude stays finite during infeasible line-search probes
        amp = (e_over_b * np.sqrt(np.maximum(p_of(z), 0.0))).sum(axis=0)
        return 1.0 - z[idx_t] - amp

    def budget_value(z):
        return p_of(z).mean(axis=1) - cap_mean

    blocks = [
        GenericBlock(thresh_value),
        GenericBlock(budget_value),
        BoundBlock(np.arange(k * m), -1.0, 0.0),
    ]

    # Newton system: one K-block per slot (its powers), bordered by the
    # shared shortfall t and the K budget rows, each budget row eliminated
    # into the border as y_k = (budget row k) . dz / g_k^2 (entry -g_k^2)
    budget_border = np.zeros((m, k, k))
    budget_border[:, np.arange(k), np.arange(k)] = 1.0 / m
    diag = np.arange(k)

    def newton(z, t):
        p = p_of(z)
        w = -1.0 / thresh_value(z)                    # (m,) > 0
        g_b = budget_value(z)
        jac_p = -e_over_b / (2.0 * np.sqrt(p))        # (K, m)
        grad = t * grad_f
        grad[: k * m] += (
            jac_p * w - 1.0 / p - (1.0 / m) / g_b[:, None]
        ).ravel()
        grad[idx_t] -= w.sum()
        hess = jac_p.T[:, :, None] * (jac_p * w**2).T[:, None, :]
        curv = (w * e_over_b) / (4.0 * p**1.5) + 1.0 / p**2
        hess[:, diag, diag] += curv.T
        border = np.concatenate(                       # d2/(dp dt), budgets
            [-(jac_p * w**2).T[:, :, None], budget_border], axis=2
        )
        h_tt = (w**2).sum()
        hess_trace = float(
            np.trace(hess, axis1=1, axis2=2).sum()
            + h_tt
            + (1.0 / (m * g_b**2)).sum()
        )

        def solve(rhs, ridge):
            corner = np.diag(np.concatenate([[h_tt + ridge], -(g_b**2)]))
            x, y = solve_bordered(
                hess + ridge * np.eye(k) if ridge else hess,
                border,
                corner,
                rhs[: k * m].reshape(k, m).T,
                np.concatenate([rhs[idx_t:], np.zeros(k)]),
            )
            return np.concatenate([x.T.ravel(), y[:1]])

        return grad, hess_trace, solve

    z0 = np.empty(nv)
    z0[: k * m] = 0.45 * cap_mean
    amp0 = (e_over_b * np.sqrt(p_of(z0))).sum(axis=0)
    z0[idx_t] = max(0.0, float((1.0 - amp0).max())) + 0.5

    grad_f = np.zeros(nv)
    grad_f[idx_t] = 1.0
    program = SmoothConvexProgram(
        objective=lambda z: float(z[idx_t]),
        gradient=lambda z: grad_f,
        x0=z0,
        blocks=blocks,
        newton=newton,
    )
    outcome = solve_barrier(program, gap_tol=1e-11, max_newton=400)
    if outcome.status != STATUS_OPTIMAL:
        return False, None
    if outcome.x[idx_t] > ACCEPT_SHORTFALL:
        return False, None

    powers = np.zeros((k, n))
    powers[:, slots] = p_of(outcome.x) * scale[:, None]
    return True, powers


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

    Slots are ranked by the SNR of ``schedule`` when one is given (e.g. the
    SCA iterate's powers), otherwise by full-budget SNR.
    """
    n = scenario.n_slots
    k = scenario.n_sensors
    if schedule is None:
        full = np.broadcast_to(scenario.power_budgets[:, None], (k, n)).copy()
        schedule = PowerSchedule(full)
    snr_vals = snr_series(trajectory, schedule, scenario)
    ranking = rank_slots(snr_vals)
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

    def probe(v: int) -> bool:
        if v == 0:
            return True
        if v <= cert_v and v not in memo:
            return True   # certified without a solve
        if v not in memo:
            memo[v] = feasibility_for_subset(
                scenario, trajectory, ranking[:v], budget_norm
            )
        return memo[v][0]

    result = bisect_max_feasible(probe, 0, hi)
    v_star = result.value

    if v_star == 0:
        powers = np.zeros((k, n))
    else:
        if v_star in memo and memo[v_star][0]:
            powers = memo[v_star][1]
        else:
            feasible, powers = feasibility_for_subset(
                scenario, trajectory, ranking[:v_star], budget_norm
            )
            if not feasible:
                # certificate guarantees the closed-form split works
                powers = np.zeros((k, n))
                split = scenario.power_budgets * (
                    n / v_star if budget_norm == "horizon" else 1.0
                )
                powers[:, ranking[:v_star]] = split[:, None]

    active = np.sort(ranking[:v_star])
    return RecoveredSchedule(
        schedule=PowerSchedule(powers),
        active_slots=active,
        ranking=ranking,
        outage=(n - v_star) / n,
    )
