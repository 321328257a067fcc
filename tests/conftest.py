"""Shared fixtures: the bundled demo scenario, randomized small instances
and the log-barrier reference for the recovery feasibility test."""

from pathlib import Path

import numpy as np
import pytest

from outage_planner import power_recovery
from outage_planner.channel import gain_at, snr
from outage_planner.convex_core import (
    BoundBlock,
    GenericBlock,
    STATUS_OPTIMAL,
    SmoothConvexProgram,
    solve_barrier,
    solve_bordered,
)
from outage_planner.scenario import Scenario, load_scenario

REPO_ROOT = Path(__file__).resolve().parents[1]
DEMO_SCENARIO = REPO_ROOT / "scenarios" / "paper.json"


@pytest.fixture(scope="session")
def demo_scenario() -> Scenario:
    return load_scenario(DEMO_SCENARIO)


def small_doc(**overrides) -> dict:
    """A hand-sized two-sensor instance; fields replaceable per test."""
    doc = {
        "sensors": [
            {"x": 20.0, "y": 10.0, "p_ave_dbm": 27.0},
            {"x": 60.0, "y": 40.0, "p_ave_dbm": 27.0},
        ],
        "h_m": 30.0,
        "beta0_db": -30.0,
        "alpha": 2.8,
        "noise_dbm": -60.0,
        "gamma_min": 100.0,
        "vmax_mps": 30.0,
        "t_s": 8.0,
        "n_slots": 8,
        "q_i": [0.0, 0.0],
        "q_f": [80.0, 50.0],
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def small_scenario() -> Scenario:
    return load_scenario(small_doc())


def random_scenario(seed: int, k_hi: int = 4, n_hi: int = 16) -> Scenario:
    """A feasible randomized instance with a non-trivial threshold.

    gamma_min is drawn as a fraction of the best overhead full-budget SNR,
    so serving at least some slots is always possible but never free.
    """
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, k_hi + 1))
    sensors = [
        {
            "x": float(rng.uniform(0.0, 60.0)),
            "y": float(rng.uniform(0.0, 60.0)),
            "p_ave_dbm": float(rng.uniform(24.0, 30.0)),
        }
        for _ in range(k)
    ]
    q_i = [float(rng.uniform(0.0, 60.0)), float(rng.uniform(0.0, 60.0))]
    q_f = [float(rng.uniform(0.0, 60.0)), float(rng.uniform(0.0, 60.0))]
    v_max = float(rng.uniform(10.0, 25.0))
    span = float(np.hypot(q_f[0] - q_i[0], q_f[1] - q_i[1]))
    duration = max(span / v_max * float(rng.uniform(1.3, 2.2)), 4.0)
    doc = small_doc(
        sensors=sensors,
        h_m=float(rng.uniform(20.0, 40.0)),
        alpha=float(rng.uniform(2.2, 3.0)),
        gamma_min=1.0,
        vmax_mps=v_max,
        t_s=duration,
        n_slots=int(rng.integers(6, n_hi + 1)),
        q_i=q_i,
        q_f=q_f,
    )
    base = load_scenario(doc)
    best = max(
        snr(s.position, base.power_budgets, base) for s in base.sensors
    )
    doc["gamma_min"] = best * float(rng.uniform(0.25, 0.7))
    return load_scenario(doc)


def captured_barrier(monkeypatch, module, run):
    """Run ``run()`` and return (program, outcome) of its one barrier solve.

    ``module`` is the planner module whose ``solve_barrier`` the call looks
    up; the real solver still runs.
    """
    seen = []
    real = module.solve_barrier

    def capture(program, **kwargs):
        seen.append((program, real(program, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(module, "solve_barrier", capture)
    run()
    assert len(seen) == 1
    return seen[0]


BARRIER_ACCEPT_SHORTFALL = 1e-9   # max phase-1 shortfall the reference accepts


def barrier_feasibility_reference(scenario, trajectory, slots, budget_norm):
    """Verdict of the phase-1 log-barrier feasibility program for ``slots``.

    The reference for ``power_recovery.feasibility_for_subset``: minimize the
    shared threshold shortfall t over powers p' (in units of budget * N / m)
    subject to 1 - t - amplitude/b <= 0 per slot, the average-power budgets
    and p' >= 0; the subset is feasible when the optimum has t <= 1e-9.
    Returns (feasible, powers) like the function it checks.
    """
    slots = np.asarray(slots, dtype=int)
    n = scenario.n_slots
    k = scenario.n_sensors
    m = slots.size
    cap_mean = 1.0 if budget_norm == "horizon" else m / n
    b = power_recovery._solver_threshold(scenario)
    gains = gain_at(trajectory.slot_positions[slots], scenario)  # (m, K)
    scale = scenario.power_budgets * n / m                       # (K,)
    e_over_b = np.sqrt(gains * scale[None, :]).T / b             # (K, m)

    nv = k * m + 1
    idx_t = nv - 1

    def p_of(z):
        return z[: k * m].reshape(k, m)

    def thresh_value(z):
        amp = (e_over_b * np.sqrt(np.maximum(p_of(z), 0.0))).sum(axis=0)
        return 1.0 - z[idx_t] - amp

    def budget_value(z):
        return p_of(z).mean(axis=1) - cap_mean

    blocks = [
        GenericBlock(thresh_value),
        GenericBlock(budget_value),
        BoundBlock(np.arange(k * m), -1.0, 0.0),
    ]

    # one K-block per slot bordered by t and the K budget rows
    budget_border = np.zeros((m, k, k))
    budget_border[:, np.arange(k), np.arange(k)] = 1.0 / m
    diag = np.arange(k)

    def newton(z, t):
        p = p_of(z)
        w = -1.0 / thresh_value(z)
        g_b = budget_value(z)
        jac_p = -e_over_b / (2.0 * np.sqrt(p))
        grad = t * grad_f
        grad[: k * m] += (
            jac_p * w - 1.0 / p - (1.0 / m) / g_b[:, None]
        ).ravel()
        grad[idx_t] -= w.sum()
        hess = jac_p.T[:, :, None] * (jac_p * w**2).T[:, None, :]
        curv = (w * e_over_b) / (4.0 * p**1.5) + 1.0 / p**2
        hess[:, diag, diag] += curv.T
        border = np.concatenate(
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
    if outcome.x[idx_t] > BARRIER_ACCEPT_SHORTFALL:
        return False, None
    powers = np.zeros((k, n))
    powers[:, slots] = p_of(outcome.x) * scale[:, None]
    return True, powers
