"""Shared fixtures: the bundled demo scenario and randomized small instances."""

from pathlib import Path

import numpy as np
import pytest

from outage_planner.channel import snr
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
