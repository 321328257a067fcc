"""Speed-unconstrained optimum: pricing, duals, and hover plans."""

import numpy as np
import pytest

from outage_planner.channel import gain_at, snr
from outage_planner.convex_core import (
    STATUS_OPTIMAL,
    BoundBlock,
    GenericBlock,
    SmoothConvexProgram,
    solve_barrier,
)
from outage_planner.relaxed_optimum import (
    GridSpec,
    dual_function,
    hover_plan_record,
    maximize_dual,
    powers_given_location,
    solve_relaxed,
)
from outage_planner.scenario import load_scenario
from tests.conftest import random_scenario, small_doc


def barrier_power_oracle(mu, q, scenario):
    """Independent interior-point solve of the cheapest-power subproblem.

    Parameterized in received amplitudes rho_k = sqrt(P_k): minimize
    sum mu_k rho_k^2 subject to sum c_k rho_k >= amplitude target.
    """
    cvec = np.sqrt(gain_at(np.asarray(q, dtype=float)[None, :], scenario)[0])
    b_amp = np.sqrt(scenario.gamma_min * scenario.noise_power)
    k = scenario.n_sensors
    x0 = np.full(k, 1.1 * b_amp / (k * cvec.min()))
    prog = SmoothConvexProgram(
        objective=lambda x: float(mu @ x**2),
        gradient=lambda x: 2.0 * mu * x,
        x0=x0,
        blocks=[
            GenericBlock(
                value=lambda x: np.array([b_amp - cvec @ x]),
                jacobian=lambda x: -cvec[None, :],
            ),
            BoundBlock(np.arange(k), -1.0, 0.0),
        ],
        hessian=lambda x: np.diag(2.0 * mu),
    )
    out = solve_barrier(prog, gap_tol=1e-13, max_newton=600)
    assert out.status == STATUS_OPTIMAL
    return out.x**2


def test_powers_match_barrier_oracle(small_scenario):
    rng = np.random.default_rng(17)
    for _ in range(10):
        mu = rng.uniform(0.1, 10.0, size=small_scenario.n_sensors)
        q = rng.uniform(-20.0, 100.0, size=2)
        closed = powers_given_location(mu, q, small_scenario)
        oracle = barrier_power_oracle(mu, q, small_scenario)
        np.testing.assert_allclose(closed, oracle, rtol=1e-6)


def test_powers_meet_threshold_with_equality(small_scenario):
    rng = np.random.default_rng(23)
    for _ in range(10):
        mu = rng.uniform(0.05, 5.0, size=small_scenario.n_sensors)
        q = rng.uniform(-20.0, 100.0, size=2)
        p = powers_given_location(mu, q, small_scenario)
        achieved = snr(q, p, small_scenario)
        assert achieved == pytest.approx(small_scenario.gamma_min, rel=1e-9)


def test_powers_zero_priced_sensor_pinned_at_cap(small_scenario):
    mu = np.array([0.0, 1.0])
    q = np.array([40.0, 25.0])
    p = powers_given_location(mu, q, small_scenario)
    cap = small_scenario.n_slots * small_scenario.power_budgets[0]
    assert p[0] == pytest.approx(cap, rel=1e-12)
    assert snr(q, p, small_scenario) >= small_scenario.gamma_min * (1 - 1e-12)


def test_powers_input_validation(small_scenario):
    with pytest.raises(ValueError):
        powers_given_location(np.array([1.0]), (0.0, 0.0), small_scenario)
    with pytest.raises(ValueError):
        powers_given_location(np.array([-1.0, 1.0]), (0.0, 0.0), small_scenario)


def test_grid_spec_row_major_points(small_scenario):
    grid = GridSpec(0.0, 2.0, 10.0, 11.0, nx=3, ny=2)
    pts = grid.points()
    assert pts.shape == (6, 2)
    np.testing.assert_allclose(pts[0], [0.0, 10.0])
    np.testing.assert_allclose(pts[1], [1.0, 10.0])  # x varies fastest
    np.testing.assert_allclose(pts[3], [0.0, 11.0])

    auto = GridSpec.from_scenario(small_scenario, resolution=21)
    box = auto.points()
    xs = np.concatenate(
        [small_scenario.sensor_xy[:, 0],
         [small_scenario.q_start[0], small_scenario.q_final[0]]]
    )
    assert box[:, 0].min() <= xs.min() and box[:, 0].max() >= xs.max()


def test_subproblem_branches(small_scenario):
    points = GridSpec.from_scenario(small_scenario, resolution=21).points()
    gains = gain_at(points, small_scenario)
    budgets = small_scenario.power_budgets

    mu = np.full(small_scenario.n_sensors, 1e-4)
    point = dual_function(mu, small_scenario, gains)
    assert point.grid_index is not None           # transmit branch
    assert point.value + mu @ budgets < 1.0        # priced transmit cost
    powers = point.subgradient + budgets
    assert snr(points[point.grid_index], powers, small_scenario) >= (
        small_scenario.gamma_min * (1 - 1e-9)
    )

    pricey = np.full(small_scenario.n_sensors, 1e4)
    silent = dual_function(pricey, small_scenario, gains)
    assert silent.grid_index is None              # outage branch
    assert silent.value == 1.0 - float(pricey @ budgets)  # pays exactly 1
    assert not (silent.subgradient + budgets).any()  # zero powers


def test_dual_supergradient_inequality(small_scenario):
    grid = GridSpec.from_scenario(small_scenario, resolution=21)
    gains = gain_at(grid.points(), small_scenario)
    rng = np.random.default_rng(31)
    for _ in range(8):
        mu_a = rng.uniform(0.0, 2.0, size=small_scenario.n_sensors)
        mu_b = rng.uniform(0.0, 2.0, size=small_scenario.n_sensors)
        at_a = dual_function(mu_a, small_scenario, gains)
        at_b = dual_function(mu_b, small_scenario, gains)
        # concavity: g(b) <= g(a) + s_a . (b - a)
        assert at_b.value <= at_a.value + at_a.subgradient @ (mu_b - mu_a) + 1e-12


def test_maximize_dual_beats_random_prices(small_scenario):
    grid = GridSpec.from_scenario(small_scenario, resolution=21)
    best = maximize_dual(small_scenario, grid)
    gains = gain_at(grid.points(), small_scenario)
    rng = np.random.default_rng(37)
    for _ in range(10):
        mu = rng.uniform(0.0, 1.0, size=small_scenario.n_sensors)
        probe = dual_function(mu, small_scenario, gains)
        assert best.value >= probe.value - 1e-6
    assert best.iterations > 0


def test_solve_relaxed_plan_is_consistent(small_scenario):
    dual, plan = solve_relaxed(
        small_scenario, GridSpec.from_scenario(small_scenario, resolution=21)
    )
    assert 0.0 <= plan.outage <= 1.0
    assert plan.durations.sum() <= small_scenario.duration * (1 + 1e-9)
    assert plan.outage == pytest.approx(
        (small_scenario.duration - plan.durations.sum())
        / small_scenario.duration,
        abs=1e-12,
    )
    for loc, p in zip(plan.locations, plan.powers):
        assert snr(loc, p, small_scenario) >= small_scenario.gamma_min * (
            1 - 1e-9
        )
    # time-shared average power within budgets
    avg = (plan.powers * plan.durations[:, None]).sum(axis=0)
    avg /= small_scenario.duration
    assert np.all(
        avg <= small_scenario.power_budgets * (1 + 1e-6)
    )
    # plan outage is consistent with the dual bound
    assert plan.outage >= dual.value - 0.02


def test_single_sensor_hover_location_overhead():
    doc = small_doc(
        sensors=[{"x": 40.0, "y": 25.0, "p_ave_dbm": 27.0}],
        q_i=[0.0, 0.0],
        q_f=[80.0, 50.0],
        gamma_min=2000.0,
    )
    scn = load_scenario(doc)
    _, plan = solve_relaxed(scn, GridSpec.from_scenario(scn, resolution=41))
    assert len(plan.locations) >= 1
    grid = GridSpec.from_scenario(scn, resolution=41)
    cell = float(np.hypot(grid.dx, grid.dy))
    dist = np.linalg.norm(plan.locations - np.array([40.0, 25.0]), axis=1)
    assert dist.min() <= cell + 1e-9


def test_hover_plan_record_round_trip(small_scenario):
    _, plan = solve_relaxed(
        small_scenario, GridSpec.from_scenario(small_scenario, resolution=21)
    )
    rec = hover_plan_record(plan, small_scenario)
    assert set(rec) >= {"outage", "mu", "hover_locations"}
    assert rec["outage"] == pytest.approx(plan.outage, abs=1e-12)
    assert len(rec["hover_locations"]) == len(plan.locations)
    for item in rec["hover_locations"]:
        assert {"x", "y", "duration_s", "powers_dbm"} <= set(item)
