"""Speed-unconstrained optimum: pricing, duals, and hover plans."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from outage_planner import relaxed_optimum
from outage_planner.channel import gain_at, snr
from outage_planner.pipeline import plan_joint
from outage_planner.relaxed_optimum import (
    EPS_MU,
    GAP_TOL,
    DualPoint,
    GridSpec,
    build_hover_plan,
    dual_function,
    hover_plan_record,
    maximize_dual,
    powers_given_location,
    solve_relaxed,
)
from outage_planner.scenario import load_scenario, plan_violations
from tests.conftest import (
    DEGENERATE,
    DEMO_SCENARIO,
    REPO_ROOT,
    barrier_power_oracle,
    exact_solve,
    full_grid_maximize_dual,
    random_scenario,
    small_doc,
    smallest_normal_budget_dbm,
)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_prices_are_rejected(small_scenario, bad):
    mu = np.array([1.0, bad])
    grid = GridSpec.from_scenario(small_scenario, resolution=5)
    gains = gain_at(grid.points(), small_scenario)
    for call in (
        lambda: dual_function(mu, small_scenario, gains),
        lambda: dual_function(np.full(2, bad), small_scenario, gains),
        lambda: powers_given_location(mu, (0.0, 0.0), small_scenario),
    ):
        with pytest.raises(ValueError, match="finite"):
            call()


@pytest.mark.parametrize(
    "q", [(np.nan, 0.0), (0.0, np.inf), (0.0, 0.0, 0.0), (1.0,), 3.0]
)
def test_powers_reject_bad_locations(small_scenario, q):
    with pytest.raises(ValueError, match="two finite numbers"):
        powers_given_location(np.ones(2), q, small_scenario)


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


ZERO_PRICE_CASES = (
    "some zero", "all zero, caps reach", "all zero, caps fall short"
)


@pytest.mark.parametrize("seed", [0, 4, 5])
@pytest.mark.parametrize("case", ZERO_PRICE_CASES)
def test_zero_prices_match_a_per_point_loop(case, seed):
    """Pricing with zero prices on a 21 x 21 grid against a loop over
    ``powers_given_location``: a point's cost is its priced power if that
    meets the threshold and infinite otherwise."""
    scn = random_scenario(seed)
    k = scn.n_sensors
    assert k >= 3
    points = GridSpec.from_scenario(scn, resolution=21).points()
    gains = gain_at(points, scn)
    caps = scn.n_slots * scn.power_budgets
    mu = np.zeros(k)
    if case == "some zero":
        # sensor 0 is free but its cap alone reaches the threshold nowhere;
        # the others are priced low enough to transmit somewhere
        only_0 = np.append(caps[0], np.zeros(k - 1))
        alone = max(snr(q, only_0, scn) for q in points)
        scn = replace(scn, gamma_min=2.0 * alone)
        top = gains[:, 1:].sum(axis=1).max() / (scn.gamma_min * scn.noise_power)
        mu[1:] = top * np.random.default_rng(seed).uniform(0.25, 0.5, size=k - 1)
    elif case == "all zero, caps fall short":
        scn = replace(scn, gamma_min=2.0 * max(snr(q, caps, scn) for q in points))
    free = mu == 0.0
    costs = np.empty(len(points))
    for i, q in enumerate(points):
        powers = powers_given_location(mu, q, scn)
        np.testing.assert_array_equal(powers[free], caps[free])
        meets = snr(q, powers, scn) >= scn.gamma_min * (1 - 1e-9)
        costs[i] = float(mu @ powers) if meets else np.inf
    idx = int(costs.argmin())
    budgets = scn.power_budgets
    got = dual_function(mu, scn, gains)
    assert got.value == pytest.approx(
        min(1.0, costs[idx]) - float(mu @ budgets), abs=1e-12
    )
    if case == "all zero, caps fall short":
        assert got.grid_index is None and got.value == 1.0
        return
    assert costs[idx] < 1.0 and got.grid_index == idx
    column = got.subgradient + budgets
    assert snr(points[idx], column, scn) >= scn.gamma_min * (1 - 1e-9)
    np.testing.assert_array_equal(column[free], caps[free])
    if case == "some zero":
        assert np.all(column[~free] > 0.0)   # the priced sensors split the rest


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
        gamma_min=250.0,  # the per-slot cap reaches 293 overhead
    )
    scn = load_scenario(doc)
    grid = GridSpec.from_scenario(scn, resolution=41)
    _, plan = solve_relaxed(scn, grid)
    assert len(plan.locations) >= 1
    cell = float(np.hypot(grid.dx, grid.dy))
    dist = np.linalg.norm(plan.locations - np.array([40.0, 25.0]), axis=1)
    assert dist.min() <= cell + 1e-9

    # beyond the cap's reach no slot can be served: the whole horizon's
    # budget spent in one slot stays below the threshold everywhere
    scn = load_scenario(dict(doc, gamma_min=2000.0))
    dual, plan = solve_relaxed(scn, grid)
    assert dual.value == plan.outage == 1.0
    assert len(plan.locations) == 0


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


def _at_threshold(doc, fraction):
    """The scenario ``doc`` with gamma at ``fraction`` x its best
    single-sensor overhead SNR."""
    base = load_scenario(doc)
    best = max(snr(s.position, base.power_budgets, base) for s in base.sensors)
    return load_scenario(dict(doc, gamma_min=fraction * best))


EXACT_CASES = (
    [("paper.json", 81)]
    + [(f"random {seed}", res) for seed in range(12) for res in (41, 21)]
    + [(name, res) for name in DEGENERATE for res in (21, 3)]
    + [("below single-sensor SNR", 21)]
)


@pytest.mark.parametrize("case, resolution", EXACT_CASES)
def test_maximize_dual_matches_full_grid_loop(case, resolution):
    if case == "paper.json":
        scn = load_scenario(DEMO_SCENARIO)
    elif case.startswith("random"):
        scn = random_scenario(int(case.split()[1]), k_hi=8)
    elif case in DEGENERATE:
        scn = load_scenario(DEGENERATE[case])
    else:  # prices near 0
        scn = _at_threshold(small_doc(), 0.4)
    grid = GridSpec.from_scenario(scn, resolution=resolution)
    got = maximize_dual(scn, grid)
    # the bound reaches the ellipsoid's, and the master certifies it
    assert got.value >= full_grid_maximize_dual(scn, grid).value - 1e-9
    assert got.gap <= GAP_TOL
    assert got.gap == pytest.approx(
        1.0 - got.shares.sum() - got.value, abs=1e-15
    )
    gains = gain_at(grid.points(), scn)
    again = dual_function(got.mu, scn, gains)
    assert again.value == got.value and again.grid_index == got.grid_index
    # at most one positive-time column per master row
    assert got.columns.size == got.shares.size <= scn.n_sensors + 1
    assert np.all(got.shares > 0.0)
    used = (got.shares[:, None] * got.column_powers).sum(axis=0)
    assert np.all(used <= scn.power_budgets * (1 + 1e-9))
    for idx, powers in zip(got.columns, got.column_powers):
        assert snr(grid.points()[idx], powers, scn) >= scn.gamma_min * (1 - 1e-9)


@pytest.mark.parametrize("shift_db", [0.0, -120.0, 60.0])
@pytest.mark.parametrize("p_dbm", [24.0, 30.0, 36.0])
def test_dual_function_reads_back_the_maximized_dual(p_dbm, shift_db):
    """maximize_dual prices budget shares and converts its prices and its
    supergradient to watts on the way out; dual_function converts them
    back.  The round trip keeps the value exactly, the grid point, and
    the supergradient to 1e-15 of the budget, in any unit of power."""
    doc = json.loads(DEMO_SCENARIO.read_text())
    doc["n_slots"] = 32
    for sensor in doc["sensors"]:
        sensor["p_ave_dbm"] = p_dbm + shift_db
    doc["noise_dbm"] += shift_db
    scn = load_scenario(doc)
    grid = GridSpec.from_scenario(scn)
    got = maximize_dual(scn, grid)
    again = dual_function(got.mu, scn, gain_at(grid.points(), scn))
    assert again.value == got.value
    assert again.grid_index == got.grid_index
    np.testing.assert_allclose(
        again.subgradient, got.subgradient, rtol=0.0,
        atol=1e-15 * scn.power_budgets[0],
    )


@pytest.mark.parametrize("case", ["gamma 0.47x", "gamma 0.8x", "32 dBm"])
def test_hover_plan_reaches_the_bound_with_degenerate_duals(case):
    # master duals are 0 on slack budgets here: the hover plan must still
    # reach the bound
    if case == "32 dBm":
        scn = load_scenario(DEMO_SCENARIO).with_overrides(p_ave_dbm=32.0)
    else:
        paper = json.loads(DEMO_SCENARIO.read_text())
        scn = _at_threshold(paper, float(case.split()[1][:-1]))
    dual, plan = solve_relaxed(scn, GridSpec.from_scenario(scn, resolution=81))
    assert dual.gap <= GAP_TOL
    assert plan.outage - dual.value <= 1e-9
    for loc, powers in zip(plan.locations, plan.powers):
        assert snr(loc, powers, scn) >= scn.gamma_min * (1 - 1e-9)


@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_scenarios_relax_and_plan_cleanly(case):
    """One sensor, one slot, q_i == q_f, co-located sensors, alpha = 2 and
    thresholds unreachable or trivially met, on a 21 x 21 grid.  Every
    master here ends at zero prices.  At an unreachable threshold no grid
    point can transmit even at the caps, so the first pricing pass takes
    the outage branch and the loop ends before any column.  The hover
    plan and the joint plan keep within the bound, and the joint plan
    meets every constraint.
    """
    scn = load_scenario(DEGENERATE[case])
    grid = GridSpec.from_scenario(scn, resolution=21)
    dual, hover = solve_relaxed(scn, grid)
    assert (dual.mu == 0.0).all()
    if case == "unreachable threshold":
        assert dual.grid_index is None and dual.iterations == 1
        assert dual.value == hover.outage == 1.0
    assert dual.gap <= GAP_TOL
    assert hover.outage >= dual.value - 1e-9
    plan = plan_joint(scn, grid=grid)
    assert plan.dual.value == dual.value
    assert plan.outage >= dual.value - 1e-9
    assert plan_violations(scn, plan.trajectory, plan.schedule) == []


def test_final_master_matches_an_exact_solve(monkeypatch):
    """On paper.json at 32 dBm and 81 x 81 the budgets serve the whole
    mission, so the stabilized column generation picks the hover plan and
    its master LP is solved after every pass that adds a column, each
    solve going on from the last one's tableau.  The final shares and
    prices match an exact rational solve of the final basis within 1e-11:
    each solve refines its basic values against the original rows, so
    rounding does not build up along the chain.
    """
    masters = []
    real = relaxed_optimum.solve_lp

    def kept(lp, start=None):
        masters.append((lp, real(lp, start=start)))
        return masters[-1][1]

    monkeypatch.setattr(relaxed_optimum, "solve_lp", kept)
    scn = load_scenario(DEMO_SCENARIO).with_overrides(p_ave_dbm=32.0)
    got = maximize_dual(scn, GridSpec.from_scenario(scn))
    assert got.value == 0.0 and got.gap <= GAP_TOL
    assert len(masters) >= 3
    lp, out = masters[-1]
    m, n = lp.a_ub.shape
    vertex = np.concatenate([out.x, lp.b_ub - lp.a_ub @ out.x])
    basis = np.flatnonzero(vertex > 1e-9)
    assert basis.size == m   # a nondegenerate vertex names its basis
    columns = np.hstack([lp.a_ub, np.eye(m)])[:, basis]
    cost = np.concatenate([lp.c, np.zeros(m)])[basis]

    def exact(matrix, rhs):
        return exact_solve(
            [[Fraction(float(v)) for v in row] for row in matrix],
            [Fraction(float(v)) for v in rhs],
        )

    np.testing.assert_allclose(
        vertex[basis], exact(columns, lp.b_ub), rtol=0, atol=1e-11
    )
    np.testing.assert_allclose(
        out.duals, -exact(columns.T, cost), rtol=0, atol=1e-11
    )


# dual values of the unsmoothed loop (prices from zero, at the master's
# duals on every pass), on paper.json at 81 x 81 and the joint workload's
# seeds 0-5 (perfbench/workloads.py: N = 48, sensors jittered per seed)
UNSMOOTHED_DUALS = {
    "paper.json": 0.027333913432771362,
    "joint 0": 0.02733391337644242,
    "joint 1": 0.0320986563165343,
    "joint 2": 0.02009568642248294,
    "joint 3": 0.029754903120081666,
    "joint 4": 0.01939545262978426,
    "joint 5": 0.017692708003079094,
}


def _workloads_module():
    path = REPO_ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("case", sorted(UNSMOOTHED_DUALS))
def test_smoothed_loop_reaches_the_unsmoothed_dual(case):
    if case == "paper.json":
        scn = load_scenario(DEMO_SCENARIO)
    else:
        seed = int(case.split()[1])
        scn = _workloads_module().build(REPO_ROOT, "joint", seed).scenario
    got = maximize_dual(scn, GridSpec.from_scenario(scn))
    assert got.gap <= GAP_TOL
    assert got.value == pytest.approx(UNSMOOTHED_DUALS[case], abs=GAP_TOL)


def _record_passes(monkeypatch):
    """Record every pricing pass's prices per budget share and every
    master's duals, in call order, as ("price", nu) and ("master", duals)."""
    events = []
    price, solve = relaxed_optimum._price, relaxed_optimum.solve_lp

    def priced(mu, *args):
        events.append(("price", np.array(mu)))
        return price(mu, *args)

    def solved(lp, start=None):
        out = solve(lp, start=start)
        events.append(("master", out.duals))
        return out

    monkeypatch.setattr(relaxed_optimum, "_price", priced)
    monkeypatch.setattr(relaxed_optimum, "solve_lp", solved)
    return events


def _after_first_master(events):
    """The prices of the first pass after the first master solve."""
    first = [kind for kind, _ in events].index("master")
    return next(arr for kind, arr in events[first:] if kind == "price")


def test_paper_json_passes_stay_smoothed(monkeypatch):
    """On paper.json at 81 x 81, only the first pass has a zero price.  At
    30 dBm the budgets leave outage, and the exact restricted solves reach
    the bound in 10 passes; no master LP runs.  At 32 dBm the
    budgets serve the whole mission after 2 such passes, and the
    stabilized loop picks the hover plan from the zero-price column on:
    its next pass prices every budget share at the uniform 1 / K."""
    events = _record_passes(monkeypatch)
    for p_dbm in (30.0, 32.0):
        events.clear()
        scn = load_scenario(DEMO_SCENARIO).with_overrides(p_ave_dbm=p_dbm)
        got = maximize_dual(scn, GridSpec.from_scenario(scn))
        mus = [mu for kind, mu in events if kind == "price"]
        assert len(mus) == got.iterations <= 10
        assert got.gap <= GAP_TOL
        assert [i for i, mu in enumerate(mus) if (mu <= EPS_MU).any()] == [0]
        k = scn.n_sensors
        if p_dbm == 30.0:
            assert got.value > 0.0
            assert "master" not in [kind for kind, _ in events]
            # the restricted optimum's prices add up to its served time
            assert all(0.0 < mu.sum() < 1.0 for mu in mus[1:])
        else:
            assert got.value == 0.0
            np.testing.assert_array_equal(
                _after_first_master(events), np.full(k, 1.0 / k)
            )


def test_fallback_prices_at_the_master_duals(monkeypatch, small_scenario):
    """Wentges' fallback of the stabilized loop: on the two-sensor
    scenario at 5 x 5, run on its own from the zero-price pass, a smoothed
    column fails to price out at the master's duals, so the next pass
    prices at those duals; the loop still closes the gap.  ``maximize_dual``
    runs this loop only once the budgets serve the whole mission, where
    no case measured so far reaches the fallback, so the loop is run on
    its own here."""
    events = _record_passes(monkeypatch)
    k = small_scenario.n_sensors
    gains = gain_at(
        GridSpec.from_scenario(small_scenario, resolution=5).points(),
        small_scenario,
    ) * small_scenario.power_budgets
    zero = relaxed_optimum._price(np.zeros(k), small_scenario, gains)
    got = relaxed_optimum._column_generation(small_scenario, gains, zero, 0)
    duals, fallbacks = None, 0
    for (kind, arr), (before, _) in zip(events[1:], events):
        if kind == "master":
            duals = arr[:k]
        elif before == "price" and np.array_equal(arr, duals):
            fallbacks += 1
    assert fallbacks >= 1
    assert got.gap <= GAP_TOL
    # the zero-price pass, priced above, counts as the loop's first
    assert got.iterations == len([e for e in events if e[0] == "price"])


def test_smallest_normal_budgets_price_at_finite_prices(monkeypatch):
    """Budgets of 2.2e-308 W, the least a scenario accepts (subnormal
    ones are rejected at load), still give O(1) budget rows and share
    prices: every pass prices at finite prices, the loop closes the gap,
    and the columns spend no more than each budget.  At gamma 100 the
    budgets serve the whole mission, and the stabilized loop's first pass
    prices at the uniform 1 / K; at gamma 400 they do not, and every pass
    after the zero one prices at shares that add up to the served time."""
    events = _record_passes(monkeypatch)
    p_dbm = smallest_normal_budget_dbm()
    sensors = [
        {"x": 20.0, "y": 10.0, "p_ave_dbm": p_dbm},
        {"x": 60.0, "y": 40.0, "p_ave_dbm": p_dbm},
    ]
    for gamma_min in (100.0, 400.0):
        events.clear()
        # a large reference gain lets the caps reach the threshold
        scn = load_scenario(
            small_doc(sensors=sensors, beta0_db=-p_dbm, gamma_min=gamma_min)
        )
        got = maximize_dual(scn, GridSpec.from_scenario(scn, resolution=21))
        mus = [mu for kind, mu in events if kind == "price"]
        assert got.iterations == len(mus) >= 2
        assert all(np.isfinite(mu).all() for mu in mus)
        if gamma_min == 100.0:
            assert got.value == 0.0
            np.testing.assert_array_equal(
                _after_first_master(events), [0.5, 0.5]
            )
        else:
            assert got.value > 0.0
            assert all(0.0 < mu.sum() < 1.0 for mu in mus[1:])
        assert got.gap <= GAP_TOL
        spent = got.shares @ got.column_powers / scn.power_budgets
        assert np.all(spent <= 1.0 + 1e-9)


def test_iteration_cap_reports_the_open_gap(monkeypatch):
    """paper.json at 21 x 21 reaches its bound in 5 passes; capped at 3,
    the loop reports the open gap, and the plan of its restricted
    optimum keeps within the budgets."""
    scn = load_scenario(DEMO_SCENARIO)
    grid = GridSpec.from_scenario(scn, resolution=21)
    assert solve_relaxed(scn, grid)[0].iterations == 5
    monkeypatch.setattr(relaxed_optimum, "_MAX_ITERATIONS", 3)
    dual, plan = solve_relaxed(scn, grid)
    assert dual.iterations == 3
    assert dual.gap > GAP_TOL
    assert plan.outage == pytest.approx(dual.value + dual.gap, abs=1e-12)
    used = (plan.powers * plan.durations[:, None]).sum(axis=0) / scn.duration
    assert np.all(used <= scn.power_budgets * (1 + 1e-9))


def _below_full_time(case):
    """(scenario, grid resolution) whose budgets leave some outage."""
    if case.startswith("paper.json"):
        p_dbm = float(case.split()[1])
        return load_scenario(DEMO_SCENARIO).with_overrides(
            n_slots=32, p_ave_dbm=p_dbm
        ), 81
    if case.startswith("joint"):
        return _workloads_module().build(
            REPO_ROOT, "joint", int(case.split()[1])
        ).scenario, 81
    if case == "small_doc":
        return load_scenario(small_doc()), 21
    if case == "just short of full time":
        return _at_threshold(small_doc(), 1.2), 21
    if case.endswith(" 2x"):   # a degenerate layout at twice its threshold
        scn = load_scenario(DEGENERATE[case[:-3]])
        return replace(scn, gamma_min=2.0 * scn.gamma_min), 21
    seed = int(case.split()[1])   # a random layout at 5 x its threshold
    scn = random_scenario(seed, k_hi=6)
    return replace(scn, gamma_min=5.0 * scn.gamma_min), 21


BELOW_FULL_TIME = [
    "paper.json 24", "paper.json 28", "paper.json 30", "joint 3",
    "small_doc", "just short of full time", "random 0", "random 1", "random 2",
    "random 3",
    # one sensor: every entering point swaps out the face's one point;
    # co-located sensors: each row depends on any other
    "one sensor 2x", "co-located sensors 2x",
]


@pytest.mark.parametrize("case", BELOW_FULL_TIME)
def test_restricted_optimum_certifies_the_bound(case):
    """Where the budgets leave outage, the returned prices certify the
    restricted optimum: no grid point prices below the bound, 1 - gap,
    and every support point prices at exactly 1, so its column is the
    closed-form cheapest one there.  The columns are distinct grid
    points, at most K + 1, and spend every budget, none beyond it but
    for rounding; the served time equals the sum of the share prices
    (strong duality)."""
    scn, resolution = _below_full_time(case)
    grid = GridSpec.from_scenario(scn, resolution=resolution)
    got = maximize_dual(scn, grid)
    assert got.value > 0.0 and got.gap <= GAP_TOL
    budgets = scn.power_budgets
    nu = got.mu * budgets
    gains = gain_at(grid.points(), scn) * budgets
    costs = relaxed_optimum._transmit(nu, scn, gains)[0]
    assert costs.min() >= 1.0 - got.gap - 1e-12
    np.testing.assert_allclose(costs[got.columns], 1.0, rtol=0, atol=1e-12)
    assert got.shares.sum() == pytest.approx(nu.sum(), rel=0, abs=1e-12)
    assert got.value == pytest.approx(1.0 - nu.sum(), rel=0, abs=GAP_TOL)
    assert np.unique(got.columns).size == got.columns.size
    assert got.columns.size <= scn.n_sensors + 1
    assert np.all(got.shares > 0.0)
    spent = got.shares @ got.column_powers / budgets
    np.testing.assert_allclose(spent, 1.0, rtol=0, atol=1e-12)
    for idx, powers in zip(got.columns, got.column_powers):
        np.testing.assert_allclose(
            powers, powers_given_location(got.mu, grid.points()[idx], scn),
            rtol=1e-12,
        )


def _least_price_sum(scn, grid):
    """min sum_k 1 / u_k subject to e_q . u <= 1 at every grid point q,
    with e_q the full-budget received powers in units of gamma * noise,
    by scipy's SLSQP over log u."""
    from scipy.optimize import minimize

    e = gain_at(grid.points(), scn) * scn.power_budgets
    e /= scn.gamma_min * scn.noise_power
    start = np.full(scn.n_sensors, -math.log(e.sum(axis=1).max()))
    out = minimize(
        lambda z: np.exp(-z).sum(),
        start,
        jac=lambda z: -np.exp(-z),
        constraints=[{
            "type": "ineq",
            "fun": lambda z: 1.0 - e @ np.exp(z),
            "jac": lambda z: -e * np.exp(z),
        }],
        method="SLSQP",
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    assert out.success, out.message
    return float(out.fun)


@pytest.mark.parametrize("resolution", [3, 5, 9])
@pytest.mark.parametrize("case", BELOW_FULL_TIME[4:])
def test_dual_matches_the_oracles_on_small_grids(case, resolution):
    """On small grids the dual reaches the ellipsoid method's value, and
    both match 1 - min{sum_k 1 / u_k : e_q . u <= 1 for every q} found by
    a general-purpose minimizer."""
    scn, _ = _below_full_time(case)
    grid = GridSpec.from_scenario(scn, resolution=resolution)
    got = maximize_dual(scn, grid)
    assert got.gap <= GAP_TOL
    ellipsoid = full_grid_maximize_dual(scn, grid).value
    assert ellipsoid - 1e-9 <= got.value <= ellipsoid + 1e-6
    least = _least_price_sum(scn, grid)
    assert got.value == pytest.approx(max(0.0, 1.0 - least), rel=0, abs=1e-8)


FULL_TIME = ["paper.json 32", "paper.json 34", "trivial threshold"] + [
    f"random {seed}" for seed in range(4)
]


@pytest.mark.parametrize("case", FULL_TIME)
def test_full_time_keeps_the_stabilized_loop_plan(case):
    """Where the budgets serve the whole mission, ``maximize_dual`` hands
    over to the stabilized column generation from its zero-price pass,
    so the dual point and hover plan are bit for bit those of that loop
    run on its own; only the passes spent finding the regime are added."""
    if case.startswith("paper.json"):
        scn = load_scenario(DEMO_SCENARIO).with_overrides(
            n_slots=32, p_ave_dbm=float(case.split()[1])
        )
    elif case in DEGENERATE:
        scn = load_scenario(DEGENERATE[case])
    else:
        scn = random_scenario(int(case.split()[1]), k_hi=10, n_hi=32)
    grid = GridSpec.from_scenario(scn)
    got = maximize_dual(scn, grid)
    gains = gain_at(grid.points(), scn) * scn.power_budgets
    zero = relaxed_optimum._price(np.zeros(scn.n_sensors), scn, gains)
    alone = relaxed_optimum._column_generation(scn, gains, zero, 0)
    assert got.value == alone.value == 0.0
    assert got.grid_index == alone.grid_index
    assert got.gap == alone.gap <= GAP_TOL
    assert got.iterations >= alone.iterations
    for name in ("mu", "subgradient", "columns", "column_powers", "shares"):
        assert getattr(got, name).tobytes() == getattr(alone, name).tobytes()
    plans = [build_hover_plan(d, scn, grid) for d in (got, alone)]
    for name in ("locations", "powers", "durations", "mu"):
        assert getattr(plans[0], name).tobytes() == (
            getattr(plans[1], name).tobytes()
        )
    assert plans[0].outage == plans[1].outage


def test_hover_plan_merges_columns_of_one_grid_point(small_scenario):
    grid = GridSpec.from_scenario(small_scenario, resolution=5)
    dual = DualPoint(
        np.zeros(2), 0.0, np.zeros(2),
        columns=np.array([7, 3, 7]),
        column_powers=np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 2.0]]),
        shares=np.array([0.25, 0.5, 0.125]),
    )
    plan = build_hover_plan(dual, small_scenario, grid)
    np.testing.assert_array_equal(plan.locations, grid.points()[[3, 7]])
    np.testing.assert_allclose(
        plan.durations, small_scenario.duration * np.array([0.5, 0.375])
    )
    np.testing.assert_allclose(
        plan.powers, [[0.5, 0.5], [0.25 / 0.375, 0.25 / 0.375]]
    )
    assert plan.outage == pytest.approx(0.125)


_SOLVE_RELAXED = """
import sys
from outage_planner.relaxed_optimum import solve_relaxed
from outage_planner.scenario import load_scenario
dual, plan = solve_relaxed(load_scenario(sys.argv[1]))
print(dual.grid_index, dual.iterations, dual.value.hex(), plan.outage.hex())
for arr in (dual.mu, dual.subgradient, plan.locations, plan.powers,
            plan.durations):
    print(arr.tobytes().hex())
"""


def test_solve_relaxed_does_not_depend_on_blas_threads():
    src = str(Path(relaxed_optimum.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONPATH": src,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
        }
        out = subprocess.run(
            [sys.executable, "-c", _SOLVE_RELAXED, str(DEMO_SCENARIO)],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        outputs.append(out.stdout)
    assert outputs[0] == outputs[1]
