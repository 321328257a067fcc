"""Benchmark planners and the end-to-end joint pipeline."""

from dataclasses import replace

import numpy as np
import pytest

from outage_planner.benchmarks import (
    run_fly_hover_fly,
    run_power_only,
    run_trajectory_only,
)
from outage_planner.channel import gain_at, outage_probability, snr_series
from outage_planner.pipeline import plan_joint
from outage_planner.power_recovery import (
    BUDGET_NORMS,
    max_active_upper_bound,
    rank_slots,
    recover_powers,
    served_upper_bounds,
)
from outage_planner.relaxed_optimum import GridSpec
from outage_planner.scenario import load_scenario, plan_violations
from outage_planner.sca_planner import (
    direct_flight,
    itinerary_trajectory,
    itinerary_waypoints,
)
from tests.conftest import (
    DEGENERATE,
    DEMO_SCENARIO,
    full_budget_schedule,
    random_scenario,
    small_doc,
)


def test_trajectory_only_uses_full_budgets(small_scenario):
    res = run_trajectory_only(small_scenario)
    assert res.name == "trajectory_only"
    np.testing.assert_allclose(
        res.schedule.powers,
        np.broadcast_to(
            small_scenario.power_budgets[:, None],
            (small_scenario.n_sensors, small_scenario.n_slots),
        ),
        rtol=1e-12,
    )
    assert plan_violations(small_scenario, res.trajectory, res.schedule) == []
    direct_out = outage_probability(
        direct_flight(small_scenario), res.schedule, small_scenario
    )
    assert res.outage <= direct_out + 1e-12
    assert res.outage == pytest.approx(
        outage_probability(res.trajectory, res.schedule, small_scenario), abs=0
    )


def test_power_only_is_recovery_on_the_direct_path(small_scenario):
    res = run_power_only(small_scenario)
    assert res.name == "power_only"
    np.testing.assert_allclose(
        res.trajectory.waypoints, direct_flight(small_scenario).waypoints
    )
    rec = recover_powers(small_scenario, direct_flight(small_scenario))
    assert res.outage == pytest.approx(rec.outage, abs=0)
    np.testing.assert_allclose(res.schedule.powers, rec.schedule.powers)
    assert plan_violations(small_scenario, res.trajectory, res.schedule) == []


@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_inputs_through_benchmark_schemes(case):
    """Every degenerate scenario plans soundly through each benchmark
    scheme: trajectory_only, and power_only and fly-hover-fly (11 x 11
    grid) under both budget norms.  Each plan meets every constraint and
    reports the outage its own trajectory and schedule give."""
    scn = load_scenario(DEGENERATE[case])
    grid = GridSpec.from_scenario(scn, resolution=11)
    results = [run_trajectory_only(scn)]
    for budget_norm in BUDGET_NORMS:
        results.append(run_power_only(scn, budget_norm))
        results.append(run_fly_hover_fly(scn, grid, budget_norm))
    assert len(results) == 5
    for res in results:
        assert plan_violations(scn, res.trajectory, res.schedule) == [], res.name
        assert res.outage == outage_probability(
            res.trajectory, res.schedule, scn
        ), res.name


def fly_hover_fly_oracle(scenario, grid, budget_norm="horizon"):
    """Full via-point sweep without pruning: the scheme's defining search."""
    best = None
    for via in grid.points():
        legs = np.linalg.norm(via - scenario.q_start) + np.linalg.norm(
            np.asarray(scenario.q_final) - via
        )
        hover = scenario.duration - legs / scenario.v_max
        if hover < -1e-9 * scenario.duration:
            continue
        tr = itinerary_trajectory(scenario, [via], [max(hover, 0.0)])
        rec = recover_powers(scenario, tr, budget_norm)
        key = rec.outage
        if best is None or key < best[0] - 1e-15:
            best = (key, via, rec)
    return best


def reachable_vias(scenario, grid):
    """(vias, hover times) of the reachable grid points, as the scheme sees them."""
    points = grid.points()
    legs = np.linalg.norm(points - scenario.q_start, axis=1) + np.linalg.norm(
        np.asarray(scenario.q_final) - points, axis=1
    )
    hover = scenario.duration - legs / scenario.v_max
    keep = hover >= -1e-9 * scenario.duration
    return points[keep], np.maximum(hover[keep], 0.0)


def threshold_varied(seed):
    # thresholds up to 4x the generated one, so some slots go unserved
    scn = random_scenario(seed)
    return replace(scn, gamma_min=scn.gamma_min * 2 ** (seed % 3))


def test_fly_hover_fly_matches_full_sweep_oracle():
    scn = load_scenario(
        small_doc(
            sensors=[{"x": 20.0, "y": 0.0, "p_ave_dbm": 24.0}],
            gamma_min=30.0,
            vmax_mps=15.0,
            t_s=6.0,
            n_slots=6,
            q_i=[0.0, 0.0],
            q_f=[40.0, 0.0],
        )
    )
    grid = GridSpec.from_scenario(scn, resolution=9)
    res = run_fly_hover_fly(scn, grid)
    oracle_out, oracle_via, _ = fly_hover_fly_oracle(scn, grid)
    assert res.outage == pytest.approx(oracle_out, abs=1e-12)
    np.testing.assert_allclose(res.details["via"], oracle_via, atol=1e-9)
    # the chosen via-point sits in the grid cell over the lone sensor
    cell = float(np.hypot(grid.dx, grid.dy))
    assert np.linalg.norm(
        np.asarray(res.details["via"]) - scn.sensor_xy[0]
    ) <= cell + 1e-9
    assert plan_violations(scn, res.trajectory, res.schedule) == []


def test_fly_hover_fly_prunes_but_stays_exact(small_scenario):
    grid = GridSpec.from_scenario(small_scenario, resolution=9)
    res = run_fly_hover_fly(small_scenario, grid)
    oracle_out, _, _ = fly_hover_fly_oracle(small_scenario, grid)
    assert res.outage == pytest.approx(oracle_out, abs=1e-12)
    assert res.details["evaluations"] <= grid.nx * grid.ny
    assert res.details["hover_s"] >= 0.0


@pytest.mark.parametrize("budget_norm", BUDGET_NORMS)
def test_fly_hover_fly_matches_oracle_on_random_scenarios(budget_norm):
    for seed in range(6):
        scn = threshold_varied(seed)
        grid = GridSpec.from_scenario(scn, resolution=7)
        res = run_fly_hover_fly(scn, grid, budget_norm)
        oracle_out, oracle_via, _ = fly_hover_fly_oracle(scn, grid, budget_norm)
        assert res.outage == oracle_out, seed
        np.testing.assert_allclose(res.details["via"], oracle_via, atol=1e-9)
        assert res.details["budget_norm"] == budget_norm


def test_block_positions_equal_itinerary_trajectory():
    paper = load_scenario(DEMO_SCENARIO).with_overrides(n_slots=32)
    cases = [(paper, 21)] + [(random_scenario(seed), 9) for seed in range(8)]
    for scn, resolution in cases:
        vias, hovers = reachable_vias(
            scn, GridSpec.from_scenario(scn, resolution=resolution)
        )
        assert vias.size
        block = itinerary_waypoints(scn, vias[:, None], hovers[:, None])
        for via, hover, waypoints in zip(vias, hovers, block):
            one = itinerary_trajectory(scn, [via], [hover])
            assert np.array_equal(waypoints, one.waypoints)

    # batches of two and three stops, with zero hovers and zero-length legs
    rng = np.random.default_rng(4)
    for scn, _ in cases:
        q_i, q_f = np.asarray(scn.q_start), np.asarray(scn.q_final)
        for n_stops in (2, 3):
            # near the straight path, in order, so that the legs fit
            along = np.sort(rng.uniform(0.0, 1.0, (12, n_stops, 1)), axis=1)
            stops = q_i + along * (q_f - q_i) + rng.uniform(-2.0, 2.0, (12, n_stops, 2))
            stops[0, 0] = q_i                 # no first leg
            stops[1, 1] = stops[1, 0]         # no leg between two stops
            paths = np.concatenate(
                [np.broadcast_to(q_i, (12, 1, 2)), stops,
                 np.broadcast_to(q_f, (12, 1, 2))], axis=1,
            )
            fly = np.linalg.norm(np.diff(paths, axis=1), axis=2).sum(axis=1)
            spare = scn.duration - fly / scn.v_max
            assert (spare > 0.0).all()
            share = rng.uniform(0.0, 1.0, (12, n_stops))
            share[2:6, rng.integers(n_stops)] = 0.0     # zero hovers
            share[6] = 0.0
            hovers = 0.999 * spare[:, None] * share / n_stops
            block = itinerary_waypoints(scn, stops, hovers)
            assert block.shape == (12, scn.n_slots + 1, 2)
            for stop, hover, waypoints in zip(stops, hovers, block):
                one = itinerary_trajectory(scn, stop, hover)
                assert np.array_equal(waypoints, one.waypoints)
            moves = np.linalg.norm(np.diff(block, axis=1), axis=2)
            assert moves.max() <= scn.v_max * scn.slot_length * (1.0 + 1e-9)


def pooled_energy_bound(scn, tr, budget_norm):
    """Largest v whose v best full-budget slots fit the pooled energy."""
    gains = gain_at(tr.slot_positions, scn)
    ranking = rank_slots(snr_series(tr, full_budget_schedule(scn), scn))
    need = 0.0
    for v, slot in enumerate(ranking, start=1):
        need += scn.gamma_min * scn.noise_power / gains[slot].sum()
        spread = scn.n_slots if budget_norm == "horizon" else v
        if need > spread * scn.power_budgets.sum() * (1.0 + 1e-12):
            return v - 1
    return scn.n_slots


@pytest.mark.parametrize("budget_norm", BUDGET_NORMS)
def test_served_bound_caps_recovery_on_every_candidate(budget_norm):
    checked = tighter = 0
    for seed in range(24):
        scn = threshold_varied(seed)
        vias, hovers = reachable_vias(
            scn, GridSpec.from_scenario(scn, resolution=9)
        )
        bounds = served_upper_bounds(
            scn,
            itinerary_waypoints(scn, vias[:, None], hovers[:, None])[:, 1:],
            budget_norm,
        )
        for via, hover, bound in zip(vias, hovers, bounds):
            tr = itinerary_trajectory(scn, [via], [hover])
            assert bound == max_active_upper_bound(scn, tr, budget_norm)
            rec = recover_powers(scn, tr, budget_norm)
            assert rec.n_active <= bound, (seed, via)
            pooled = pooled_energy_bound(scn, tr, budget_norm)
            assert bound <= pooled
            tighter += bound < pooled
            checked += 1
    # the priced bound, not only the pooled one, is exercised
    assert checked >= 800 and tighter > 0


@pytest.mark.parametrize(
    "budget_norm, max_evaluations",
    # 36 and 170 with the pooled-energy bound alone
    [("horizon", 3), ("active_slots", 97)],
)
def test_fly_hover_fly_matches_oracle_on_bundled_scenario(
    budget_norm, max_evaluations
):
    scn = load_scenario(DEMO_SCENARIO).with_overrides(n_slots=32)
    grid = GridSpec.from_scenario(scn, resolution=21)
    res = run_fly_hover_fly(scn, grid, budget_norm)
    oracle_out, oracle_via, oracle_rec = fly_hover_fly_oracle(
        scn, grid, budget_norm
    )
    assert res.outage == oracle_out
    np.testing.assert_allclose(res.details["via"], oracle_via, atol=1e-9)
    assert res.details["n_active"] == oracle_rec.n_active
    assert np.array_equal(res.schedule.powers, oracle_rec.schedule.powers)
    # pruning guard: few candidates reach recovery
    assert 0 < res.details["evaluations"] <= max_evaluations


def test_fly_hover_fly_tight_duration_falls_back(small_scenario):
    doc = small_doc()
    span = float(np.hypot(80.0, 50.0))
    doc["t_s"] = span / doc["vmax_mps"]  # zero slack: no via reachable
    doc["n_slots"] = 8
    scn = load_scenario(doc)
    res = run_fly_hover_fly(scn, GridSpec.from_scenario(scn, resolution=9))
    assert plan_violations(scn, res.trajectory, res.schedule) == []


def test_joint_plan_dominates_benchmarks(small_scenario):
    grid = GridSpec.from_scenario(small_scenario, resolution=21)
    joint = plan_joint(small_scenario, grid=grid)
    assert plan_violations(
        small_scenario, joint.trajectory, joint.schedule
    ) == []
    rivals = [
        run_trajectory_only(small_scenario),
        run_power_only(small_scenario),
        run_fly_hover_fly(
            small_scenario, GridSpec.from_scenario(small_scenario, resolution=21)
        ),
    ]
    for rival in rivals:
        assert joint.outage <= rival.outage + 1e-9, rival.name


def test_joint_plan_outage_matches_strict_count(small_scenario):
    joint = plan_joint(
        small_scenario,
        grid=GridSpec.from_scenario(small_scenario, resolution=21),
    )
    series = snr_series(joint.trajectory, joint.schedule, small_scenario)
    measured = float(np.mean(series < small_scenario.gamma_min))
    assert measured <= joint.outage + 1e-12
    active = joint.recovered.active_slots
    assert np.all(
        series[active] >= small_scenario.gamma_min * (1 - 1e-9)
    )


def test_joint_plan_at_bundled_size(demo_scenario):
    assert demo_scenario.n_slots == 128
    joint = plan_joint(demo_scenario)
    # validate_plan's residuals, all within tolerance
    assert plan_violations(
        demo_scenario, joint.trajectory, joint.schedule
    ) == []
    assert joint.outage == 23 / 128
    assert joint.outage == outage_probability(
        joint.trajectory, joint.schedule, demo_scenario
    )


def test_joint_plan_zero_outage_when_hovering_suffices():
    # coincident endpoints above a lone sensor with an easy threshold: the
    # pipeline should serve every slot
    scn = load_scenario(
        small_doc(
            sensors=[{"x": 30.0, "y": 30.0, "p_ave_dbm": 27.0}],
            gamma_min=20.0,
            q_i=[30.0, 30.0],
            q_f=[30.0, 30.0],
            t_s=8.0,
            n_slots=8,
        )
    )
    joint = plan_joint(scn, grid=GridSpec.from_scenario(scn, resolution=21))
    assert joint.outage == 0.0
    assert plan_violations(scn, joint.trajectory, joint.schedule) == []


def test_sca_objective_weakly_improves_with_larger_budgets(small_scenario):
    from outage_planner.sca_planner import plan_sca

    base = plan_sca(small_scenario, direct_flight(small_scenario))
    rich_scn = small_scenario.with_overrides(p_ave_dbm=30.0)  # 27 -> 30 dBm
    rich = plan_sca(rich_scn, direct_flight(rich_scn))
    assert rich.objective >= base.objective - 1e-9


def test_joint_plan_direct_init(small_scenario):
    joint = plan_joint(small_scenario, init="direct")
    assert joint.dual is None and joint.relaxed is None
    assert plan_violations(
        small_scenario, joint.trajectory, joint.schedule
    ) == []
    with pytest.raises(ValueError):
        plan_joint(small_scenario, init="zigzag")
