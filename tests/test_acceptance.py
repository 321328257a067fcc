"""End-to-end acceptance suite: one test per release criterion.

Heavy artifacts (demo-scenario planning runs) are computed once in
module-scoped fixtures and shared across criteria. Every tolerance is
pinned in the assertions, not derived at run time.
"""

import math
import time

import numpy as np
import pytest

from outage_planner.benchmarks import (
    run_fly_hover_fly,
    run_power_only,
    run_trajectory_only,
)
from outage_planner.channel import gain_at, snr, snr_series
from outage_planner.pipeline import plan_joint
from outage_planner.relaxed_optimum import (
    GridSpec,
    powers_given_location,
    solve_relaxed,
)
from outage_planner.scenario import (
    PowerSchedule,
    load_scenario,
    plan_violations,
)
from outage_planner.sca_planner import (
    amplitude_lower_bound,
    direct_flight,
    plan_sca,
    square_sum_lower_bound,
)
from tests.conftest import barrier_power_oracle, random_scenario, small_doc


# ---------------------------------------------------------------------------
# Shared heavyweight artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def relaxed_demo(demo_scenario):
    t0 = time.monotonic()
    dual, plan = solve_relaxed(
        demo_scenario, GridSpec.from_scenario(demo_scenario, resolution=81)
    )
    return dual, plan, time.monotonic() - t0


@pytest.fixture(scope="module")
def desk_sweep(demo_scenario):
    """Joint plan plus all three benchmarks at N = 32 for four budgets."""
    results = {}
    for p_dbm in (28.0, 30.0, 32.0, 34.0):
        scn = demo_scenario.with_overrides(n_slots=32, p_ave_dbm=p_dbm)
        grid = GridSpec.from_scenario(scn, resolution=81)
        results[p_dbm] = {
            "scenario": scn,
            "joint": plan_joint(scn, grid=grid),
            "trajectory_only": run_trajectory_only(scn),
            "power_only": run_power_only(scn),
            "fly_hover_fly": run_fly_hover_fly(scn),
        }
    return results


@pytest.fixture(scope="module")
def duration_curve(demo_scenario):
    t0 = time.monotonic()
    runs = []
    for t_s, n_slots in ((10.0, 16), (20.0, 32), (40.0, 64), (80.0, 128)):
        scn = demo_scenario.with_overrides(duration=t_s, n_slots=n_slots)
        grid = GridSpec.from_scenario(scn, resolution=81)
        runs.append((t_s, scn, plan_joint(scn, grid=grid)))
    return runs, time.monotonic() - t0


@pytest.fixture(scope="module")
def random_plan_pool():
    """Feasible plans from every solver on ten randomized scenarios."""
    pool = []
    for seed in range(200, 210):
        scn = random_scenario(seed, k_hi=3, n_hi=12)
        grid = GridSpec.from_scenario(scn, resolution=41)
        dual, hover = solve_relaxed(scn, grid)
        joint = plan_joint(scn, grid=grid)
        entries = [
            ("joint", joint.trajectory, joint.schedule, True),
            ]
        for result, recovered in (
            (run_trajectory_only(scn), False),
            (run_power_only(scn), True),
            (run_fly_hover_fly(scn, GridSpec.from_scenario(scn, resolution=21)), True),
        ):
            entries.append(
                (result.name, result.trajectory, result.schedule, recovered)
            )
        pool.append((scn, dual, hover, entries))
    return pool


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def linked_groups(points, linked):
    """Single-linkage groups of ``points`` under the pair test ``linked``,
    as lists of indices."""
    k = len(points)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if linked(points[i], points[j]):
                parent[find(i)] = find(j)
    roots = {}
    for i in range(k):
        roots.setdefault(find(i), []).append(i)
    return list(roots.values())


def sensor_groups(scenario, link_m=60.0):
    """Single-linkage clusters of sensor positions."""
    xy = scenario.sensor_xy
    groups = linked_groups(xy, lambda p, q: np.linalg.norm(p - q) <= link_m)
    return [xy[idx].mean(axis=0) for idx in groups]


def test_c01_relaxed_finds_three_separated_hover_clusters(
    demo_scenario, relaxed_demo
):
    dual, plan, elapsed = relaxed_demo
    assert elapsed < 120.0, f"relaxed solve took {elapsed:.1f} s"
    # the on-grid optimum may split time between neighbouring grid points
    grid = GridSpec.from_scenario(demo_scenario, resolution=81)
    steps = 2.0 * np.array([grid.dx, grid.dy]) * (1 + 1e-9)
    groups = linked_groups(
        plan.locations, lambda p, q: np.all(np.abs(p - q) <= steps)
    )
    assert len(groups) == 3
    sites = [
        np.average(plan.locations[idx], axis=0, weights=plan.durations[idx])
        for idx in groups
    ]
    for i in range(3):
        for j in range(i + 1, 3):
            gap = np.linalg.norm(sites[i] - sites[j])
            assert gap > 20.0, f"hover groups {i} and {j} only {gap:.1f} m apart"
    centroids = sensor_groups(demo_scenario)
    assert len(centroids) == 3
    matched = set()
    for loc in sites:
        dists = [np.linalg.norm(loc - c) for c in centroids]
        nearest = int(np.argmin(dists))
        assert dists[nearest] <= 40.0, f"hover group {loc} is {min(dists):.1f} m out"
        matched.add(nearest)
    assert matched == {0, 1, 2}


def test_c02_trajectory_only_outage_is_one_at_low_budgets(demo_scenario):
    for p_dbm in (26.0, 28.0, 30.0):
        scn = demo_scenario.with_overrides(p_ave_dbm=p_dbm)
        res = run_trajectory_only(scn)
        assert res.outage == 1.0, f"{p_dbm} dBm: outage {res.outage}"


def test_c03_joint_plan_dominates_every_benchmark(desk_sweep):
    for p_dbm, entry in desk_sweep.items():
        joint_outage = entry["joint"].outage
        for name in ("trajectory_only", "power_only", "fly_hover_fly"):
            rival = entry[name].outage
            assert joint_outage <= rival + 1e-9, (
                f"P={p_dbm} dBm: joint {joint_outage} vs {name} {rival}"
            )


def test_c04_outage_non_increasing_and_near_relaxed_bound(
    duration_curve, relaxed_demo
):
    runs, elapsed = duration_curve
    assert elapsed < 600.0, f"duration sweep took {elapsed:.1f} s"
    outages = [plan.outage for _, _, plan in runs]
    for shorter, longer in zip(outages, outages[1:]):
        assert longer <= shorter + 1e-12, f"outage curve not monotone: {outages}"
    bound = relaxed_demo[1].outage
    final = outages[-1]
    assert abs(final - bound) <= 0.05, (
        f"T=80 s outage {final} vs relaxed bound {bound}"
    )


def test_c05_closed_form_powers_match_interior_point_oracle():
    rng = np.random.default_rng(777)
    scenarios = {}
    for k in (1, 2, 5):
        sensors = [
            {
                "x": float(rng.uniform(0.0, 80.0)),
                "y": float(rng.uniform(0.0, 80.0)),
                "p_ave_dbm": 27.0,
            }
            for _ in range(k)
        ]
        scenarios[k] = load_scenario(
            small_doc(sensors=sensors, gamma_min=550.0, q_f=[80.0, 80.0])
        )
    ks = [1, 2, 5]
    for draw in range(100):
        scn = scenarios[ks[draw % 3]]
        mu = rng.uniform(0.1, 10.0, size=scn.n_sensors)
        q = rng.uniform(-40.0, 120.0, size=2)
        closed = powers_given_location(mu, q, scn)
        oracle = barrier_power_oracle(mu, q, scn)
        np.testing.assert_allclose(closed, oracle, rtol=1e-5)
        achieved = snr(q, closed, scn)
        assert achieved == pytest.approx(scn.gamma_min, rel=1e-9)


def test_c06_tangent_bounds_hold_globally(small_scenario):
    rng = np.random.default_rng(778)
    alt2 = small_scenario.altitude**2
    quarter = small_scenario.alpha / 4.0
    sensors = small_scenario.sensor_xy
    for _ in range(1000):
        s = sensors[int(rng.integers(len(sensors)))]
        power = float(rng.uniform(1e-3, 5.0))
        q_ref = rng.uniform(-50.0, 130.0, size=2)
        q = rng.uniform(-50.0, 130.0, size=2)
        bound = amplitude_lower_bound(power, q, q_ref, s, small_scenario)
        truth = math.sqrt(power * small_scenario.beta0) * (
            float(np.sum((q - s) ** 2)) + alt2
        ) ** (-quarter)
        assert bound <= truth + 1e-12
    s = sensors[0]
    q_ref = np.array([17.0, -6.0])
    exact = amplitude_lower_bound(2.3, q_ref, q_ref, s, small_scenario)
    truth_ref = math.sqrt(2.3 * small_scenario.beta0) * (
        float(np.sum((q_ref - s) ** 2)) + alt2
    ) ** (-quarter)
    assert exact == pytest.approx(truth_ref, abs=1e-12)

    for _ in range(1000):
        k = int(rng.integers(1, 7))
        a = rng.uniform(0.0, 3e-3, size=k)
        a_ref = rng.uniform(0.0, 3e-3, size=k)
        assert square_sum_lower_bound(a, a_ref) <= float(a.sum()) ** 2 + 1e-12
    a_ref = rng.uniform(0.0, 1.0, size=5)
    assert square_sum_lower_bound(a_ref, a_ref) == pytest.approx(
        float(a_ref.sum()) ** 2, abs=1e-12
    )


def test_c07_sca_monotone_and_converges_on_random_scenarios():
    for seed in range(100, 110):
        scn = random_scenario(seed, k_hi=4, n_hi=16)
        init = direct_flight(scn)
        full = np.broadcast_to(
            scn.power_budgets[:, None], (scn.n_sensors, scn.n_slots)
        ).copy()
        cap = scn.gamma_min * scn.noise_power
        series0 = snr_series(init, PowerSchedule(full), scn)
        start_obj = float(
            np.minimum(series0 * scn.noise_power, cap).mean() / scn.noise_power
        )
        state = plan_sca(scn, init, max_rounds=50)
        objs = [start_obj] + [e.objective for e in state.trace]
        for prev, cur in zip(objs, objs[1:]):
            assert cur >= prev - 1e-9 * max(1.0, abs(prev)), f"seed {seed}"
        rounds = len(state.trace) // 2
        assert rounds <= 50, f"seed {seed}"
        if rounds == 50:  # cap reached: the last round must have stalled
            before = objs[-3]
            gain = objs[-1] - before
            assert gain <= 1e-4 * max(abs(before), 1e-12), f"seed {seed}"


def test_c08_dual_value_lower_bounds_every_plan(random_plan_pool):
    for scn, dual, hover, entries in random_plan_pool:
        assert dual.value <= hover.outage + 0.02
        for name, trajectory, schedule, _ in entries:
            assert plan_violations(scn, trajectory, schedule) == [], name
            series = snr_series(trajectory, schedule, scn)
            outage = float(np.mean(series < scn.gamma_min))
            assert dual.value <= outage + 0.02, (
                f"{name}: dual {dual.value} vs outage {outage}"
            )


def test_c09_every_emitted_plan_is_feasible(
    desk_sweep, duration_curve, random_plan_pool
):
    margin = 1.0 - 1e-9
    checked = 0
    plans = []
    for entry in desk_sweep.values():
        scn = entry["scenario"]
        joint = entry["joint"]
        plans.append((scn, "joint", joint.trajectory, joint.schedule, True))
        for name in ("trajectory_only", "power_only", "fly_hover_fly"):
            res = entry[name]
            plans.append(
                (scn, name, res.trajectory, res.schedule, name != "trajectory_only")
            )
    for _, scn, joint in duration_curve[0]:
        plans.append((scn, "joint", joint.trajectory, joint.schedule, True))
    for scn, _, _, entries in random_plan_pool:
        for name, trajectory, schedule, recovered in entries:
            plans.append((scn, name, trajectory, schedule, recovered))

    for scn, name, trajectory, schedule, recovered in plans:
        assert plan_violations(scn, trajectory, schedule) == [], name
        if recovered:
            series = snr_series(trajectory, schedule, scn)
            active = np.flatnonzero(schedule.powers.sum(axis=0) > 0.0)
            assert np.all(series[active] >= scn.gamma_min * margin), name
        checked += 1
    assert checked >= 40


def brute_force_min_outage(scn, xs, ys, n_levels=4):
    """Exhaustive discretized optimum via dynamic programming.

    Positions live on the given grid, per-sensor powers on integer
    multiples of the budget with the whole-horizon unit budget, and the
    final slot must sit exactly on the finish point.
    """
    pts = np.array([(x, y) for y in ys for x in xs])
    m = len(pts)
    n = scn.n_slots
    step = scn.v_max * scn.slot_length
    gains = gain_at(pts, scn)
    unit = scn.power_budgets
    lv = np.arange(n_levels)
    amp = np.sqrt(lv[None, :, None] * unit[0] * gains[:, 0, None, None])
    amp = amp + np.sqrt(lv[None, None, :] * unit[1] * gains[:, 1, None, None])
    served = (amp**2 / scn.noise_power) >= scn.gamma_min

    reach0 = np.linalg.norm(pts - scn.q_start, axis=1) <= step * (1 + 1e-9)
    reach = (
        np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        <= step * (1 + 1e-9)
    )
    fidx = int(np.argmin(np.linalg.norm(pts - scn.q_final, axis=1)))
    assert np.linalg.norm(pts[fidx] - scn.q_final) < 1e-9

    budget_units = n
    neg = -(10**9)
    f = np.full((m, budget_units + 1, budget_units + 1), neg, dtype=np.int64)
    for l1 in range(n_levels):
        for l2 in range(n_levels):
            v = np.where(reach0, served[:, l1, l2].astype(np.int64), neg)
            f[:, l1, l2] = np.maximum(f[:, l1, l2], v)
    for _ in range(n - 1):
        flat = f.reshape(m, -1)
        best_pred = np.where(reach[:, :, None], flat[:, None, :], neg).max(axis=0)
        bp = best_pred.reshape(m, budget_units + 1, budget_units + 1)
        f = np.full_like(f, neg)
        for l1 in range(n_levels):
            for l2 in range(n_levels):
                v = served[:, l1, l2].astype(np.int64)[:, None, None]
                blk = bp[:, : budget_units + 1 - l1, : budget_units + 1 - l2] + v
                f[:, l1:, l2:] = np.maximum(f[:, l1:, l2:], blk)
    best_served = int(f[fidx].max())
    return (n - best_served) / n


def test_c10_pipeline_within_one_quantum_of_brute_force():
    t0 = time.monotonic()
    scn = load_scenario(
        small_doc(
            sensors=[
                {"x": 10.0, "y": 0.0, "p_ave_dbm": 24.0},
                {"x": 30.0, "y": 0.0, "p_ave_dbm": 24.0},
            ],
            h_m=10.0,
            gamma_min=600.0,
            vmax_mps=15.0,
            t_s=4.0,
            n_slots=4,
            q_i=[0.0, 0.0],
            q_f=[40.0, 0.0],
        )
    )
    oracle = brute_force_min_outage(
        scn, np.linspace(0.0, 40.0, 9), np.linspace(-20.0, 20.0, 9)
    )
    assert 0.0 <= oracle <= 1.0
    joint = plan_joint(scn, grid=GridSpec.from_scenario(scn, resolution=41))
    elapsed = time.monotonic() - t0
    assert abs(joint.outage - oracle) <= 0.25, (
        f"pipeline {joint.outage} vs brute force {oracle}"
    )
    assert elapsed < 60.0, f"tiny-instance comparison took {elapsed:.1f} s"
