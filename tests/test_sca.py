"""Convexified refinement: tangent bounds, steps, initial trajectories."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outage_planner import convex_core, sca_planner
from outage_planner.benchmarks import (
    run_fly_hover_fly,
    run_power_only,
    run_trajectory_only,
)
from outage_planner.channel import gain_at, snr_series
from outage_planner.convex_core import (
    STATUS_MAX_ITERS,
    STATUS_SINGULAR,
    STATUS_STALLED,
    solve_socp,
)
from outage_planner.pipeline import plan_joint
from outage_planner.power_recovery import recover_powers
from outage_planner.relaxed_optimum import GridSpec, HoverPlan, solve_relaxed
from outage_planner.scenario import (
    PowerSchedule,
    ScenarioError,
    Trajectory,
    load_scenario,
    plan_violations,
)
from outage_planner.sca_planner import (
    DEFAULT_REL_IMPROVEMENT,
    amplitude_lower_bound,
    direct_flight,
    init_shf,
    itinerary_trajectory,
    itinerary_waypoints,
    plan_sca,
    square_sum_lower_bound,
)
from tests.conftest import (
    DEGENERATE,
    DEMO_SCENARIO,
    barrier_power_step_reference,
    barrier_trajectory_solve,
    barrier_trajectory_step_reference,
    dense_trajectory_cones,
    exact_normal_solve,
    exact_solve,
    power_step_objective,
    random_scenario,
    small_doc,
)


def true_amplitude(power, q, sensor_xy, scenario):
    d2 = float(np.sum((np.asarray(q) - np.asarray(sensor_xy)) ** 2))
    return math.sqrt(power * scenario.beta0) * (
        d2 + scenario.altitude**2
    ) ** (-scenario.alpha / 4.0)


def test_amplitude_tangent_is_global_lower_bound(small_scenario):
    rng = np.random.default_rng(41)
    sensor = small_scenario.sensor_xy[0]
    for _ in range(200):
        power = float(rng.uniform(1e-3, 5.0))
        q_ref = rng.uniform(-50.0, 130.0, size=2)
        q = rng.uniform(-50.0, 130.0, size=2)
        bound = amplitude_lower_bound(power, q, q_ref, sensor, small_scenario)
        truth = true_amplitude(power, q, sensor, small_scenario)
        assert bound <= truth + 1e-12
    q_ref = np.array([10.0, -4.0])
    at_ref = amplitude_lower_bound(1.7, q_ref, q_ref, sensor, small_scenario)
    assert at_ref == pytest.approx(
        true_amplitude(1.7, q_ref, sensor, small_scenario), abs=1e-12
    )


def test_square_sum_tangent_is_global_lower_bound():
    rng = np.random.default_rng(43)
    for _ in range(200):
        k = int(rng.integers(1, 6))
        a = rng.uniform(0.0, 2e-3, size=k)
        a_ref = rng.uniform(0.0, 2e-3, size=k)
        bound = square_sum_lower_bound(a, a_ref)
        assert bound <= float(a.sum()) ** 2 + 1e-12
    a_ref = rng.uniform(0.0, 1.0, size=4)
    assert square_sum_lower_bound(a_ref, a_ref) == pytest.approx(
        float(a_ref.sum()) ** 2, abs=1e-12
    )


def test_direct_flight_geometry(small_scenario):
    tr = direct_flight(small_scenario)
    assert tr.n_slots == small_scenario.n_slots
    np.testing.assert_allclose(tr.waypoints[0], small_scenario.q_start)
    np.testing.assert_allclose(tr.waypoints[-1], small_scenario.q_final)
    steps = np.linalg.norm(np.diff(tr.waypoints, axis=0), axis=1)
    np.testing.assert_allclose(steps, steps[0], rtol=1e-9)
    assert steps.max() <= small_scenario.v_max * tr.slot_length * (1 + 1e-9)


def test_itinerary_trajectory_hand_case():
    scn = load_scenario(
        small_doc(
            sensors=[{"x": 20.0, "y": 0.0, "p_ave_dbm": 27.0}],
            vmax_mps=10.0,
            t_s=8.0,
            n_slots=8,
            q_i=[0.0, 0.0],
            q_f=[40.0, 0.0],
        )
    )
    tr = itinerary_trajectory(scn, [(20.0, 0.0)], [4.0])
    # fly 0-2 s, hover 2-6 s at the stop, fly 6-8 s
    expected_x = [0, 10, 20, 20, 20, 20, 20, 30, 40]
    np.testing.assert_allclose(tr.waypoints[:, 0], expected_x, atol=1e-9)
    np.testing.assert_allclose(tr.waypoints[:, 1], 0.0, atol=1e-12)


def test_itinerary_trajectory_rejects_impossible_legs(small_scenario):
    far = [(500.0, 500.0)]
    with pytest.raises(ValueError):
        itinerary_trajectory(small_scenario, far, [0.0])


def test_itinerary_waypoints_hand_batches():
    scn = load_scenario(
        small_doc(
            sensors=[{"x": 20.0, "y": 0.0, "p_ave_dbm": 27.0}],
            vmax_mps=10.0,
            t_s=8.0,
            n_slots=8,
            q_i=[0.0, 0.0],
            q_f=[40.0, 0.0],
        )
    )
    # fly 0-1 s, a zero-length leg, hover 1-3 s, fly to 30 by 5 s, no
    # hover there, fly to 40 by 6 s and wait; then hover 0-1 s at the
    # start (a zero-length first leg) and fly straight through 20
    three = itinerary_waypoints(
        scn, [[(10.0, 0.0), (10.0, 0.0), (30.0, 0.0)]], [[0.0, 2.0, 0.0]]
    )
    two = itinerary_waypoints(
        scn, [[(0.0, 0.0), (20.0, 0.0)], [(20.0, 0.0), (20.0, 0.0)]],
        [[1.0, 0.0], [0.0, 0.0]],
    )
    np.testing.assert_allclose(
        three[0, :, 0], [0, 10, 10, 10, 20, 30, 40, 40, 40], atol=1e-12
    )
    np.testing.assert_allclose(
        two[:, :, 0],
        [[0, 0, 10, 20, 30, 40, 40, 40, 40], [0, 10, 20, 30, 40, 40, 40, 40, 40]],
        atol=1e-12,
    )
    assert not three[..., 1].any() and not two[..., 1].any()


@pytest.mark.parametrize("stop, hover", [
    ((30.0, 20.0), 5.0),          # legs 3.15 s plus 5 s exceed T = 8 s
    ((30.0, 20.0), math.nan),
    ((30.0, 20.0), math.inf),
    ((30.0, 20.0), 1e9),
    ((math.nan, 20.0), 0.0),
    ((30.0, math.inf), 0.0),
    ((30.0, 20.0), -1.0),
])
def test_itinerary_trajectory_rejects_plans_that_break_the_speed_limit(
    small_scenario, stop, hover
):
    with pytest.raises(ValueError):
        itinerary_trajectory(small_scenario, [stop], [hover])


def test_itinerary_trajectory_takes_the_whole_spare_time(small_scenario):
    scn = small_scenario
    stop = np.array([30.0, 20.0])
    fly = (math.dist(scn.q_start, stop) + math.dist(stop, scn.q_final)) / scn.v_max
    tr = itinerary_trajectory(scn, [stop], [scn.duration - fly])
    moves = np.linalg.norm(np.diff(tr.waypoints, axis=0), axis=1)
    assert moves.max() <= scn.v_max * scn.slot_length * (1.0 + 1e-9)
    np.testing.assert_array_equal(tr.waypoints[-1], scn.q_final)


def test_init_shf_visits_hover_points(small_scenario):
    _, plan = solve_relaxed(
        small_scenario, GridSpec.from_scenario(small_scenario, resolution=21)
    )
    tr = init_shf(small_scenario, plan)
    full = np.broadcast_to(
        small_scenario.power_budgets[:, None],
        (small_scenario.n_sensors, small_scenario.n_slots),
    ).copy()
    assert plan_violations(small_scenario, tr, PowerSchedule(full)) == []
    # every hover stop with meaningful dwell time appears along the path
    for loc, tau in zip(plan.locations, plan.durations):
        if tau < small_scenario.slot_length:
            continue
        gap = np.linalg.norm(tr.waypoints - loc, axis=1).min()
        assert gap <= small_scenario.v_max * small_scenario.slot_length


def test_init_shf_falls_back_to_direct_when_time_is_tight():
    # lone sensor far off the start-finish line: the hover tour cannot fit
    # into a duration only 2% above the straight-flight bound
    doc = small_doc(
        sensors=[{"x": 0.0, "y": 60.0, "p_ave_dbm": 27.0}], gamma_min=150.0
    )
    span = math.dist(doc["q_i"], doc["q_f"])
    doc["t_s"] = span / doc["vmax_mps"] * 1.02  # barely above the flight bound
    scn = load_scenario(doc)
    _, plan = solve_relaxed(scn, GridSpec.from_scenario(scn, resolution=21))
    assert plan.durations.sum() > 0, "hover plan should not be empty"
    tr = init_shf(scn, plan)
    np.testing.assert_allclose(
        tr.waypoints, direct_flight(scn).waypoints, atol=1e-9
    )


def open_path_length(points) -> float:
    """Length of the polyline through ``points``, summed as the planner does."""
    return sum(math.dist(a, b) for a, b in zip(points, points[1:]))


def tour_length(order, locs, q_i, q_f) -> float:
    return open_path_length([q_i] + [locs[i] for i in order] + [q_f])


def random_stops(m, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 100.0, (m, 2)), *rng.uniform(0.0, 100.0, (2, 2))


@pytest.mark.parametrize("m", range(2, 9))
def test_tsp_order_is_exact_up_to_eight_stops(m):
    locs, q_i, q_f = random_stops(m, seed=m)
    order = sca_planner._tsp_order(locs, q_i, q_f)
    assert sorted(order) == list(range(m))
    best = min(
        tour_length(perm, locs, q_i, q_f)
        for perm in itertools.permutations(range(m))
    )
    assert tour_length(order, locs, q_i, q_f) == pytest.approx(best, abs=1e-9)


@pytest.mark.parametrize("m", range(9, 13))
def test_tsp_order_is_two_opt_local_optimum_beyond_eight_stops(m):
    locs, q_i, q_f = random_stops(m, seed=m)
    order = sca_planner._tsp_order(locs, q_i, q_f)
    assert sorted(order) == list(range(m))
    # nearest-neighbour tour from the start, ties to the lower index
    nearest, cur, left = [], q_i, set(range(m))
    while left:
        j = min(left, key=lambda j: (math.dist(cur, locs[j]), j))
        nearest.append(j)
        left.remove(j)
        cur = locs[j]
    length = tour_length(order, locs, q_i, q_f)
    assert length <= tour_length(nearest, locs, q_i, q_f)
    for i in range(m - 1):
        for j in range(i + 1, m):
            reversed_ij = order[:i] + order[i : j + 1][::-1] + order[j + 1 :]
            assert tour_length(reversed_ij, locs, q_i, q_f) >= length - 1e-12


def hover_plan(scn, locations, durations) -> HoverPlan:
    k = scn.n_sensors
    locations = np.asarray(locations, dtype=float)
    return HoverPlan(
        locations,
        np.zeros((len(locations), k)),
        np.asarray(durations, dtype=float),
        0.0,
        np.zeros(k),
    )


def test_init_shf_splits_spare_time_by_plan_durations(
    small_scenario, monkeypatch
):
    scn = small_scenario
    # zero and sub-1e-12 T durations are dropped; three stops remain
    locs = [[60.0, 40.0], [70.0, 20.0], [20.0, 10.0], [10.0, 30.0], [40.0, 25.0]]
    taus = [0.5, 0.0, 2.0, 1e-15, 1.0]
    seen = {}
    real = sca_planner.itinerary_trajectory

    def spy(scenario, stops, hover_times):
        seen.update(stops=np.asarray(stops), hover=np.asarray(hover_times))
        return real(scenario, stops, hover_times)

    monkeypatch.setattr(sca_planner, "itinerary_trajectory", spy)
    tr = init_shf(scn, hover_plan(scn, locs, taus))
    np.testing.assert_array_equal(
        seen["stops"], [[20.0, 10.0], [40.0, 25.0], [60.0, 40.0]]
    )
    np.testing.assert_allclose(
        seen["hover"] / seen["hover"].sum(), np.array([2.0, 1.0, 0.5]) / 3.5,
        rtol=1e-12,
    )
    path = [scn.q_start, *seen["stops"], scn.q_final]
    t_fly = open_path_length(path) / scn.v_max
    assert seen["hover"].sum() == pytest.approx(scn.duration - t_fly, rel=1e-12)
    np.testing.assert_array_equal(
        tr.waypoints, real(scn, seen["stops"], seen["hover"]).waypoints
    )


@pytest.mark.parametrize(
    "locs, taus",
    [
        ([[40.0, 25.0], [20.0, 10.0]], [0.0, 1e-15]),   # nothing to visit
        ([[40.0, 25.0], [500.0, 500.0]], [1.0, 1.0]),   # tour does not fit
    ],
    ids=["no positive duration", "tour too long"],
)
def test_init_shf_falls_back_to_direct_flight(small_scenario, locs, taus):
    tr = init_shf(small_scenario, hover_plan(small_scenario, locs, taus))
    np.testing.assert_array_equal(
        tr.waypoints, direct_flight(small_scenario).waypoints
    )


def test_plan_sca_monotone_and_feasible(small_scenario):
    state = plan_sca(small_scenario, direct_flight(small_scenario))
    accepted = [e.objective for e in state.trace if e.accepted]
    assert accepted, "no accepted steps on an easy instance"
    for prev, cur in zip(accepted, accepted[1:]):
        assert cur >= prev - 1e-9 * max(1.0, abs(prev))
    assert plan_violations(
        small_scenario, state.trajectory, state.schedule
    ) == []
    # the trace records both step kinds with 1-based iteration ids
    kinds = {e.step_kind for e in state.trace}
    assert kinds <= {"trajectory", "power"}
    assert [e.iteration for e in state.trace] == list(
        range(1, len(state.trace) + 1)
    )


def test_plan_sca_rejected_steps_keep_state(small_scenario):
    state = plan_sca(small_scenario, direct_flight(small_scenario))
    objs = [e.objective for e in state.trace]
    for i, entry in enumerate(state.trace):
        if not entry.accepted and i > 0:
            assert objs[i] == pytest.approx(objs[i - 1], abs=0)


def test_plan_sca_improves_over_start(small_scenario):
    init = direct_flight(small_scenario)
    full = np.broadcast_to(
        small_scenario.power_budgets[:, None],
        (small_scenario.n_sensors, small_scenario.n_slots),
    ).copy()
    cap = small_scenario.gamma_min * small_scenario.noise_power
    series0 = snr_series(init, PowerSchedule(full), small_scenario)
    start_obj = float(
        np.minimum(series0 * small_scenario.noise_power, cap).mean()
        / small_scenario.noise_power
    )
    state = plan_sca(small_scenario, init)
    assert state.objective >= start_obj - 1e-9


def test_plan_sca_bends_toward_single_sensor():
    scn = load_scenario(
        small_doc(
            sensors=[{"x": 25.0, "y": 18.0, "p_ave_dbm": 27.0}],
            gamma_min=30.0,
            vmax_mps=20.0,
            t_s=5.0,
            n_slots=10,
            q_i=[0.0, 0.0],
            q_f=[50.0, 0.0],
        )
    )
    direct = direct_flight(scn)
    state = plan_sca(scn, direct)
    sensor = scn.sensor_xy[0]
    d_direct = np.linalg.norm(direct.slot_positions - sensor, axis=1).min()
    d_sca = np.linalg.norm(state.trajectory.slot_positions - sensor, axis=1).min()
    assert d_sca < d_direct - 1.0


def test_plan_sca_objective_cap(small_scenario):
    state = plan_sca(small_scenario, direct_flight(small_scenario))
    assert 0.0 <= state.objective <= small_scenario.gamma_min * (1 + 1e-12)
    # summed amplitudes stored in the state match the plan exactly
    gains = gain_at(state.trajectory.slot_positions, small_scenario)
    np.testing.assert_array_equal(
        state.amplitude_sums, np.sqrt(state.powers * gains.T).sum(axis=0)
    )


def _scripted(gains):
    """A step that multiplies the objective by 1 + each of ``gains`` in
    turn and is always accepted."""
    gains = iter(gains)

    def step(state, scenario):
        return replace(state, objective=state.objective * (1.0 + next(gains))), True

    return step


@pytest.mark.parametrize("max_rounds, kinds", [
    (50, "ababbba"),   # a stalls at its 2nd run; skipped until b stalls
    (2, "abab"),       # at most 2 runs per kind
    (1, "ab"),
    (0, ""),
])
def test_plan_sca_skips_a_stalled_kind_and_stops_on_a_full_pass(
    small_scenario, max_rounds, kinds
):
    """Step a gains 10 %, then nothing; step b gains 10 % three times, then
    nothing.  Once a stalls it is skipped while b gains, and runs again
    as soon as b stalls: that run of b and that of a, back to back, gain
    nothing in total, which ends SCA."""
    steps = (
        ("a", _scripted([0.1, 0.0, 0.0])),
        ("b", _scripted([0.1, 0.1, 0.1, 0.0, 0.0])),
    )
    state = plan_sca(
        small_scenario, direct_flight(small_scenario), steps=steps,
        max_rounds=max_rounds,
    )
    assert "".join(e.step_kind for e in state.trace) == kinds


def test_plan_sca_runs_each_step_once_in_one_round(small_scenario):
    """max_rounds=1 runs the trajectory step and then the power step, once
    each."""
    state = plan_sca(small_scenario, direct_flight(small_scenario), max_rounds=1)
    assert [e.step_kind for e in state.trace] == ["trajectory", "power"]


def _schedule_cases():
    for n in (16, 32, 48):
        yield f"paper-{n}", lambda n=n: load_scenario(DEMO_SCENARIO).with_overrides(
            n_slots=n
        )
    for seed in range(6):
        yield f"random-{seed}", lambda seed=seed: random_scenario(seed, k_hi=10, n_hi=32)


@pytest.mark.parametrize(
    "make", [make for _, make in _schedule_cases()],
    ids=[name for name, _ in _schedule_cases()],
)
def test_plan_joint_ends_on_one_stalled_run_of_each_kind(make):
    """plan_joint's SCA trace ends with one run of each kind whose total
    gain is at most DEFAULT_REL_IMPROVEMENT of the objective before them,
    and no earlier pair of back-to-back runs of both kinds stalls like
    that.  Where one kind runs twice in a row the other was skipped: its
    last run gained at most that share, and the run just before the skip
    gained more."""
    scn = make()
    plan = plan_joint(scn)
    start = plan_sca(scn, plan.init, max_rounds=0).objective
    objs = [start] + [e.objective for e in plan.sca.trace]
    kinds = [e.step_kind for e in plan.sca.trace]
    gains = np.diff(objs)
    floors = DEFAULT_REL_IMPROVEMENT * np.maximum(np.abs(objs[:-1]), 1e-12)
    stalled = gains <= floors
    assert len(kinds) >= 2 and set(kinds[-2:]) == {"trajectory", "power"}
    for i in range(1, len(kinds)):
        pair_stalls = objs[i + 1] - objs[i - 1] <= floors[i - 1]
        assert pair_stalls == (i == len(kinds) - 1) or kinds[i - 1] == kinds[i]
        if kinds[i - 1] == kinds[i]:
            last_other = max(j for j in range(i) if kinds[j] != kinds[i])
            assert stalled[last_other] and not stalled[i - 1]


def test_joint_plan_holds_no_sca_power_array(small_scenario):
    """A JointPlan drops the SCA power iterate and its amplitude sums once
    recovery has ranked the slots with them: the only (K, N) array it
    holds is the recovered schedule.  Its records have no per-instance
    __dict__ (slots), so a retained plan stays small."""
    plan = plan_joint(
        small_scenario, grid=GridSpec.from_scenario(small_scenario, resolution=21)
    )
    assert plan.sca.powers is None and plan.sca.amplitude_sums is None
    shape = (small_scenario.n_sensors, small_scenario.n_slots)
    held = []

    def walk(obj):
        if isinstance(obj, np.ndarray):
            held.extend([obj] if obj.shape == shape else [])
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                walk(item)
        elif dataclasses.is_dataclass(obj) and obj is not small_scenario:
            assert not hasattr(obj, "__dict__"), type(obj).__name__
            for f in dataclasses.fields(obj):
                walk(getattr(obj, f.name))

    walk(plan)
    assert len(held) == 1 and held[0] is plan.recovered.schedule.powers


@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_plan_sca_on_degenerate_inputs(case):
    scn = load_scenario(DEGENERATE[case])
    state = plan_sca(scn, direct_flight(scn))
    assert plan_violations(scn, state.trajectory, state.schedule) == []
    objs = [e.objective for e in state.trace]
    for prev, cur in zip(objs, objs[1:]):
        assert cur >= prev - 1e-9 * max(1.0, abs(prev))


def test_power_step_matches_barrier_reference(monkeypatch):
    """Every power step of plan_sca reaches the optimum of its program.

    The price step either finds every slot's cap reachable (verdict True)
    or runs Newton's method on the dual (verdict False); both must occur.
    """
    verdicts, solved = {}, []    # caps verdict of each power step, by case
    feasibility = sca_planner.solve_price_feasibility
    state_from_plan = sca_planner._state_from_plan

    def recorded_feasibility(h):
        shares = feasibility(h)
        verdicts[name].append(shares is not None)
        return shares

    def recorded_state(trajectory, powers, *args):
        solved.append(powers)
        return state_from_plan(trajectory, powers, *args)

    def checked_power_step(state, scn):
        solved.clear()
        new, ok = sca_planner.power_step(state, scn)
        (powers,) = solved            # the step returned a solution
        reference = barrier_power_step_reference(state, scn)
        assert reference is not None
        want = power_step_objective(state, scn, reference)
        got = power_step_objective(state, scn, powers)
        assert got == pytest.approx(want, rel=1e-9)
        assert (powers >= 0.0).all()
        # budgets hold up to the round-off of rescaling by the usage
        assert (powers.mean(axis=1) <= scn.power_budgets * (1 + 1e-12)).all()
        return new, ok

    monkeypatch.setattr(
        sca_planner, "solve_price_feasibility", recorded_feasibility
    )
    monkeypatch.setattr(sca_planner, "_state_from_plan", recorded_state)
    steps = (
        ("trajectory", sca_planner.trajectory_step),
        ("power", checked_power_step),
    )
    cases = [("paper", load_scenario(DEMO_SCENARIO).with_overrides(n_slots=16))]
    cases += [(seed, random_scenario(seed)) for seed in range(8)]
    # the dual lands on the all-capped plateau, where its Hessian is
    # singular, and on a kink where g settles before the gap closes
    cases += [
        ("free-space loss", load_scenario(DEGENERATE["free-space loss"])),
        ("wide", random_scenario(16, k_hi=6, n_hi=24)),
    ]
    for name, scn in cases:
        verdicts[name] = []
        plan_sca(scn, direct_flight(scn), steps=steps)
        assert verdicts[name], name
    assert {v for run in verdicts.values() for v in run} == {True, False}
    # a fraction to the boundary of 0.99 stalls on this step's dual
    assert verdicts[3][0] is False


def _full_budget_state(scn):
    powers = np.broadcast_to(
        scn.power_budgets[:, None], (scn.n_sensors, scn.n_slots)
    ).copy()
    return sca_planner._state_from_plan(direct_flight(scn), powers, scn)


def _close(got, want, rel):
    """Entrywise agreement relative to the largest entry of ``want``."""
    return np.abs(got - want).max() <= rel * np.abs(want).max()


def _recorded_systems(program):
    """Wrap ``program.factor``: each scaling is appended to the returned
    list with the (r, solution) pairs the solver poses to its solve, or
    with None where the factorization failed."""
    systems = []
    factor = program.factor

    def recording(nt):
        solve = factor(nt)
        if solve is None:
            systems.append((nt, None))
            return None
        pairs = []
        systems.append((nt, pairs))

        def recorded(r):
            x = solve(r)
            pairs.append((r, x))
            return x

        return recorded

    program.factor = recording
    return systems


@pytest.mark.parametrize("stage", ["first", "late"])
@pytest.mark.parametrize("n_slots", [2, 3, 16])
def test_trajectory_cone_solve_matches_dense_assembly(n_slots, stage):
    """The structured cone program is the dense one, row by row, and its
    scaled normal solve is exact to 1e-9 early and late in the solve.

    Slacks (at the start and halfway to the optimum), G dx and G^T v
    agree with ``dense_trajectory_cones`` to 1e-12.  Every solve of
    (G^T H^2 G) dx = r the solver poses at its first and at its
    next-to-last iteration (condition numbers 1e13 to 1e15) agrees with
    an exact rational solve of the densely assembled system to 1e-9.  A
    long-double dense solve is itself off by up to 1 there, hence the
    exact reference.  The last iteration (condition near 1e16) is left
    out: double precision resolves it no better than 1e-9 to 1e-6, and a
    dense LU solve of it does no better than the structured one.
    """
    scn = load_scenario(DEMO_SCENARIO).with_overrides(n_slots=n_slots)
    state = _full_budget_state(scn)
    program, _ = sca_planner._trajectory_cones(state, scn)
    c, x0, g, h = dense_trajectory_cones(state, scn)
    assert _close(program.c, c, 0.0) and _close(program.x0, x0, 1e-12)
    systems = _recorded_systems(program)
    outcome = solve_socp(program)
    assert outcome.status == "optimal"

    rng = np.random.default_rng(n_slots)
    for x in (x0, 0.5 * (x0 + outcome.x)):
        assert _close(program.slacks(x).T, h - g @ x, 1e-12)
    dx = rng.normal(size=x0.size)
    v = rng.normal(size=h.shape)
    assert _close(program.g_mul(dx).T, g @ dx, 1e-12)
    assert _close(program.g_tmul(v.T), np.einsum("kai,ka->i", g, v), 1e-12)

    nt, pairs = systems[0 if stage == "first" else -2]
    assert pairs
    for r, got in pairs:
        want = exact_normal_solve(g, nt.point.T, nt.beta, r)
        assert _close(got, want, 1e-9)


def spring_blocks(rng, count, scale, spread):
    """count random blocks (c, px, py), the matrix c I + p p^T, with c and
    the mean of |p|^2 ``scale`` times 10^u, u uniform in [-spread, spread]."""
    blocks = np.empty((count, 3))
    blocks[:, 0] = scale * 10.0 ** rng.uniform(-spread, spread, count)
    blocks[:, 1:] = rng.normal(size=(count, 2)) * np.sqrt(
        scale * 10.0 ** rng.uniform(-spread, spread, (count, 1))
    ) / math.sqrt(2.0)
    return blocks


def spring_chain_matrix(ground, springs, number=float):
    """The chain's 2m x 2m matrix as nested lists of ``number``: diagonal
    blocks G_j + K_j + K_j+1, off-diagonal blocks -K_j+1, every block
    c I + p p^T formed from the float entries (c, px, py)."""
    m = len(ground)
    a = [[number(0)] * (2 * m) for _ in range(2 * m)]

    def add(i, j, block, sign):
        c, px, py = (number(float(v)) for v in block)
        p = (px, py)
        for r in range(2):
            for q in range(2):
                a[2 * i + r][2 * j + q] += sign * (p[r] * p[q] + (c if r == q else 0))

    for j in range(m):
        for block in (ground[j], springs[j], springs[j + 1]):
            add(j, j, block, 1)
        if j + 1 < m:
            add(j, j + 1, springs[j + 1], -1)
            add(j + 1, j, springs[j + 1], -1)
    return a


def _chain_solve(ground, springs, r):
    chol = sca_planner._factor_spring_chain(ground, springs)
    assert chol is not None
    return np.array(sca_planner._solve_spring_chain(chol, r))


def _relative_error(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("m", [1, 2, 31, 47])
def test_spring_chain_solve_matches_a_dense_solve(m):
    """The chain's factor and solve agree with a dense solve of the
    assembled block-tridiagonal matrix, every third ground block zero.

    Chains scaled anywhere from 1e-8 to 1e8, their blocks within a decade
    of the scale, agree with ``np.linalg.solve`` to 1e-9.  A chain whose
    blocks each lie anywhere in 1e-8 to 1e8 agrees with an exact rational
    solve to 1e-12.  On 160 such chains (m = 1, 2, 31, 47, condition
    numbers up to 2e15) ``np.linalg.solve`` was off by up to 4e-4 and the
    chain by at most 7e-15; on the narrow chains the two met to 5e-15.
    """
    rng = np.random.default_rng(m)
    for scale in 10.0 ** np.linspace(-8.0, 8.0, 5):
        ground = spring_blocks(rng, m, scale, 1.0)
        ground[::3] = 0.0
        springs = spring_blocks(rng, m + 1, scale, 1.0)
        r = rng.normal(size=(m, 2))
        want = np.linalg.solve(np.array(spring_chain_matrix(ground, springs)), r.ravel())
        assert _relative_error(_chain_solve(ground, springs, r), want) <= 1e-9

    ground = spring_blocks(rng, m, 1.0, 8.0)
    ground[::3] = 0.0
    springs = spring_blocks(rng, m + 1, 1.0, 8.0)
    r = rng.normal(size=(m, 2))
    want = exact_solve(
        spring_chain_matrix(ground, springs, Fraction),
        [Fraction(float(v)) for v in r.ravel()],
    )
    assert _relative_error(_chain_solve(ground, springs, r), want) <= 1e-12


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("blocks, entry", [
    ("ground", 0), ("ground", 2), ("springs", 0), ("springs", 1),
])
def test_spring_chain_factor_rejects_a_non_finite_block(blocks, entry, value):
    rng = np.random.default_rng(3)
    chain = {
        "ground": spring_blocks(rng, 5, 1.0, 2.0),
        "springs": spring_blocks(rng, 6, 1.0, 2.0),
    }
    chain[blocks][2, entry] = value
    assert sca_planner._factor_spring_chain(chain["ground"], chain["springs"]) is None


def _checked_trajectory_steps(monkeypatch, gap_rel=1e-11):
    """A trajectory step that checks its optimum against the dense barrier.

    Returns (values, step).  Each step also solves its program with
    ``solve_socp``'s default, tight stop, asserts that solve optimal and
    appends (tight cone optimum, barrier optimum) to ``values``, the
    barrier solving the same program from the same iterate down to
    ``gap_rel`` times the cone optimum.  It asserts that the solve SCA
    used, to the step's own stop, was kept (optimal or max-iters) and
    lies below the tight optimum by rounding alone (its x is feasible).
    Where the tight solve gains more on the surrogate's value at the
    current plan than the stop's floor, ``DEFAULT_REL_IMPROVEMENT`` of
    that value, it asserts that the solve captures at least 90 % of that
    gain and that SCA accepts the step.
    """
    values, outcomes = [], []
    real = sca_planner.solve_socp

    def recorded(program, **stop):
        outcomes.append((real(program, **stop), real(program)))
        return outcomes[-1][0]

    def step(state, scn):
        outcomes.clear()
        new, ok = sca_planner.trajectory_step(state, scn)
        ((used, tight),) = outcomes
        assert tight.status == "optimal"
        assert used.status in ("optimal", "max-iters")
        scale = max(1.0, abs(tight.objective))
        assert used.objective - tight.objective >= -1e-12 * scale
        current = -state.objective      # the surrogate's value at the plan
        gain = current - tight.objective
        if gain > DEFAULT_REL_IMPROVEMENT * max(abs(current), 1e-12):
            assert current - used.objective >= 0.9 * gain
            assert ok
        ref = barrier_trajectory_solve(state, scn, gap_tol=gap_rel * scale)
        assert ref is not None
        values.append((tight.objective, ref.objective))
        return new, ok

    monkeypatch.setattr(sca_planner, "solve_socp", recorded)
    return values, step


def test_plan_sca_matches_dense_trajectory_reference(monkeypatch):
    """plan_sca with the cone step reaches the dense barrier's optima.

    Each trajectory step's optimal value, from the same iterate, is within
    1e-8 relative of the dense barrier's, and the recovered outage and
    active slots equal those of plan_sca with the barrier's steps.  The
    step's argmin need not be unique, so the two runs may visit different
    iterates: their traces are not compared.
    """
    values, checked_step = _checked_trajectory_steps(monkeypatch)
    dense_steps = (
        ("trajectory", barrier_trajectory_step_reference),
        ("power", sca_planner.power_step),
    )
    cases = [load_scenario(DEMO_SCENARIO).with_overrides(n_slots=16)]
    cases += [random_scenario(seed) for seed in range(8)]
    for scn in cases:
        init = direct_flight(scn)
        values.clear()
        got = plan_sca(
            scn, init,
            steps=(("trajectory", checked_step), ("power", sca_planner.power_step)),
        )
        assert values
        for mine, reference in values:
            assert mine == pytest.approx(reference, rel=1e-8)
        want = plan_sca(scn, init, steps=dense_steps)
        got_rec = recover_powers(scn, got.trajectory, schedule=got.schedule)
        want_rec = recover_powers(scn, want.trajectory, schedule=want.schedule)
        assert got_rec.outage == want_rec.outage
        assert np.array_equal(got_rec.active_slots, want_rec.active_slots)


@pytest.mark.parametrize("case", [
    "unreachable threshold", "zero-power slot", "two slots", "thin speed margin",
])
def test_trajectory_step_on_degenerate_programs(monkeypatch, case):
    """Degenerate trajectory programs solve to the dense barrier's optimum.

    Three chained trajectory steps from the direct flight at full budgets:

    * unreachable threshold: gamma = 1e12, so every cap sits near 1e-10 in
      units of gamma * noise while the objective is near 80; the relative
      stop still lands within 1e-8 of the barrier solved to 1e-11 of it.
    * zero-power slot: no sensor sends in slot 3, so its cap is flat
      (kappa = 0) and its surrogate is a linear row.
    * two slots: one free waypoint.
    * thin speed margin: the legs are 3e-6 longer than the direct path's,
      just above the step's 1e-6 guard; after the first step the start
      lies 1e-7 inside taut speed cones, where the corrector needs
      several refinement solves.
    Every plan meets every speed limit with no tolerance.
    """
    doc = small_doc()
    if case == "unreachable threshold":
        doc = DEGENERATE[case]
    elif case == "two slots":
        doc = small_doc(n_slots=2)
    elif case == "thin speed margin":
        span = math.dist(doc["q_i"], doc["q_f"])
        doc["t_s"] = span / doc["vmax_mps"] * (1.0 + 3e-6)
    scn = load_scenario(doc)
    state = _full_budget_state(scn)
    if case == "zero-power slot":
        powers = state.powers.copy()
        powers[:, 3] = 0.0
        state = sca_planner._state_from_plan(state.trajectory, powers, scn)
    values, checked_step = _checked_trajectory_steps(monkeypatch)
    for _ in range(3):
        state, ok = checked_step(state, scn)
        assert ok
        steps = np.linalg.norm(np.diff(state.trajectory.waypoints, axis=0), axis=1)
        assert (steps <= scn.v_max * scn.slot_length).all()
    assert len(values) == 3
    for mine, reference in values:
        assert mine == pytest.approx(reference, rel=1e-8)


@pytest.mark.parametrize("gamma", [100.0, 1e12, 1e-6])
def test_steps_chain_through_a_silent_slot(gamma):
    """A slot with no power (slot 3) has a flat tangent bound in the power
    step: its target, zero, is already met, so it keeps zero powers and
    drops out of the price test.  Power and trajectory steps chain through
    it without a divide-by-zero warning (the suite turns RuntimeWarning
    into an error), every step is accepted, the objective never falls and
    every plan is feasible.  A state with every slot silent stays silent.
    """
    scn = load_scenario(small_doc(gamma_min=gamma))
    state = _full_budget_state(scn)
    powers = state.powers.copy()
    powers[:, 3] = 0.0
    state = sca_planner._state_from_plan(state.trajectory, powers, scn)
    for step in (sca_planner.power_step, sca_planner.trajectory_step) * 3:
        before = state.objective
        state, ok = step(state, scn)
        assert ok
        assert state.objective >= before - 1e-9 * max(1.0, before)
        assert (state.powers[:, 3] == 0.0).all()
        assert plan_violations(scn, state.trajectory, state.schedule) == []
    silent = sca_planner._state_from_plan(
        state.trajectory, np.zeros_like(powers), scn
    )
    state, ok = sca_planner.power_step(silent, scn)
    assert ok and (state.powers == 0.0).all()


def test_trajectory_step_far_beyond_reach(monkeypatch):
    """With every cap out of reach the step's program does not depend on
    gamma: A' is in units of gamma * noise and the objective is (gamma / N)
    sum A'.  At gamma = 1e22 the caps sit near 1e-20, below one ulp of a
    start 0.01 inside them, yet three chained steps reach the optima they
    reach at gamma = 1e12 (checked against the barrier above) within 1e-8.
    The dense barrier is no reference at 1e22: it stops at its own start,
    whose A' lie 0.01 below the caps.
    """
    optima = {1e12: [], 1e22: []}
    real = sca_planner.solve_socp

    def recorded(program, **stop):
        outcome = real(program, **stop)
        assert outcome.status == "optimal"
        optima[gamma].append(outcome.objective)
        return outcome

    monkeypatch.setattr(sca_planner, "solve_socp", recorded)
    for gamma in optima:
        scn = load_scenario(small_doc(gamma_min=gamma))
        state = _full_budget_state(scn)
        for _ in range(3):
            state, ok = sca_planner.trajectory_step(state, scn)
            assert ok
            assert plan_violations(scn, state.trajectory, state.schedule) == []
    assert len(optima[1e22]) == 3
    assert optima[1e22] == pytest.approx(optima[1e12], rel=1e-8)


def test_trajectory_only_iterations_per_step(monkeypatch):
    """trajectory_only on paper.json at N = 32: every cone solve factors
    every system (no pivot fails), ends optimal after at most 5
    iterations per step on average, and repeats its counts exactly."""
    scn = load_scenario(DEMO_SCENARIO).with_overrides(n_slots=32)
    runs, factored = [], []
    real = sca_planner.solve_socp

    def counted(program, **stop):
        systems = _recorded_systems(program)
        outcome = real(program, **stop)
        factored.append(all(pairs is not None for _, pairs in systems))
        runs[-1].append((outcome.status, outcome.iterations))
        return outcome

    monkeypatch.setattr(sca_planner, "solve_socp", counted)
    for _ in range(2):
        runs.append([])
        run_trajectory_only(scn)
    assert runs[0] == runs[1]
    assert all(factored)
    assert {status for status, _ in runs[0]} == {"optimal"}
    assert np.mean([its for _, its in runs[0]]) <= 5


def _stopped_step(monkeypatch, scn, status, flip=False, short=False):
    """A trajectory step from the direct flight at full budgets whose cone
    solve reports ``status``; with ``flip`` its x moves each free
    waypoint the other way from the start (the displacements negated),
    and with ``short`` it reports the surrogate's value at the plan as
    its objective."""
    state = _full_budget_state(scn)
    real = sca_planner.solve_socp

    def stopped(program, **stop):
        outcome = real(program, **stop)
        x = outcome.x.copy()
        if flip:
            x[: 2 * (scn.n_slots - 1)] *= -1.0
        objective = -state.objective if short else outcome.objective
        return replace(outcome, x=x, status=status, objective=objective)

    monkeypatch.setattr(sca_planner, "solve_socp", stopped)
    return state, *sca_planner.trajectory_step(state, scn)


def _keeps_plan(new, state):
    return (
        new.trajectory is state.trajectory and new.powers is state.powers
        and new.objective == state.objective and new.trace is state.trace
    )


@pytest.mark.parametrize("status", [STATUS_SINGULAR, STATUS_STALLED])
def test_trajectory_step_rejects_unfinished_solves(
    monkeypatch, small_scenario, status
):
    """A cone solve that breaks down leaves the trajectory step's plan as
    it was, with the solve's status as the reason."""
    state, new, ok = _stopped_step(monkeypatch, small_scenario, status)
    assert not ok and _keeps_plan(new, state) and new.status == status


def test_trajectory_step_keeps_a_capped_solve_that_gains(monkeypatch, small_scenario):
    """A solve stopped at its iteration cap is used when the exact
    objective holds, and the step reports it as max-iters."""
    state, new, ok = _stopped_step(monkeypatch, small_scenario, STATUS_MAX_ITERS)
    assert ok and new.status == STATUS_MAX_ITERS
    assert new.objective > state.objective
    assert plan_violations(small_scenario, new.trajectory, new.schedule) == []


def test_trajectory_step_rejects_a_capped_solve_that_regresses(
    monkeypatch, small_scenario
):
    """A solve stopped at its iteration cap whose x would lower the exact
    objective (each waypoint moved away from the sensors) is rejected as
    regressed, and the plan stays as it was."""
    state, new, ok = _stopped_step(
        monkeypatch, small_scenario, STATUS_MAX_ITERS, flip=True
    )
    assert not ok and _keeps_plan(new, state) and new.status == "regressed"


def test_trajectory_step_keeps_the_plan_when_its_solve_stops_short(
    monkeypatch, small_scenario
):
    """A solve whose objective is no better than the surrogate's value at
    the current plan has found nothing better than the plan, itself a
    feasible point: when its x would lower the exact objective, the step
    keeps the plan and counts as accepted, with the solve's status."""
    state, new, ok = _stopped_step(
        monkeypatch, small_scenario, STATUS_MAX_ITERS, flip=True, short=True
    )
    assert ok and _keeps_plan(new, state) and new.status == STATUS_MAX_ITERS


# each trajectory step's cone solve on paper.json, as its iteration count
# when optimal or its status otherwise, and the outage
PINNED_STEPS = {
    ("trajectory_only", 16, 30.0): (
        [3, 3, 2, 2, 3, 3, 3, 6, 4, 3, 3, 3, 2, 3, 3, 3, 6, 4, 3, 3, 3, 2, 3,
         3, 3, 6, 4, 3, 3, 3, 2, 3, 3, 3, 5, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4],
        1.0,
    ),
    ("trajectory_only", 32, 30.0): (
        [3, 4, 3, 3, 3, 3, 5, 5, 3, 3, 6, 4, 3, 3, 6, 3, 3, 3, 5, 3, 3, 3,
         5, 3, 3, 3, 4, 3, 3, 3, 5, 3, 3, 3, 4, 4, 5, 5, 5, 5, 4, 4],
        1.0,
    ),
    ("joint", 16, 30.0): (
        [3, 4, 3, 4, 5, 4, 5, 5, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5],
        0.25,
    ),
    ("joint", 32, 30.0): ([4, 4, 5, 5, 6], 0.1875),
    ("joint", 48, 30.0): ([7, 4, 5, 5], 0.1875),
    ("joint", 32, 26.0): ([4, 3, 5, 5, 5, 5, 5], 0.65625),
}


@pytest.mark.parametrize(
    "scheme, n_slots, p_ave_dbm", sorted(PINNED_STEPS),
    ids=[
        f"{scheme}-{n}" + ("" if dbm == 30.0 else f"-{dbm:g}dBm")
        for scheme, n, dbm in sorted(PINNED_STEPS)
    ],
)
def test_trajectory_step_iterates_are_pinned(
    monkeypatch, scheme, n_slots, p_ave_dbm
):
    """The cone solves of every trajectory step and the final outage of
    trajectory_only and plan_joint on paper.json at N = 16 and 32, and of
    plan_joint at N = 48 (the joint workload's size), at the bundled
    30 dBm, equal the recorded ones: 149, 157, 96, 24 and 21 iterations
    in all.  So do those of plan_joint at N = 32 and 26 dBm, 32
    iterations, none of them at the step's 20-iteration cap.  A change to the
    cone solver's arithmetic that keeps its iterates keeps these.  The
    trace gives each trajectory step its solve's status, or regressed
    where SCA refused the step."""
    scn = load_scenario(DEMO_SCENARIO).with_overrides(
        n_slots=n_slots, p_ave_dbm=p_ave_dbm
    )
    solves, statuses = [], []
    real = sca_planner.solve_socp

    def counted(program, **stop):
        outcome = real(program, **stop)
        if outcome.status == STATUS_MAX_ITERS:
            assert outcome.iterations == stop["max_iters"]
        solves.append(
            outcome.iterations if outcome.status == "optimal" else outcome.status
        )
        statuses.append(outcome.status)
        return outcome

    monkeypatch.setattr(sca_planner, "solve_socp", counted)
    if scheme == "trajectory_only":
        outage = run_trajectory_only(scn).outage
    else:
        plan = plan_joint(scn)
        outage = plan.outage
        steps = [e for e in plan.sca.trace if e.step_kind == "trajectory"]
        assert [e.status for e in steps] == [
            status if e.accepted else "regressed"
            for status, e in zip(statuses, steps, strict=True)
        ]
    assert (solves, outage) == PINNED_STEPS[scheme, n_slots, p_ave_dbm]


@pytest.mark.parametrize("n_slots, p_ave_dbm", [(16, 28.0), (32, 24.0)])
def test_low_budget_trajectory_solves_end_before_the_cap(
    monkeypatch, n_slots, p_ave_dbm
):
    """plan_joint on paper.json at low budgets, where solves to a fixed
    relative gap ran to the 20-iteration cap (1 of 22 at N = 16 and
    28 dBm, 5 of 18 at N = 32 and 24 dBm): with the stop tied to each
    step's own gain no cone solve ends max-iters, whether SCA keeps its
    step or not, and the plan meets every constraint."""
    scn = load_scenario(DEMO_SCENARIO).with_overrides(
        n_slots=n_slots, p_ave_dbm=p_ave_dbm
    )
    statuses = []
    real = sca_planner.solve_socp

    def recorded(program, **stop):
        outcome = real(program, **stop)
        statuses.append(outcome.status)
        return outcome

    monkeypatch.setattr(sca_planner, "solve_socp", recorded)
    plan = plan_joint(scn)
    assert statuses and STATUS_MAX_ITERS not in statuses
    assert plan_violations(scn, plan.trajectory, plan.schedule) == []


@pytest.mark.parametrize("seed", [27, 34])
def test_trajectory_stop_is_scale_free(seed):
    """random_scenario missions planned as drawn and with the noise raised
    and gamma_min lowered by 1e6, which keeps every SNR's ratio to the
    threshold while the clipped mean SNR falls far below 1: plan_joint
    and trajectory_only plan the same outage at both scales.  A stop
    whose floor is absolute below an objective of 1 ended these scaled
    solves at their start and planned outages up to 0.5 worse."""
    scn = random_scenario(seed, k_hi=10, n_hi=32)
    low = replace(
        scn, noise_power=scn.noise_power * 1e6, gamma_min=scn.gamma_min * 1e-6
    )
    joint = plan_joint(low)
    assert joint.sca.objective < 1.0
    assert joint.outage == plan_joint(scn).outage
    assert run_trajectory_only(low).outage == run_trajectory_only(scn).outage


@pytest.mark.parametrize("p_ave_dbm", [-1000.0, -1500.0])
def test_tiny_full_budget_snrs_plan_outage_one(p_ave_dbm):
    """Both budgets at 1e-103 or 1e-153 W against -60 dBm noise: every
    slot's target lies so far out of reach that the price test's prices
    would underflow, so it certifies infeasible before forming one, and
    plan_joint and trajectory_only plan outage 1.0 with no warning."""
    doc = small_doc()
    for sensor in doc["sensors"]:
        sensor["p_ave_dbm"] = p_ave_dbm
    scn = load_scenario(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = plan_joint(scn)
        assert run_trajectory_only(scn).outage == 1.0
    assert plan.outage == 1.0
    assert plan_violations(scn, plan.trajectory, plan.schedule) == []


@pytest.mark.parametrize("p_ave_dbm", [-1440.0, -1446.0, -1448.0, -1460.0, -1500.0])
def test_far_missions_plan_or_are_rejected_without_warning(p_ave_dbm):
    """small_doc flown from (3000, 3000) to (3080, 3050), at least 4,024 m
    from a sensor wherever it can fly (v T = 240 m): its best full-budget
    SNR within reach is 1.5e-154 gamma_min at -1447.3 dBm budgets.  Above
    that plan_joint, trajectory_only, power_only and fly-hover-fly plan
    outage 1.0 with no warning; below it the mission is rejected at load,
    naming sensors, where the trajectory step overflowed from -1456 dBm.
    Below each sensor the SNR is 2.5e-148 gamma_min at -1448 dBm."""
    doc = small_doc(q_i=[3000.0, 3000.0], q_f=[3080.0, 3050.0])
    for sensor in doc["sensors"]:
        sensor["p_ave_dbm"] = p_ave_dbm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if p_ave_dbm < -1447.3:
            with pytest.raises(ScenarioError) as err:
                load_scenario(doc)
            assert err.value.field == "sensors"
            return
        scn = load_scenario(doc)
        grid = GridSpec.from_scenario(scn, resolution=11)
        plans = [
            plan_joint(scn), run_trajectory_only(scn), run_power_only(scn),
            run_fly_hover_fly(scn, grid),
        ]
    for plan in plans:
        assert plan.outage == 1.0
        assert plan_violations(scn, plan.trajectory, plan.schedule) == []


def test_scaled_points_stay_inside_their_cones(monkeypatch):
    """plan_joint on paper.json at N = 32 and 28 dBm, each surrogate solved
    to solve_socp's default stop, where some cone solves run to its
    60-iteration cap with collapsing steps: the scaled point lam of every
    Nesterov-Todd scaling has lam_0 > |lam_1:| in every cone."""
    scn = load_scenario(DEMO_SCENARIO).with_overrides(n_slots=32, p_ave_dbm=28.0)
    real = sca_planner.solve_socp
    monkeypatch.setattr(
        sca_planner, "solve_socp", lambda program, **stop: real(program)
    )
    outside = []

    class Checked(convex_core.NtScaling):
        def __init__(self, *args):
            super().__init__(*args)
            lam = self.lam
            outside.append(int((lam[0] <= np.linalg.norm(lam[1:], axis=0)).sum()))

    monkeypatch.setattr(convex_core, "NtScaling", Checked)
    plan_joint(scn)
    assert len(outside) > 0 and sum(outside) == 0


_RANDOM_STEPS = """
import sys
import numpy as np
from outage_planner import sca_planner
from tests.conftest import random_scenario
for seed in map(int, sys.argv[1:]):
    scn = random_scenario(seed, k_hi=3, n_hi=10)
    powers = np.repeat(scn.power_budgets[:, None], scn.n_slots, axis=1)
    state = sca_planner._state_from_plan(
        sca_planner.direct_flight(scn), powers, scn
    )
    for _ in range(2):
        state, ok = sca_planner.trajectory_step(state, scn)
        state, ok = sca_planner.power_step(state, scn)
    print(state.trajectory.waypoints.tobytes().hex())
"""


def _thread_outputs(script, args):
    src = str(Path(sca_planner.__file__).resolve().parents[1])
    root = str(Path(__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([src, root]),
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
        }
        out = subprocess.run(
            [sys.executable, "-c", script, *args], cwd=root,
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        outputs.append(out.stdout)
    return outputs


@settings(max_examples=3, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 10**6), min_size=4, max_size=4, unique=True))
def test_trajectory_steps_on_random_scenarios(seeds):
    """Small random scenarios: two rounds of trajectory and power steps
    meet every speed limit with no tolerance, raise no RuntimeWarning
    (an error under the test configuration), and give byte-identical
    waypoints under 1 and 2 BLAS threads."""
    for seed in seeds:
        scn = random_scenario(seed, k_hi=3, n_hi=10)
        state = _full_budget_state(scn)
        for _ in range(2):
            state, _ = sca_planner.trajectory_step(state, scn)
            state, _ = sca_planner.power_step(state, scn)
        steps = np.linalg.norm(np.diff(state.trajectory.waypoints, axis=0), axis=1)
        assert (steps <= scn.v_max * scn.slot_length).all()
        assert plan_violations(scn, state.trajectory, state.schedule) == []
    one, two = _thread_outputs(_RANDOM_STEPS, [str(s) for s in seeds])
    assert len(one.split()) == len(seeds)
    assert one == two


_CHAINED_STEPS = """
import sys
import numpy as np
from outage_planner import sca_planner
from outage_planner.scenario import load_scenario
scn = load_scenario(sys.argv[1]).with_overrides(n_slots=48)
powers = np.repeat(scn.power_budgets[:, None], 48, axis=1)
state = sca_planner._state_from_plan(
    sca_planner.direct_flight(scn), powers, scn
)
for _ in range(3):
    state, ok = sca_planner.trajectory_step(state, scn)
    print(ok)
print(state.trajectory.waypoints.tobytes().hex())
"""


def test_trajectory_steps_do_not_depend_on_blas_threads():
    outputs = _thread_outputs(_CHAINED_STEPS, [str(DEMO_SCENARIO)])
    assert outputs[0].split()[:3] == ["True"] * 3
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_planners_reject_non_finite_waypoints(small_scenario, bad):
    wp = direct_flight(small_scenario).waypoints.copy()
    wp[4, 0] = bad
    trajectory = Trajectory(wp, small_scenario.slot_length)
    for plan in (recover_powers, plan_sca):
        with pytest.raises(ScenarioError, match="must be finite") as err:
            plan(small_scenario, trajectory)
        assert err.value.field == "trajectory"
