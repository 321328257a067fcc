"""Convexified refinement: tangent bounds, steps, initial trajectories."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from outage_planner import sca_planner
from outage_planner.channel import gain_at, snr_series
from outage_planner.power_recovery import recover_powers
from outage_planner.relaxed_optimum import GridSpec, solve_relaxed
from outage_planner.scenario import (
    PowerSchedule,
    ScenarioError,
    Trajectory,
    load_scenario,
    plan_violations,
)
from outage_planner.sca_planner import (
    amplitude_lower_bound,
    direct_flight,
    init_shf,
    itinerary_trajectory,
    plan_sca,
    square_sum_lower_bound,
)
from tests.conftest import (
    DEGENERATE,
    DEMO_SCENARIO,
    barrier_power_step_reference,
    barrier_trajectory_step_reference,
    captured_barrier,
    dense_trajectory_program,
    power_step_objective,
    random_scenario,
    refined_dense_newton,
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
    # amplitudes stored in the state match the plan exactly
    gains = gain_at(state.trajectory.slot_positions, small_scenario)
    np.testing.assert_allclose(
        state.amplitudes, np.sqrt(state.powers * gains.T), rtol=1e-12
    )


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


@pytest.mark.parametrize("t", [1.0, 1e4])
@pytest.mark.parametrize("n_slots", [2, 3, 16])
def test_trajectory_newton_matches_dense_assembly(monkeypatch, n_slots, t):
    """The structured Newton system is the dense one built from the blocks.

    At the start and halfway to the step's optimum: constraint values,
    gradient and Hessian trace agree to 1e-12, and the Newton step to
    1e-9, with and without a ridge.
    """
    scn = load_scenario(DEMO_SCENARIO).with_overrides(n_slots=n_slots)
    state = _full_budget_state(scn)
    program, outcome = captured_barrier(
        monkeypatch, sca_planner,
        lambda: sca_planner.trajectory_step(state, scn),
    )
    dense = dense_trajectory_program(state, scn)
    assert _close(program.x0, dense.x0, 1e-12)
    for z in (program.x0, 0.5 * (program.x0 + outcome.x)):
        values = np.concatenate([block.value(z) for block in dense.blocks])
        assert _close(program.blocks[0].value(z), values, 1e-12)
        grad, trace, solve = program.newton(z, t)
        want_grad, want_trace, want_solve = refined_dense_newton(dense, z, t)
        assert _close(grad, want_grad, 1e-12)
        assert trace == pytest.approx(want_trace, rel=1e-12)
        for ridge in (0.0, 1e-3 * trace / z.size):
            step = solve(-grad, ridge)
            assert step is not None
            assert _close(step, want_solve(-want_grad, ridge), 1e-9)


def test_plan_sca_matches_dense_trajectory_reference():
    """plan_sca with the structured trajectory step follows the dense one.

    Same accept pattern (so trace length), trace objectives within
    2.1e-8 relative, and the same recovered outage and active slots.
    """
    dense_steps = (
        ("trajectory", barrier_trajectory_step_reference),
        ("power", sca_planner.power_step),
    )
    cases = [load_scenario(DEMO_SCENARIO).with_overrides(n_slots=16)]
    cases += [random_scenario(seed) for seed in range(8)]
    for scn in cases:
        init = direct_flight(scn)
        got = plan_sca(scn, init)
        want = plan_sca(scn, init, steps=dense_steps)
        assert [e.accepted for e in got.trace] == [
            e.accepted for e in want.trace
        ]
        np.testing.assert_allclose(
            [e.objective for e in got.trace],
            [e.objective for e in want.trace],
            rtol=2.1e-8,
        )
        got_rec = recover_powers(scn, got.trajectory, schedule=got.schedule)
        want_rec = recover_powers(scn, want.trajectory, schedule=want.schedule)
        assert got_rec.outage == want_rec.outage
        assert np.array_equal(got_rec.active_slots, want_rec.active_slots)


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
    src = str(Path(sca_planner.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONPATH": src,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
        }
        out = subprocess.run(
            [sys.executable, "-c", _CHAINED_STEPS, str(DEMO_SCENARIO)],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        outputs.append(out.stdout)
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
