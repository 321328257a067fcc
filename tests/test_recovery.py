"""Exact power recovery on a fixed trajectory: ranking, feasibility, outage."""

import numpy as np
import pytest

from outage_planner import power_recovery
from outage_planner.benchmarks import run_fly_hover_fly
from outage_planner.channel import outage_probability, snr_series
from outage_planner.power_recovery import (
    BUDGET_NORMS,
    feasibility_for_subset,
    max_active_upper_bound,
    rank_slots,
    recover_powers,
    served_upper_bounds,
)
from outage_planner.scenario import (
    PowerSchedule,
    ScenarioError,
    Trajectory,
    load_scenario,
    plan_violations,
)
from outage_planner.sca_planner import direct_flight, plan_sca
from tests.conftest import (
    DEGENERATE,
    DEMO_SCENARIO,
    barrier_feasibility_reference,
    full_budget_schedule,
    random_scenario,
    small_doc,
    with_threshold,
)


def assert_serves(scn, trajectory, schedule, slots):
    """No violated residual, SNR >= gamma on ``slots``, silence elsewhere."""
    assert plan_violations(scn, trajectory, schedule) == []
    series = snr_series(trajectory, schedule, scn)
    assert np.all(series[slots] >= scn.gamma_min)
    silent = np.setdiff1d(np.arange(scn.n_slots), slots)
    assert not schedule.powers[:, silent].any()


def test_rank_slots_orderings():
    assert list(rank_slots([5.0, 4.0, 3.0])) == [0, 1, 2]
    assert list(rank_slots([1.0, 2.0, 3.0])) == [2, 1, 0]
    # ties break toward the earlier slot
    assert list(rank_slots([2.0, 7.0, 7.0, 1.0])) == [1, 2, 0, 3]
    assert list(rank_slots([3.0, 3.0, 3.0])) == [0, 1, 2]
    # one ranking per row
    assert rank_slots([[5.0, 4.0, 3.0], [2.0, 7.0, 7.0]]).tolist() == [
        [0, 1, 2], [1, 2, 0],
    ]


def test_empty_subset_is_trivially_feasible(small_scenario):
    tr = direct_flight(small_scenario)
    ok, powers = feasibility_for_subset(small_scenario, tr, [])
    assert ok
    assert powers.shape == (small_scenario.n_sensors, small_scenario.n_slots)
    assert not powers.any()


def test_subset_input_validation(small_scenario):
    tr = direct_flight(small_scenario)
    with pytest.raises(ValueError):
        feasibility_for_subset(small_scenario, tr, [0, 0])
    with pytest.raises(ValueError):
        feasibility_for_subset(small_scenario, tr, [small_scenario.n_slots])


def test_subset_powers_meet_threshold_and_budget(small_scenario):
    tr = direct_flight(small_scenario)
    ok, powers = feasibility_for_subset(small_scenario, tr, [3, 4])
    assert ok
    series = snr_series(tr, PowerSchedule(powers), small_scenario)
    for slot in (3, 4):
        assert series[slot] >= small_scenario.gamma_min * (1 - 1e-9)
    assert np.all(
        powers.mean(axis=1) <= small_scenario.power_budgets * (1 + 1e-9)
    )
    silent = np.setdiff1d(np.arange(small_scenario.n_slots), [3, 4])
    assert not powers[:, silent].any()


def test_easy_threshold_serves_every_slot():
    scn = load_scenario(small_doc(gamma_min=1e-3))
    rec = recover_powers(scn, direct_flight(scn))
    assert rec.n_active == scn.n_slots
    assert rec.outage == 0.0


def test_impossible_threshold_serves_nothing():
    scn = load_scenario(small_doc(gamma_min=1e9))
    rec = recover_powers(scn, direct_flight(scn))
    assert rec.n_active == 0
    assert rec.outage == 1.0
    assert not rec.schedule.powers.any()


def test_recovered_plan_is_feasible_with_snr_margin(small_scenario):
    tr = direct_flight(small_scenario)
    rec = recover_powers(small_scenario, tr)
    assert plan_violations(small_scenario, tr, rec.schedule) == []
    series = snr_series(tr, rec.schedule, small_scenario)
    for slot in rec.active_slots:
        assert series[slot] >= small_scenario.gamma_min * (1 - 1e-9)
    inactive = np.setdiff1d(np.arange(small_scenario.n_slots), rec.active_slots)
    assert not rec.schedule.powers[:, inactive].any()
    assert rec.outage == pytest.approx(
        (small_scenario.n_slots - rec.n_active) / small_scenario.n_slots, abs=0
    )
    # the recomputed outage against the strict threshold agrees
    measured = float(np.mean(series < small_scenario.gamma_min))
    assert measured <= rec.outage + 1e-12


def test_ranking_prefers_high_snr_slots(small_scenario):
    tr = direct_flight(small_scenario)
    rec = recover_powers(small_scenario, tr)
    assert sorted(rec.ranking.tolist()) == list(range(small_scenario.n_slots))
    # active slots are exactly the best-ranked n_active slots
    assert set(rec.active_slots.tolist()) == set(
        rec.ranking[: rec.n_active].tolist()
    )


def test_budget_norm_horizon_dominates_active_slots(small_scenario):
    tr = direct_flight(small_scenario)
    rec_h = recover_powers(small_scenario, tr, budget_norm="horizon")
    rec_a = recover_powers(small_scenario, tr, budget_norm="active_slots")
    # pooling the whole-horizon energy into active slots can only help
    assert rec_h.n_active >= rec_a.n_active
    assert rec_h.outage <= rec_a.outage
    for rec in (rec_h, rec_a):
        assert plan_violations(small_scenario, tr, rec.schedule) == []


def test_budget_norm_validation(small_scenario):
    tr = direct_flight(small_scenario)
    with pytest.raises(ValueError):
        recover_powers(small_scenario, tr, budget_norm="daily")
    with pytest.raises(ValueError):
        max_active_upper_bound(small_scenario, tr, budget_norm="daily")
    with pytest.raises(ValueError):
        feasibility_for_subset(small_scenario, tr, [0], budget_norm="daily")


def test_upper_bound_caps_recovery(small_scenario):
    tr = direct_flight(small_scenario)
    ub = max_active_upper_bound(small_scenario, tr, "horizon")
    rec = recover_powers(small_scenario, tr)
    assert 0 <= rec.n_active <= ub <= small_scenario.n_slots


@pytest.mark.parametrize("budget_norm", BUDGET_NORMS)
def test_prefix_bracket_holds_the_recovered_count(budget_norm):
    # lo is the equal-split certificate, hi the smaller of the pooled-energy
    # and priced bounds; the served count lies between them whichever
    # ranking is searched, and under full budgets hi is the public bound
    for seed in range(24):
        scn = random_scenario(seed)
        rng = np.random.default_rng(seed)
        scaled = rng.uniform(0.0, 2.0, (scn.n_sensors, scn.n_slots))
        random_powers = PowerSchedule(scaled * scn.power_budgets[:, None])
        tr = direct_flight(scn)
        for schedule in (None, random_powers):
            rec = recover_powers(scn, tr, budget_norm, schedule=schedule)
            ranked = power_recovery._rank_and_gains(
                scn, tr.slot_positions[None], schedule
            )
            np.testing.assert_array_equal(ranked[0][0], rec.ranking)
            (lo,), (hi,) = power_recovery._prefix_bracket(
                scn, *ranked, budget_norm
            )
            assert lo <= rec.n_active <= hi, (seed, schedule is None)
            if schedule is None:
                assert hi == max_active_upper_bound(scn, tr, budget_norm), seed


@pytest.mark.parametrize("budget_norm", BUDGET_NORMS)
@pytest.mark.parametrize("n_slots", [16, 32, 48, 128])
def test_recovery_tests_no_prefix_above_the_bound(
    monkeypatch, n_slots, budget_norm
):
    # the bisection searches below the bracket's upper end, the public
    # bound; at N = 32 under active_slots that bound is 0 while the
    # pooled-energy bound is 4, so no prefix may reach the price test
    scn = load_scenario(DEMO_SCENARIO).with_overrides(n_slots=n_slots)
    tr = direct_flight(scn)
    sizes = []
    real = power_recovery.solve_price_feasibility

    def recorded(h):
        sizes.append(h.shape[1])
        return real(h)

    monkeypatch.setattr(power_recovery, "solve_price_feasibility", recorded)
    bound = max_active_upper_bound(scn, tr, budget_norm)
    rec = recover_powers(scn, tr, budget_norm)
    assert rec.n_active <= bound
    assert all(size <= bound for size in sizes), (sizes, bound)
    assert rec.probes == len(sizes)
    if (n_slots, budget_norm) == (32, "active_slots"):
        assert bound == 0 and sizes == []


def test_recovery_accepts_schedule_ranking(small_scenario):
    tr = direct_flight(small_scenario)
    base = recover_powers(small_scenario, tr)
    # rank by an explicit reference schedule instead of full-budget SNR
    guided = recover_powers(
        small_scenario, tr, schedule=base.schedule
    )
    assert plan_violations(small_scenario, tr, guided.schedule) == []
    assert guided.outage == pytest.approx(
        (small_scenario.n_slots - guided.n_active) / small_scenario.n_slots,
        abs=0,
    )


@pytest.mark.parametrize("budget_norm", BUDGET_NORMS)
def test_price_test_matches_barrier_reference(budget_norm):
    verdicts = set()
    for seed in range(6):
        scn = random_scenario(seed)
        tr = direct_flight(scn)
        ranking = rank_slots(snr_series(tr, full_budget_schedule(scn), scn))
        for v in range(1, scn.n_slots + 1):
            slots = ranking[:v]
            ok, powers = feasibility_for_subset(scn, tr, slots, budget_norm)
            ref, _ = barrier_feasibility_reference(scn, tr, slots, budget_norm)
            assert ok == ref, (seed, v)
            verdicts.add(ok)
            if ok:
                assert_serves(scn, tr, PowerSchedule(powers), slots)
            else:
                assert powers is None
    assert verdicts == {True, False}


def test_schedule_ranking_ignores_float_noise():
    scn = load_scenario(DEMO_SCENARIO).with_overrides(n_slots=16)
    tr = direct_flight(scn)
    # a recovered schedule serves its slots at gamma up to float noise
    base = recover_powers(scn, tr)
    assert base.n_active >= 4
    powers = base.schedule.powers
    rng = np.random.default_rng(0)
    noisy = powers * (1.0 + 1e-12 * rng.standard_normal(powers.shape))
    # the raw SNR order of those slots is set by the noise ...
    assert not np.array_equal(
        rank_slots(snr_series(tr, PowerSchedule(powers), scn)),
        rank_slots(snr_series(tr, PowerSchedule(noisy), scn)),
    )
    # ... and the ranking recovery searches does not see it
    clean = recover_powers(scn, tr, schedule=PowerSchedule(powers))
    perturbed = recover_powers(scn, tr, schedule=PowerSchedule(noisy))
    np.testing.assert_array_equal(clean.ranking, perturbed.ranking)
    np.testing.assert_array_equal(clean.active_slots, perturbed.active_slots)
    # served slots come first, in full-budget SNR order
    np.testing.assert_array_equal(
        clean.ranking[: base.n_active], base.ranking[: base.n_active]
    )


def test_recovery_reports_bisection_record(monkeypatch):
    scn = load_scenario(DEMO_SCENARIO).with_overrides(n_slots=32)
    calls = []
    real = power_recovery.feasibility_for_subset

    def counted(*args):
        calls.append(args[2].size)
        return real(*args)

    monkeypatch.setattr(power_recovery, "feasibility_for_subset", counted)
    rec = recover_powers(scn, direct_flight(scn))
    assert not rec.fallback_used
    assert rec.probes == len(calls) > 0
    assert rec.n_active in calls   # the served prefix was solved, not split


@pytest.mark.parametrize("budget_norm", BUDGET_NORMS)
@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_inputs_recover_valid_plans(case, budget_norm):
    scn = load_scenario(DEGENERATE[case])
    tr = direct_flight(scn)
    for schedule in (None, full_budget_schedule(scn)):
        rec = recover_powers(scn, tr, budget_norm, schedule=schedule)
        assert_serves(scn, tr, rec.schedule, rec.active_slots)
        assert rec.outage == (scn.n_slots - rec.n_active) / scn.n_slots
        if case == "trivial threshold":
            assert rec.outage == 0.0
        elif case == "unreachable threshold":
            assert rec.outage == 1.0
        else:
            assert rec.n_active > 0


def test_fly_hover_fly_at_bundled_size(demo_scenario):
    assert demo_scenario.n_slots == 128
    res = run_fly_hover_fly(demo_scenario)
    assert_serves(
        demo_scenario,
        res.trajectory,
        res.schedule,
        np.flatnonzero(res.schedule.powers.any(axis=0)),
    )
    assert res.outage == outage_probability(
        res.trajectory, res.schedule, demo_scenario
    )
    assert res.outage == (128 - res.details["n_active"]) / 128
    # the priced bound leaves a handful of the 41 x 41 candidates to recover
    assert 0 < res.details["evaluations"] <= 10
    # the hover itinerary beats recovering powers on the straight flight
    direct = recover_powers(demo_scenario, direct_flight(demo_scenario))
    assert res.outage < direct.outage


@pytest.mark.parametrize("budget_norm", BUDGET_NORMS)
def test_undecided_test_falls_back_to_equal_split(monkeypatch, budget_norm):
    scn = load_scenario(with_threshold(small_doc(), 0.5))
    tr = direct_flight(scn)
    monkeypatch.setattr(
        power_recovery, "feasibility_for_subset", lambda *args: (False, None)
    )
    rec = recover_powers(scn, tr, budget_norm)
    # only the certified prefix is served, at its closed-form equal split
    assert rec.n_active > 0
    assert_serves(scn, tr, rec.schedule, rec.active_slots)


def _misfit_trajectory(scn, case):
    """A straight flight of scn's endpoints that does not fit it, scn
    having 32 slots: 1 or 16 slots, or 32 slots 100 times too long."""
    n, delta = {
        "1 slot": (1, scn.duration),
        "16 slots": (16, scn.duration / 16),
        "long slots": (32, 100.0 * scn.slot_length),
    }[case]
    return Trajectory(np.linspace(scn.q_start, scn.q_final, n + 1), delta)


MISFIT_CALLS = {
    "recover_powers": lambda scn, tr: recover_powers(scn, tr),
    "max_active_upper_bound": lambda scn, tr: max_active_upper_bound(scn, tr),
    "feasibility_for_subset": lambda scn, tr: feasibility_for_subset(scn, tr, [0]),
    "plan_sca": lambda scn, tr: plan_sca(scn, tr, max_rounds=1),
    "served_upper_bounds": lambda scn, tr: served_upper_bounds(
        scn, tr.slot_positions[None]
    ),
}


@pytest.mark.parametrize("entry, case", [
    (entry, case)
    for entry in MISFIT_CALLS
    for case in ("1 slot", "16 slots", "long slots")
    # slot positions carry no slot length: served_upper_bounds checks N
    if (entry, case) != ("served_upper_bounds", "long slots")
])
def test_entry_points_reject_a_trajectory_that_does_not_fit(entry, case):
    """Recovery, its bounds and the SCA loop raise ScenarioError instead of
    planning another mission or failing inside numpy."""
    scn = load_scenario(DEMO_SCENARIO).with_overrides(n_slots=32)
    with pytest.raises(ScenarioError, match="trajectory"):
        MISFIT_CALLS[entry](scn, _misfit_trajectory(scn, case))
