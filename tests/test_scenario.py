"""Loading, validation, unit conversion, and plan feasibility checks."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from outage_planner.scenario import (
    PlanShapeError,
    PowerSchedule,
    Scenario,
    ScenarioError,
    SensorSite,
    Trajectory,
    db_to_linear,
    dbm_to_watts,
    linear_to_db,
    load_scenario,
    plan_violations,
    validate_plan,
    watts_to_dbm,
)
from tests.conftest import small_doc, smallest_normal_budget_dbm


def test_unit_conversions_hand_values():
    # -30 dB = 1e-3, -60 dBm = 1e-9 W, 30 dBm = 1 W
    assert db_to_linear(-30.0) == pytest.approx(1e-3, rel=1e-12)
    assert dbm_to_watts(-60.0) == pytest.approx(1e-9, rel=1e-12)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert watts_to_dbm(1.0) == pytest.approx(30.0, abs=1e-12)


def test_unit_conversions_round_trip():
    rng = np.random.default_rng(7)
    for v in rng.uniform(-40.0, 40.0, size=20):
        assert linear_to_db(db_to_linear(v)) == pytest.approx(v, abs=1e-10)
        assert watts_to_dbm(dbm_to_watts(v)) == pytest.approx(v, abs=1e-10)


def test_conversions_reject_nonpositive():
    with pytest.raises(ValueError):
        watts_to_dbm(0.0)
    with pytest.raises(ValueError):
        linear_to_db(-1.0)


def test_load_scenario_linear_units():
    scn = load_scenario(small_doc())
    assert scn.n_sensors == 2
    assert scn.beta0 == pytest.approx(1e-3, rel=1e-12)
    assert scn.noise_power == pytest.approx(1e-9, rel=1e-12)
    assert scn.power_budgets[0] == pytest.approx(dbm_to_watts(27.0), rel=1e-12)
    assert scn.sensors[0].position == (20.0, 10.0)
    assert scn.slot_length == pytest.approx(1.0)
    np.testing.assert_allclose(scn.sensor_xy, [[20.0, 10.0], [60.0, 40.0]])


def test_load_scenario_schema_rejections():
    with pytest.raises(ScenarioError) as err:
        load_scenario(small_doc(sensors=[]))
    assert "sensors" in str(err.value)
    doc = small_doc()
    del doc["gamma_min"]
    with pytest.raises(ScenarioError):
        load_scenario(doc)
    with pytest.raises(ScenarioError) as err:
        load_scenario(small_doc(alpha="steep"))
    assert err.value.field == "alpha"


def test_load_scenario_physical_rejections():
    with pytest.raises(ScenarioError):
        load_scenario(small_doc(alpha=1.5))
    with pytest.raises(ScenarioError):
        load_scenario(small_doc(n_slots=0))
    with pytest.raises(ScenarioError):
        load_scenario(small_doc(h_m=-5.0))
    # endpoints unreachable within the mission duration
    with pytest.raises(ScenarioError) as err:
        load_scenario(small_doc(t_s=1.0))
    assert err.value.field == "t_s"


def test_sensor_budget_must_be_positive():
    with pytest.raises(ScenarioError):
        SensorSite(sensor_id=1, position=(0.0, 0.0), avg_power_budget=0.0)


@pytest.mark.parametrize("budget", [float("nan"), float("inf")])
def test_sensor_budget_must_be_finite(budget):
    with pytest.raises(ScenarioError):
        SensorSite(sensor_id=1, position=(0.0, 0.0), avg_power_budget=budget)


def test_sensor_budget_must_be_normal():
    tiny = float(np.finfo(float).tiny)
    SensorSite(sensor_id=1, position=(0.0, 0.0), avg_power_budget=tiny)
    with pytest.raises(ScenarioError) as err:
        SensorSite(sensor_id=2, position=(0.0, 0.0), avg_power_budget=tiny / 2)
    assert err.value.field == "sensors[1].p_ave_dbm"


# -3050 and -3080 dBm are 1e-308 and 1e-311 W, below the smallest normal
# float, where the planner's prices per watt overflow
BAD_BUDGETS_DBM = [float("nan"), float("inf"), 1e9, -3050.0, -3080.0]


@pytest.mark.parametrize("p_dbm", BAD_BUDGETS_DBM)
def test_with_overrides_rejects_bad_budget(p_dbm):
    scn = load_scenario(small_doc())
    with pytest.raises(ScenarioError) as err:
        scn.with_overrides(p_ave_dbm=p_dbm)
    assert err.value.field == "p_ave_dbm"


@pytest.mark.parametrize("p_dbm", BAD_BUDGETS_DBM)
def test_load_scenario_rejects_bad_budget(p_dbm):
    doc = small_doc()
    doc["sensors"][1]["p_ave_dbm"] = p_dbm
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert err.value.field == "sensors[1].p_ave_dbm"


@pytest.mark.parametrize("p_dbm", [-1510.0, -2000.0, -3040.0])
def test_out_of_reach_full_budget_snrs_are_rejected(p_dbm):
    """small_doc's best full-budget SNR right below a sensor is about
    7.3e-154 gamma_min at -1500 dBm, which loads.  At -1510 dBm and below
    it falls short of 1.5e-154, the root of the smallest normal float,
    and both load_scenario and with_overrides reject the mission, naming
    sensors, with no warning."""
    doc = small_doc()
    for sensor in doc["sensors"]:
        sensor["p_ave_dbm"] = p_dbm
    usual = load_scenario(small_doc())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for load in (lambda: load_scenario(doc),
                     lambda: usual.with_overrides(p_ave_dbm=p_dbm)):
            with pytest.raises(ScenarioError) as err:
                load()
            assert err.value.field == "sensors"
        usual.with_overrides(p_ave_dbm=-1500.0)


def test_noise_power_must_be_normal():
    """Noise below the smallest normal float is rejected, naming
    noise_dbm: -3133.5 dBm (4.5e-317 W) with budgets at the smallest
    normal float, the mission of 27 dBm budgets against -60 dBm noise
    shifted 3073.5 dB down, whose power step overflowed.  Noise at the
    smallest normal float loads."""
    p_dbm = smallest_normal_budget_dbm()
    doc = small_doc(noise_dbm=-3133.5)
    for sensor in doc["sensors"]:
        sensor["p_ave_dbm"] = p_dbm
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert err.value.field == "noise_dbm"
    scn = load_scenario(small_doc(noise_dbm=p_dbm))
    assert scn.noise_power >= np.finfo(float).tiny


def _set_field(doc: dict, field: str, value: float) -> None:
    """Set a scalar field, the first coordinate of an endpoint, or a
    coordinate of the second sensor (``sensors[1].x``)."""
    if field.startswith("sensors[1]."):
        doc["sensors"][1][field.split(".")[1]] = value
    elif field in ("q_i", "q_f"):
        doc[field] = [value, 0.0]
    else:
        doc[field] = value


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), pytest.param(10**400, id="huge_int")]
)
@pytest.mark.parametrize(
    "field",
    ["h_m", "beta0_db", "alpha", "noise_dbm", "gamma_min", "vmax_mps", "t_s",
     "q_i", "q_f", "sensors[1].x", "sensors[1].y"],
)
def test_load_scenario_rejects_non_finite(field, value):
    doc = small_doc()
    _set_field(doc, field, value)
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert err.value.field == field
    assert "finite" in str(err.value)


@pytest.mark.parametrize("field", ["h_m", "n_slots", "q_i", "sensors[1].x"])
def test_load_scenario_rejects_complex(field):
    doc = small_doc()
    _set_field(doc, field, 8 + 0j)
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert err.value.field == field


@pytest.mark.parametrize("field", ["beta0_db", "noise_dbm"])
def test_load_scenario_rejects_overflowing_decibels(field):
    with pytest.raises(ScenarioError) as err:
        load_scenario(small_doc(**{field: 1e9}))
    assert err.value.field == field


@pytest.mark.parametrize("duration", [float("nan"), float("inf")])
def test_with_overrides_rejects_non_finite_duration(duration):
    scn = load_scenario(small_doc())
    with pytest.raises(ScenarioError) as err:
        scn.with_overrides(duration=duration)
    assert err.value.field == "t_s"
    assert "finite" in str(err.value)


def test_with_overrides():
    scn = load_scenario(small_doc())
    scn2 = scn.with_overrides(duration=16.0, n_slots=32, p_ave_dbm=30.0)
    assert scn2.duration == 16.0
    assert scn2.n_slots == 32
    np.testing.assert_allclose(scn2.power_budgets, [1.0, 1.0])
    # the original is untouched
    assert scn.duration == 8.0 and scn.n_slots == 8
    assert scn.power_budgets[0] == pytest.approx(dbm_to_watts(27.0))


def test_scenario_arrays_are_built_once_and_read_only():
    scn = load_scenario(small_doc())
    for name in ("sensor_xy", "power_budgets"):
        arr = getattr(scn, name)
        assert getattr(scn, name) is arr
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # the cache is not part of the value: a fresh load compares and
    # hashes equal, and replace() starts a new cache
    fresh = load_scenario(small_doc())
    assert fresh == scn and hash(fresh) == hash(scn)
    moved = replace(scn, sensors=scn.sensors[:1])
    assert moved.sensor_xy.shape == (1, 2)
    rich = scn.with_overrides(p_ave_dbm=30.0)
    np.testing.assert_allclose(rich.power_budgets, [1.0, 1.0])
    assert not rich.power_budgets.flags.writeable
    assert scn.power_budgets[0] == pytest.approx(dbm_to_watts(27.0))


def test_trajectory_invariants():
    wp = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    tr = Trajectory(wp, slot_length=1.0)
    assert tr.n_slots == 2
    np.testing.assert_allclose(tr.slot_positions, wp[1:])
    assert not tr.waypoints.flags.writeable
    with pytest.raises(PlanShapeError):
        Trajectory(np.zeros((3, 3)), 1.0)
    with pytest.raises(PlanShapeError):
        Trajectory(wp, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_trajectory_rejects_a_non_finite_slot_length(demo_scenario, bad):
    # NaN compares false against every bound, so "<= 0" alone let it pass
    scn = demo_scenario.with_overrides(n_slots=4)
    wp = np.linspace(scn.q_start, scn.q_final, scn.n_slots + 1)
    with pytest.raises(PlanShapeError, match="slot length"):
        Trajectory(wp, bad)
    # a slot length set past the constructor does not fit either
    tr = Trajectory(wp, scn.slot_length)
    object.__setattr__(tr, "slot_length", bad)
    with pytest.raises(ScenarioError, match="slot length"):
        tr.require_fit(scn)


def test_power_schedule_invariants():
    sched = PowerSchedule(np.ones((2, 4)))
    assert sched.n_sensors == 2 and sched.n_slots == 4
    assert not sched.powers.flags.writeable
    with pytest.raises(PlanShapeError):
        PowerSchedule(np.ones(4))


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_power_schedule_rejects_negative_or_non_finite_powers(
    demo_scenario, bad
):
    # -1 W in slot 1 and 2 W in slot 2 keep every average within budget,
    # so validate_plan alone would pass the plan; its SNR would be NaN
    scn = demo_scenario.with_overrides(n_slots=4)
    powers = np.zeros((scn.n_sensors, scn.n_slots))
    powers[:, 0], powers[:, 1] = bad, 2.0
    with pytest.raises(PlanShapeError, match="powers"):
        PowerSchedule(powers)


def _feasible_plan(scn: Scenario):
    wp = np.linspace(scn.q_start, scn.q_final, scn.n_slots + 1)
    powers = np.broadcast_to(
        scn.power_budgets[:, None], (scn.n_sensors, scn.n_slots)
    ).copy()
    return Trajectory(wp, scn.slot_length), PowerSchedule(powers)


def test_validate_plan_feasible(small_scenario):
    tr, sched = _feasible_plan(small_scenario)
    residuals = validate_plan(small_scenario, tr, sched)
    assert not any(r.violated for r in residuals)
    assert plan_violations(small_scenario, tr, sched) == []
    kinds = {r.constraint for r in residuals}
    assert kinds == {"endpoint_start", "endpoint_final", "speed", "avg_power"}


def test_validate_plan_flags_speed_violation(small_scenario):
    tr, sched = _feasible_plan(small_scenario)
    wp = tr.waypoints.copy()
    wp[3] += 200.0  # jump far beyond v_max * slot_length
    bad = Trajectory(wp, tr.slot_length)
    broken = plan_violations(small_scenario, bad, sched)
    assert {r.constraint for r in broken} == {"speed"}
    assert {r.index for r in broken} == {3, 4}


def test_validate_plan_flags_nan_waypoint(small_scenario):
    # a NaN residual compares false against any tolerance; it must still
    # count as a violation
    tr, sched = _feasible_plan(small_scenario)
    wp = tr.waypoints.copy()
    wp[3, 0] = np.nan
    bad = Trajectory(wp, tr.slot_length)
    broken = plan_violations(small_scenario, bad, sched)
    flagged = {(r.constraint, r.index) for r in broken}
    assert flagged == {("speed", 3), ("speed", 4)}


def test_validate_plan_flags_endpoint_and_budget(small_scenario):
    tr, sched = _feasible_plan(small_scenario)
    wp = tr.waypoints.copy()
    wp[-1] += np.array([5.0, 0.0])
    bad_tr = Trajectory(wp, tr.slot_length)
    names = {r.constraint for r in plan_violations(small_scenario, bad_tr, sched)}
    assert "endpoint_final" in names
    hot = PowerSchedule(sched.powers * 1.5)
    over = plan_violations(small_scenario, tr, hot)
    assert {r.constraint for r in over} == {"avg_power"}
    assert all(r.residual > 0 for r in over)


def test_validate_plan_budget_tolerance_is_relative(small_scenario):
    # at -90 dBm (1e-12 W) a plan overspending by half is flagged and one
    # off by round-off is not, as at any other budget
    scn = small_scenario.with_overrides(p_ave_dbm=-90.0)
    tr, sched = _feasible_plan(scn)
    for factor, flagged in ((1.5, True), (1.0 + 1e-10, False)):
        over = plan_violations(scn, tr, PowerSchedule(sched.powers * factor))
        assert {r.constraint for r in over} == ({"avg_power"} if flagged else set())


def test_validate_plan_shape_mismatch(small_scenario):
    tr, sched = _feasible_plan(small_scenario)
    with pytest.raises(PlanShapeError):
        validate_plan(
            small_scenario, Trajectory(tr.waypoints[:-1], tr.slot_length), sched
        )
    with pytest.raises(PlanShapeError):
        validate_plan(small_scenario, tr, PowerSchedule(sched.powers[:, :-1]))


def test_validate_plan_takes_the_speed_limit_from_the_scenario(demo_scenario):
    # 40 m jumps break two 25 m legs; a trajectory claiming 100 times the
    # slot length would hide them behind a 2500 m limit
    scn = demo_scenario.with_overrides(n_slots=32)
    tr, sched = _feasible_plan(scn)
    wp = tr.waypoints.copy()
    wp[5, 0] += 40.0
    broken = plan_violations(scn, Trajectory(wp, scn.slot_length), sched)
    assert {(r.constraint, r.index) for r in broken} == {("speed", 5), ("speed", 6)}
    with pytest.raises(PlanShapeError, match="slot length"):
        validate_plan(scn, Trajectory(wp, 100.0 * scn.slot_length), sched)


def test_stationary_zero_power_plan_is_feasible():
    # coincident endpoints, parked UAV, silent sensors: nothing violated
    doc = small_doc(q_i=[30.0, 30.0], q_f=[30.0, 30.0])
    scn = load_scenario(doc)
    wp = np.repeat([[30.0, 30.0]], scn.n_slots + 1, axis=0)
    tr = Trajectory(wp, scn.slot_length)
    quiet = PowerSchedule(np.zeros((scn.n_sensors, scn.n_slots)))
    residuals = validate_plan(scn, tr, quiet)
    assert all(r.residual <= r.allowed for r in residuals)
    assert plan_violations(scn, tr, quiet) == []


def test_duration_tolerance_at_flight_bound():
    doc = small_doc()
    span = math.dist(doc["q_i"], doc["q_f"])
    doc["t_s"] = span / doc["vmax_mps"]  # exactly the minimum
    scn = load_scenario(doc)
    assert scn.duration == pytest.approx(doc["t_s"])
