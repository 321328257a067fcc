"""Channel model oracles: distances, gains, coherent SNR, outage counting."""

import math

import numpy as np
import pytest

from outage_planner.channel import (
    distance,
    gain_at,
    outage_indicator,
    outage_probability,
    snr,
    snr_series,
)
from outage_planner.scenario import PowerSchedule, Trajectory, load_scenario
from tests.conftest import small_doc


def test_distance_pythagorean(small_scenario):
    # planar offset (3, 4), altitude 12 -> 3-4-12 box diagonal = 13
    sensor = small_scenario.sensors[0]
    q = (sensor.position[0] + 3.0, sensor.position[1] + 4.0)
    assert distance(q, sensor, 12.0) == pytest.approx(13.0, rel=1e-12)


def test_gain_matches_manual_formula(small_scenario):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-50.0, 120.0, size=(6, 2))
    gains = gain_at(pts, small_scenario)
    assert gains.shape == (6, small_scenario.n_sensors)
    for i, q in enumerate(pts):
        for k, sensor in enumerate(small_scenario.sensors):
            d = distance(q, sensor, small_scenario.altitude)
            expected = small_scenario.beta0 * d ** (-small_scenario.alpha)
            assert gains[i, k] == pytest.approx(expected, rel=1e-12)


def test_snr_single_sensor_overhead():
    doc = small_doc(
        sensors=[{"x": 40.0, "y": 25.0, "p_ave_dbm": 30.0}], gamma_min=1.0
    )
    scn = load_scenario(doc)
    # directly overhead: d = h, so SNR = P * beta0 * h^-alpha / noise
    expected = 1.0 * scn.beta0 * scn.altitude ** (-scn.alpha) / scn.noise_power
    assert snr((40.0, 25.0), [1.0], scn) == pytest.approx(expected, rel=1e-12)


def test_snr_amplitudes_add_coherently(small_scenario):
    q = np.array([35.0, 22.0])
    powers = np.array([0.7, 0.4])
    gains = gain_at(q[None, :], small_scenario)[0]
    amp = math.sqrt(powers[0] * gains[0]) + math.sqrt(powers[1] * gains[1])
    expected = amp**2 / small_scenario.noise_power
    assert snr(q, powers, small_scenario) == pytest.approx(expected, rel=1e-12)


def test_colocated_sensors_snr_scales_quadratically():
    base = small_doc(
        sensors=[{"x": 30.0, "y": 30.0, "p_ave_dbm": 27.0}], gamma_min=1.0
    )
    duo = small_doc(
        sensors=[
            {"x": 30.0, "y": 30.0, "p_ave_dbm": 27.0},
            {"x": 30.0, "y": 30.0, "p_ave_dbm": 27.0},
        ],
        gamma_min=1.0,
    )
    one = load_scenario(base)
    two = load_scenario(duo)
    p = one.power_budgets[0]
    q = (25.0, 35.0)
    # two phase-aligned equal transmitters quadruple the received power
    assert snr(q, [p, p], two) == pytest.approx(
        4.0 * snr(q, [p], one), rel=1e-12
    )


def test_snr_input_validation(small_scenario):
    with pytest.raises(ValueError):
        snr((0.0, 0.0), [1.0], small_scenario)
    with pytest.raises(ValueError):
        snr((0.0, 0.0), [1.0, -0.1], small_scenario)


def test_snr_series_matches_slotwise_snr(small_scenario):
    rng = np.random.default_rng(11)
    n = small_scenario.n_slots
    wp = np.linspace(
        small_scenario.q_start, small_scenario.q_final, n + 1
    ) + np.vstack([[0.0, 0.0], rng.uniform(-3.0, 3.0, size=(n - 1, 2)), [0.0, 0.0]])
    tr = Trajectory(wp, small_scenario.slot_length)
    powers = rng.uniform(0.0, 0.5, size=(small_scenario.n_sensors, n))
    series = snr_series(tr, PowerSchedule(powers), small_scenario)
    for i in range(n):
        assert series[i] == pytest.approx(
            snr(tr.slot_positions[i], powers[:, i], small_scenario), rel=1e-12
        )


def test_outage_indicator_is_strict():
    assert outage_indicator(99.999, 100.0) == 1
    assert outage_indicator(100.0, 100.0) == 0  # threshold met exactly
    assert outage_indicator(100.001, 100.0) == 0
    assert outage_indicator(math.nan, 100.0) == 1   # only a met threshold serves


def test_outage_probability_counts_slots(small_scenario):
    n = small_scenario.n_slots
    wp = np.linspace(small_scenario.q_start, small_scenario.q_final, n + 1)
    tr = Trajectory(wp, small_scenario.slot_length)
    full = np.broadcast_to(
        small_scenario.power_budgets[:, None], (small_scenario.n_sensors, n)
    ).copy()
    sched = PowerSchedule(full)
    series = snr_series(tr, sched, small_scenario)
    expected = np.mean(series < small_scenario.gamma_min)
    assert outage_probability(tr, sched, small_scenario) == pytest.approx(
        expected, abs=0
    )
    # silent plan: everything is outage
    quiet = PowerSchedule(np.zeros_like(full))
    assert outage_probability(tr, quiet, small_scenario) == 1.0


def test_outage_probability_counts_a_nan_snr_as_outage(demo_scenario):
    # a NaN waypoint gives its slot a NaN SNR, which is not served
    scn = demo_scenario.with_overrides(n_slots=4)
    wp = np.linspace(scn.q_start, scn.q_final, scn.n_slots + 1)
    wp[2, 0] = np.nan
    quiet = PowerSchedule(np.zeros((scn.n_sensors, scn.n_slots)))
    tr = Trajectory(wp, scn.slot_length)
    assert np.isnan(snr_series(tr, quiet, scn)[1])
    assert outage_probability(tr, quiet, scn) == 1.0
