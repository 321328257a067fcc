"""Distributed-beamforming channel model and outage statistics.

With the UAV at planar position q and altitude h, sensor k at distance
d_k = sqrt(|q - s_k|^2 + h^2) sees channel power gain beta0 * d_k^-alpha.
Phase-aligned transmissions combine coherently, so amplitudes add: the
received SNR is (sum_k sqrt(P_k * beta0 * d_k^-alpha))^2 / noise.  A slot is
in outage exactly when its SNR is strictly below the threshold; an SNR equal
to the threshold is not an outage.
"""

from __future__ import annotations

import math

import numpy as np

from outage_planner.scenario import (
    PowerSchedule,
    Scenario,
    SensorSite,
    Trajectory,
)


def distance(q, sensor: SensorSite, altitude: float) -> float:
    """Line-of-sight distance from the UAV above q to a sensor."""
    dx = q[0] - sensor.position[0]
    dy = q[1] - sensor.position[1]
    return math.sqrt(dx * dx + dy * dy + altitude * altitude)


def gain_at(points: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Channel power gains beta0 * d^-alpha at planar points.

    points has shape (M, 2); the result has shape (M, K).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    diff = pts[:, None, :] - scenario.sensor_xy[None, :, :]
    sq = np.einsum("mki,mki->mk", diff, diff) + scenario.altitude**2
    return scenario.beta0 * sq ** (-scenario.alpha / 2.0)


def snr(q, powers, scenario: Scenario) -> float:
    """Received SNR for one slot: UAV above q, per-sensor powers in watts."""
    p = np.asarray(powers, dtype=float)
    if p.shape != (scenario.n_sensors,):
        raise ValueError(
            f"powers must have shape ({scenario.n_sensors},), got {p.shape}"
        )
    if np.any(p < 0.0):
        raise ValueError("powers must be nonnegative")
    amp = np.sqrt(p * gain_at(np.asarray(q, dtype=float)[None, :], scenario)[0])
    return float(amp.sum() ** 2 / scenario.noise_power)


def snr_series(
    trajectory: Trajectory, schedule: PowerSchedule, scenario: Scenario
) -> np.ndarray:
    """Per-slot SNR along a plan, shape (N,).  Slot n uses waypoint q[n]."""
    return snr_from_gains(
        schedule, gain_at(trajectory.slot_positions, scenario), scenario
    )


def snr_from_gains(
    schedule: PowerSchedule, gains: np.ndarray, scenario: Scenario
) -> np.ndarray:
    """Per-slot SNR of ``schedule`` given its slots' (N, K) channel gains."""
    p = schedule.powers
    if p.shape != gains.T.shape:
        raise ValueError("power schedule does not match trajectory and scenario")
    amps = np.sqrt(p.T * gains)
    return amps.sum(axis=1) ** 2 / scenario.noise_power


def outage_indicator(snr_value: float, gamma_min: float) -> int:
    """0 if the slot is served (SNR at or above threshold), else 1, NaN
    included."""
    return 0 if snr_value >= gamma_min else 1


def outage_probability(
    trajectory: Trajectory, schedule: PowerSchedule, scenario: Scenario
) -> float:
    """Fraction of slots in outage for the given plan; a slot is served
    only when its SNR reaches the threshold, so a NaN SNR is outage."""
    series = snr_series(trajectory, schedule, scenario)
    return float(np.mean(~(series >= scenario.gamma_min)))
