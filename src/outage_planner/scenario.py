"""Problem instances, unit conversions, and plan feasibility checking.

A scenario bundles the ground sensors (positions and average-power budgets),
the channel constants, the SNR threshold, and the mission parameters (speed
limit, duration, slot count, endpoints).  Instances are loaded from JSON
documents validated against the schema shipped with the package.  All
quantities are stored in linear SI units; decibel forms exist only at the
configuration boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np
from jsonschema import Draft7Validator

# Feasibility comparisons are relative with a small absolute floor.
REL_TOL = 1e-9
ABS_TOL = 1e-12

_SCHEMA = None


class ScenarioError(ValueError):
    """Invalid scenario document or physically meaningless field value."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"{field_name}: {message}")


class PlanShapeError(ValueError):
    """Trajectory or power schedule dimensions do not match the scenario."""


def db_to_linear(value_db: float) -> float:
    """Convert a decibel quantity to its linear ratio."""
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    """Convert a linear ratio to decibels.  Requires value > 0."""
    if value <= 0.0:
        raise ValueError("decibel conversion requires a positive value")
    return 10.0 * math.log10(value)


def dbm_to_watts(value_dbm: float) -> float:
    """Convert a power in dBm to watts."""
    return 10.0 ** ((value_dbm - 30.0) / 10.0)


def _from_db(convert, value: float) -> float:
    """``convert(value)`` with an overflow read as +inf, so that the range
    checks of SensorSite and Scenario reject it with the field's name."""
    try:
        return convert(value)
    except OverflowError:
        return math.inf


def _budget_watts(value_dbm: float, field_name: str) -> float:
    """A sensor's average-power budget in watts: positive and finite."""
    watts = _from_db(dbm_to_watts, value_dbm)
    if not 0.0 < watts < math.inf:
        raise ScenarioError(
            field_name, "average power budget must be positive and finite"
        )
    return watts


def watts_to_dbm(value_w: float) -> float:
    """Convert a power in watts to dBm.  Requires value > 0."""
    if value_w <= 0.0:
        raise ValueError("dBm conversion requires a positive power")
    return 10.0 * math.log10(value_w) + 30.0


@dataclass(frozen=True)
class SensorSite:
    """A ground sensor: integer id (1-based), planar position, power budget."""

    sensor_id: int
    position: tuple[float, float]
    avg_power_budget: float  # watts, > 0

    def __post_init__(self):
        prefix = f"sensors[{self.sensor_id - 1}]"
        for axis, value in zip("xy", self.position):
            if not math.isfinite(value):
                raise ScenarioError(f"{prefix}.{axis}", "must be finite")
        if not 0.0 < self.avg_power_budget < math.inf:
            raise ScenarioError(
                f"{prefix}.p_ave_dbm",
                "average power budget must be positive and finite",
            )


@dataclass(frozen=True)
class Scenario:
    """A complete planning instance in linear SI units."""

    sensors: tuple[SensorSite, ...]
    altitude: float            # h_m, UAV altitude above ground plane [m]
    beta0: float               # channel gain at 1 m reference distance [linear]
    alpha: float               # path-loss exponent
    noise_power: float         # receiver noise power [W]
    gamma_min: float           # SNR threshold [linear]
    v_max: float               # UAV speed limit [m/s]
    duration: float            # mission duration T [s]
    n_slots: int               # number of time slots N
    q_start: tuple[float, float]
    q_final: tuple[float, float]

    def __post_init__(self):
        _check_positive = [
            ("h_m", self.altitude),
            ("beta0_db", self.beta0),
            ("noise_dbm", self.noise_power),
            ("gamma_min", self.gamma_min),
            ("vmax_mps", self.v_max),
            ("t_s", self.duration),
        ]
        for name, value in _check_positive:
            if not 0.0 < value < math.inf:
                raise ScenarioError(name, "must be positive and finite")
        for name, point in (("q_i", self.q_start), ("q_f", self.q_final)):
            if not all(math.isfinite(v) for v in point):
                raise ScenarioError(name, "coordinates must be finite")
        if not self.sensors:
            raise ScenarioError("sensors", "at least one sensor is required")
        ids = [s.sensor_id for s in self.sensors]
        if ids != list(range(1, len(self.sensors) + 1)):
            raise ScenarioError("sensors", "ids must be contiguous from 1")
        if not 2.0 <= self.alpha < math.inf:
            raise ScenarioError("alpha", "path-loss exponent must be finite and >= 2")
        if self.n_slots < 1:
            raise ScenarioError("n_slots", "must be a positive integer")
        dist = math.dist(self.q_start, self.q_final)
        min_time = dist / self.v_max
        if self.duration < min_time * (1.0 - REL_TOL):
            raise ScenarioError(
                "t_s",
                f"duration {self.duration} s is below the flight-feasibility "
                f"bound {min_time:.6g} s for the given endpoints and speed limit",
            )

    @property
    def n_sensors(self) -> int:
        return len(self.sensors)

    @property
    def slot_length(self) -> float:
        return self.duration / self.n_slots

    @property
    def sensor_xy(self) -> np.ndarray:
        """Sensor positions as a read-only (K, 2) array."""
        arr = np.array([s.position for s in self.sensors], dtype=float)
        arr.flags.writeable = False
        return arr

    @property
    def power_budgets(self) -> np.ndarray:
        """Average-power budgets as a read-only (K,) array [W]."""
        arr = np.array([s.avg_power_budget for s in self.sensors], dtype=float)
        arr.flags.writeable = False
        return arr

    def with_overrides(
        self,
        duration: float | None = None,
        n_slots: int | None = None,
        p_ave_dbm: float | None = None,
    ) -> "Scenario":
        """Return a copy with mission duration, slot count, or a uniform
        power budget replaced.  Used by the CLI sweep commands."""
        sensors = self.sensors
        if p_ave_dbm is not None:
            budget = _budget_watts(p_ave_dbm, "p_ave_dbm")
            sensors = tuple(
                replace(s, avg_power_budget=budget) for s in self.sensors
            )
        return replace(
            self,
            sensors=sensors,
            duration=self.duration if duration is None else float(duration),
            n_slots=self.n_slots if n_slots is None else int(n_slots),
        )


@dataclass(frozen=True)
class Trajectory:
    """UAV waypoints, one per slot boundary: shape (N + 1, 2), q[0] first."""

    waypoints: np.ndarray
    slot_length: float

    def __post_init__(self):
        wp = np.asarray(self.waypoints, dtype=float)
        if wp.ndim != 2 or wp.shape[1] != 2 or wp.shape[0] < 2:
            raise PlanShapeError("waypoints must have shape (N + 1, 2)")
        if self.slot_length <= 0.0:
            raise PlanShapeError("slot length must be positive")
        wp = wp.copy()
        wp.flags.writeable = False
        object.__setattr__(self, "waypoints", wp)

    @property
    def n_slots(self) -> int:
        return self.waypoints.shape[0] - 1

    @property
    def slot_positions(self) -> np.ndarray:
        """Positions at which slot SNRs are evaluated: q[1..N], shape (N, 2)."""
        return self.waypoints[1:]


@dataclass(frozen=True)
class PowerSchedule:
    """Per-sensor, per-slot transmit powers: shape (K, N), watts, >= 0."""

    powers: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.powers, dtype=float)
        if p.ndim != 2:
            raise PlanShapeError("powers must have shape (K, N)")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "powers", p)

    @property
    def n_sensors(self) -> int:
        return self.powers.shape[0]

    @property
    def n_slots(self) -> int:
        return self.powers.shape[1]


@dataclass(frozen=True)
class ConstraintResidual:
    """Signed slack of one plan constraint; positive values exceed the limit."""

    constraint: str
    index: int
    value: float      # measured quantity
    limit: float      # allowed bound
    residual: float   # value - limit (signed, <= 0 means satisfied)
    allowed: float    # tolerance applied before flagging a violation

    @property
    def violated(self) -> bool:
        return self.residual > self.allowed


def _scenario_schema() -> dict:
    global _SCHEMA
    if _SCHEMA is None:
        text = (
            resources.files("outage_planner")
            .joinpath("schemas/scenario.schema.json")
            .read_text()
        )
        _SCHEMA = json.loads(text)
    return _SCHEMA


def load_scenario(source) -> Scenario:
    """Build a Scenario from a JSON file path or an already-parsed mapping.

    The document is validated against the shipped JSON schema; decibel fields
    are converted to linear units here and nowhere else.  Raises
    ScenarioError naming the offending field on any violation.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    elif isinstance(source, dict):
        doc = source
    else:
        raise TypeError("source must be a path or a dict")

    validator = Draft7Validator(_scenario_schema())
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        path = ".".join(str(p) for p in err.absolute_path) or "<document>"
        raise ScenarioError(path, err.message)

    sensors = tuple(
        SensorSite(
            sensor_id=i + 1,
            position=(float(item["x"]), float(item["y"])),
            avg_power_budget=_from_db(dbm_to_watts, float(item["p_ave_dbm"])),
        )
        for i, item in enumerate(doc["sensors"])
    )
    return Scenario(
        sensors=sensors,
        altitude=float(doc["h_m"]),
        beta0=_from_db(db_to_linear, float(doc["beta0_db"])),
        alpha=float(doc["alpha"]),
        noise_power=_from_db(dbm_to_watts, float(doc["noise_dbm"])),
        gamma_min=float(doc["gamma_min"]),
        v_max=float(doc["vmax_mps"]),
        duration=float(doc["t_s"]),
        n_slots=int(doc["n_slots"]),
        q_start=(float(doc["q_i"][0]), float(doc["q_i"][1])),
        q_final=(float(doc["q_f"][0]), float(doc["q_f"][1])),
    )


def _allowed(scale: float) -> float:
    return max(REL_TOL * abs(scale), ABS_TOL)


def validate_plan(
    scenario: Scenario, trajectory: Trajectory, schedule: PowerSchedule
) -> list[ConstraintResidual]:
    """Check a plan against every mission constraint.

    Returns signed residuals for both endpoint constraints, each per-slot
    speed constraint, and each sensor's average-power constraint.  The plan
    is feasible iff no entry is flagged as violated; comparisons are
    relative with tolerance 1e-9 and an absolute floor of 1e-12.
    """
    wp = trajectory.waypoints
    n = scenario.n_slots
    if wp.shape[0] != n + 1:
        raise PlanShapeError(
            f"trajectory has {wp.shape[0] - 1} slots, scenario expects {n}"
        )
    if schedule.powers.shape != (scenario.n_sensors, n):
        raise PlanShapeError(
            f"power schedule shape {schedule.powers.shape} does not match "
            f"(K, N) = {(scenario.n_sensors, n)}"
        )

    out: list[ConstraintResidual] = []
    span = math.dist(scenario.q_start, scenario.q_final)
    end_allowed = _allowed(max(span, 1.0))
    for name, idx, point, target in (
        ("endpoint_start", 0, wp[0], scenario.q_start),
        ("endpoint_final", n, wp[-1], scenario.q_final),
    ):
        gap = float(math.dist(point, target))
        out.append(
            ConstraintResidual(name, idx, gap, 0.0, gap, end_allowed)
        )

    v_limit = scenario.v_max * trajectory.slot_length
    steps = np.linalg.norm(np.diff(wp, axis=0), axis=1)
    for i, step in enumerate(steps, start=1):
        out.append(
            ConstraintResidual(
                "speed", i, float(step), v_limit, float(step - v_limit),
                _allowed(v_limit),
            )
        )

    mean_power = schedule.powers.mean(axis=1)
    for k, (used, budget) in enumerate(
        zip(mean_power, scenario.power_budgets), start=1
    ):
        out.append(
            ConstraintResidual(
                "avg_power", k, float(used), float(budget),
                float(used - budget), _allowed(budget),
            )
        )
    return out


def plan_violations(
    scenario: Scenario, trajectory: Trajectory, schedule: PowerSchedule
) -> list[ConstraintResidual]:
    """Convenience filter over validate_plan: only the violated entries."""
    return [r for r in validate_plan(scenario, trajectory, schedule) if r.violated]
