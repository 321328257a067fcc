"""Problem instances, unit conversions, and plan feasibility checking.

A scenario bundles the ground sensors (positions and average-power budgets),
the channel constants, the SNR threshold, and the mission parameters (speed
limit, duration, slot count, endpoints).  ``load_scenario`` checks the shape
of a JSON document and the constructors check the ranges.  All quantities are
stored in linear SI units; decibel forms exist only at the configuration
boundary.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

# Feasibility comparisons are relative to each constraint's own limit, so
# a plan is judged the same in any units.
REL_TOL = 1e-9

# The keys of a scenario document and of each sensor, in reporting order.
_KEYS = ("sensors", "h_m", "beta0_db", "alpha", "noise_dbm", "gamma_min",
         "vmax_mps", "t_s", "n_slots", "q_i", "q_f")
_SENSOR_KEYS = ("x", "y", "p_ave_dbm")


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


# least budget and noise power in watts: below the smallest normal float
# the planner's prices per watt, nu / B, and the power step's slopes,
# 2 s / (gamma noise), overflow
_MIN_POWER_W = float(np.finfo(float).tiny)
_BUDGET_RANGE = "average power budget must be finite and at least 2.2e-308 W"
# least full-budget SNR of the best sensor at the nearest point the UAV
# can reach, in units of gamma_min: the planner squares such ratios (its
# cone determinants and price tests), and below the root of the smallest
# normal float they underflow; such a mission is out of reach in every
# slot
_MIN_SNR_SHARE = math.sqrt(np.finfo(float).tiny)


def _budget_watts(value_dbm: float, field_name: str) -> float:
    """A sensor's average-power budget in watts: finite and normal."""
    watts = _from_db(dbm_to_watts, value_dbm)
    if not _MIN_POWER_W <= watts < math.inf:
        raise ScenarioError(field_name, _BUDGET_RANGE)
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
    avg_power_budget: float  # watts, finite and at least the smallest normal

    def __post_init__(self):
        prefix = f"sensors[{self.sensor_id - 1}]"
        for axis, value in zip("xy", self.position):
            if not math.isfinite(value):
                raise ScenarioError(f"{prefix}.{axis}", "must be finite")
        if not _MIN_POWER_W <= self.avg_power_budget < math.inf:
            raise ScenarioError(f"{prefix}.p_ave_dbm", _BUDGET_RANGE)


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
            ("gamma_min", self.gamma_min),
            ("vmax_mps", self.v_max),
            ("t_s", self.duration),
        ]
        for name, value in _check_positive:
            if not 0.0 < value < math.inf:
                raise ScenarioError(name, "must be positive and finite")
        if not _MIN_POWER_W <= self.noise_power < math.inf:
            raise ScenarioError(
                "noise_dbm", "noise power must be finite and at least 2.2e-308 W"
            )
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
        # B beta0 (d^2 + h^2)^(-alpha/2) / (gamma noise) in logarithms, as
        # it may underflow, with d the sensor's least planar distance from
        # where the UAV can be: every waypoint lies within v T of q_i and q_f
        reach = self.v_max * self.duration
        best = max(
            math.log(s.avg_power_budget) - self.alpha * math.log(math.hypot(
                max(0.0, math.dist(s.position, self.q_start) - reach,
                    math.dist(s.position, self.q_final) - reach),
                self.altitude,
            ))
            for s in self.sensors
        )
        share = (
            best + math.log(self.beta0)
            - math.log(self.gamma_min) - math.log(self.noise_power)
        )
        if share < math.log(_MIN_SNR_SHARE):
            raise ScenarioError(
                "sensors",
                "no sensor's full-budget SNR anywhere the UAV can fly reaches "
                "1.5e-154 gamma_min; the planner cannot square SNR ratios this "
                "small",
            )
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

    # cached: the scenario is frozen, and a read-only array cannot drift
    # from the sensors it was built from
    @cached_property
    def sensor_xy(self) -> np.ndarray:
        """Sensor positions as a read-only (K, 2) array."""
        arr = np.array([s.position for s in self.sensors], dtype=float)
        arr.flags.writeable = False
        return arr

    @cached_property
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


@dataclass(frozen=True, slots=True)
class Trajectory:
    """UAV waypoints, one per slot boundary: shape (N + 1, 2), q[0] first."""

    waypoints: np.ndarray
    slot_length: float

    def __post_init__(self):
        wp = np.asarray(self.waypoints, dtype=float)
        if wp.ndim != 2 or wp.shape[1] != 2 or wp.shape[0] < 2:
            raise PlanShapeError("waypoints must have shape (N + 1, 2)")
        if not 0.0 < self.slot_length < math.inf:   # NaN fails too
            raise PlanShapeError("slot length must be positive and finite")
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

    def require_finite(self) -> None:
        """Raise ScenarioError when a waypoint is NaN or infinite.

        The constructor accepts such waypoints, so that ``validate_plan``
        can flag them; the planners call this before planning on them.
        """
        if not np.isfinite(self.waypoints).all():
            raise ScenarioError("trajectory", "waypoints must be finite")

    def require_fit(self, scenario: Scenario) -> None:
        """Raise ScenarioError unless the trajectory has the scenario's
        N + 1 waypoints and its slot length, within ``REL_TOL``.  The
        planners read slot counts and speed limits from both, so a
        trajectory that does not fit would plan another mission.
        """
        n, delta = scenario.n_slots, scenario.slot_length
        if self.n_slots != n:
            raise ScenarioError(
                "trajectory",
                f"trajectory has {self.n_slots} slots, scenario expects {n}",
            )
        if not abs(self.slot_length - delta) <= _allowed(delta):
            raise ScenarioError(
                "trajectory",
                f"slot length {self.slot_length} s, scenario expects {delta} s",
            )


@dataclass(frozen=True, slots=True)
class PowerSchedule:
    """Per-sensor, per-slot transmit powers: shape (K, N), watts, >= 0."""

    powers: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.powers, dtype=float)
        if p.ndim != 2:
            raise PlanShapeError("powers must have shape (K, N)")
        if not (np.isfinite(p).all() and (p >= 0.0).all()):
            raise PlanShapeError("powers must be finite and nonnegative")
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
        return not self.residual <= self.allowed  # NaN counts as violated


def _check_keys(entry, keys: tuple[str, ...], name: str) -> None:
    """Require ``entry`` to be an object holding exactly ``keys``."""
    if not isinstance(entry, dict):
        raise ScenarioError(name, "must be an object")
    prefix = "" if name == "<document>" else f"{name}."
    for key in keys:
        if key not in entry:
            raise ScenarioError(prefix + key, "is required")
    unknown = [key for key in entry if key not in keys]
    if unknown:
        raise ScenarioError(name, f"unknown keys {unknown}")


def _number(value, name: str) -> float:
    """``float(value)`` for a real number other than a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioError(name, "must be a number")
    return _from_db(float, value)  # an integer past the float range: +inf


def _point(value, name: str) -> tuple[float, float]:
    if not (isinstance(value, list) and len(value) == 2):
        raise ScenarioError(name, "must be a list of two numbers")
    return (_number(value[0], name), _number(value[1], name))


def _slot_count(value) -> int:
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ScenarioError("n_slots", "must be an integer")
    return int(value)


def load_scenario(source) -> Scenario:
    """Build a Scenario from a JSON file path or an already-parsed mapping.

    The document holds exactly the README's keys, each sensor ``x``, ``y``
    and ``p_ave_dbm``; values are numbers (not bools), ``n_slots`` integral,
    ``q_i``/``q_f`` two-number lists; the constructors check the ranges.
    Decibel fields are converted to linear units here and nowhere else.
    Raises ScenarioError naming the offending field on any violation.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ScenarioError("<document>", f"not UTF-8 JSON: {exc}") from exc
    elif isinstance(source, dict):
        doc = source
    else:
        raise TypeError("source must be a path or a dict")

    _check_keys(doc, _KEYS, "<document>")
    if not isinstance(doc["sensors"], list):
        raise ScenarioError("sensors", "must be a list")
    sensors = []
    for i, item in enumerate(doc["sensors"]):
        name = f"sensors[{i}]"
        _check_keys(item, _SENSOR_KEYS, name)
        x, y, p_dbm = (_number(item[k], f"{name}.{k}") for k in _SENSOR_KEYS)
        sensors.append(SensorSite(i + 1, (x, y), _from_db(dbm_to_watts, p_dbm)))
    return Scenario(
        sensors=tuple(sensors),
        altitude=_number(doc["h_m"], "h_m"),
        beta0=_from_db(db_to_linear, _number(doc["beta0_db"], "beta0_db")),
        alpha=_number(doc["alpha"], "alpha"),
        noise_power=_from_db(dbm_to_watts, _number(doc["noise_dbm"], "noise_dbm")),
        gamma_min=_number(doc["gamma_min"], "gamma_min"),
        v_max=_number(doc["vmax_mps"], "vmax_mps"),
        duration=_number(doc["t_s"], "t_s"),
        n_slots=_slot_count(doc["n_slots"]),
        q_start=_point(doc["q_i"], "q_i"),
        q_final=_point(doc["q_f"], "q_f"),
    )


def _allowed(scale: float) -> float:
    return REL_TOL * abs(scale)


def validate_plan(
    scenario: Scenario, trajectory: Trajectory, schedule: PowerSchedule
) -> list[ConstraintResidual]:
    """Check a plan against every mission constraint.

    Returns signed residuals for both endpoint constraints, each per-slot
    speed constraint, and each sensor's average-power constraint.  The plan
    is feasible iff no entry is flagged as violated; each comparison
    allows 1e-9 of its limit (of the endpoint span, at least 1 m, for the
    endpoints).  Raises PlanShapeError when the trajectory does not fit
    the scenario (``Trajectory.require_fit``) or the schedule is not (K, N).
    """
    try:
        trajectory.require_fit(scenario)
    except ScenarioError as exc:
        raise PlanShapeError(str(exc)) from exc
    wp = trajectory.waypoints
    n = scenario.n_slots
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

    v_limit = scenario.v_max * scenario.slot_length
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
