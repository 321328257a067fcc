"""Metamorphic checks: transforms that describe the same mission in other
terms (sensor order, a layout mirrored across the diagonal, the unit of
length, the unit of power) leave every planned outage and served slot
unchanged, and the relaxation's dual value within 1e-9 relative.

Each case plans ``paper.json`` at N = 32 and 30 dBm with ``plan_joint``,
``run_power_only`` and ``run_fly_hover_fly`` (21 x 21 grid), and at 34 dBm
with ``run_trajectory_only``, which serves no slot at 30 dBm.
"""

import functools
import json
import math

import pytest

from outage_planner.benchmarks import (
    run_fly_hover_fly,
    run_power_only,
    run_trajectory_only,
)
from outage_planner.pipeline import plan_joint
from outage_planner.relaxed_optimum import GridSpec
from outage_planner.scenario import load_scenario
from tests.conftest import DEMO_SCENARIO


def _reverse_sensors(doc):
    doc["sensors"].reverse()


def _mirror(doc):
    for sensor in doc["sensors"]:
        sensor["x"], sensor["y"] = sensor["y"], sensor["x"]
    for key in ("q_i", "q_f"):
        doc[key] = doc[key][::-1]


def _lengths_times(factor):
    """Every length times ``factor``, beta0 by factor^alpha to keep gains."""
    def transform(doc):
        for sensor in doc["sensors"]:
            sensor["x"] *= factor
            sensor["y"] *= factor
        for key in ("q_i", "q_f"):
            doc[key] = [factor * v for v in doc[key]]
        doc["h_m"] *= factor
        doc["vmax_mps"] *= factor
        doc["beta0_db"] += 10.0 * doc["alpha"] * math.log10(factor)
    return transform


def _power_shift(db):
    """Every budget and the noise shifted by ``db``: the same SNRs."""
    def transform(doc):
        for sensor in doc["sensors"]:
            sensor["p_ave_dbm"] += db
        doc["noise_dbm"] += db
    return transform


TRANSFORMS = {
    "identity": lambda doc: None,
    "reverse sensors": _reverse_sensors,
    "mirror": _mirror,
    "lengths x1e-3": _lengths_times(1e-3),
    "lengths x1e3": _lengths_times(1e3),
    "power -60 dB": _power_shift(-60.0),
    "power -100 dB": _power_shift(-100.0),
    "power +60 dB": _power_shift(60.0),
    "power -120 dB": _power_shift(-120.0),
}


def _scenario(transform, p_dbm):
    doc = json.loads(DEMO_SCENARIO.read_text())
    doc["n_slots"] = 32
    for sensor in doc["sensors"]:
        sensor["p_ave_dbm"] = p_dbm
    TRANSFORMS[transform](doc)
    return load_scenario(doc)


@functools.cache
def _outcomes(transform):
    scn = _scenario(transform, 30.0)
    joint = plan_joint(scn)
    grid = GridSpec.from_scenario(scn, resolution=21)
    return joint.dual.value, {
        "joint": joint.outage,
        "active": joint.recovered.active_slots.tolist(),
        "power_only": run_power_only(scn).outage,
        "fly_hover_fly": run_fly_hover_fly(scn, grid).outage,
        "trajectory_only": run_trajectory_only(_scenario(transform, 34.0)).outage,
    }


def _xfail(transform, reason):
    return pytest.param(
        transform, marks=pytest.mark.xfail(strict=True, reason="ROADMAP " + reason)
    )


# the relaxation is not yet unit-free: its LP tolerances are absolute
MINUS_100_DB = _xfail(
    "power -100 dB",
    "item 3: at -70 dBm budgets the column generation takes 110 passes for "
    "108 and stops 4e-11 (1.5e-9 relative) higher, inside its 1e-9 gap",
)
MINUS_120_DB = _xfail(
    "power -120 dB",
    "item 3: at -90 dBm budgets the dual falls from 0.02733 to 0 and "
    "plan_joint serves one slot less (outage 0.21875 for 0.1875)",
)
EXACT = ["reverse sensors", "mirror", "lengths x1e-3", "lengths x1e3",
         "power -60 dB", "power +60 dB"]


@pytest.mark.parametrize("transform", [*EXACT, "power -100 dB", MINUS_120_DB])
def test_same_mission_in_other_terms_plans_the_same(transform):
    reference = _outcomes("identity")[1]
    # trajectory_only must serve slots for its comparison to mean anything
    assert reference["trajectory_only"] < 1.0
    assert _outcomes(transform)[1] == reference


@pytest.mark.parametrize("transform", [*EXACT, MINUS_100_DB, MINUS_120_DB])
def test_same_mission_in_other_terms_has_the_same_dual(transform):
    assert _outcomes(transform)[0] == pytest.approx(
        _outcomes("identity")[0], rel=1e-9, abs=0.0
    )
