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

import numpy as np
import pytest

from outage_planner.benchmarks import (
    run_fly_hover_fly,
    run_power_only,
    run_trajectory_only,
)
from outage_planner.pipeline import plan_joint
from outage_planner.relaxed_optimum import GridSpec
from outage_planner.scenario import load_scenario
from tests.conftest import DEMO_SCENARIO, small_doc, smallest_normal_budget_dbm


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
    "power -150 dB": _power_shift(-150.0),
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


CASES = [name for name in TRANSFORMS if name != "identity"]


@pytest.mark.parametrize("transform", CASES)
def test_same_mission_in_other_terms_plans_the_same(transform):
    reference = _outcomes("identity")[1]
    # trajectory_only must serve slots for its comparison to mean anything
    assert reference["trajectory_only"] < 1.0
    assert _outcomes(transform)[1] == reference


@pytest.mark.parametrize("transform", CASES)
def test_same_mission_in_other_terms_has_the_same_dual(transform):
    assert _outcomes(transform)[0] == pytest.approx(
        _outcomes("identity")[0], rel=1e-9, abs=0.0
    )


def test_smallest_normal_budget_plans_as_at_27_dbm():
    """Budgets at the smallest normal float, about 2.2e-308 W (-3046.5
    dBm), with beta0 raised to keep every gain times budget: small_doc
    plans the outage and served slots it plans at 27 dBm, with finite
    prices per watt near 1.9e307 and no warning (an error under the test
    configuration).  Budgets below it are rejected at load."""
    plans = []
    for p in (27.0, smallest_normal_budget_dbm()):
        doc = small_doc(beta0_db=-30.0 + 27.0 - p)
        for sensor in doc["sensors"]:
            sensor["p_ave_dbm"] = p
        plans.append(plan_joint(load_scenario(doc)))
    usual, smallest = plans
    assert smallest.outage == usual.outage
    assert smallest.recovered.active_slots.tolist() == (
        usual.recovered.active_slots.tolist()
    )
    assert np.isfinite(smallest.dual.mu).all() and smallest.dual.mu.min() > 1e307
