"""``load_scenario`` against the Draft-7 schema in ``tests/data``.

The oracle is the loader as it stood with a schema validator: the schema's
verdict first, then the Scenario and SensorSite constructors.  Randomly
mutated documents must get the same verdict from both, the same Scenario
when accepted, and, when rejected, a field name that matches the oracle's
error path.
"""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator

from outage_planner.scenario import (
    Scenario,
    ScenarioError,
    SensorSite,
    _from_db,
    db_to_linear,
    dbm_to_watts,
    load_scenario,
)
from tests.conftest import DEMO_SCENARIO, small_doc

SCHEMA = json.loads(
    (Path(__file__).parent / "data" / "scenario.schema.json").read_text()
)
VALIDATOR = Draft7Validator(SCHEMA)
KEYS = list(small_doc())
SENSOR_KEYS = ["x", "y", "p_ave_dbm"]

POOL = [
    True, False, None, "", "7", {},
    [], [1.0], [1.0, 2.0], [30.0, 30.0], [1.0, 2.0, 3.0],
    ["a", 1.0], [True, 0.0], [None, 1], [np.float64(1.0), np.int64(2)],
    math.nan, math.inf, -math.inf, 1e308, -1e308, 10**30,
    0, -1.0, 0.5, 1.0, 1.5, 2.0, 8.0, 16.0, 3, 27,
    np.float64(3.5), np.float64(8.0), np.float64("nan"), np.int64(4),
]
# Numbers most fields accept, drawn as often as the rest of the pool.
PLAUSIBLE = [3, 40, 40.0, 2.5, np.float64(40.0), np.int64(40), 10**30, 1e308]


def _oracle_field(err) -> str:
    """The error's path in the loader's scheme: ``sensors[1].x``, the
    missing key's own path for a required key, ``q_i`` for its items."""
    path = list(err.absolute_path)
    if err.validator == "required":
        path.append(next(k for k in err.validator_value if k not in err.instance))
    if path[:1] in (["q_i"], ["q_f"]):
        path = path[:1]
    name = ""
    for part in path:
        name += f"[{part}]" if isinstance(part, int) else f".{part}"
    return name.lstrip(".") or "<document>"


def oracle_load(doc):
    """Return ``(field, None)`` for a rejected document, else
    ``(None, scenario)``."""
    errors = sorted(VALIDATOR.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        return _oracle_field(errors[0]), None
    try:
        sensors = tuple(
            SensorSite(
                sensor_id=i + 1,
                position=(float(item["x"]), float(item["y"])),
                avg_power_budget=_from_db(dbm_to_watts, float(item["p_ave_dbm"])),
            )
            for i, item in enumerate(doc["sensors"])
        )
        return None, Scenario(
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
    except ScenarioError as exc:
        return exc.field, None


values = st.sampled_from(POOL) | st.sampled_from(PLAUSIBLE)
setters = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(KEYS), values),
    st.tuples(
        st.just("sensor_set"), st.integers(0, 1), st.sampled_from(SENSOR_KEYS),
        values,
    ),
)
reshapers = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(KEYS)),
    st.tuples(st.just("add"), st.sampled_from(["extra", "H_m"]), values),
    st.tuples(st.just("sensor_drop"), st.integers(0, 1), st.sampled_from(SENSOR_KEYS)),
    st.tuples(st.just("sensor_add"), st.integers(0, 1), st.just("z"), values),
    st.tuples(st.just("sensor_replace"), st.integers(0, 1), values),
)


def _mutate(doc: dict, mutation) -> str:
    """Apply one mutation; return the top-level key it touched."""
    op, *args = mutation
    if op == "set":
        doc[args[0]] = args[1]
        return args[0]
    if op == "drop":
        doc.pop(args[0], None)
        return args[0]
    if op == "add":
        doc[args[0]] = args[1]
        return "<document>"
    sensors = doc.get("sensors")
    if not isinstance(sensors, list) or len(sensors) <= args[0]:
        return "sensors"
    if op == "sensor_replace":
        sensors[args[0]] = args[1]
    elif not isinstance(sensors[args[0]], dict):
        pass
    elif op == "sensor_drop":
        sensors[args[0]].pop(args[1], None)
    else:
        sensors[args[0]][args[1]] = args[2]
    return "sensors"


def _top(field: str) -> str:
    return field.split(".")[0].split("[")[0]


def assert_matches_oracle(edits) -> None:
    doc = small_doc()
    touched = {_mutate(doc, copy.deepcopy(edit)) for edit in edits}
    field, expected = oracle_load(doc)
    try:
        got = load_scenario(doc)
    except ScenarioError as exc:
        assert expected is None, f"rejected a valid document: {exc}"
        if len(edits) == 1:
            assert exc.field == field
        elif len(touched) == 1:
            assert _top(exc.field) == _top(field)
    else:
        assert field is None, f"accepted a document the oracle rejects at {field}"
        assert got == expected


def test_every_single_edit_matches_schema_oracle():
    edits = [("drop", key) for key in KEYS] + [
        ("sensor_drop", i, key) for i in (0, 1) for key in SENSOR_KEYS
    ]
    for value in POOL + PLAUSIBLE:
        edits += [("set", key, value) for key in KEYS]
        edits += [("add", "extra", value), ("sensor_add", 0, "z", value)]
        edits += [("sensor_replace", 1, value)]
        edits += [("sensor_set", 1, key, value) for key in SENSOR_KEYS]
    for edit in edits:
        assert_matches_oracle([edit])


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.lists(setters, max_size=3), st.lists(reshapers, max_size=1))
def test_edit_combinations_match_schema_oracle(value_edits, reshapes):
    assert_matches_oracle(value_edits + reshapes)


@pytest.mark.parametrize(
    "doc", [small_doc(), json.loads(DEMO_SCENARIO.read_text())], ids=["small", "paper"]
)
def test_unmutated_documents_match_oracle(doc):
    assert oracle_load(doc) == (None, load_scenario(doc))
