"""Seeded inputs and one round of planning work for each workload.

A workload builds its scenario once from the seed (``build``) and then
runs rounds of planning calls on it (``plan_round``), each call timed on
its own.  Every round of a seed plans the same scenario, so its outages
repeat exactly.  Library functions are looked up on their modules at call
time, so the tracer in ``tracing.py`` sees these calls when it has wrapped
them.

* ``joint``: ``plan_joint`` on the bundled scenario at N = 48 slots.
* ``schemes``: the three reference schemes on the bundled scenario at
  N = 32 slots, fly-hover-fly over a 21 x 21 via-point grid.

Seed 0 leaves the bundled sensors where they are; any other seed moves
each sensor by up to ``JITTER_M`` metres per axis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from outage_planner import benchmarks, pipeline, relaxed_optimum
from outage_planner import scenario as scenario_mod

PAPER_SCENARIO = Path("scenarios") / "paper.json"
JITTER_M = 2.0
FHF_GRID = 21
SLOTS = {"joint": 48, "schemes": 32}   # default slot count N


@dataclass
class Call:
    """One planning call of a round: its label, input, result and time."""

    label: str
    scenario: scenario_mod.Scenario
    result: object = None
    error: str | None = None
    seconds: float = 0.0


@dataclass
class Inputs:
    """The scenario generated for one workload and seed."""

    workload: str
    seed: int
    scenario: scenario_mod.Scenario
    # direct library construction of the seed-0 input, for the cross-check
    reference: scenario_mod.Scenario | None = None


def _paper_doc(root: Path) -> dict:
    with open(root / PAPER_SCENARIO, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _jittered(doc: dict, rng: np.random.Generator, n_slots: int) -> dict:
    out = dict(doc, n_slots=n_slots)
    shifts = rng.uniform(-JITTER_M, JITTER_M, size=(len(doc["sensors"]), 2))
    out["sensors"] = [
        dict(s, x=float(s["x"] + dx), y=float(s["y"] + dy))
        for s, (dx, dy) in zip(doc["sensors"], shifts)
    ]
    return out


def build(root: Path, workload: str, seed: int, n_slots: int | None = None) -> Inputs:
    """Generate the seeded inputs of a workload (``n_slots`` overrides N)."""
    if workload not in SLOTS:
        raise ValueError(f"unknown workload {workload!r}")
    n_slots = n_slots or SLOTS[workload]
    doc = _paper_doc(root)
    if seed == 0:
        doc = dict(doc, n_slots=n_slots)
    else:
        doc = _jittered(doc, np.random.default_rng(seed), n_slots)
    scen = scenario_mod.load_scenario(doc)
    reference = None
    if seed == 0:
        reference = scenario_mod.load_scenario(
            root / PAPER_SCENARIO
        ).with_overrides(n_slots=n_slots)
    return Inputs(workload, seed, scen, reference)


def _plan_joint(scen):
    return pipeline.plan_joint(scen)


def _fly_hover_fly(scen):
    grid = relaxed_optimum.GridSpec.from_scenario(scen, resolution=FHF_GRID)
    return benchmarks.run_fly_hover_fly(scen, grid)


def _calls(inputs: Inputs):
    """(label, function) for every planning call of one round."""
    if inputs.workload == "joint":
        return [("joint", _plan_joint)]
    return [
        ("trajectory_only", lambda s: benchmarks.run_trajectory_only(s)),
        ("power_only", lambda s: benchmarks.run_power_only(s)),
        ("fly_hover_fly", _fly_hover_fly),
    ]


def plan_round(inputs: Inputs, span=None, runs=None) -> list[Call]:
    """Run the planning calls of one round, one after another.

    ``span(label)`` opens a root span around each call when tracing.
    ``runs(label)``, asked just before each call, may skip it.  A call
    that raises is recorded with its error and the round goes on.
    """
    calls = []
    scen = inputs.scenario
    for label, fn in _calls(inputs):
        if runs is not None and not runs(label):
            continue
        call = Call(label, scen)
        start = perf_counter()
        try:
            if span is None:
                call.result = fn(scen)
            else:
                with span(label):
                    call.result = fn(scen)
        except Exception as exc:  # a failed call is counted, not fatal
            call.error = f"{type(exc).__name__}: {exc}"
        call.seconds = perf_counter() - start
        calls.append(call)
    return calls
