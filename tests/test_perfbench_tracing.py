"""The benchmark's tracer finds every planner function it wraps.

``perfbench/tracing.py`` looks each traced function up as
``owner.__dict__[attr]``, so renaming or moving one breaks
``perfbench/run.py --trace 1`` with a KeyError, and a layer that its
caller stops calling through the traced name drops out of the trace
silently.  The first test installs and uninstalls the tracer without
planning anything; the second traces a small joint plan in each of the
relaxation's two regimes: budgets that leave outage, and budgets that
serve the whole mission.
"""

import importlib.util

from outage_planner import pipeline
from outage_planner.relaxed_optimum import GridSpec
from outage_planner.scenario import load_scenario
from tests.conftest import REPO_ROOT, small_doc


def _tracing_module():
    path = REPO_ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = _tracing_module()
    targets = [(owner, attr) for owner, attr, _ in tracing.TARGETS]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = [owner.__dict__[attr] for owner, attr in targets]
    finally:
        tracer.uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(
        owner.__dict__[attr] is o for (owner, attr), o in zip(targets, originals)
    )


def test_tracer_records_the_relaxation_layers():
    for gamma_min in (100.0, 50.0):
        _trace_relaxation_layers(gamma_min)


def _trace_relaxation_layers(gamma_min):
    tracing = _tracing_module()
    scn = load_scenario(small_doc(gamma_min=gamma_min))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.call("joint"):
            plan = pipeline.plan_joint(
                scn, grid=GridSpec.from_scenario(scn, resolution=21)
            )
    finally:
        tracer.uninstall()
    spans = {}
    for span in tracer.spans:
        spans.setdefault(span.name, []).append(span)
    (dual,) = spans["relaxed_optimum.maximize_dual"]
    (hover,) = spans["relaxed_optimum.build_hover_plan"]
    assert dual.info == plan.dual.iterations >= 1
    assert hover.info == len(plan.relaxed.locations)
    masters = spans.get("convex_core.solve_lp", [])
    if gamma_min == 100.0:
        # the budgets leave outage: the restricted problems are solved
        # exactly and no master LP runs
        assert plan.dual.value > 0.0 and masters == []
        return
    # the budgets serve the whole mission: the stabilized column
    # generation runs its master LP once after each pass that adds a
    # column; a smoothed pass whose column does not price out adds none,
    # and the last pass adds none
    assert plan.dual.value == 0.0
    assert 1 <= len(masters) <= plan.dual.iterations - 1
    assert all(span.parent is dual for span in masters)
    # each master solve goes on from the last one's tableau, so its span
    # counts only the pivots the new column brings (simplex_pivots); a
    # replay of the basis would add up to one pivot per master row (3)
    pivots = [span.info for span in masters]
    assert all(isinstance(p, int) and p >= 0 for p in pivots)
    assert sum(pivots) <= 2 * len(masters)
