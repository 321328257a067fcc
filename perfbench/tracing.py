"""Spans around the planner's module boundaries, recorded from outside.

``Tracer.install`` replaces each traced function on the object its caller
looks it up on (``sca_planner.solve_barrier``, ``numpy.linalg.solve``,
``GenericBlock.add_newton_terms`` ...) with a wrapper that records a span:
name, start, end, parent span and the id of the planning call it belongs
to.  Spans stay in memory until ``layer_metrics`` folds them into the
per-layer figures; ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import numpy as np

from outage_planner import (
    benchmarks,
    convex_core,
    pipeline,
    power_recovery,
    relaxed_optimum,
    sca_planner,
)
from outage_planner import scenario as scenario_mod

BARRIER = "convex_core.solve_barrier"
NEWTON_SOLVE = "numpy.linalg.solve"
ASSEMBLY = "convex_core.add_newton_terms"
PLAN_JOINT = "pipeline.plan_joint"
RAISED = "raised"   # info of a span whose call raised

# (owner, attribute, span name): every place a caller looks a layer up
TARGETS = [
    (pipeline, "plan_joint", PLAN_JOINT),
    (pipeline, "solve_relaxed", "relaxed_optimum.solve_relaxed"),
    (relaxed_optimum, "maximize_dual", "relaxed_optimum.maximize_dual"),
    (relaxed_optimum, "build_hover_plan", "relaxed_optimum.build_hover_plan"),
    (relaxed_optimum, "solve_lp", "convex_core.solve_lp"),
    (pipeline, "init_shf", "sca_planner.init_shf"),
    (pipeline, "plan_sca", "sca_planner.plan_sca"),
    (sca_planner, "trajectory_step", "sca_planner.trajectory_step"),
    (benchmarks, "trajectory_step", "sca_planner.trajectory_step"),
    (sca_planner, "power_step", "sca_planner.power_step"),
    (sca_planner, "solve_barrier", BARRIER),
    (power_recovery, "solve_barrier", BARRIER),
    (np.linalg, "solve", NEWTON_SOLVE),
    (convex_core.GenericBlock, "add_newton_terms", ASSEMBLY),
    (convex_core.BoundBlock, "add_newton_terms", ASSEMBLY),
    (pipeline, "recover_powers", "power_recovery.recover_powers"),
    (benchmarks, "recover_powers", "power_recovery.recover_powers"),
    (power_recovery, "feasibility_for_subset", "power_recovery.feasibility_for_subset"),
    (power_recovery, "bisect_max_feasible", "convex_core.bisect_max_feasible"),
    (benchmarks, "max_active_upper_bound", "power_recovery.max_active_upper_bound"),
    (benchmarks, "run_trajectory_only", "benchmarks.run_trajectory_only"),
    (benchmarks, "run_power_only", "benchmarks.run_power_only"),
    (benchmarks, "run_fly_hover_fly", "benchmarks.run_fly_hover_fly"),
    (scenario_mod, "load_scenario", "scenario.load_scenario"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "child_s", "info")

    def __init__(self, name, parent, run):
        self.name = name
        self.parent = parent
        self.run = run
        self.child_s = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, self.run)
        self._stack.append(span)
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span, info):
        span.end = perf_counter()
        span.info = info
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start

    @contextmanager
    def call(self, name):
        """Root span around one planning call; starts a new run id."""
        self.run += 1
        span = self._open(name)
        try:
            yield span
        except BaseException:
            self._close(span, RAISED)
            raise
        self._close(span, None)

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, RAISED)
                raise
            self._close(span, _info(name, args, result))
            return result

        return traced

    def install(self):
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _info(name, args, result):
    """What a span keeps from its call's arguments and result."""
    if name == NEWTON_SOLVE:
        return np.shape(args[0])[0]
    if name == BARRIER:
        return (result.status, result.iterations)
    if name in ("sca_planner.trajectory_step", "sca_planner.power_step"):
        return result[1]
    if name == "power_recovery.feasibility_for_subset":
        return result[0]
    if name == "convex_core.bisect_max_feasible":
        return (result.probes, result.fallback_used)
    if name in ("convex_core.solve_lp", "relaxed_optimum.maximize_dual"):
        return result.iterations
    if name == "relaxed_optimum.build_hover_plan":
        return len(result.locations)
    if name == "benchmarks.run_fly_hover_fly":
        return result.details.get("evaluations", 0)
    return None


# per-layer metric name -> unit, in report order
UNITS = {
    "convex_core.barrier_calls": "count",
    "convex_core.newton_steps": "count",
    "convex_core.newton_solves": "count",
    "convex_core.newton_solve_s": "s",
    "convex_core.newton_assembly_s": "s",
    "convex_core.barrier_self_s": "s",
    "convex_core.newton_gflop": "GFLOP",
    "convex_core.newton_dim_max": "count",
    "convex_core.barrier_not_optimal": "count",
    "convex_core.solve_lp_s": "s",
    "convex_core.simplex_pivots": "count",
    "relaxed_optimum.maximize_dual_s": "s",
    "relaxed_optimum.ellipsoid_cuts": "count",
    "relaxed_optimum.build_hover_plan_s": "s",
    "relaxed_optimum.hover_points": "count",
    "sca_planner.power_step_s": "s",
    "sca_planner.trajectory_step_s": "s",
    "sca_planner.steps": "count",
    "sca_planner.steps_rejected": "count",
    "sca_planner.init_shf_s": "s",
    "power_recovery.recover_powers_s": "s",
    "power_recovery.feasibility_calls": "count",
    "power_recovery.feasibility_s": "s",
    "power_recovery.feasible_ratio": "ratio",
    "power_recovery.bisect_probes": "count",
    "power_recovery.bisect_fallbacks": "count",
    "power_recovery.upper_bound_s": "s",
    "benchmarks.fhf_evaluations": "count",
    "pipeline.relax_s": "s",
    "pipeline.init_s": "s",
    "pipeline.sca_s": "s",
    "pipeline.recover_s": "s",
    "scenario.load_scenario_s": "s",
}


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-layer totals over ``spans``, divided by the number of rounds.

    ``spans`` cover ``rounds`` rounds of planning plus one generation of
    the inputs.  Solves and assembly count only inside ``solve_barrier``.
    ``newton_gflop`` is computed, not measured: 2/3 n^3 per n x n solve
    that returned.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name, parent=None):
        found = by_name.get(name, [])
        if parent is None:
            return found
        return [s for s in found if s.parent is not None and s.parent.name == parent]

    def returned(name, parent=None):
        return [s for s in named(name, parent) if s.info != RAISED]

    def total(group):
        return sum(s.duration for s in group)

    barrier = named(BARRIER)
    solves = named(NEWTON_SOLVE, BARRIER)
    dims = [s.info for s in returned(NEWTON_SOLVE, BARRIER)]
    steps = named("sca_planner.trajectory_step") + named("sca_planner.power_step")
    feas = named("power_recovery.feasibility_for_subset")
    bisect = returned("convex_core.bisect_max_feasible")

    m = {
        "convex_core.barrier_calls": len(barrier),
        "convex_core.newton_steps": sum(s.info[1] for s in returned(BARRIER)),
        "convex_core.newton_solves": len(solves),
        "convex_core.newton_solve_s": total(solves),
        "convex_core.newton_assembly_s": total(named(ASSEMBLY, BARRIER)),
        "convex_core.barrier_self_s": sum(s.self_s for s in barrier),
        "convex_core.newton_gflop": sum(2.0 / 3.0 * d**3 for d in dims) / 1e9,
        "convex_core.newton_dim_max": max(dims, default=0),
        "convex_core.barrier_not_optimal": sum(
            1 for s in barrier if s.info == RAISED or s.info[0] != "optimal"
        ),
        "convex_core.solve_lp_s": total(named("convex_core.solve_lp")),
        "convex_core.simplex_pivots": sum(s.info for s in returned("convex_core.solve_lp")),
        "relaxed_optimum.maximize_dual_s": total(named("relaxed_optimum.maximize_dual")),
        "relaxed_optimum.ellipsoid_cuts": sum(
            s.info for s in returned("relaxed_optimum.maximize_dual")
        ),
        "relaxed_optimum.build_hover_plan_s": total(
            named("relaxed_optimum.build_hover_plan")
        ),
        "relaxed_optimum.hover_points": sum(
            s.info for s in returned("relaxed_optimum.build_hover_plan")
        ),
        "sca_planner.power_step_s": total(named("sca_planner.power_step")),
        "sca_planner.trajectory_step_s": total(named("sca_planner.trajectory_step")),
        "sca_planner.steps": len(steps),
        "sca_planner.steps_rejected": sum(1 for s in steps if s.info is not True),
        "sca_planner.init_shf_s": total(named("sca_planner.init_shf")),
        "power_recovery.recover_powers_s": total(named("power_recovery.recover_powers")),
        "power_recovery.feasibility_calls": len(feas),
        "power_recovery.feasibility_s": total(feas),
        "power_recovery.bisect_probes": sum(s.info[0] for s in bisect),
        "power_recovery.bisect_fallbacks": sum(1 for s in bisect if s.info[1]),
        "power_recovery.upper_bound_s": total(
            named("power_recovery.max_active_upper_bound")
        ),
        "benchmarks.fhf_evaluations": sum(
            s.info for s in returned("benchmarks.run_fly_hover_fly")
        ),
        "pipeline.relax_s": total(named("relaxed_optimum.solve_relaxed", PLAN_JOINT)),
        "pipeline.init_s": total(named("sca_planner.init_shf", PLAN_JOINT)),
        "pipeline.sca_s": total(named("sca_planner.plan_sca", PLAN_JOINT)),
        "pipeline.recover_s": total(named("power_recovery.recover_powers", PLAN_JOINT)),
        "scenario.load_scenario_s": total(named("scenario.load_scenario")),
    }
    # maxima, ratios and the one-off input generation are not per round
    once = ("convex_core.newton_dim_max", "scenario.load_scenario_s")
    per_round = {
        name: value if name in once else value / rounds for name, value in m.items()
    }
    feasible = sum(1 for s in feas if s.info is True)
    per_round["power_recovery.feasible_ratio"] = feasible / len(feas) if feas else 0.0
    return {name: per_round[name] for name in UNITS}
