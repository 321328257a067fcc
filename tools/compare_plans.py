"""Plan a fixed set of missions and record what each plan came to.

Run from the repository root:

    python3 tools/compare_plans.py --out plans.json
    python3 tools/compare_plans.py --compare before.json after.json

The first form plans every case with the planner in this checkout's
``src`` and writes, per case, the delivered outage, the SCA objective,
the SCA steps by kind, every SCA trajectory cone solve as its status and
iteration count, a SHA-256 of the plan's waypoints and powers, and the
wall time.  The second form lists every case whose record differs
between two such files (the time aside), then totals per set: outages
changed (better or worse), cone iterations, SCA steps, solves that ended
max-iters, the largest relative change of the SCA objective, and time.

The sets:

* ``sweep``: ``plan_joint`` on ``scenarios/paper.json`` at N = 16, 32,
  48 and 128 and 24 to 34 dBm in 2 dB steps, and at N = 32 and 30 dBm
  with T = 10, 40 and 80 s (27 plans);
* ``joint``: ``plan_joint`` on the inputs of perfbench's ``joint``
  workload, seeds 0-20;
* ``random``: ``plan_joint`` on the tests' ``random_scenario(seed,
  k_hi=10, n_hi=32)``, seeds 0-39;
* ``trajectory_only``: the trajectory-only scheme on the inputs of
  perfbench's ``schemes`` workload, seeds 0-9.

Hashes are only comparable between two trees on one machine, since the
BLAS and the CPU may move bits.  BLAS is pinned to one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SWEEP_SLOTS = (16, 32, 48, 128)
SWEEP_DBM = (24.0, 26.0, 28.0, 30.0, 32.0, 34.0)
SWEEP_DURATIONS = (10.0, 40.0, 80.0)
JOINT_SEEDS = range(21)
RANDOM_SEEDS = range(40)
SCHEMES_SEEDS = range(10)
FIELDS = ("outage", "objective", "steps", "solves", "digest")


def _import_planner():
    for sub in ("src", "perfbench", "tests"):
        sys.path.insert(0, str(ROOT / sub))


def cases():
    """(set, name, planning function of no arguments) for every case."""
    from conftest import random_scenario
    import workloads

    from outage_planner import benchmarks, load_scenario, pipeline

    paper = load_scenario(ROOT / "scenarios" / "paper.json")
    for n in SWEEP_SLOTS:
        for dbm in SWEEP_DBM:
            scn = paper.with_overrides(n_slots=n, p_ave_dbm=dbm)
            yield "sweep", f"N{n}-{dbm:g}dBm", lambda s=scn: pipeline.plan_joint(s)
    for t_s in SWEEP_DURATIONS:
        scn = paper.with_overrides(n_slots=32, duration=t_s)
        yield "sweep", f"N32-30dBm-T{t_s:g}s", lambda s=scn: pipeline.plan_joint(s)
    for seed in JOINT_SEEDS:
        scn = workloads.build(ROOT, "joint", seed).scenario
        yield "joint", f"seed{seed}", lambda s=scn: pipeline.plan_joint(s)
    for seed in RANDOM_SEEDS:
        scn = random_scenario(seed, k_hi=10, n_hi=32)
        yield "random", f"seed{seed}", lambda s=scn: pipeline.plan_joint(s)
    for seed in SCHEMES_SEEDS:
        scn = workloads.build(ROOT, "schemes", seed).scenario
        yield (
            "trajectory_only", f"seed{seed}",
            lambda s=scn: benchmarks.run_trajectory_only(s),
        )


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def record(plan_fn) -> dict:
    """Plan once, with every SCA trajectory cone solve recorded."""
    from outage_planner import sca_planner

    solves = []
    real = sca_planner.solve_socp

    def counted(program, **stop):
        outcome = real(program, **stop)
        solves.append([outcome.status, outcome.iterations])
        return outcome

    sca_planner.solve_socp = counted
    try:
        start = perf_counter()
        plan = plan_fn()
        seconds = perf_counter() - start
    finally:
        sca_planner.solve_socp = real
    if hasattr(plan, "sca"):       # a JointPlan
        state = plan.sca
        steps = Counter(e.step_kind for e in state.trace)
        objective = state.objective
    else:                          # a BenchmarkResult
        steps = {"trajectory": plan.details["steps"]}
        objective = plan.details["objective"]
    return {
        "outage": plan.outage,
        "objective": objective,
        "steps": dict(sorted(steps.items())),
        "solves": solves,
        "digest": _digest(plan.trajectory.waypoints, plan.schedule.powers),
        "seconds": seconds,
    }


def run(out: Path) -> None:
    _import_planner()
    plans = {}
    for group, name, plan_fn in cases():
        plans[f"{group}/{name}"] = record(plan_fn)
        print(f"{group}/{name}", plans[f"{group}/{name}"]["outage"], flush=True)
    out.write_text(json.dumps({"plans": plans}, indent=1) + "\n")


def _totals(plans: dict, group: str) -> dict:
    chosen = [p for key, p in plans.items() if key.startswith(group + "/")]
    solves = [s for p in chosen for s in p["solves"]]
    return {
        "iterations": sum(its for _, its in solves),
        "steps": sum(sum(p["steps"].values()) for p in chosen),
        "max-iters": sum(status == "max-iters" for status, _ in solves),
        "seconds": sum(p["seconds"] for p in chosen),
    }


def compare(path_a: Path, path_b: Path) -> int:
    """Print every difference between two record files; 1 if outages differ."""
    a = json.loads(path_a.read_text())["plans"]
    b = json.loads(path_b.read_text())["plans"]
    for key in sorted(a.keys() ^ b.keys()):
        print(f"{key}: only in {path_a if key in a else path_b}")
    changed_outage = 0
    groups = {}
    for key in sorted(a.keys() & b.keys()):
        group = key.split("/")[0]
        stats = groups.setdefault(group, {"better": 0, "worse": 0, "objective": 0.0})
        for name in FIELDS:
            if a[key][name] != b[key][name]:
                print(f"{key}: {name} {a[key][name]} -> {b[key][name]}")
        delta = b[key]["outage"] - a[key]["outage"]
        if delta:
            changed_outage += 1
            stats["worse" if delta > 0 else "better"] += 1
        before, after = a[key]["objective"], b[key]["objective"]
        rel = (after - before) / max(abs(before), 1e-300)
        if abs(rel) > abs(stats["objective"]):
            stats["objective"] = rel
    for group, stats in groups.items():
        ta, tb = _totals(a, group), _totals(b, group)
        print(
            f"{group}: outages better {stats['better']}, worse {stats['worse']}; "
            + "; ".join(f"{k} {ta[k]:.4g} -> {tb[k]:.4g}" for k in ta)
            + f"; largest objective change {stats['objective']:+.3%}"
        )
    return 1 if changed_outage else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="plan every case and write here")
    mode.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                      help="list every difference between two record files")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    run(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
