"""Planner benchmark: time one workload end to end, or trace it per layer.

Run from the repository root:

    python3 perfbench/run.py --workload joint --seed 1 --seconds 60 --trace 0

Workloads are ``joint`` and ``schemes`` (see ``workloads.py``).  The run
plans the seeded inputs in a closed loop with a single caller: rounds of
planning calls run one after another within ``--seconds`` (at least one
whole round).  Every emitted plan passes the gate in ``checks.py``; a call
that raises or fails it counts as failed and makes the run exit 1.

``--trace 0`` reports the end-to-end metrics: the round wall time (the
sum over the round's calls of each call's mean time in the run), the
set-up time (median of fresh processes that import the planner, load
the scenario and build the inputs), the peak resident memory and the
delivered outage with its gap to the dual bound.  ``--trace 1`` runs one
round untraced and then traced rounds, checks both give the same outages,
and reports the per-layer metrics of ``tracing.py`` plus the tracing
overhead.  The last line of standard output is one JSON object.

BLAS and OpenMP are pinned to one thread before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("joint", "schemes")
# the variables OUTAGE_PLANNER_THREADS sets in the command line front end
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--slots", type=int, default=None,
                    help="override the workload's slot count N")
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print 'ready' and exit")
    return ap.parse_args(argv)


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_planner():
    """Import the planner from this checkout's ``src``; exit 1 without it."""
    src = ROOT / "src"
    if not (src / "outage_planner" / "__init__.py").is_file():
        sys.exit(f"perfbench: no planner source at {src}")
    if not (ROOT / "scenarios" / "paper.json").is_file():
        sys.exit("perfbench: scenarios/paper.json is missing")
    sys.path.insert(0, str(src))
    import outage_planner

    if Path(outage_planner.__file__).resolve().parent != src / "outage_planner":
        sys.exit(f"perfbench: imported {outage_planner.__file__}, not {src}")


def probe_setup(args) -> list[float]:
    """Set-up time of fresh processes: spawn until they print 'ready'."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--setup-only",
    ]
    if args.slots is not None:
        cmd += ["--slots", str(args.slots)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                line = proc.stdout.readline()
                samples.append(perf_counter() - t0)
                proc.stdout.read()
                code = proc.wait()
            finally:
                watchdog.cancel()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
    return samples


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def timed_rounds(inputs, budget_s, span=None, whole=False):
    """Plan rounds one after another within ``budget_s``.

    The first round always runs whole.  After it, a call runs only while
    its mean time so far still fits in what is left of the budget, so the
    cheap calls of a round use the time its dear ones no longer fit in.
    With ``whole`` the run stops instead before the first round whose
    calls would not all fit.
    """
    import workloads

    rounds = []
    t0 = perf_counter()

    def fits(seconds):
        return perf_counter() - t0 + seconds <= budget_s

    while True:
        runs = None
        if rounds:
            means = {k: statistics.fmean(v) for k, v in call_times(rounds).items()}
            if whole and not fits(sum(means.values())):
                return rounds
            if not whole:
                def runs(label):
                    return fits(means[label])
        calls = workloads.plan_round(inputs, span, runs)
        if not calls:
            return rounds
        rounds.append(calls)


def call_times(rounds) -> dict[str, list[float]]:
    """Wall time of every call in ``rounds``, by label."""
    times = {}
    for calls in rounds:
        for call in calls:
            times.setdefault(call.label, []).append(call.seconds)
    return times


def round_seconds(rounds) -> float:
    """Time of one round: the sum of each call's mean time."""
    return sum(map(statistics.fmean, call_times(rounds).values()))


def gate(inputs, rounds, duals, failures) -> int:
    """Check every call of every round; return the number that failed.

    Every call of one seed must deliver the outage of its first round.
    """
    import checks

    failed = 0
    first = {c.label: o for c, o in zip(rounds[0], checks.outages(rounds[0]))}
    for i, (calls, round_duals) in enumerate(zip(rounds, duals)):
        found = checks.problems(inputs, calls, round_duals)
        for call, delivered in zip(calls, checks.outages(calls)):
            expected = first[call.label]
            if delivered != expected:
                found[call.label].append(
                    f"round {i} outage {delivered} != round 0 outage {expected}"
                )
        for label, problems in found.items():
            if problems:
                failed += 1
                failures.append(f"round {i} {label}: " + "; ".join(problems))
    return failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    import_planner()
    import workloads

    inputs = workloads.build(ROOT, args.workload, args.seed, args.slots)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    import checks
    import tracing

    env = environment()
    print("perfbench env " + json.dumps(env, sort_keys=True), flush=True)
    failures = []
    if inputs.reference is not None and inputs.reference != inputs.scenario:
        failures.append("seed 0 input differs from the bundled scenario")

    if args.trace:
        plain = timed_rounds(inputs, 0.0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_inputs = workloads.build(ROOT, args.workload, args.seed, args.slots)
            traced = timed_rounds(
                traced_inputs, args.seconds - round_seconds(plain), tracer.call,
                whole=True,
            )
        finally:
            tracer.uninstall()
        if traced_inputs.scenario != inputs.scenario:
            failures.append("inputs rebuilt under tracing differ")
        rounds = plain + traced
    else:
        rounds = timed_rounds(inputs, args.seconds)
        # after the timing, so the probes' processes cannot slow a timed call
        setup_samples = probe_setup(args)

    attempted = sum(map(len, rounds))
    duals = checks.dual_values(inputs, rounds)
    failed = gate(inputs, rounds, duals, failures)
    first = rounds[0]
    quality = {}
    if all(c.error is None for c in first):
        quality = checks.quality(first, duals[0])

    print(f"perfbench workload={args.workload} seed={args.seed} rounds={len(rounds)} "
          f"calls={attempted} failed={failed}")
    for label, times in call_times(rounds).items():
        print(f"perfbench {label} call_s=" + ",".join(f"{t:.4g}" for t in times))
    for line in failures:
        print("perfbench FAILED " + line)
    shown = {"failed_share": metric(failed / attempted, "ratio")}
    shown.update((name, metric(v, "fraction")) for name, v in quality.items())
    if inputs.workload == "schemes" and quality:
        shown.update(
            (f"outage.{c.label}", metric(c.result.outage, "fraction")) for c in first
        )

    if args.trace:
        # round 0 ran untraced, the others traced
        metrics = {
            name: metric(value, tracing.UNITS[name])
            for name, value in tracing.layer_metrics(tracer.spans, len(traced)).items()
        }
        metrics["trace.overhead_s"] = metric(
            round_seconds(traced) - round_seconds(plain), "s"
        )
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": metric(round_seconds(rounds), "s"),
            "setup_s": metric(statistics.median(setup_samples), "s"),
            "peak_rss_mb": metric(rss_kib / 1024.0, "MiB"),
        }
        metrics.update((name, shown[name]) for name in quality)
        print("perfbench set-up probes " + ",".join(f"{s:.4g}" for s in setup_samples))
    shown.update(metrics)
    for name, m in shown.items():
        print(f"perfbench {name} = {m['value']:.6g} {m['unit']}")

    correct = not failures and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
