"""Batch command line front end.

Loads a scenario, runs a solver or a parameter sweep, and writes
deterministic CSV/JSON artifacts (12 significant digits, sorted rows) to
an output directory.  Commands: relaxed, sca, recover, benchmark,
sweep-power, sweep-duration.
"""

import argparse
import csv
import json
import logging
import sys
from pathlib import Path

import numpy as np

from outage_planner.benchmarks import (
    FHF_GRID_POINTS,
    BenchmarkResult,
    run_fly_hover_fly,
    run_power_only,
    run_trajectory_only,
)
from outage_planner.channel import snr_series
from outage_planner.pipeline import JointPlan, plan_joint
from outage_planner.power_recovery import recover_powers
from outage_planner.relaxed_optimum import (
    DEFAULT_GRID_POINTS,
    GridSpec,
    hover_plan_record,
    solve_relaxed,
)
from outage_planner.sca_planner import DEFAULT_ROUNDS
from outage_planner.scenario import (
    Scenario,
    ScenarioError,
    Trajectory,
    load_scenario,
    plan_violations,
    watts_to_dbm,
)

log = logging.getLogger("outage_planner")

COMMANDS = ("relaxed", "sca", "recover", "benchmark", "sweep-power", "sweep-duration")
SCHEMES = ("fly_hover_fly", "joint", "power_only", "relaxed", "trajectory_only")
DEFAULT_POWER_SWEEP = (26.0, 28.0, 30.0, 32.0, 34.0, 36.0)
DEFAULT_DURATION_SWEEP = ((10.0, 16), (20.0, 32), (40.0, 64), (80.0, 128))


def _fmt(value) -> str:
    return "%.12g" % float(value)


def _round12(obj):
    """Normalize floats to 12 significant digits for stable JSON files."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {key: _round12(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(val) for val in obj]
    return obj


def _power_dbm(value_w: float) -> str:
    # silent slots carry exactly 0 W, which has no finite dBm value
    if value_w <= 0.0:
        return "-inf"
    return _fmt(watts_to_dbm(value_w))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    log.info("wrote %s", path)


def _write_json(path: Path, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_round12(record), fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("wrote %s", path)


def _write_trajectory(path: Path, trajectory: Trajectory) -> None:
    rows = [
        [str(i), _fmt(i * trajectory.slot_length), _fmt(x), _fmt(y)]
        for i, (x, y) in enumerate(trajectory.waypoints)
    ]
    _write_csv(path, ["waypoint", "t_s", "x_m", "y_m"], rows)


def _read_trajectory(path: Path, scenario: Scenario) -> Trajectory:
    with open(path, newline="") as fh:
        try:
            pts = [
                (float(row["x_m"]), float(row["y_m"]))
                for row in csv.DictReader(fh)
            ]
        except KeyError as exc:
            raise ScenarioError("trajectory", f"missing column {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ScenarioError("trajectory", f"bad waypoint: {exc}") from exc
    if len(pts) != scenario.n_slots + 1:
        raise ScenarioError(
            "trajectory",
            f"expected {scenario.n_slots + 1} waypoints, found {len(pts)}",
        )
    return Trajectory(np.asarray(pts), scenario.slot_length)


def _write_schedule(path: Path, scenario, trajectory, schedule) -> None:
    snr = snr_series(trajectory, schedule, scenario)
    header = ["slot", "x", "y", "snr", "outage_flag"] + [
        f"p_{k + 1}_dbm" for k in range(scenario.n_sensors)
    ]
    rows = []
    for n in range(scenario.n_slots):
        x, y = trajectory.slot_positions[n]
        flag = 1 if snr[n] < scenario.gamma_min else 0
        powers = [_power_dbm(p) for p in schedule.powers[:, n]]
        rows.append([str(n + 1), _fmt(x), _fmt(y), _fmt(snr[n]), str(flag)] + powers)
    _write_csv(path, header, rows)


def _violation_records(scenario, trajectory, schedule) -> list[dict]:
    return [
        {
            "constraint": r.constraint,
            "index": r.index,
            "residual": r.residual,
        }
        for r in plan_violations(scenario, trajectory, schedule)
    ]


def _load(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    if args.t_s is not None or args.n_slots is not None or args.p_ave_dbm is not None:
        scenario = scenario.with_overrides(
            duration=args.t_s, n_slots=args.n_slots, p_ave_dbm=args.p_ave_dbm
        )
    return scenario


def _plan_joint(scenario: Scenario, args) -> JointPlan:
    grid = GridSpec.from_scenario(scenario, resolution=args.grid)
    return plan_joint(
        scenario,
        grid=grid,
        init=args.init,
        max_rounds=args.max_rounds,
        budget_norm=args.budget_norm,
    )


def _cmd_relaxed(args) -> None:
    scenario = _load(args)
    grid = GridSpec.from_scenario(scenario, resolution=args.grid)
    dual, plan = solve_relaxed(scenario, grid)
    record = hover_plan_record(plan, scenario)
    record["dual_value"] = dual.value
    record["ellipsoid_iterations"] = dual.iterations
    _write_json(args.out / "hover_plan.json", record)
    header = ["hover", "x_m", "y_m", "duration_s"] + [
        f"p_{k + 1}_dbm" for k in range(scenario.n_sensors)
    ]
    rows = []
    for i, (loc, tau, prow) in enumerate(
        zip(plan.locations, plan.durations, plan.powers)
    ):
        rows.append(
            [str(i + 1), _fmt(loc[0]), _fmt(loc[1]), _fmt(tau)]
            + [_power_dbm(p) for p in prow]
        )
    _write_csv(args.out / "hover_locations.csv", header, rows)
    _write_json(
        args.out / "summary.json",
        {
            "command": "relaxed",
            "outage": plan.outage,
            "dual_value": dual.value,
            "n_hover_locations": int(plan.locations.shape[0]),
            "grid": args.grid,
        },
    )


def _cmd_sca(args) -> None:
    scenario = _load(args)
    result = _plan_joint(scenario, args)
    _write_trajectory(args.out / "trajectory.csv", result.trajectory)
    _write_schedule(
        args.out / "schedule.csv", scenario, result.trajectory, result.schedule
    )
    _write_csv(
        args.out / "sca_trace.csv",
        ["iter", "objective", "step_kind", "accepted"],
        [
            [str(e.iteration), _fmt(e.objective), e.step_kind, str(int(e.accepted))]
            for e in result.sca.trace
        ],
    )
    if result.relaxed is not None:
        _write_json(
            args.out / "hover_plan.json",
            hover_plan_record(result.relaxed, scenario),
        )
    _write_json(
        args.out / "summary.json",
        {
            "command": "sca",
            "outage": result.outage,
            "n_active": result.recovered.n_active,
            "sca_objective": result.sca.objective,
            "relaxed_outage": None if result.relaxed is None else result.relaxed.outage,
            "init": args.init,
            "budget_norm": args.budget_norm,
            "violations": _violation_records(
                scenario, result.trajectory, result.schedule
            ),
        },
    )


def _cmd_recover(args) -> None:
    scenario = _load(args)
    if args.trajectory is None:
        raise ScenarioError("trajectory", "recover needs --trajectory CSV")
    trajectory = _read_trajectory(args.trajectory, scenario)
    recovered = recover_powers(scenario, trajectory, args.budget_norm)
    _write_schedule(
        args.out / "schedule.csv", scenario, trajectory, recovered.schedule
    )
    _write_json(
        args.out / "summary.json",
        {
            "command": "recover",
            "outage": recovered.outage,
            "n_active": recovered.n_active,
            "budget_norm": args.budget_norm,
            "violations": _violation_records(
                scenario, trajectory, recovered.schedule
            ),
        },
    )


def _run_benchmark(scenario, scheme: str, args) -> BenchmarkResult:
    if scheme == "trajectory_only":
        return run_trajectory_only(scenario, max_rounds=args.max_rounds)
    if scheme == "power_only":
        return run_power_only(scenario, budget_norm=args.budget_norm)
    if scheme == "fly_hover_fly":
        resolution = min(args.grid, FHF_GRID_POINTS)
        grid = GridSpec.from_scenario(scenario, resolution=resolution)
        return run_fly_hover_fly(scenario, grid, budget_norm=args.budget_norm)
    raise ScenarioError("scheme", f"unknown benchmark scheme {scheme!r}")


def _cmd_benchmark(args) -> None:
    scenario = _load(args)
    result = _run_benchmark(scenario, args.scheme, args)
    _write_trajectory(args.out / "trajectory.csv", result.trajectory)
    _write_schedule(
        args.out / "schedule.csv", scenario, result.trajectory, result.schedule
    )
    _write_json(
        args.out / "summary.json",
        {
            "command": "benchmark",
            "scheme": result.name,
            "outage": result.outage,
            "details": {
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in result.details.items()
            },
            "violations": _violation_records(
                scenario, result.trajectory, result.schedule
            ),
        },
    )


def _scheme_outages(scenario, args) -> dict[str, float]:
    """Outage of every listed scheme; the relaxation is solved at most once."""
    outages = {}
    relaxed = None
    if "joint" in args.schemes:
        joint = _plan_joint(scenario, args)
        outages["joint"] = joint.outage
        relaxed = joint.relaxed  # None unless the joint run used shf init
    if "relaxed" in args.schemes:
        if relaxed is None:
            grid = GridSpec.from_scenario(scenario, resolution=args.grid)
            _, relaxed = solve_relaxed(scenario, grid)
        outages["relaxed"] = relaxed.outage
    for scheme in args.schemes:
        if scheme not in outages:
            outages[scheme] = _run_benchmark(scenario, scheme, args).outage
    return outages


def _sweep(args, points) -> None:
    """points: iterable of (p_ave_dbm or None, t_s or None, n_slots or None)."""
    scenario0 = _load(args)
    rows = []
    for p_dbm, t_s, n_slots in points:
        scenario = scenario0.with_overrides(
            duration=t_s, n_slots=n_slots, p_ave_dbm=p_dbm
        )
        outages = _scheme_outages(scenario, args)
        for scheme in args.schemes:
            outage = outages[scheme]
            p_val = p_dbm if p_dbm is not None else float(
                np.mean([watts_to_dbm(b) for b in scenario.power_budgets])
            )
            rows.append((scheme, p_val, scenario.duration, outage))
            log.info("sweep point scheme=%s p=%g t=%g outage=%g", *rows[-1])
    rows.sort()
    rows = [(s, _fmt(p), _fmt(t), _fmt(o)) for s, p, t, o in rows]
    name = "sweep_power.csv" if args.command == "sweep-power" else "sweep_duration.csv"
    _write_csv(
        args.out / name, ["scheme", "p_ave_dbm", "t_s", "outage"], rows
    )
    _write_json(
        args.out / "summary.json",
        {
            "command": args.command,
            "schemes": list(args.schemes),
            "n_rows": len(rows),
            "budget_norm": args.budget_norm,
        },
    )


def _cmd_sweep_power(args) -> None:
    _sweep(args, [(p, None, None) for p in args.p_list])


def _cmd_sweep_duration(args) -> None:
    if len(args.t_list) != len(args.n_list):
        raise ScenarioError("t_list", "--t-list and --n-list need equal lengths")
    _sweep(args, [(args.p_ave_dbm, t, n) for t, n in zip(args.t_list, args.n_list)])


_DISPATCH = {
    "relaxed": _cmd_relaxed,
    "sca": _cmd_sca,
    "recover": _cmd_recover,
    "benchmark": _cmd_benchmark,
    "sweep-power": _cmd_sweep_power,
    "sweep-duration": _cmd_sweep_duration,
}


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="outage-planner",
        description="Joint UAV trajectory and sensor power planning "
        "for minimum transmission outage.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--scenario", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument(
        "--grid", type=int, default=DEFAULT_GRID_POINTS, help="grid resolution per axis"
    )
    parser.add_argument("--t-s", type=float, default=None, help="override mission duration")
    parser.add_argument("--p-ave-dbm", type=float, default=None, help="override all budgets")
    parser.add_argument("--n-slots", type=int, default=None, help="override slot count")
    parser.add_argument(
        "--budget-norm",
        choices=("horizon", "active_slots"),
        default="horizon",
        help="denominator of the recovery power budget",
    )
    parser.add_argument("--init", choices=("shf", "direct"), default="shf")
    parser.add_argument("--max-rounds", type=int, default=DEFAULT_ROUNDS)
    parser.add_argument(
        "--scheme",
        choices=("trajectory_only", "power_only", "fly_hover_fly"),
        default=None,
        help="benchmark scheme (benchmark command)",
    )
    parser.add_argument(
        "--trajectory", type=Path, default=None, help="waypoint CSV (recover command)"
    )
    parser.add_argument("--p-list", type=_float_list, default=DEFAULT_POWER_SWEEP)
    parser.add_argument(
        "--t-list",
        type=_float_list,
        default=tuple(t for t, _ in DEFAULT_DURATION_SWEEP),
    )
    parser.add_argument(
        "--n-list",
        type=_int_list,
        default=tuple(n for _, n in DEFAULT_DURATION_SWEEP),
    )
    parser.add_argument(
        "--schemes",
        type=lambda s: tuple(sorted(s.split(","))),
        default=SCHEMES,
        help="comma list of schemes for sweeps",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def _error(code: int, error: str, message: str, **field) -> int:
    """Print a one-line JSON error record to stderr and return ``code``."""
    record = {"error": error, **field, "message": message}
    print(json.dumps(record), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
        stream=sys.stderr,
    )
    if args.command == "benchmark" and args.scheme is None:
        return _error(
            2, "ScenarioError", "benchmark requires --scheme", field="scheme"
        )
    unknown = [s for s in args.schemes if s not in SCHEMES]
    if unknown:
        return _error(
            2, "ScenarioError", f"unknown schemes: {unknown}", field="schemes"
        )
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        _DISPATCH[args.command](args)
        return 0
    except ScenarioError as exc:
        return _error(2, "ScenarioError", str(exc), field=exc.field)
    except FileNotFoundError as exc:
        return _error(2, "FileNotFoundError", str(exc))
    except Exception as exc:  # pragma: no cover - defensive
        return _error(1, type(exc).__name__, str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
