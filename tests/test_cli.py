"""Command-line front end: artifacts, determinism, error records."""

import csv
import json
from pathlib import Path

import pytest

from outage_planner.cli import main
from outage_planner.pipeline import plan_joint
from outage_planner.relaxed_optimum import GridSpec, solve_relaxed
from outage_planner.scenario import load_scenario
from tests.conftest import small_doc


@pytest.fixture
def scenario_file(tmp_path) -> Path:
    path = tmp_path / "small.json"
    path.write_text(json.dumps(small_doc()))
    return path


def read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_relaxed_command_artifacts(tmp_path, scenario_file):
    out = tmp_path / "relaxed"
    code = main(
        ["relaxed", "--scenario", str(scenario_file), "--out", str(out),
         "--grid", "21"]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "relaxed"
    assert 0.0 <= summary["outage"] <= 1.0
    assert summary["n_hover_locations"] >= 1
    plan = json.loads((out / "hover_plan.json").read_text())
    assert len(plan["hover_locations"]) == summary["n_hover_locations"]
    rows = read_csv(out / "hover_locations.csv")
    assert rows[0][:4] == ["hover", "x_m", "y_m", "duration_s"]
    assert len(rows) - 1 == summary["n_hover_locations"]


def test_sca_command_artifacts(tmp_path, scenario_file):
    out = tmp_path / "sca"
    code = main(
        ["sca", "--scenario", str(scenario_file), "--out", str(out),
         "--grid", "21"]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["violations"] == []
    assert 0.0 <= summary["outage"] <= 1.0

    tr_rows = read_csv(out / "trajectory.csv")
    assert tr_rows[0] == ["waypoint", "t_s", "x_m", "y_m"]
    assert len(tr_rows) - 1 == small_doc()["n_slots"] + 1

    sched_rows = read_csv(out / "schedule.csv")
    assert sched_rows[0] == [
        "slot", "x", "y", "snr", "outage_flag", "p_1_dbm", "p_2_dbm",
    ]
    assert len(sched_rows) - 1 == small_doc()["n_slots"]
    flags = {row[4] for row in sched_rows[1:]}
    assert flags <= {"0", "1"}

    trace_rows = read_csv(out / "sca_trace.csv")
    assert trace_rows[0] == ["iter", "objective", "step_kind", "accepted"]
    assert all(row[2] in ("trajectory", "power") for row in trace_rows[1:])
    assert all(row[3] in ("0", "1") for row in trace_rows[1:])


def test_recover_round_trip(tmp_path, scenario_file):
    sca_out = tmp_path / "sca"
    assert main(
        ["sca", "--scenario", str(scenario_file), "--out", str(sca_out),
         "--grid", "21"]
    ) == 0
    rec_out = tmp_path / "rec"
    code = main(
        ["recover", "--scenario", str(scenario_file), "--out", str(rec_out),
         "--trajectory", str(sca_out / "trajectory.csv")]
    )
    assert code == 0
    summary = json.loads((rec_out / "summary.json").read_text())
    assert summary["violations"] == []
    assert summary["n_active"] + summary["outage"] * small_doc()["n_slots"] == (
        pytest.approx(small_doc()["n_slots"])
    )


def test_recover_requires_trajectory(tmp_path, scenario_file, capsys):
    code = main(
        ["recover", "--scenario", str(scenario_file),
         "--out", str(tmp_path / "rec")]
    )
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ScenarioError"


@pytest.mark.parametrize(
    "text",
    [
        "waypoint,t_s,x,y\n0,0,0,0\n",
        "waypoint,t_s,x_m,y_m\n0,0,zero,0\n",
        "waypoint,t_s,x_m,y_m\n0,0,1\n",
    ],
    ids=["no_x_m_column", "non_numeric_cell", "short_row"],
)
def test_recover_bad_trajectory_csv(tmp_path, scenario_file, capsys, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    code = main(
        ["recover", "--scenario", str(scenario_file),
         "--out", str(tmp_path / "rec"), "--trajectory", str(path)]
    )
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ScenarioError"
    assert record["field"] == "trajectory"


def test_empty_grid_is_input_error(tmp_path, scenario_file, capsys):
    code = main(
        ["relaxed", "--scenario", str(scenario_file),
         "--out", str(tmp_path / "o"), "--grid", "0"]
    )
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ScenarioError"
    assert record["field"] == "grid"


def test_benchmark_command(tmp_path, scenario_file):
    out = tmp_path / "bench"
    code = main(
        ["benchmark", "--scheme", "power_only", "--scenario",
         str(scenario_file), "--out", str(out)]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scheme"] == "power_only"
    assert summary["violations"] == []


def test_benchmark_needs_scheme(tmp_path, scenario_file, capsys):
    code = main(
        ["benchmark", "--scenario", str(scenario_file),
         "--out", str(tmp_path / "b")]
    )
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["field"] == "scheme"


def test_sweep_power_rows_sorted(tmp_path, scenario_file):
    out = tmp_path / "sweep"
    code = main(
        ["sweep-power", "--scenario", str(scenario_file), "--out", str(out),
         "--grid", "21", "--p-list", "27,24",
         "--schemes", "power_only,trajectory_only"]
    )
    assert code == 0
    rows = read_csv(out / "sweep_power.csv")
    assert rows[0] == ["scheme", "p_ave_dbm", "t_s", "outage"]
    body = rows[1:]
    assert len(body) == 4
    keys = [(r[0], float(r[1])) for r in body]
    assert keys == sorted(keys)
    for row in body:
        assert 0.0 <= float(row[3]) <= 1.0


def test_sweep_rows_match_library(tmp_path, scenario_file):
    out = tmp_path / "sweep"
    code = main(
        ["sweep-power", "--scenario", str(scenario_file), "--out", str(out),
         "--grid", "21", "--p-list", "24,27", "--schemes", "joint,relaxed"]
    )
    assert code == 0
    body = read_csv(out / "sweep_power.csv")[1:]
    rows = {(r[0], float(r[1])): r[3] for r in body}
    assert len(rows) == 4
    for p_dbm in (24.0, 27.0):
        scn = load_scenario(small_doc()).with_overrides(p_ave_dbm=p_dbm)
        grid = GridSpec.from_scenario(scn, resolution=21)
        relaxed = solve_relaxed(scn, grid)[1].outage
        joint = plan_joint(scn, grid=grid).outage
        assert rows[("relaxed", p_dbm)] == "%.12g" % relaxed
        assert rows[("joint", p_dbm)] == "%.12g" % joint


def test_sweep_duration_axes(tmp_path, scenario_file):
    out = tmp_path / "sweepd"
    code = main(
        ["sweep-duration", "--scenario", str(scenario_file), "--out", str(out),
         "--grid", "21", "--t-list", "8,12", "--n-list", "8,12",
         "--schemes", "relaxed,power_only"]
    )
    assert code == 0
    rows = read_csv(out / "sweep_duration.csv")
    durations = {float(r[2]) for r in rows[1:]}
    assert durations == {8.0, 12.0}
    schemes = {r[0] for r in rows[1:]}
    assert schemes == {"relaxed", "power_only"}


def test_sweep_duration_list_mismatch(tmp_path, scenario_file, capsys):
    code = main(
        ["sweep-duration", "--scenario", str(scenario_file),
         "--out", str(tmp_path / "x"), "--t-list", "8,12", "--n-list", "8"]
    )
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ScenarioError"


def test_overrides_apply(tmp_path, scenario_file):
    out = tmp_path / "ovr"
    code = main(
        ["sca", "--scenario", str(scenario_file), "--out", str(out),
         "--grid", "21", "--n-slots", "6", "--t-s", "10", "--p-ave-dbm", "30"]
    )
    assert code == 0
    rows = read_csv(out / "schedule.csv")
    assert len(rows) - 1 == 6
    tr_rows = read_csv(out / "trajectory.csv")
    assert len(tr_rows) - 1 == 7
    assert float(tr_rows[-1][1]) == pytest.approx(10.0)


@pytest.mark.parametrize("p_dbm", ["nan", "1e9"])
def test_bad_budget_override_is_input_error(tmp_path, scenario_file, capsys, p_dbm):
    code = main(
        ["relaxed", "--scenario", str(scenario_file), "--out", str(tmp_path / "o"),
         "--grid", "11", "--p-ave-dbm", p_dbm]
    )
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ScenarioError"
    assert record["field"] == "p_ave_dbm"


def test_infinite_duration_override_is_input_error(tmp_path, scenario_file, capsys):
    code = main(
        ["sca", "--scenario", str(scenario_file), "--out", str(tmp_path / "o"),
         "--grid", "11", "--t-s", "inf"]
    )
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ScenarioError"
    assert record["field"] == "t_s"


def test_nan_budget_in_scenario_file_is_input_error(tmp_path, capsys):
    doc = small_doc()
    doc["sensors"][0]["p_ave_dbm"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))   # Python's json writes a bare NaN
    code = main(
        ["relaxed", "--scenario", str(path), "--out", str(tmp_path / "o")]
    )
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["field"] == "sensors[0].p_ave_dbm"


def test_missing_scenario_file(tmp_path, capsys):
    code = main(
        ["relaxed", "--scenario", str(tmp_path / "nope.json"),
         "--out", str(tmp_path / "o")]
    )
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "FileNotFoundError"


def test_invalid_scenario_document(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(small_doc(sensors=[])))
    code = main(
        ["relaxed", "--scenario", str(bad), "--out", str(tmp_path / "o")]
    )
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ScenarioError"
    assert "field" in record


def test_unknown_sweep_scheme(tmp_path, scenario_file, capsys):
    code = main(
        ["sweep-power", "--scenario", str(scenario_file),
         "--out", str(tmp_path / "s"), "--schemes", "power_only,psychic"]
    )
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["field"] == "schemes"


def test_reruns_are_byte_identical(tmp_path, scenario_file):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        assert main(
            ["sca", "--scenario", str(scenario_file), "--out", str(out),
             "--grid", "21"]
        ) == 0
    for name in (
        "trajectory.csv", "schedule.csv", "sca_trace.csv",
        "hover_plan.json", "summary.json",
    ):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
