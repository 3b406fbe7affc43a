"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the repository with
``python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pingpong", "gridccm-absorb", "grid-churn", "coupling")
LAYER_SPLIT = [name for name, _unit in run.PER_LAYER
               if name.endswith(".self_s")]


def _cli(workload: str, trace: int, cwd: Path
         ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace, tmp_path):
    proc = _cli(workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = dict(run.PER_LAYER if trace else run.END_TO_END)
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    text = "\n".join(lines[:-1])
    for name in expected:
        assert name in text
    assert "error_rate" in text
    assert "# meta " in text and "calibration" in text


def test_all_runs_every_workload_in_one_command(tmp_path):
    proc = _cli("all", 0, tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {
        f"{workload}.{name}" for workload in WORKLOADS
        for name, _unit in run.END_TO_END}
    assert proc.stdout.count("error_rate") == len(WORKLOADS)


def test_corrupted_digest_counts_as_errors():
    logged: list[str] = []
    result = run.run("coupling", seed=1, seconds=0.0, trace=False,
                     scale_name="tiny", expected={"coupling": "0" * 32},
                     log=logged.append)
    assert result["failed"] > 0 and result["correct"] is False
    assert any("MISMATCH" in line for line in logged)
    rate = next(line for line in logged if "error_rate" in line)
    assert float(rate.split()[1]) > 0


def _digests(lines: list[str]) -> list[str]:
    return [line.split()[2] for line in lines
            if "virtual-clock digest" in line]


def test_digest_repeats_and_a_recorded_match_passes():
    logs: list[list[str]] = [[], []]
    for log in logs:
        run.run("grid-churn", seed=5, seconds=0.0, trace=False,
                scale_name="tiny", log=log.append)
    recorded = _digests(logs[0])
    assert recorded and recorded == _digests(logs[1])
    checked: list[str] = []
    result = run.run("grid-churn", seed=5, seconds=0.0, trace=False,
                     scale_name="tiny",
                     expected={"grid-churn": recorded[0]},
                     log=checked.append)
    assert result["correct"]
    assert any("matches the recorded value" in line for line in checked)


def _traced(workload: str) -> dict[str, float]:
    result = run.run(workload, seed=2, seconds=0.0, trace=True,
                     scale_name="tiny", log=lambda line: None)
    assert result["correct"], "traced and untraced digests must agree"
    m = {name: v["value"] for name, v in result["metrics"].items()}
    wall, coverage = m["trace.wall_s"], m["trace.coverage"]
    # the hooks' own cost is the only time left out of the split
    assert 0.5 < coverage <= 1.0
    assert sum(m[name] for name in LAYER_SPLIT) <= wall
    return m


def test_pingpong_split_charges_switching_to_sim():
    m = _traced("pingpong")
    # every round trip is a chain of thread handoffs between client,
    # server and the kernel; the handoffs back to the kernel are sim's
    assert m["sim.self_s"] > 0.15 * m["trace.wall_s"]
    for layer in ("net", "padicotm.abstraction", "corba", "app"):
        assert m[f"{layer}.self_s"] > 0
    # no GridCCM on this path, so nothing may land in core
    assert m["core.self_s"] == 0.0 and m["core.plans_built"] == 0


def test_grid_churn_split_is_mostly_net():
    m = _traced("grid-churn")
    # no processes and no middleware: the flow network does the work
    assert m["net.self_s"] > 0.6 * m["trace.wall_s"]
    # flow admission, timed inclusively at the public entry points,
    # runs inside net's spans, so net's share must contain it
    assert 0 < m["net.admit_s"] <= m["net.self_s"]
    assert m["sim.switches"] == 0


def test_absorb_planning_is_charged_to_core():
    m = _traced("gridccm-absorb")
    # redistribute_schedule never blocks, so its inclusive wall time
    # must fit inside the time charged to core
    assert 0 < m["core.plan_s"] <= m["core.self_s"]
    assert m["core.plans_per_call"] > 0


def test_tail_has_ten_samples_beyond_it():
    lat = [float(i) for i in range(100)]
    value, pct, count = run.tail(lat)
    assert sum(1 for x in lat if x > value) == 10
    assert count == 100 and pct == 90.0


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    bench = tmp_path / HERE.name
    shutil.copytree(HERE, bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "pingpong",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
