"""Tiny-size self-test of the benchmark command.

    python3 -m pytest perfbench -q

Runs every workload for one second and checks that the last line names
every metric with its unit, that the output checks ran, that a wrong
output fails a check, and that the command refuses to run without the
program.  Takes about a minute on two cores.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import workloads  # noqa: E402


def run_bench(workload, trace, cwd=ROOT, seconds="1"):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", seconds, "--trace",
         str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_metric_table():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in metrics.PER_LAYER]
    assert all(row[3] for row in metrics.PER_LAYER)


@pytest.mark.parametrize("workload,trace", [
    ("codesign", 0), ("posture_sweep", 0), ("posture_sweep", 1),
    ("statics_eval", 0), ("statics_eval", 1)])
def test_command_prints_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, info_line, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    info = json.loads(info_line)["info"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {name: unit for name, unit, *_ in table} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    # the output checks ran on every answered request
    assert info["checks"]
    if workload == "statics_eval":
        assert info["checks"]["minnorm_torques"] >= 1
    else:
        assert info["checks"]["constraint_violation"] == result["attempted"]
        assert info["checks"]["statics_equilibrium"] >= 1
    assert info["env"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    if trace:
        assert info["spans"]["count"] > 0


def test_wrong_outputs_fail_a_check():
    state = workloads.Codesign().setup()
    problem = state["problem"]
    y = (np.where(np.isfinite(problem.lb), problem.lb, -1.0)
         + np.where(np.isfinite(problem.ub), problem.ub, 1.0)) / 2.0
    good = types.SimpleNamespace(y=y, cost=1.0, hardware=None,
                                 constraint_violation=0.0, statics=[])
    workloads.check_solution(problem, good, 0.01, workloads.Checks())
    bad = [dict(y=y - 10.0), dict(cost=float("nan")),
           dict(constraint_violation=1.0),
           dict(hardware={"torso": {"length_multiplier": 9.0,
                                    "density": 1000.0}})]
    for change in bad:
        sol = types.SimpleNamespace(**{**vars(good), **change})
        with pytest.raises(workloads.CheckFailure):
            workloads.check_solution(problem, sol, 0.01, workloads.Checks())
    res = types.SimpleNamespace(wrenches=np.ones(6), equilibrium_residual=1.0,
                                projected_residual=0.0)
    with pytest.raises(workloads.CheckFailure):
        workloads.check_statics(res, workloads.Checks(), "test")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("statics_eval", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
