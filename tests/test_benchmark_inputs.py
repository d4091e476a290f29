"""Tests that read the benchmark's own files under ``perfbench/``.

The benchmark is not a package, so its modules are loaded by path; they
are only read, never changed.
"""

import importlib.util
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ergolift.coupled import evaluate_statics

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("codesign", "posture_sweep", "statics_eval")


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_statics_eval_seed22_request619():
    # the projector route's SVD failed to converge on this input
    workload = load_perfbench("workloads").StaticsEval()
    state = workload.setup()
    workload.prepare(state)
    inp = next(itertools.islice(workload.inputs(state, 22), 619, None))
    assert inp["n"] == 619
    res = evaluate_statics(state["system"], inp["q"], inp["params"])
    scale = max(1.0, float(np.abs(res.wrenches).max()))
    assert np.all(np.isfinite(res.tau))
    assert res.equilibrium_residual <= 1e-8 * scale
    assert res.projected_residual <= 1e-8 * scale


@pytest.fixture(scope="module")
def workloads():
    module = load_perfbench("workloads")
    assert tuple(module.WORKLOADS) == WORKLOADS
    return module


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_hooks_run(workloads, name):
    """One answered request through every hook a benchmark run calls,
    so that an attribute the benchmark reads from a program object
    (``scenario.weights``, ``problem.configurations``, a
    ``dataclasses.replace`` of a scenario field) fails here rather than
    only in a benchmark run."""
    workload = workloads.WORKLOADS[name]
    state = workload.setup()
    workload.prepare(state)
    workload.warm_up(state)
    for inp in itertools.islice(workload.inputs(state, 1), 20):
        answer = workload.request(state, inp)
        if answer.refused is None:
            break
    assert answer.refused is None
    checks = workloads.Checks()
    refused = workload.check(state, inp, answer, checks)
    assert refused is None or refused in {
        cls.__name__ for cls in workloads.REFUSALS}
    assert checks.counts
    assert np.isfinite(workload.cost(state, inp, answer))
    assert workload.same_output(answer, workload.request(state, inp))
    assert 0.0 <= workload.jac_density(state, [answer]) <= 1.0
    json.dumps(workload.describe(state))
    if workload.budget:
        assert answer.value.iterations <= workload.budget
        assert workload.violation(answer) <= workload.violation_tol
