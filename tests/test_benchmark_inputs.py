"""Tests that read the benchmark's own files under ``perfbench/``.

The benchmark is not a package, so its modules are loaded by path; they
are only read, never changed.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np

from ergolift.coupled import evaluate_statics

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
