import numpy as np
import pytest

from ergolift import fad
from ergolift import ergoopt
from ergolift.coupled import SingularConstraintError, UnloadedFootError, \
    cop_smooth, coupled_trees, evaluate_statics, statics_minnorm
from ergolift.ergoopt import assemble_nlp, solve, warm_start_vector
from ergolift.nlpsolver import SolverOptions
from ergolift.scenario import build_system, make_scenario


@pytest.fixture(scope="module")
def solved():
    """Two short frozen-hardware solves of one height from one start."""
    sc = make_scenario(heights=(1.0,))
    problem = assemble_nlp(sc, build_system(sc), freeze_hardware=True)
    y0 = warm_start_vector(problem)
    options = SolverOptions(max_iter=3)
    return problem, solve(problem, y0, options), solve(problem, y0, options)


class TestSolve:
    def test_deterministic(self, solved):
        _, a, b = solved
        np.testing.assert_array_equal(a.y, b.y)
        assert a.cost == b.cost
        assert a.task_values == b.task_values

    def test_status_is_documented(self, solved):
        _, sol, _ = solved
        assert sol.status in ("converged", "infeasible", "max-iter")
        assert sol.iterations <= 3

    def test_constraint_rows_per_height(self, solved):
        # 3 + 3 * grasps + 3 * contacts tilt-encoded rows, as documented
        problem, sol, _ = solved
        sys = problem.system
        per = 3 + 3 * len(sys.grasps) + 3 * len(sys.env_contacts)
        assert per == 27
        _, cons = problem.value(sol.y)
        assert cons.size == problem.n_cons == per * len(problem.heights)
        assert problem.families[-1][1].stop == problem.n_cons

    def test_task_values_from_saddle_statics(self, solved):
        problem, sol, _ = solved
        sys = problem.system
        params = problem.hardware_params(sol.y)
        target = np.asarray(problem.scenario.cop_target, dtype=float)
        assert len(sol.task_values) == len(problem.heights)
        for k, tasks in enumerate(sol.task_values):
            q = problem.configurations(sol.y, k)
            trees = coupled_trees(sys, q, params)
            tau, f = statics_minnorm(sys, q, params)
            cop = 0.0
            for c, (agent, frame) in enumerate(sys.env_contacts):
                R, _ = trees[agent].frame_pose(frame)
                d = fad.value(cop_smooth(f[6 * c: 6 * c + 6], R)) - target
                cop += float(d @ d)
            assert tasks["torque"] == pytest.approx(float(tau @ tau),
                                                    rel=1e-12)
            assert tasks["cop"] == pytest.approx(cop, rel=1e-12)

    def test_statics_none_only_on_refusal(self, solved):
        problem, sol, _ = solved
        params = problem.hardware_params(sol.y)
        assert len(sol.statics) == len(problem.heights)
        for k, res in enumerate(sol.statics):
            q = problem.configurations(sol.y, k)
            if res is None:
                with pytest.raises((SingularConstraintError,
                                    UnloadedFootError)):
                    evaluate_statics(problem.system, q, params)
                continue
            fresh = evaluate_statics(problem.system, q, params)
            np.testing.assert_array_equal(res.tau, fresh.tau)
            np.testing.assert_array_equal(res.wrenches, fresh.wrenches)

    def test_statics_errors_other_than_refusals_propagate(self, solved,
                                                          monkeypatch):
        problem, sol, _ = solved

        def broken(*args, **kwargs):
            raise ValueError("not a refusal")

        monkeypatch.setattr(ergoopt, "evaluate_statics", broken)
        with pytest.raises(ValueError, match="not a refusal"):
            solve(problem, sol.y, SolverOptions(max_iter=1))
