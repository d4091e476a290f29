import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from ergolift import ergoopt, nlpsolver, scenario
from ergolift.nlpsolver import (TOL_FEAS, TOL_KKT, SolverOptions,
                                SolverReport, _box_intersections,
                                _variable_scales, _worst_family,
                                kkt_residual, solve_nlp)


class BoxedProjection:
    """min (x0 - 1)^2 + (x1 - 2)^2  s.t.  x0 = x1,  x1 <= 1.2.

    The solution (1.2, 1.2) has the bound on x1 active and the equality
    multiplier -0.4, fixed by the free coordinate x0 alone.
    """

    lb = np.array([-5.0, -5.0])
    ub = np.array([5.0, 1.2])
    n_cons = 1
    families = (("equal", slice(0, 1)),)

    def __init__(self, nan_constraint=False):
        self.nan_constraint = nan_constraint

    def _cost_and_rows(self, y):
        cost = (y[0] - 1.0) ** 2 + (y[1] - 2.0) ** 2
        cons = np.array([np.nan if self.nan_constraint else y[0] - y[1]])
        return cost, cons

    def value(self, y):
        return self._cost_and_rows(y)

    def value_and_derivatives(self, y):
        cost, cons = self._cost_and_rows(y)
        grad = np.array([2.0 * (y[0] - 1.0), 2.0 * (y[1] - 2.0)])
        return cost, grad, cons, np.array([[1.0, -1.0]])

    def hessian(self, y):
        return 2.0 * np.eye(2)


class CountingProjection(BoxedProjection):
    """BoxedProjection that records every evaluation the solver asks for."""

    def __init__(self):
        super().__init__()
        self.value_calls = 0
        self.passes = []

    def value(self, y):
        self.value_calls += 1
        return super().value(y)

    def value_and_derivatives(self, y):
        self.passes.append(np.array(y, dtype=float))
        return super().value_and_derivatives(y)


class TestKKTResidual:
    def test_true_kkt_point_reads_zero(self):
        p = BoxedProjection()
        x = np.array([1.2, 1.2])
        _, grad, _, jac = p.value_and_derivatives(x)
        assert kkt_residual(grad, jac, x, p.lb, p.ub) == pytest.approx(
            0.0, abs=1e-15)

    def test_bound_pushing_out_of_the_box_counts(self):
        # with the cost pulling x1 down, away from its upper bound, the
        # bound cannot absorb x1's residual 1.6 + 0.4
        p = BoxedProjection()
        x = np.array([1.2, 1.2])
        grad = np.array([0.4, 1.6])
        r = kkt_residual(grad, np.array([[1.0, -1.0]]), x, p.lb, p.ub)
        assert r == pytest.approx(2.0 / 1.6)

    @pytest.mark.parametrize("lb", [0.0, 100.0])
    def test_active_tolerance(self, lb):
        # the gradient pushes x out through its lower bound: within
        # ACTIVE_TOL * max(1, |x|) of it the bound absorbs the residual,
        # beyond that x is free and its whole gradient counts
        scale = max(1.0, lb)
        grad, jac = np.array([1.0]), np.zeros((0, 1))
        lo, hi = np.array([lb]), np.array([lb + 5.0])
        inside = np.array([lb + 0.5e-8 * scale])
        outside = np.array([lb + 2e-8 * scale])
        assert kkt_residual(grad, jac, inside, lo, hi) == 0.0
        assert kkt_residual(grad, jac, outside, lo, hi) == 1.0

    @pytest.mark.parametrize("jac", [np.zeros((0, 2)),
                                     np.array([[1.0, -1.0]])])
    def test_nan_gradient_is_nan(self, jac):
        p = BoxedProjection()
        x = np.array([0.5, 0.5])
        grad = np.array([np.nan, 0.0])
        assert np.isnan(kkt_residual(grad, jac, x, p.lb, p.ub))


class TestSolveStatus:
    def test_kkt_point_with_active_bound_converges(self):
        p = BoxedProjection()
        rep = solve_nlp(p, np.array([0.0, 0.0]), SolverOptions(max_iter=200))
        assert rep.status == "converged"
        np.testing.assert_allclose(rep.y, [1.2, 1.2], atol=1e-6)
        # the early stop ends the solve at iteration 25, its fourth check
        # (every fifth iteration from the tenth)
        assert rep.iterations == 25
        assert "`StopIteration`" in rep.message

    def test_nan_violation_is_infeasible(self):
        p = BoxedProjection(nan_constraint=True)
        rep = solve_nlp(p, np.array([0.0, 0.0]), SolverOptions(max_iter=5))
        assert np.isnan(rep.constraint_violation)
        assert rep.status == "infeasible"
        assert rep.worst_family == "equal"

    def test_worst_family_names_nan_family(self):
        p = BoxedProjection()
        p.families = (("a", slice(0, 1)), ("b", slice(1, 2)),
                      ("c", slice(2, 3)))
        worst, name = _worst_family(p, np.array([3.0, np.nan, 5.0]))
        assert np.isnan(worst) and name == "b"


@pytest.fixture(scope="module")
def one_height():
    """A frozen one-height co-design problem and its warm start."""
    sc = scenario.make_scenario(heights=(1.2,))
    problem = ergoopt.assemble_nlp(sc, scenario.build_system(sc),
                                   freeze_hardware=True)
    return problem, ergoopt.warm_start_vector(problem)


def feasible_start(problem, y):
    """y moved onto the constraint rows by Gauss-Newton steps."""
    for _ in range(6):
        _, _, cons, jac = problem.value_and_derivatives(y)
        y = y - np.linalg.lstsq(jac, cons, rcond=None)[0]
    assert np.all(problem.lb <= y) and np.all(y <= problem.ub)
    assert np.abs(problem.value(y)[1]).max() <= TOL_FEAS
    return y


def scanned_worst(problem, y):
    """The family with the largest violation at y, scanned afresh from
    the problem's value rows; the first one wins a tie."""
    _, cons = problem.value(y)
    worst = [float(np.abs(cons[sl]).max()) for _, sl in problem.families]
    k = int(np.argmax(worst))
    return problem.families[k][0], worst[k]


class TestBudgetStatuses:
    """A 1-3 iteration budget ends in ``max-iter`` from a feasible start
    and in ``infeasible`` from an infeasible one, on a toy problem and
    on a frozen one-height co-design problem."""

    # on the co-design rows a second step already leaves the feasible set
    @pytest.mark.parametrize("name, budget", [("box", 1), ("box", 3),
                                              ("one_height", 1)])
    def test_feasible_start_ends_at_max_iter(self, name, budget,
                                             one_height):
        if name == "box":
            problem, feasible = BoxedProjection(), np.array([0.0, 0.0])
        else:
            problem, feasible = one_height[0], feasible_start(*one_height)
        rep = solve_nlp(problem, feasible, SolverOptions(max_iter=budget))
        assert rep.status == "max-iter"
        assert rep.iterations == budget
        assert rep.constraint_violation <= TOL_FEAS
        assert rep.kkt_residual > TOL_KKT
        assert rep.worst_family is None

    @pytest.mark.parametrize("name", ["box", "one_height"])
    @pytest.mark.parametrize("budget", [1, 3])
    def test_infeasible_start_names_the_worst_family(self, name, budget,
                                                     one_height):
        problem, infeasible = ((BoxedProjection(), np.array([3.0, -3.0]))
                               if name == "box" else one_height)
        rep = solve_nlp(problem, infeasible, SolverOptions(max_iter=budget))
        assert rep.status == "infeasible"
        assert np.isfinite(rep.constraint_violation)
        assert rep.constraint_violation > TOL_FEAS
        family, worst = scanned_worst(problem, rep.y)
        assert rep.worst_family == family
        assert rep.constraint_violation == worst


def trust_constr_reference(problem, y0, max_iter):
    """The solve as scipy's trust-constr runs it, kept as the parity
    oracle of ``solve_nlp``: trust-constr on the scaled problem, the
    constraint Jacobian as CSR, a memo of the last passes, its gradient
    test off and the periodic KKT test as its callback.  Its report has
    no trajectory.  scipy warns when its BFGS update meets a constraint
    with no change of gradient (a linear one); only that warning is
    ignored, and only in the oracle."""
    from scipy.optimize import Bounds, NonlinearConstraint, minimize

    evals = {}

    def evaluate(y):
        k = y.tobytes()
        if k not in evals:
            if len(evals) > 16:
                evals.clear()
            evals[k] = problem.value_and_derivatives(y)
        return evals[k]

    y0 = np.clip(np.asarray(y0, dtype=float), problem.lb, problem.ub)
    s = _variable_scales(problem.lb, problem.ub)
    lb_z, ub_z = problem.lb / s, problem.ub / s

    def kkt_scaled(y):
        _, grad, _, jac = evaluate(y)
        return kkt_residual(grad * s, jac * s, y / s, lb_z, ub_z)

    def early_stop(zk, state):
        if state.niter % 5 or state.niter < 10:
            return False
        point = evals.get((zk * s).tobytes())
        if point is None:
            return False
        cons = point[2]
        viol = float(np.abs(cons).max()) if cons.size else 0.0
        return viol <= 0.5 * TOL_FEAS and kkt_scaled(zk * s) <= 0.5 * TOL_KKT

    constraints = []
    if problem.n_cons:
        constraints.append(NonlinearConstraint(
            lambda z: evaluate(z * s)[2], 0.0, 0.0,
            jac=lambda z: scipy.sparse.csr_array(evaluate(z * s)[3] * s)))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "delta_grad == 0.0", UserWarning)
        res = minimize(
            lambda z: evaluate(z * s)[0], y0 / s,
            jac=lambda z: evaluate(z * s)[1] * s,
            hess=lambda z: (problem.hessian(z * s) * s) * s[:, None],
            bounds=Bounds(lb_z, ub_z), constraints=constraints,
            method="trust-constr", callback=early_stop,
            options={"maxiter": max_iter, "gtol": 0.0, "xtol": 1e-12,
                     "barrier_tol": 1e-12})
    y = np.clip(res.x * s, problem.lb, problem.ub)
    cost, _, cons, _ = evaluate(y)
    viol = float(np.abs(cons).max()) if cons.size else 0.0
    kkt = kkt_scaled(y)
    if viol <= TOL_FEAS and kkt <= TOL_KKT:
        status = "converged"
    elif not viol <= TOL_FEAS:
        status = "infeasible"
    else:
        status = "max-iter"
    return SolverReport(
        y=y, cost=cost, status=status, iterations=int(res.niter),
        kkt_residual=kkt, constraint_violation=viol,
        worst_family=(_worst_family(problem, cons)[1]
                      if status == "infeasible" else None),
        message=str(res.message))


class TestParityWithTrustConstr:
    """The numpy loop keeps trust-constr's iterates up to rounding: its
    projections factor a Schur complement where trust-constr factors
    the sparse augmented system, and nothing else differs.  Rounding
    grows along a solve (a one-ulp change of the start moves a
    10-iteration co-design solve by 3e-4 in a density), so the longer
    solve gets the looser tolerance."""

    @pytest.mark.parametrize("budget", [1, 3, 200])
    def test_boxed_projection(self, budget):
        p, y0 = BoxedProjection(), np.array([0.0, 0.0])
        ref = trust_constr_reference(p, y0, budget)
        rep = solve_nlp(p, y0, SolverOptions(max_iter=budget))
        assert rep.iterations == ref.iterations == min(budget, 25)
        assert (rep.status, rep.message) == (ref.status, ref.message)
        np.testing.assert_allclose(rep.y, ref.y, rtol=0, atol=1e-9)
        assert rep.cost == pytest.approx(ref.cost, rel=1e-12)

    @pytest.mark.parametrize("budget", [3, 15])
    def test_one_height(self, budget, one_height):
        problem, y0 = one_height
        ref = trust_constr_reference(problem, y0, budget)
        rep = solve_nlp(problem, y0, SolverOptions(max_iter=budget))
        assert rep.iterations == ref.iterations == budget
        assert (rep.status, rep.message) == (ref.status, ref.message)
        np.testing.assert_allclose(rep.y, ref.y, rtol=0, atol=1e-6)
        assert rep.cost == pytest.approx(ref.cost, rel=1e-6)


class TestStepPieces:
    def test_overflowing_step_component_leaves_its_interval_open(self):
        # (1 - 0.5) / 1e-320 overflows: inside the box, that component
        # bounds nothing, and the interval is the other component's;
        # outside it, the line never enters the box.  No RuntimeWarning
        # is raised (tier-1 turns warnings into errors).
        z, d = np.array([0.5, 0.5]), np.array([1e-320, 2.0])
        lb, ub = np.zeros(2), np.ones(2)
        assert _box_intersections(z, d, lb, ub, entire_line=True) == (
            -0.25, 0.25, True)
        assert _box_intersections(z, d, lb, ub) == (0, 0.25, True)
        outside = np.array([1.5, 0.5])
        ta, tb, intersect = _box_intersections(outside, d, lb, ub,
                                               entire_line=True)
        assert tb == -np.inf and not intersect

    def test_curvature_update_without_gradient_change_is_silent(self):
        # a linear row: its gradient never changes, so the BFGS model
        # stays the identity and no warning is raised
        p = BoxedProjection()
        point = nlpsolver._Point(np.zeros(2), None, 0.0, None, np.zeros(1),
                                 np.array([[1.0, -1.0]]), None)
        model = nlpsolver._CurvatureModel(point)
        model.multipliers(np.array([0.4]))
        model.move(point._replace(x=np.array([0.3, 0.1])))
        model.multipliers(np.array([-0.2]))
        np.testing.assert_array_equal(model.B, np.eye(2))
        rep = solve_nlp(p, np.array([0.0, 0.0]), SolverOptions(max_iter=12))
        assert rep.iterations == 12

    def test_dependent_rows_are_refused(self):
        # a row repeated at twice its scale leaves J diag(w) J^T
        # singular; trust-constr warned and fell back to a dense SVD
        # (and made no progress on this problem), the port refuses
        class Doubled(BoxedProjection):
            n_cons = 2

            def value_and_derivatives(self, y):
                cost, grad, cons, jac = super().value_and_derivatives(y)
                return (cost, grad, np.concatenate([cons, 2 * cons]),
                        np.vstack([jac, 2 * jac]))

        with pytest.raises(np.linalg.LinAlgError):
            solve_nlp(Doubled(), np.zeros(2), SolverOptions(max_iter=5))

    def test_trajectory_holds_one_iterate_per_iteration(self):
        p = BoxedProjection()
        rep = solve_nlp(p, np.array([3.0, -3.0]), SolverOptions(max_iter=7))
        assert len(rep.trajectory) == rep.iterations == 7
        first, last = rep.trajectory[0], rep.trajectory[-1]
        # the start: cost 4 + 25, violation 6, the initial radius and
        # barrier parameter, and no step computed yet
        assert (first.cost, first.violation) == (29.0, 6.0)
        assert (first.trust_radius, first.barrier) == (1.0, 0.1)
        assert first.cg_iterations == 0
        assert last.cost == rep.cost
        assert last.violation == rep.constraint_violation
        assert all(np.isfinite(it).all() for it in rep.trajectory)


class TestOnePassPerPoint:
    def test_one_derivative_pass_per_point_and_no_value_pass(self):
        """The curvature model needs the constraint Jacobian at every
        point the loop evaluates, so each point gets one full pass and
        no value pass."""
        p = CountingProjection()
        rep = solve_nlp(p, np.array([0.0, 0.0]), SolverOptions(max_iter=200))
        assert rep.status == "converged"
        np.testing.assert_allclose(rep.y, [1.2, 1.2], atol=1e-6)
        assert p.value_calls == 0
        points = [y.tobytes() for y in p.passes]
        assert len(points) > 1
        assert len(set(points)) == len(points)


class TestImportBoundary:
    def test_statics_load_no_scipy_and_a_solve_still_runs(self):
        """Importing the program, evaluating statics and solving load no
        scipy module.  A fresh interpreter shows it, since this one has
        loaded scipy already."""
        script = textwrap.dedent("""
            import sys
            from ergolift import coupled, ergoopt, nlpsolver, scenario
            from ergolift import templates
            sc = scenario.make_scenario()
            system = scenario.build_system(sc)
            coupled.evaluate_statics(
                system, scenario.warm_start_configuration(sc, system, 1.0))
            loaded = sorted(m for m in sys.modules
                            if m == "scipy" or m.startswith("scipy."))
            assert not loaded, f"{len(loaded)} scipy modules: {loaded[:3]}"
            sc = scenario.make_scenario(heights=(1.0,),
                                        human=templates.default_human(),
                                        robot=templates.default_robot())
            problem = ergoopt.assemble_nlp(sc, scenario.build_system(sc),
                                           freeze_hardware=True)
            report = nlpsolver.solve_nlp(
                problem, ergoopt.warm_start_vector(problem),
                nlpsolver.SolverOptions(max_iter=2))
            print(report.iterations, any(m == "scipy" or m.startswith("scipy.")
                                         for m in sys.modules))
        """)
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["2", "False"]
