"""Gradient-based solver for equality-constrained problems with bounds.

The solve contract is what matters to callers: the reported status is
``converged`` only when the KKT stationarity residual and the maximum
constraint violation both sit below their tolerances, measured here
with our own multiplier estimate rather than trusting the backend.
Everything is deterministic: same inputs, same iterates, same report.
The tolerances are fixed: ``TOL_KKT`` and ``TOL_FEAS`` (both 1e-6), and
``ACTIVE_TOL`` (1e-8, relative) for a coordinate to count as at its
bound; only the iteration budget (``SolverOptions.max_iter``) is set per
solve.

The backend is scipy's trust-constr.  ``solve_nlp`` imports it when it
runs, and nothing else in the package imports scipy, so a process that
only evaluates statics never loads the optimizer; a process that solves
pays the import once, at its first solve.  The constraint Jacobian
reaches trust-constr as a CSR matrix, so each projection onto the
constraints' null space factors the sparse augmented system
``[[I, A^T], [A, 0]]`` (Gould, Hribar and Nocedal, 2001) with one sparse
LU, and no dense SVD of the slack-extended Jacobian runs.

Each point the backend visits costs one ``value_and_derivatives`` pass,
and the solver never calls the problem's ``value``.  The constraint
reaches trust-constr without a ``hess``, so trust-constr keeps a
quasi-Newton model of the constraint curvature, and updating that model
computes the constraint Jacobian at every point it evaluates, trial
points included.  So a value pass at a point would always be followed
by a derivative pass at the same point, and the derivative pass alone
gives the same cost and rows.  An exact constraint ``hess`` would let
trust-constr skip the Jacobian of a rejected trial point, where a value
pass would then be the cheaper one; such points are rare in today's
solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


# a solve converges once its KKT residual (see ``kkt_residual``) and its
# largest constraint violation are at most these
TOL_KKT = 1e-6
TOL_FEAS = 1e-6
# a coordinate within ACTIVE_TOL * max(1, |x|) of a bound counts as at it
ACTIVE_TOL = 1e-8


@dataclass(frozen=True)
class SolverOptions:
    max_iter: int = 3000


@dataclass(eq=False)
class SolverReport:
    """The last iterate ``y`` (within the bounds) and its cost; ``status``
    is ``"converged"``, ``"infeasible"`` (naming the ``worst_family``)
    or ``"max-iter"``, and ``message`` is trust-constr's own."""

    y: np.ndarray
    cost: float
    status: str
    iterations: int
    kkt_residual: float
    constraint_violation: float
    worst_family: Optional[str]
    message: str


def kkt_residual(grad, jac, x, lb, ub):
    """Stationarity residual with least-squares multiplier estimate.

    Bound multipliers are implied: a coordinate within ``ACTIVE_TOL``
    (relative) of a bound is pinned there and only counts when the
    residual pushes into the feasible box, and coordinates pinned at
    both bounds never count.  Equality multipliers are fit to the
    Lagrangian gradient on the free coordinates only, since a pinned
    coordinate's bound multiplier absorbs its part.  A non-finite
    gradient or Jacobian gives NaN, never a passing value.
    """
    if not (np.isfinite(grad).all() and np.isfinite(jac).all()):
        return np.nan
    tol = ACTIVE_TOL * np.maximum(1.0, np.abs(x))
    at_lo = x - lb <= tol
    at_hi = ub - x <= tol
    free = ~(at_lo | at_hi)
    r = grad
    if jac.size:
        lam, *_ = np.linalg.lstsq(jac[:, free].T, -grad[free], rcond=None)
        r = grad + jac.T @ lam
    out = np.select([free, at_lo & ~at_hi, at_hi & ~at_lo],
                    [np.abs(r), np.maximum(-r, 0.0), np.maximum(r, 0.0)], 0.0)
    scale = max(1.0, float(np.abs(grad).max()))
    return float(out.max(initial=0.0)) / scale


def _worst_family(problem, cons):
    """Largest violation and its family; a NaN family is always named."""
    worst, name = 0.0, None
    for fam, sl in problem.families:
        v = float(np.abs(cons[sl]).max()) if cons[sl].size else 0.0
        if np.isnan(v):
            return v, fam
        if v > worst:
            worst, name = v, fam
    return worst, name


def _variable_scales(lb, ub):
    """Per-coordinate scales so all variables move on comparable units."""
    scales = np.ones(lb.size)
    finite = np.isfinite(lb) & np.isfinite(ub)
    scales[finite] = np.maximum((ub[finite] - lb[finite]) / 4.0, 1e-3)
    return scales


def solve_nlp(problem, y0, options: SolverOptions):
    """Minimize the problem's cost subject to its equality rows and bounds.

    ``problem`` is an ``ergoopt.ErgoProblem``: it provides ``lb``, ``ub``,
    ``n_cons``, ``families``, ``value_and_derivatives`` and the
    Gauss-Newton ``hessian`` (its ``value`` is never called).
    Internally the variables are rescaled by a quarter of their bound
    range, so radians, meters and densities present comparable steps to
    the curvature model.  KKT stationarity is measured in the scaled
    coordinates, relative to the cost gradient magnitude.  The
    constraint Jacobian goes to trust-constr as CSR, so its projections
    factor the sparse augmented system; the memo of passes and
    ``kkt_residual`` keep it dense.
    """
    # imported here, so that only a solve loads scipy (module docstring)
    from scipy.optimize import Bounds, NonlinearConstraint, minimize
    from scipy.sparse import csr_array

    # the passes at the last few points, keyed by the iterate's bytes:
    # every point gets one value_and_derivatives pass, whose cost and
    # rows equal problem.value's bit for bit (module docstring)
    evals = {}

    def evaluate(y):
        """Cost, gradient, constraint rows and Jacobian at y."""
        k = y.tobytes()
        if k not in evals:
            if len(evals) > 16:
                evals.clear()
            evals[k] = problem.value_and_derivatives(y)
        return evals[k]

    y0 = np.clip(np.asarray(y0, dtype=float), problem.lb, problem.ub)
    s = _variable_scales(problem.lb, problem.ub)

    def to_y(z):
        return z * s

    constraints = []
    if problem.n_cons:
        constraints.append(NonlinearConstraint(
            lambda z: evaluate(to_y(z))[2], 0.0, 0.0,
            jac=lambda z: csr_array(evaluate(to_y(z))[3] * s)))

    lb_z, ub_z = problem.lb / s, problem.ub / s

    def kkt_scaled(y):
        _, grad, _, jac = evaluate(y)
        return kkt_residual(grad * s, jac * s, y / s, lb_z, ub_z)

    def early_stop(zk, state):
        # our own periodic convergence test; the backend's gtol is
        # disabled because its barrier-path optimality reaches zero
        # while bound-active coordinates are still mu away from their
        # bound
        if state.niter % 5 or state.niter < 10:
            return False
        y = to_y(zk)
        point = evals.get(y.tobytes())
        if point is None:
            return False
        cons = point[2]
        viol = float(np.abs(cons).max()) if cons.size else 0.0
        if viol > 0.5 * TOL_FEAS:
            return False
        return kkt_scaled(y) <= 0.5 * TOL_KKT

    scipy_options = {
        "maxiter": options.max_iter,
        "gtol": 0.0,
        "xtol": 1e-12,
        "barrier_tol": 1e-12,
    }
    res = minimize(
        lambda z: evaluate(to_y(z))[0], y0 / s,
        jac=lambda z: evaluate(to_y(z))[1] * s,
        # Gauss-Newton curvature of the sum-of-squares cost, rescaled
        hess=lambda z: (problem.hessian(to_y(z)) * s) * s[:, None],
        bounds=Bounds(lb_z, ub_z),
        constraints=constraints,
        method="trust-constr",
        callback=early_stop,
        options=scipy_options)

    y = np.clip(to_y(res.x), problem.lb, problem.ub)
    cost, _, cons, _ = evaluate(y)
    viol = float(np.abs(cons).max()) if cons.size else 0.0
    kkt = kkt_scaled(y)
    worst_viol, worst_family = _worst_family(problem, cons)

    if viol <= TOL_FEAS and kkt <= TOL_KKT:
        status = "converged"
    elif not viol <= TOL_FEAS:  # NaN is infeasible
        status = "infeasible"
    else:
        status = "max-iter"
    return SolverReport(
        y=y, cost=cost, status=status, iterations=int(res.niter),
        kkt_residual=kkt, constraint_violation=viol,
        worst_family=worst_family if status == "infeasible" else None,
        message=str(res.message))
