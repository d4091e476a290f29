"""Gradient-based solver for equality-constrained problems with bounds.

The solve contract is what matters to callers: the reported status is
``converged`` only when the KKT stationarity residual and the maximum
constraint violation both sit below their tolerances, measured here
with our own multiplier estimate rather than trusting the algorithm's.
Everything is deterministic: same inputs, same iterates, same report.
The tolerances are fixed: ``TOL_KKT`` and ``TOL_FEAS`` (both 1e-6), and
``ACTIVE_TOL`` (1e-8, relative) for a coordinate to count as at its
bound; only the iteration budget (``SolverOptions.max_iter``) is set per
solve.

The algorithm is the trust-region interior-point method of Byrd,
Hribar and Nocedal, "An interior point algorithm for large-scale
nonlinear programming" (SIAM J. Optim. 9, 1999), as scipy's
trust-constr implements it, ported to numpy for this problem class:
equality rows ``c(x) = 0`` and finite two-sided bounds, in the
coordinates ``_variable_scales`` gives.  It keeps trust-constr's
constants, update rules and stop rules, so its iterates are
trust-constr's up to rounding:

- the barrier loop: each bound row gets a slack ``t > 0``, and the
  barrier subproblem ``min f(x) - mu sum(log t)`` subject to ``c(x) = 0``
  and ``x - ub + t_u = 0``, ``lb - x + t_l = 0`` is solved to a
  tolerance that falls with ``mu`` (both start at 0.1, and each new
  subproblem multiplies them by 0.2), with the slack step kept above
  -0.995 of the slack;
- each subproblem by the Byrd-Omojokun trust-region SQP (Lalee,
  Nocedal and Plantenga, SIAM J. Optim. 8, 1998): a dogleg normal step
  toward the linearised rows, a projected-CG tangential step (Gould,
  Hribar and Nocedal, SIAM J. Sci. Comput. 23, 2001), an l2 merit
  function and a second-order correction;
- a BFGS model of the constraint curvature, updated when trust-constr
  updates it: once for every new point the constraints are evaluated
  at, trial points included, and once more at an accepted point when
  its least-squares multipliers change.  The cost curvature is the
  problem's Gauss-Newton ``hessian``.

trust-constr's gradient test is off (its gtol was 0: its barrier
multipliers reach zero while a bound-active coordinate is still ``mu``
from its bound).  In its place the loop runs our KKT test every fifth
iteration from the tenth, and it keeps trust-constr's other stops: the
iteration budget, and a trust radius and a barrier parameter both below
1e-12.

Only the projections are factored differently.  The barrier Jacobian
is ``A = [[J, 0], [E, diag(t)]]`` with ``E = [I; -I]``, so trust-constr
factors the augmented system ``[[I, A^T], [A, 0]]`` of size 3n + m + 2n
(1518 on the paper's problem) with a sparse LU.  But ``E E^T + diag(t)^2``
is 2 x 2 per coordinate, so ``W = I - E^T (E E^T + diag(t)^2)^-1 E`` is
diagonal, ``w = t_u^2 t_l^2 / (t_u^2 + t_l^2 + t_u^2 t_l^2)``, and the
slacks eliminate in closed form: ``A A^T`` is solved through its Schur
complement ``J diag(w) J^T`` onto the m equality rows (108 x 108 on the
paper's problem), inverted once per accepted point.  The projections
keep trust-constr's iterative refinement of the augmented system.

Each point the loop visits is one pass: one ``value_and_derivatives``
call, and the problem's ``hessian`` at that point, which an
``ErgoProblem`` serves from that pass.  The loop never calls the
problem's ``value``.

The code derives from scipy's trust-constr (the modules in
scipy/optimize/_trustregion_constr and the BFGS update of
scipy/optimize/_hessian_update_strategy.py), which is distributed under
the BSD-3-Clause license:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np


# a solve converges once its KKT residual (see ``kkt_residual``) and its
# largest constraint violation are at most these
TOL_KKT = 1e-6
TOL_FEAS = 1e-6
# a coordinate within ACTIVE_TOL * max(1, |x|) of a bound counts as at it
ACTIVE_TOL = 1e-8

# trust-constr's constants, under its names where it has them
BARRIER_INIT = 0.1          # barrier parameter and subproblem tolerance
BARRIER_DECAY_RATIO = 0.2
BOUNDARY_PARAMETER = 0.995  # a slack step keeps this share of the slack
TRUST_ENLARGEMENT = 5       # of the radius, from one subproblem to the next
XTOL = 1e-12                # radius and barrier parameter that end a solve
PENALTY_FACTOR = 0.3
LARGE_REDUCTION_RATIO = 0.9
INTERMEDIARY_REDUCTION_RATIO = 0.3
SUFFICIENT_REDUCTION_RATIO = 1e-8
TRUST_ENLARGEMENT_FACTOR_L = 7.0
TRUST_ENLARGEMENT_FACTOR_S = 2.0
MAX_TRUST_REDUCTION = 0.5
MIN_TRUST_REDUCTION = 0.1
SOC_THRESHOLD = 0.1
TR_FACTOR = 0.8             # share of the radius the normal step may use
BOX_FACTOR = 0.5            # share of the slack box the normal step may use
ORTH_TOL = 1e-12            # refine a projection while |A z| / |A| |z| exceeds
MAX_REFINE = 3
CLOSE_TO_ZERO = 1e-25
BFGS_MIN_CURVATURE = 1e-8

# trust-constr's stop messages, by the rule that stopped the solve; the
# KKT test reports the message of the callback it used to be
MAX_ITER_MESSAGE = "The maximum number of function evaluations is exceeded."
XTOL_MESSAGE = "`xtol` termination condition is satisfied."
XTOL_INFEASIBLE_MESSAGE = "Constraint violation exceeds 'gtol'"
KKT_MESSAGE = "`callback` raised `StopIteration`."


@dataclass(frozen=True)
class SolverOptions:
    max_iter: int = 3000


class Iterate(NamedTuple):
    """The loop's state at one iteration's stop test: the cost and the
    largest row violation at the current point, the barrier
    subproblem's optimality (the largest entry of its Lagrangian
    gradient, which decides when ``barrier`` falls), the trust radius,
    the barrier parameter, and the CG iterations of the last step
    computed (0 at a subproblem's first test)."""

    cost: float
    violation: float
    optimality: float
    trust_radius: float
    barrier: float
    cg_iterations: int


@dataclass(eq=False)
class SolverReport:
    """The last iterate ``y`` (within the bounds) and its cost; ``status``
    is ``"converged"``, ``"infeasible"`` (naming the ``worst_family``)
    or ``"max-iter"``.  ``message`` is the trust-constr stop message of
    the rule that ended the loop: the iteration budget, the trust radius
    (its xtol), or the KKT test, which keeps the message of the callback
    that ran it.  ``trajectory`` holds one ``Iterate`` per iteration."""

    y: np.ndarray
    cost: float
    status: str
    iterations: int
    kkt_residual: float
    constraint_violation: float
    worst_family: Optional[str]
    message: str
    trajectory: tuple = ()


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


def _norm(v):
    return math.sqrt(v @ v)


class _Point(NamedTuple):
    """One pass, in the scaled coordinates ``x = y / scales``: cost,
    gradient, rows, Jacobian and the unscaled Gauss-Newton matrix."""

    x: np.ndarray
    y: np.ndarray
    f: float
    g: np.ndarray
    c: np.ndarray
    J: np.ndarray
    gauss_newton: np.ndarray


class _Projections:
    """Projections for the barrier Jacobian ``A = [[J, 0], [E, diag(t)]]``
    at slacks ``t``, on vectors ``[x (n), t_u (n), t_l (n)]`` and rows
    ``[c (m), upper bounds (n), lower bounds (n)]``.

    ``A A^T`` is solved by eliminating the bound rows, whose block
    ``E E^T + diag(t)^2`` is 2 x 2 per coordinate, onto the Schur
    complement ``J diag(w) J^T`` (module docstring).
    """

    def __init__(self, J, t):
        self.J = J
        self.m, self.n = J.shape
        self.t_u, self.t_l = t[:self.n], t[self.n:]
        a, b = self.t_u ** 2, self.t_l ** 2
        det = a + b + a * b
        # (E E^T + diag(t)^2)^-1 = [[d_uu, d_ul], [d_ul, d_ll]] per coordinate
        self.d_uu, self.d_ul, self.d_ll = (1.0 + b) / det, 1.0 / det, \
            (1.0 + a) / det
        self.back_u, self.back_l = b / det, a / det
        # rows of full rank make it positive definite; an exactly
        # singular one raises LinAlgError
        self.schur_inv = np.linalg.inv((J * (a * b / det)) @ J.T)
        self.norm_a = math.sqrt(float(np.sum(J * J)) + 2 * self.n + t @ t)

    def apply(self, p):
        """``A p``."""
        n = self.n
        x = p[:n]
        return np.concatenate([self.J @ x, x + self.t_u * p[n:2 * n],
                               -x + self.t_l * p[2 * n:]])

    def apply_t(self, q):
        """``A^T q``."""
        m, n = self.m, self.n
        u, low = q[m:m + n], q[m + n:]
        return np.concatenate([self.J.T @ q[:m] + u - low, self.t_u * u,
                               self.t_l * low])

    def solve(self, q):
        """``(A A^T)^-1 q``."""
        m, n = self.m, self.n
        u, low = q[m:m + n], q[m + n:]
        r_u = self.d_uu * u + self.d_ul * low
        r_l = self.d_ul * u + self.d_ll * low
        eq = self.schur_inv @ (q[:m] - self.J @ (r_u - r_l))
        e = self.J.T @ eq
        return np.concatenate([eq, r_u - self.back_u * e,
                               r_l + self.back_l * e])

    def least_squares(self, p):
        """``(A A^T)^-1 A p``, the multipliers that best fit ``p``."""
        return self.solve(self.apply(p))

    def row_space(self, b):
        """``A^T (A A^T)^-1 b``, the least-norm solution of ``A d = b``."""
        return self.apply_t(self.solve(b))

    def null_space(self, p):
        """``p`` projected onto the null space of ``A``, refined on the
        augmented system while ``|A z|`` is above ``ORTH_TOL`` relative."""
        aux = self.solve(self.apply(p))
        z = p - self.apply_t(aux)
        for _ in range(MAX_REFINE):
            az = self.apply(z)
            if _norm(az) <= ORTH_TOL * self.norm_a * _norm(z):
                break
            r = p - z - self.apply_t(aux)
            step = self.solve(self.apply(r) + az)
            z = z + (r - self.apply_t(step))
            aux = aux + step
        return z


class _CurvatureModel:
    """trust-constr's BFGS model of the constraint curvature
    ``sum_i v_i hess(c_i)``, with trust-constr's update timing: a move to
    a new point updates it with the current multipliers, and a change of
    multipliers at the same point updates it again over the last move.
    An update with no change of gradient is skipped."""

    def __init__(self, point):
        self.x, self.J = point.x, point.J
        self.v = np.zeros(point.c.size)
        self.prev = None
        self.B = np.eye(point.x.size)
        self.first = True

    def move(self, point):
        if np.array_equal(point.x, self.x):
            return
        self.prev = (self.x, self.J)
        self.x, self.J = point.x, point.J
        self._update()

    def multipliers(self, v):
        if np.array_equal(v, self.v):
            return
        self.v = v
        if self.prev is not None:
            self._update()

    def _update(self):
        x0, J0 = self.prev
        s = self.x - x0
        y = self.J.T @ self.v - J0.T @ self.v
        if not s.any() or not y.any():
            return
        if self.first:
            self.B *= self._auto_scale(s, y)
            self.first = False
        ys = s @ y
        Bs = self.B @ s
        sBs = Bs @ s
        if sBs <= 0.0:
            self.B = self._auto_scale(s, y) * np.eye(s.size)
            Bs = self.B @ s
            sBs = Bs @ s
        if ys <= BFGS_MIN_CURVATURE * sBs:
            return
        # two symmetric rank-one updates, as BLAS syr forms them
        self.B += np.outer(y, (1.0 / ys) * y)
        self.B += np.outer(Bs, (-1.0 / sBs) * Bs)

    @staticmethod
    def _auto_scale(s, y):
        ss, yy, ys = s @ s, y @ y, abs(y @ s)
        if ys == 0.0 or yy == 0.0 or ss == 0.0:
            return 1.0
        return yy / ys


def _ratios(num, d):
    """``num / d`` elementwise, and where the quotient overflows the
    infinity of its sign, so a step component too small to divide by
    leaves its interval unbounded without a warning."""
    overflow = np.abs(d) < np.abs(num) / np.finfo(float).max
    out = np.where(np.signbit(num) == np.signbit(d), np.inf, -np.inf)
    return np.divide(num, d, out=out, where=~overflow)


def _inside(x, lb, ub):
    return bool((lb <= x).all() and (x <= ub).all())


def _sphere_intersections(z, d, radius, entire_line=False):
    """``(ta, tb, intersect)``: ``z + t d`` lies in the ball of ``radius``
    for ``ta <= t <= tb`` (on the segment ``0 <= t <= 1`` unless
    ``entire_line``)."""
    if _norm(d) == 0:
        return 0, 0, False
    a = d @ d
    b = 2 * (z @ d)
    c = z @ z - radius ** 2
    disc = b * b - 4 * a * c
    if disc < 0:
        return 0, 0, False
    # the root formulas with the smaller rounding error
    aux = b + math.copysign(math.sqrt(disc), b)
    ta, tb = sorted([-aux / (2 * a), -2 * c / aux])
    if entire_line:
        return ta, tb, True
    if tb < 0 or ta > 1:
        return 0, 0, False
    return max(0, ta), min(1, tb), True


def _box_intersections(z, d, lb, ub, entire_line=False):
    """``(ta, tb, intersect)``: ``z + t d`` lies in the box for
    ``ta <= t <= tb`` (on the segment unless ``entire_line``)."""
    if _norm(d) == 0:
        return 0, 0, False
    zero = d == 0
    if (z[zero] < lb[zero]).any() or (z[zero] > ub[zero]).any():
        return 0, 0, False
    moving = ~zero
    z, d = z[moving], d[moving]
    t_lb = _ratios(lb[moving] - z, d)
    t_ub = _ratios(ub[moving] - z, d)
    ta = np.minimum(t_lb, t_ub).max()
    tb = np.maximum(t_lb, t_ub).min()
    intersect = bool(ta <= tb)
    if not entire_line:
        if tb < 0 or ta > 1:
            return 0, 0, False
        ta, tb = max(0, ta), min(1, tb)
    return ta, tb, intersect


def _box_sphere_intersections(z, d, lb, ub, radius, entire_line=False):
    """The intersection of the box and ball intervals of ``z + t d``."""
    ta_b, tb_b, in_box = _box_intersections(z, d, lb, ub, entire_line)
    ta_s, tb_s, in_ball = _sphere_intersections(z, d, radius, entire_line)
    ta, tb = max(ta_b, ta_s), min(tb_b, tb_s)
    return ta, tb, bool(in_box and in_ball and ta <= tb)


def _modified_dogleg(proj, b, radius, lb, ub):
    """Approximately minimise ``|A d + b|`` within the ball and the box:
    the best of the dogleg path's points (Byrd, Hribar and Nocedal,
    pp. 885-886)."""
    newton = -proj.row_space(b)
    if _inside(newton, lb, ub) and _norm(newton) <= radius:
        return newton
    g = proj.apply_t(b)
    ag = proj.apply(g)
    cauchy = -(g @ g) / (ag @ ag) * g
    origin = np.zeros_like(cauchy)
    _, alpha, intersect = _box_sphere_intersections(
        cauchy, newton - cauchy, lb, ub, radius)
    if intersect:
        x1 = cauchy + alpha * (newton - cauchy)
    else:
        _, alpha, _ = _box_sphere_intersections(origin, cauchy, lb, ub,
                                                radius)
        x1 = alpha * cauchy
    _, alpha, _ = _box_sphere_intersections(origin, newton, lb, ub, radius)
    x2 = alpha * newton
    if _norm(proj.apply(x1) + b) < _norm(proj.apply(x2) + b):
        return x1
    return x2


def _projected_cg(hess_dot, c, proj, radius, lb, ub):
    """Approximately minimise ``d^T H d / 2 + c^T d`` subject to
    ``A d = 0``, the ball and the box, by projected CG (Gould, Hribar and
    Nocedal, Algorithm 6.2); returns the step and the CG iterations."""
    # the least-norm solution of A d = 0 starts the iteration
    x = np.zeros_like(c)
    if radius < CLOSE_TO_ZERO:
        return x, 0
    r = proj.null_space(c)
    g = proj.null_space(r)
    p = -g
    hp = hess_dot(p)
    rt_g = _norm(g) ** 2
    tol = max(min(0.01 * math.sqrt(rt_g), 0.1 * rt_g), CLOSE_TO_ZERO)
    free = proj.n - proj.m
    infeasible = 0
    last_feasible = np.zeros_like(x)
    k = 0
    for _ in range(free):
        if rt_g < tol:
            break
        k += 1
        curvature = hp @ p
        if curvature <= 0:
            # negative curvature: go to the boundary along p
            _, alpha, intersect = _box_sphere_intersections(
                x, p, lb, ub, radius, entire_line=True)
            if intersect:
                x = x + alpha * p
            x = np.minimum(np.maximum(x, lb), ub)
            break
        alpha = rt_g / curvature
        x_next = x + alpha * p
        if _norm(x_next) >= radius:
            _, theta, intersect = _box_sphere_intersections(
                x, alpha * p, lb, ub, radius)
            if intersect:
                x = x + theta * alpha * p
            x = np.minimum(np.maximum(x, lb), ub)
            break
        infeasible = 0 if _inside(x_next, lb, ub) else infeasible + 1
        if infeasible:
            _, theta, intersect = _box_sphere_intersections(
                x, alpha * p, lb, ub, radius)
            if intersect:
                last_feasible = np.minimum(
                    np.maximum(x + theta * alpha * p, lb), ub)
                infeasible = 0
        if infeasible > free:
            break
        g_next = proj.null_space(r + alpha * hp)
        rt_g_next = _norm(g_next) ** 2
        p = -g_next + (rt_g_next / rt_g) * p
        x, r, rt_g = x_next, g_next, rt_g_next
        hp = hess_dot(p)
    if not _inside(x, lb, ub):
        x = last_feasible
    return x, k


def solve_nlp(problem, y0, options: SolverOptions):
    """Minimize the problem's cost subject to its equality rows and bounds.

    ``problem`` is an ``ergoopt.ErgoProblem``: it provides ``lb``, ``ub``
    (finite), ``n_cons``, ``families``, ``value_and_derivatives`` and the
    Gauss-Newton ``hessian`` (its ``value`` is never called).  It has
    at least one row, and its rows must be independent: rows whose
    Jacobian loses rank at an accepted point raise numpy's
    ``LinAlgError``.
    Internally the variables are rescaled by a quarter of their bound
    range, so radians, meters and densities present comparable steps to
    the curvature model.  KKT stationarity is measured in the scaled
    coordinates, relative to the cost gradient magnitude.
    """
    lb, ub = problem.lb, problem.ub
    if not (np.isfinite(lb).all() and np.isfinite(ub).all()):
        raise ValueError("solve_nlp needs finite bounds")
    if not problem.n_cons:
        raise ValueError("solve_nlp needs at least one row")
    s = _variable_scales(lb, ub)
    lb_z, ub_z = lb / s, ub / s
    # trust-constr widens each bound by one unit in the last place
    lo, hi = np.nextafter(lb_z, -np.inf), np.nextafter(ub_z, np.inf)
    n, m = lb.size, problem.n_cons

    def evaluate(x):
        y = x * s
        f, g, c, J = problem.value_and_derivatives(y)
        return _Point(x, y, f, g * s, c, J * s, problem.hessian(y))

    def kkt(point):
        return kkt_residual(point.g, point.J, point.y / s, lb_z, ub_z)

    def violation(point):
        return float(np.abs(point.c).max())

    def barrier_value(point, t):
        # a slack at or below zero makes the barrier infinite
        log_t = np.log(t, out=np.full_like(t, -np.inf), where=t > 0)
        return point.f - mu * np.sum(log_t)

    def barrier_rows(point, t):
        return np.concatenate([point.c, point.x - hi + t[:n],
                               lo - point.x + t[n:]])

    x0 = np.clip(np.asarray(y0, dtype=float), lb, ub) / s
    cur = evaluate(x0)
    curvature = _CurvatureModel(cur)
    t = np.maximum(-1.5 * np.concatenate([x0 - hi, lo - x0]), 1.0)
    mu = tolerance = BARRIER_INIT
    radius = 1.0
    # a slack step may not take more than BOUNDARY_PARAMETER of the slack
    trust_lb = np.concatenate([np.full(n, -np.inf),
                               np.full(2 * n, -BOUNDARY_PARAMETER)])
    trust_ub = np.full(3 * n, np.inf)
    trajectory = []
    message = None
    while True:
        # one barrier subproblem, by Byrd-Omojokun trust-region SQP
        curvature.move(cur)
        penalty = 1.0
        fb, b = barrier_value(cur, t), barrier_rows(cur, t)
        accepted, cg_iterations = True, 0
        while True:
            if accepted:
                grad = np.concatenate([cur.g, np.full(2 * n, -mu)])
                proj = _Projections(cur.J, t)
                v = -proj.least_squares(grad)
                hess = (cur.gauss_newton * s) * s[:, None]
                slack_hess = np.where(v[m:] > 0, v[m:] * t, mu)
                curvature.multipliers(v[:m])
                optimality = float(np.abs(grad + proj.apply_t(v)).max())
                b_viol = float(np.abs(b).max())
            trajectory.append(Iterate(float(cur.f), violation(cur),
                                      optimality, radius, mu, cg_iterations))
            nit = len(trajectory)
            if (nit >= 10 and nit % 5 == 0
                    and violation(cur) <= 0.5 * TOL_FEAS
                    and kkt(cur) <= 0.5 * TOL_KKT):
                message = KKT_MESSAGE
            elif radius < XTOL and mu < XTOL:
                outside = max(float((lo - cur.x).max()),
                              float((cur.x - hi).max()))
                message = (XTOL_INFEASIBLE_MESSAGE
                           if max(violation(cur), outside) > 0
                           else XTOL_MESSAGE)
            elif nit >= options.max_iter:
                message = MAX_ITER_MESSAGE
            if message or (optimality < tolerance and b_viol < tolerance) \
                    or radius < XTOL:
                break

            # the live BFGS model: a rejected trial point has updated it
            hx = hess + curvature.B

            def hess_dot(p):
                return np.concatenate([hx @ p[:n], slack_hess * p[n:]])

            # normal step toward the linearised rows, then tangential
            # step in their null space
            dn = _modified_dogleg(proj, b, TR_FACTOR * radius,
                                  BOX_FACTOR * trust_lb, BOX_FACTOR * trust_ub)
            dt, cg_iterations = _projected_cg(
                hess_dot, hess_dot(dn) + grad, proj,
                math.sqrt(radius ** 2 - _norm(dn) ** 2),
                trust_lb - dn, trust_ub - dn)
            d = dn + dt
            model = 0.5 * (hess_dot(d) @ d) + grad @ d
            vpred = max(1e-16, _norm(b) - _norm(proj.apply(d) + b))
            previous_penalty = penalty
            if model > 0:
                penalty = max(penalty, model / ((1 - PENALTY_FACTOR) * vpred))
            predicted = -model + penalty * vpred
            merit = fb + penalty * _norm(b)

            def trial(step):
                """Pass, slacks, barrier value, rows and reduction ratio
                of the point ``step`` away (the slacks move by t * step)."""
                point = evaluate(cur.x + step[:n])
                curvature.move(point)
                t_next = t + t * step[n:]
                fb_next = barrier_value(point, t_next)
                b_next = barrier_rows(point, t_next)
                ratio = (merit - (fb_next + penalty * _norm(b_next))) \
                    / predicted
                return point, t_next, fb_next, b_next, ratio

            nxt = trial(d)
            ratio = nxt[4]
            if (ratio < SUFFICIENT_REDUCTION_RATIO
                    and _norm(dn) <= SOC_THRESHOLD * _norm(dt)):
                # second-order correction back toward the rows
                y = -proj.row_space(nxt[3])
                _, tau, intersect = _box_intersections(d, y, trust_lb,
                                                       trust_ub)
                soc = trial(d + tau * y)
                if intersect and soc[4] >= SUFFICIENT_REDUCTION_RATIO:
                    nxt = soc
                    ratio = soc[4]

            if ratio >= LARGE_REDUCTION_RATIO:
                radius = max(TRUST_ENLARGEMENT_FACTOR_L * _norm(d), radius)
            elif ratio >= INTERMEDIARY_REDUCTION_RATIO:
                radius = max(TRUST_ENLARGEMENT_FACTOR_S * _norm(d), radius)
            elif ratio < SUFFICIENT_REDUCTION_RATIO:
                shrunk = ((1 - SUFFICIENT_REDUCTION_RATIO) / (1 - ratio)
                          * _norm(d))
                if shrunk >= MAX_TRUST_REDUCTION * radius:
                    radius *= MAX_TRUST_REDUCTION
                elif shrunk >= MIN_TRUST_REDUCTION * radius:
                    radius = shrunk
                else:
                    radius *= MIN_TRUST_REDUCTION

            accepted = ratio >= SUFFICIENT_REDUCTION_RATIO
            if accepted:
                cur, t, fb, b = nxt[:4]
                curvature.move(cur)
            else:
                penalty = previous_penalty
        if message:
            break
        radius = max(1.0, TRUST_ENLARGEMENT * radius)
        mu *= BARRIER_DECAY_RATIO
        tolerance *= BARRIER_DECAY_RATIO

    y = np.clip(cur.y, lb, ub)
    if np.array_equal(y, cur.y):
        final = cur
    else:
        f, g, c, J = problem.value_and_derivatives(y)
        final = _Point(y / s, y, f, g * s, c, J * s, None)
    viol = violation(final)
    kkt_final = kkt(final)
    _, worst_family = _worst_family(problem, final.c)

    if viol <= TOL_FEAS and kkt_final <= TOL_KKT:
        status = "converged"
    elif not viol <= TOL_FEAS:  # NaN is infeasible
        status = "infeasible"
    else:
        status = "max-iter"
    return SolverReport(
        y=y, cost=final.f, status=status, iterations=len(trajectory),
        kkt_residual=kkt_final, constraint_violation=viol,
        worst_family=worst_family if status == "infeasible" else None,
        message=message, trajectory=tuple(trajectory))
