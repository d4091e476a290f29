"""Ergonomic co-design NLP: postures per target height plus shared hardware.

Decision vector layout, per target height: for every subsystem (human,
robot, payload) a block ``[base position (3), base roll-pitch-yaw (3),
joint positions]``; after all heights, the shared hardware block
``[length multipliers..., densities...]`` over the robot's optimization
groups, which ``ErgoProblem.group_values`` decodes.  The cost sums the
torque and center-of-pressure tasks over heights and adds the
density-preference and center-of-mass-height tasks once; it is
normalized by the sum of task weights, so uniformly scaling all weights
leaves the iterate path bit-for-bit identical.

Constraints per height, 3 + 3 * grasps + 3 * contacts rows (27 for the
lifting scenario): ``[payload tilt (2), payload height (1), hand
positions (3 per grasp), foot heights (1 per contact), foot tilts (2 per
contact)]``.  An upright frame is encoded by the two tilt components
``z_x = z_y = 0`` of its z axis rather than by the single row
``z_z - 1 = 0``.  The feasible set is the same on the upright branch the
solver operates in, but the tilt rows keep full-rank gradients at
feasibility where ``z_z - 1`` is quadratically degenerate, and
``|z_z - 1| <= z_x^2 + z_y^2``, so meeting them to a tolerance meets the
single-row encoding too.

Derivatives are forward-mode dual numbers seeded per height block (plus
the shared hardware block), which keeps the tangent batches small and
the constraint Jacobian assembly block-sparse: each height's rows fill
only that height's columns and the shared hardware columns.
``nlpsolver`` hands the Jacobian to the backend as a sparse matrix, so
its projections factor a sparse system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import fad
from .coupled import (CoupledConfiguration, CoupledSystem,
                      SingularConstraintError, UnloadedFootError, cop_smooth,
                      evaluate_statics, statics_minnorm)
from .multibody import (Configuration, Model, com_height_null_config,
                        group_params, kinematics)
from .nlpsolver import SolverOptions, SolverReport, solve_nlp
from .scenario import Scenario, build_system, rpy_from_matrix, \
    warm_start_configuration


class DegenerateModelError(ValueError):
    """The model collapsed (nonpositive CoM height at null posture)."""


# ---------------------------------------------------------------------------
# tasks


def task_density(densities, preferred):
    """Sum over links of the product of distances to preferred densities.

    Zero exactly when every optimized link matches one of the preferred
    materials.
    """
    total = 0.0
    for rho in densities:
        term = 1.0
        for rho_star in preferred:
            term = term * fad.absolute(rho_star - rho)
        total = total + term
    return total


def task_com_height(robot: Model, params=None):
    """Inverse squared CoM height of the robot at the null posture."""
    z = com_height_null_config(robot, params)
    if not isinstance(z, fad.Dual) and float(z) <= 0:
        raise DegenerateModelError(
            f"null-posture CoM height {float(z):.4f} m is not positive")
    return 1.0 / (z * z)


# ---------------------------------------------------------------------------
# decision layout


@dataclass(frozen=True, eq=False)
class DecisionLayout:
    """Index bookkeeping for the stacked decision vector."""

    sub_dims: tuple          # per-subsystem block width (12 + n_joints)
    n_heights: int
    n_groups: int
    frozen_hardware: bool

    @property
    def height_dim(self):
        return sum(self.sub_dims)

    @property
    def pi_dim(self):
        return 0 if self.frozen_hardware else 2 * self.n_groups

    @property
    def dim(self):
        return self.n_heights * self.height_dim + self.pi_dim

    def height_slice(self, k):
        w = self.height_dim
        return slice(k * w, (k + 1) * w)

    def sub_slice(self, k, i):
        off = k * self.height_dim + int(np.sum(self.sub_dims[:i]))
        return slice(off, off + self.sub_dims[i])

    def pi_slice(self):
        off = self.n_heights * self.height_dim
        return slice(off, off + self.pi_dim)

    def active_indices(self, k):
        """Decision coordinates the height-k terms depend on."""
        idx = list(range(self.height_slice(k).start, self.height_slice(k).stop))
        sl = self.pi_slice()
        idx.extend(range(sl.start, sl.stop))
        return np.array(idx, dtype=int)


def _sub_configuration(y_block, n_joints):
    pos = y_block[:3]
    rot = fad.rpy_matrix(y_block[3], y_block[4], y_block[5])
    return Configuration(pos, rot, y_block[6: 6 + n_joints])


def _trees(models, q: CoupledConfiguration):
    return [kinematics(m, qi) for m, qi in zip(models, q.qs)]


def _pack_configuration(q: Configuration):
    return np.concatenate([
        np.asarray(fad.value(q.base_pos)),
        rpy_from_matrix(fad.value(q.base_rot)),
        np.asarray(fad.value(q.s))])


# ---------------------------------------------------------------------------
# assembled problem


@dataclass(eq=False)
class ErgoProblem:
    """Cost, constraints, bounds and derivative plumbing for the NLP."""

    scenario: Scenario
    system: CoupledSystem
    heights: tuple
    layout: DecisionLayout
    lb: np.ndarray
    ub: np.ndarray
    families: tuple
    nominal_groups: dict
    n_cons: int
    # (iterate bytes, Gauss-Newton Hessian) of the last derivative pass
    _hess_cache: Optional[tuple] = field(default=None, init=False, repr=False)

    # -- decision vector <-> configurations -----------------------------

    def configurations(self, y, k) -> CoupledConfiguration:
        models = self.system.subsystem_models()
        qs = tuple(
            _sub_configuration(y[self.layout.sub_slice(k, i)], m.n_joints)
            for i, m in enumerate(models))
        return CoupledConfiguration(qs)

    def group_values(self, y):
        """{group: (density, multiplier)} from the shared block of y.

        The nominal values when the hardware is frozen.
        """
        if self.layout.frozen_hardware:
            return self.nominal_groups
        block = y[self.layout.pi_slice()]
        g = self.layout.n_groups
        return {name: (block[g + i], block[i])
                for i, name in enumerate(self.nominal_groups)}

    def hardware_params(self, y):
        """Per-link hardware from the shared block of y (None if frozen)."""
        if self.layout.frozen_hardware:
            return None
        return group_params(self.system.parametrized_model,
                            self.group_values(y))

    # -- pieces ----------------------------------------------------------

    def _shared_terms(self, y, models):
        w = self.scenario.weights
        densities = [rho for rho, _ in self.group_values(y).values()]
        t2 = task_density(densities, self.scenario.preferred_densities)
        t4 = task_com_height(models[self.system.parametrized_index])
        return w.density * t2 + w.com_height * t4

    def _height_tasks(self, q, trees):
        """Torque and CoP tasks of one height from the saddle statics.

        Returns the torques, the foot CoPs, the squared torque norm and
        the summed squared CoP deviations from the target.
        """
        tau, f = statics_minnorm(self.system, q, trees=trees)
        target = np.asarray(self.scenario.cop_target, dtype=float)
        t3 = 0.0
        cops = []
        for c, (agent, frame) in enumerate(self.system.env_contacts):
            R, _ = trees[agent].frame_pose(frame)
            cop = cop_smooth(f[6 * c: 6 * c + 6], R)
            t3 = t3 + fad.sumsq(cop - target)
            cops.append(cop)
        return tau, cops, fad.sumsq(tau), t3

    def _residual_rows(self, q, k, trees):
        """Equality rows of one height, upright frames as tilt rows."""
        payload_idx = len(self.system.agents)
        ptree = trees[payload_idx]
        q3 = q.qs[payload_idx]
        rows = [q3.base_rot[0, 2], q3.base_rot[1, 2]]
        rows.append(q3.base_pos[2] - float(self.heights[k]))
        for g in self.system.grasps:
            _, p_hand = trees[g.agent].frame_pose(g.agent_frame)
            _, p_g = ptree.frame_pose(g.payload_frame)
            d = p_hand - p_g
            rows.extend([d[0], d[1], d[2]])
        foot_rows = []
        orient_rows = []
        for agent, frame in self.system.env_contacts:
            R, p = trees[agent].frame_pose(frame)
            foot_rows.append(p[2])
            orient_rows.extend([R[0, 2], R[1, 2]])
        rows.extend(foot_rows)
        rows.extend(orient_rows)
        return fad.stack(rows)

    # -- NLP interface ----------------------------------------------------

    def value(self, y):
        y = np.asarray(y, dtype=float)
        models = self.system.subsystem_models(self.hardware_params(y))
        cost = self._shared_terms(y, models)
        cons = []
        for k in range(len(self.heights)):
            ck, rk, _, _ = self._height_pieces(y, k, models)
            cost = cost + ck
            cons.append(rk)
        cost = cost / self.scenario.weights.total()
        return float(fad.value(cost)), np.concatenate(
            [np.asarray(fad.value(c)) for c in cons])

    def _height_pieces(self, y, k, models):
        """Height terms plus the residual Jacobians feeding Gauss-Newton.

        ``models`` are the subsystem models with the robot already
        scaled, shared by every height of one evaluation.
        """
        q = self.configurations(y, k)
        w = self.scenario.weights
        trees = _trees(models, q)
        tau, cops, t1, t3 = self._height_tasks(q, trees)
        cons = self._residual_rows(q, k, trees)
        cost_k = w.torque * t1 + w.cop * t3
        tau_dot = tau.dot if isinstance(tau, fad.Dual) else None
        cop_dots = [c.dot for c in cops if isinstance(c, fad.Dual)]
        return cost_k, cons, tau_dot, cop_dots

    def value_and_derivatives(self, y):
        y = np.asarray(y, dtype=float)
        n = y.size
        grad = np.zeros(n)
        rows_per_height = self.n_cons // len(self.heights)
        jac = np.zeros((self.n_cons, n))
        cons = np.zeros(self.n_cons)
        cost = 0.0
        w = self.scenario.weights
        total = w.total()
        gauss_newton = np.zeros((n, n))

        # every height seeds its posture block, then the shared hardware
        # block (``active_indices``); so one hardware Dual with those
        # last directions, and one robot scaled by it, serve the shared
        # (hardware-only) terms and every height
        sl_pi = self.layout.pi_slice()
        hw0 = self.layout.height_dim
        dirs = np.zeros((hw0 + self.layout.pi_dim, n))
        dirs[np.arange(hw0, dirs.shape[0]),
             np.arange(sl_pi.start, sl_pi.stop)] = 1.0
        yd = fad.Dual(y, dirs)
        models = self.system.subsystem_models(self.hardware_params(yd))
        out = self._shared_terms(yd, models)
        cost += float(fad.value(out))
        if isinstance(out, fad.Dual):
            grad[sl_pi.start:sl_pi.stop] += out.dot[hw0:]

        for k in range(len(self.heights)):
            idx = self.layout.active_indices(k)
            dirs = np.zeros((idx.size, n))
            dirs[np.arange(idx.size), idx] = 1.0
            yd = fad.Dual(y, dirs)
            ck, rk, tau_dot, cop_dots = self._height_pieces(yd, k, models)
            cost += float(fad.value(ck))
            if isinstance(ck, fad.Dual):
                grad[idx] += ck.dot
            sl = slice(k * rows_per_height, (k + 1) * rows_per_height)
            cons[sl] = fad.value(rk)
            if isinstance(rk, fad.Dual):
                jac[sl.start:sl.stop, idx] = rk.dot.T
            # Gauss-Newton curvature of the sum-of-squares tasks
            block = np.zeros((idx.size, idx.size))
            if tau_dot is not None:
                block += 2.0 * w.torque * (tau_dot @ tau_dot.T)
            for cd in cop_dots:
                block += 2.0 * w.cop * (cd @ cd.T)
            gauss_newton[np.ix_(idx, idx)] += block
        self._hess_cache = (y.tobytes(), gauss_newton / total)
        return cost / total, grad / total, cons, jac

    def hessian(self, y):
        """Gauss-Newton model of the cost curvature at y."""
        y = np.asarray(y, dtype=float)
        cached = self._hess_cache
        if cached is None or cached[0] != y.tobytes():
            self.value_and_derivatives(y)
            cached = self._hess_cache
        return cached[1]


FAMILY_NAMES = ("load_orientation", "load_height", "hand_position",
                "foot_height", "foot_orientation")


def _families(heights, n_grasps, n_env):
    # 2 tilt rows per upright frame, see the module docstring
    per = 3 + 3 * n_grasps + 3 * n_env
    out = []
    for k, h in enumerate(heights):
        base = k * per
        spans = {
            "load_orientation": (0, 2),
            "load_height": (2, 3),
            "hand_position": (3, 3 + 3 * n_grasps),
            "foot_height": (3 + 3 * n_grasps, 3 + 3 * n_grasps + n_env),
            "foot_orientation": (3 + 3 * n_grasps + n_env, per),
        }
        for name in FAMILY_NAMES:
            lo, hi = spans[name]
            out.append((f"{name}@{h:g}m", slice(base + lo, base + hi)))
    return tuple(out)


def assemble_nlp(scenario: Scenario, system: Optional[CoupledSystem] = None,
                 heights=None, freeze_hardware: bool = False) -> ErgoProblem:
    """Build the multi-height co-design NLP over the given scenario."""
    system = system if system is not None else build_system(scenario)
    heights = tuple(heights if heights is not None else scenario.heights)
    models = system.subsystem_models()
    robot = system.parametrized_model
    nominal = robot.group_hardware()
    if not freeze_hardware and not nominal:
        raise ValueError("robot model declares no optimization groups; "
                         "use freeze_hardware=True")
    layout = DecisionLayout(
        sub_dims=tuple(6 + m.n_joints for m in models),
        n_heights=len(heights),
        n_groups=len(nominal),
        frozen_hardware=freeze_hardware)

    lb = np.full(layout.dim, -np.inf)
    ub = np.full(layout.dim, np.inf)
    top = max(heights) + 2.0
    for k in range(len(heights)):
        for i, m in enumerate(models):
            sl = layout.sub_slice(k, i)
            lo = np.empty(layout.sub_dims[i])
            hi = np.empty(layout.sub_dims[i])
            lo[:3], hi[:3] = (-3.0, -3.0, 0.02), (3.0, 3.0, top)
            lo[3:6] = (-np.pi / 3, -np.pi / 3, -np.pi)
            hi[3:6] = (np.pi / 3, np.pi / 3, np.pi)
            if m.n_joints:
                jlo, jhi = m.joint_limits()
                lo[6:], hi[6:] = jlo, jhi
            lb[sl], ub[sl] = lo, hi
    if layout.pi_dim:
        sl = layout.pi_slice()
        g = layout.n_groups
        lm_b = robot.bounds.length_multiplier
        rho_b = robot.bounds.density
        lb[sl.start: sl.start + g] = lm_b[0]
        ub[sl.start: sl.start + g] = lm_b[1]
        lb[sl.start + g: sl.stop] = rho_b[0]
        ub[sl.start + g: sl.stop] = rho_b[1]

    n_cons = len(heights) * (3 + 3 * len(system.grasps)
                             + 3 * len(system.env_contacts))
    return ErgoProblem(
        scenario=scenario, system=system, heights=heights, layout=layout,
        lb=lb, ub=ub,
        families=_families(heights, len(system.grasps),
                           len(system.env_contacts)),
        nominal_groups=nominal, n_cons=n_cons)


def warm_start_vector(problem: ErgoProblem, jitter: float = 0.01) -> np.ndarray:
    """Deterministic initial decision vector (seeded joint jitter)."""
    rng = np.random.default_rng(problem.scenario.seed)
    parts = []
    for k, h in enumerate(problem.heights):
        q = warm_start_configuration(problem.scenario, problem.system, h)
        for i, qi in enumerate(q.qs):
            block = _pack_configuration(qi)
            if jitter and block.size > 6:
                block[6:] += rng.normal(size=block.size - 6) * jitter
            parts.append(block)
    if problem.layout.pi_dim:
        g = problem.layout.n_groups
        lm = [problem.nominal_groups[name][1] for name in problem.nominal_groups]
        rho = [problem.nominal_groups[name][0] for name in problem.nominal_groups]
        parts.append(np.asarray(lm, dtype=float))
        parts.append(np.asarray(rho, dtype=float))
    y0 = np.concatenate(parts)
    return np.clip(y0, problem.lb + 1e-9, problem.ub - 1e-9)


@dataclass(eq=False)
class Solution:
    """NLP outcome plus the per-height static analysis at the optimum."""

    y: np.ndarray
    status: str
    iterations: int
    cost: float
    kkt_residual: float
    constraint_violation: float
    worst_family: Optional[str]
    heights: tuple
    statics: list
    task_values: list
    hardware: Optional[dict]


def solve(problem: ErgoProblem, warm_start=None,
          options: SolverOptions = None) -> Solution:
    """Run the co-design NLP and evaluate the solution statics."""
    if options is None:
        options = problem.scenario.solver
    y0 = warm_start if warm_start is not None else warm_start_vector(problem)
    report: SolverReport = solve_nlp(problem, y0, options)
    params = problem.hardware_params(report.x)
    models = problem.system.subsystem_models(params)
    statics = []
    tasks = []
    for k in range(len(problem.heights)):
        q = problem.configurations(report.x, k)
        trees = _trees(models, q)
        try:
            res = evaluate_statics(problem.system, q, params, trees=trees)
        except (SingularConstraintError, UnloadedFootError):
            res = None
        statics.append(res)
        _, _, t1, t3 = problem._height_tasks(q, trees)
        tasks.append({"torque": float(t1), "cop": float(t3)})
    hardware = None
    if not problem.layout.frozen_hardware:
        values = problem.group_values(report.x)
        hardware = {name: {"length_multiplier": float(lm),
                           "density": float(rho)}
                    for name, (rho, lm) in values.items()}
    return Solution(
        y=report.x, status=report.status, iterations=report.iterations,
        cost=report.cost, kkt_residual=report.kkt_residual,
        constraint_violation=report.constraint_violation,
        worst_family=report.worst_family, heights=problem.heights,
        statics=statics, task_values=tasks, hardware=hardware)
