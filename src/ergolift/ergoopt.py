"""Ergonomic co-design NLP: postures per target height plus shared hardware.

Decision vector layout, per target height: for every subsystem (human,
robot, payload) a block ``[base position (3), base roll-pitch-yaw (3),
joint positions]``; after all heights, the shared hardware block
``[length multipliers..., densities...]`` over the robot's optimization
groups, which ``_decision_vector`` writes and ``group_values`` reads.
A height's posture block is the system's velocity layout
(``CoupledSystem.velocity_layout``): the same widths in the same order,
its joint columns ``CoupledSystem.actuated``.
The cost sums the torque and center-of-pressure tasks over heights and
adds the density-preference and center-of-mass-height tasks once; it is
normalized by the sum of task weights: scaling all weights by a power of
two leaves values, derivatives and iterates bit-for-bit identical, any
other factor changes them only by rounding.  The center-of-pressure
task measures each sole's CoP from its sole-frame origin, and the
density task prefers ``scenario.PREFERRED_DENSITIES``.

Constraints per height (``_row_families``), 3 + 3 * grasps + 3 *
contacts rows (27 for the lifting scenario): ``[payload tilt (2),
payload height (1), hand positions (3 per grasp), foot heights (1 per
contact), foot tilts (2 per contact)]``.  An upright frame is encoded by
the two tilt components ``z_x = z_y = 0`` of its z axis rather than by
the single row ``z_z - 1 = 0``.  The feasible set is the same on the
upright branch the solver operates in, but the tilt rows keep full-rank
gradients at feasibility where ``z_z - 1`` is quadratically degenerate,
and ``|z_z - 1| <= z_x^2 + z_y^2``, so meeting them to a tolerance meets
the single-row encoding too.

Every evaluation makes one pass over all heights: the posture blocks
are stacked ``(H, height_dim)``, so configurations, trees, statics and
constraint rows carry a leading height axis (``multibody``'s batch
axes) and each layer is called once, not once per height.  Derivatives
are forward-mode dual numbers with one set of directions per height
row: direction j of height k is decision ``active_indices(k)[j]``, that
height's posture block and then the shared hardware block
(``height_dim + pi_dim``, 78 on the paper's problem).  Each subsystem is
seeded with only the directions it depends on: the human with its
posture columns (31), the robot with its posture columns and then the
hardware ones (31 + 10, or 31 when the hardware is frozen), the payload
with its pose (6).  So its kinematics, frame points and rotations and
the statics contractions over its tree carry its own width, not all 78.
``_directions`` gives each subsystem's rows among the shared directions;
its tangents are widened to all of them (``fad.widen``) only where the
subsystems meet: the stacked frame points, contact rotations and
gravity and the statics right-hand side (``coupled``'s ``dirs``), and
the payload's load rows.
From there the tangent is ``(height_dim + pi_dim, H, ...)`` and the
constraint Jacobian stays block-sparse: each height's rows fill only
that height's columns and the shared hardware columns.  Gradient,
Jacobian rows and Gauss-Newton blocks are scattered height by height.
``nlpsolver`` hands the Jacobian to the backend as a sparse matrix, so
its projections factor a sparse system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import fad
from .coupled import (CoupledConfiguration, CoupledSystem,
                      SingularConstraintError, UnloadedFootError,
                      contact_rotations, cop_smooth, coupled_points,
                      evaluate_statics, statics_minnorm)
from .multibody import (Configuration, Model, com_height_null_config,
                        group_params, kinematics)
from .nlpsolver import SolverOptions, SolverReport, solve_nlp
from .scenario import PREFERRED_DENSITIES, Scenario, rpy_from_matrix, \
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


def task_com_height(robot: Model):
    """Inverse squared CoM height of the robot at the null posture; a
    height that is not positive, plain or ``Dual``, raises."""
    z = com_height_null_config(robot)
    if fad.value(z) <= 0:
        raise DegenerateModelError(
            f"null-posture CoM height {fad.value(z):.4f} m is not positive")
    return 1.0 / (z * z)


def _sub_configuration(y_block):
    """Configuration of subsystem blocks ``(..., 6 + n_joints)``."""
    pos = y_block[..., :3]
    rot = fad.rpy_matrix(y_block[..., 3], y_block[..., 4], y_block[..., 5])
    return Configuration(pos, rot, y_block[..., 6:])


def _trees(models, q: CoupledConfiguration):
    return [kinematics(m, qi) for m, qi in zip(models, q.qs)]


def _pack_configuration(q: Configuration):
    """Decision blocks ``(..., 6 + n)`` of configurations."""
    return np.concatenate([
        np.asarray(fad.value(q.base_pos)),
        rpy_from_matrix(fad.value(q.base_rot)),
        np.asarray(fad.value(q.s))], axis=-1)


# ---------------------------------------------------------------------------
# assembled problem


@dataclass(eq=False)
class ErgoProblem:
    """Cost, constraints, bounds and derivative plumbing for the NLP."""

    scenario: Scenario
    system: CoupledSystem
    heights: tuple
    frozen_hardware: bool
    lb: np.ndarray
    ub: np.ndarray
    families: tuple
    nominal_groups: dict
    n_cons: int
    # (iterate bytes, Gauss-Newton Hessian) of the last derivative pass
    _hess_cache: Optional[tuple] = field(default=None, init=False, repr=False)

    # -- decision vector <-> configurations -----------------------------

    @property
    def height_dim(self):
        """Width of one height's posture block: the system's velocity
        dimension."""
        return int(self.system.velocity_layout[1][-1])

    @property
    def pi_dim(self):
        return 0 if self.frozen_hardware else 2 * len(self.nominal_groups)

    def pi_slice(self):
        off = len(self.heights) * self.height_dim
        return slice(off, off + self.pi_dim)

    def active_indices(self, k):
        """Decision coordinates the height-k terms depend on."""
        w, pi = self.height_dim, self.pi_slice()
        return np.concatenate([np.arange(k * w, (k + 1) * w),
                               np.arange(pi.start, pi.stop)])

    def height_blocks(self, y):
        """The posture blocks of y, one row per height ``(H, height_dim)``."""
        H, w = len(self.heights), self.height_dim
        return y[:H * w].reshape(H, w)

    def configurations(self, y, k) -> CoupledConfiguration:
        """Configurations of height k's posture block of y."""
        return self._configurations(self.height_blocks(y)[k])

    def _sub_blocks(self, blocks):
        """Each subsystem's columns of blocks ``(..., height_dim)``."""
        dims, offsets = self.system.velocity_layout
        return [blocks[..., o:o + d] for d, o in zip(dims, offsets)]

    def _configurations(self, blocks) -> CoupledConfiguration:
        """Configurations of posture blocks ``(..., height_dim)``."""
        return CoupledConfiguration(tuple(
            _sub_configuration(b) for b in self._sub_blocks(blocks)))

    def _directions(self):
        """Tangent directions of the derivative pass, ``(rows, ndir)``.

        Direction j of height row k is decision ``active_indices(k)[j]``:
        the height's posture block, then the shared hardware block.
        ``rows[s]`` lists subsystem s's directions among them: its own
        posture columns and, for the robot, the hardware ones after them.
        """
        hd = self.height_dim
        ndir = hd + self.pi_dim
        rows = self._sub_blocks(np.arange(hd))
        robot = self.system.parametrized_index
        rows[robot] = np.concatenate([rows[robot], np.arange(hd, ndir)])
        return tuple(rows), ndir

    def group_values(self, y):
        """{group: (density, multiplier)} from the shared block of y.

        The nominal values when the hardware is frozen.
        """
        if self.frozen_hardware:
            return self.nominal_groups
        block = y[self.pi_slice()]
        g = len(self.nominal_groups)
        return {name: (block[g + i], block[i])
                for i, name in enumerate(self.nominal_groups)}

    def hardware_params(self, y):
        """Per-link hardware from the shared block of y (None if frozen)."""
        if self.frozen_hardware:
            return None
        return group_params(self.system.parametrized_model,
                            self.group_values(y))

    # -- pieces ----------------------------------------------------------

    def _shared_terms(self, y, models):
        """Density and CoM-height tasks of the hardware in y and models."""
        if self.frozen_hardware:
            return self._nominal_shared_terms
        return self._hardware_terms(self.group_values(y), models)

    @cached_property
    def _nominal_shared_terms(self):
        """The shared terms of the nominal hardware, once per problem."""
        return self._hardware_terms(self.nominal_groups,
                                    self.system.subsystem_models())

    def _hardware_terms(self, groups, models):
        w = self.scenario.weights
        densities = [rho for rho, _ in groups.values()]
        t2 = task_density(densities, PREFERRED_DENSITIES)
        t4 = task_com_height(models[self.system.parametrized_index])
        return w.density * t2 + w.com_height * t4

    def _height_tasks(self, trees, soles, dirs=None):
        """Torque and CoP tasks from the saddle statics, per posture.

        ``trees`` and ``soles``, their ``contact_rotations``, may stack
        postures; ``dirs`` as in ``_directions``, or None when every Dual
        carries all directions.  Returns the torques, the foot CoPs
        ``(..., E, 2)`` in their sole frames, the squared torque norm and
        the summed squared CoPs: the CoP task centres each CoP on its
        sole-frame origin.
        """
        tau, f = statics_minnorm(self.system, trees=trees, dirs=dirs)
        batch = tau.shape[:-1]
        E = soles.shape[-3]
        cops = cop_smooth(f[..., :6 * E].reshape(batch + (E, 6)), soles)
        return (tau, cops, fad.sumsq(tau),
                fad.sumsq(cops.reshape(batch + (-1,))))

    def _residual_rows(self, q, heights, p, soles, dirs=None):
        """Equality rows per posture, upright frames as tilt rows, in the
        order and widths of ``_row_families``.

        ``heights`` are the payload height targets of the postures, ``p``
        the ``coupled_points`` and ``soles`` the ``contact_rotations``;
        ``dirs`` as in ``_height_tasks``.
        """
        env, hands, grips = self.system.frame_slots
        payload = len(self.system.agents)
        q3 = q.qs[payload]
        batch = q3.base_pos.shape[:-1]
        load = fad.concatenate([q3.base_rot[..., :2, 2],
                                (q3.base_pos[..., 2] - heights)[..., None]],
                               axis=-1)
        if dirs is not None:
            load = fad.widen(load, dirs[0][payload], dirs[1])
        hand_gap = p[..., hands, :] - p[..., grips, :]
        return fad.concatenate([
            load,
            hand_gap.reshape(batch + (-1,)),
            p[..., env, 2],
            soles[..., :2, 2].reshape(batch + (-1,))], axis=-1)

    def _pieces(self, q, models, dirs=None):
        """Cost terms, constraint rows, torques and CoPs of every height.

        ``q`` stacks the configurations of every height ``(H, ...)``;
        ``models`` are the subsystem models with the robot already
        scaled, shared by every height; ``dirs`` as in ``_height_tasks``.
        """
        w = self.scenario.weights
        trees = _trees(models, q)
        # the points first: their gathers serve the statics contractions
        p = coupled_points(self.system, trees, dirs)
        soles = contact_rotations(self.system, trees, dirs)
        tau, cops, t1, t3 = self._height_tasks(trees, soles, dirs)
        cons = self._residual_rows(q, np.asarray(self.heights, dtype=float),
                                   p, soles, dirs)
        return w.torque * t1 + w.cop * t3, cons, tau, cops

    # -- NLP interface ----------------------------------------------------

    def value(self, y):
        y = np.asarray(y, dtype=float)
        models = self.system.subsystem_models(self.hardware_params(y))
        cost = self._shared_terms(y, models)
        costs, cons, _, _ = self._pieces(
            self._configurations(self.height_blocks(y)), models)
        for ck in costs:
            cost = cost + ck
        cost = cost / self.scenario.weights.total()
        return float(fad.value(cost)), np.asarray(cons).reshape(-1)

    def value_and_derivatives(self, y):
        y = np.asarray(y, dtype=float)
        n, H = y.size, len(self.heights)
        rows = self.n_cons // H
        w = self.scenario.weights
        total = w.total()

        # each subsystem seeds only its own directions (_directions);
        # the robot's end with the hardware ones, so one hardware Dual of
        # the robot's width, and one robot scaled by it, serve the shared
        # (hardware-only) terms and every height
        dirs = self._directions()
        ndir = dirs[1]
        robot = self.system.parametrized_index
        width = self.system.velocity_layout[0][robot]
        sl_pi = self.pi_slice()
        hw = np.zeros((width + self.pi_dim, n))
        hw[np.arange(width, width + self.pi_dim),
           np.arange(sl_pi.start, sl_pi.stop)] = 1.0
        yd = fad.Dual(y, hw)
        models = self.system.subsystem_models(self.hardware_params(yd))
        out = self._shared_terms(yd, models)
        cost = float(fad.value(out))
        grad = np.zeros(n)
        if isinstance(out, fad.Dual):
            grad[sl_pi] += out.dot[width:]

        subs = []
        for block, sub_rows in zip(self._sub_blocks(self.height_blocks(y)),
                                   dirs[0]):
            seeds = np.zeros((sub_rows.size,) + block.shape)
            j = np.arange(block.shape[-1])
            seeds[j, :, j] = 1.0
            subs.append(_sub_configuration(fad.Dual(block, seeds)))
        costs, cons, tau, cops = self._pieces(
            CoupledConfiguration(tuple(subs)), models, dirs)
        # Gauss-Newton curvature of the sum-of-squares tasks, per height
        t_dot = np.moveaxis(tau.dot, 0, -2)
        c_dot = np.moveaxis(cops.dot, 0, -3).reshape(H, ndir, -1)
        blocks = (2.0 * w.torque * (t_dot @ fad.mT(t_dot))
                  + 2.0 * w.cop * (c_dot @ fad.mT(c_dot)))
        jac = np.zeros((self.n_cons, n))
        gauss_newton = np.zeros((n, n))
        for k in range(H):
            idx = self.active_indices(k)
            cost += float(costs.val[k])
            grad[idx] += costs.dot[:, k]
            jac[k * rows:(k + 1) * rows, idx] = cons.dot[:, k].T
            gauss_newton[np.ix_(idx, idx)] += blocks[k]
        self._hess_cache = (y.tobytes(), gauss_newton / total)
        return cost / total, grad / total, cons.val.reshape(-1), jac

    def hessian(self, y):
        """Gauss-Newton model of the cost curvature at y."""
        y = np.asarray(y, dtype=float)
        cached = self._hess_cache
        if cached is None or cached[0] != y.tobytes():
            self.value_and_derivatives(y)
            cached = self._hess_cache
        return cached[1]


def _row_families(n_grasps, n_env):
    """``(family, width)`` of one height's constraint rows, in the order
    ``ErgoProblem._residual_rows`` stacks them; an upright frame takes 2
    tilt rows (see the module docstring)."""
    return (("load_orientation", 2), ("load_height", 1),
            ("hand_position", 3 * n_grasps), ("foot_height", n_env),
            ("foot_orientation", 2 * n_env))


def _families(heights, rows):
    """``(family@height, slice)`` of every constraint row, height by
    height, from one height's ``_row_families``."""
    out, start = [], 0
    for h in heights:
        for name, width in rows:
            out.append((f"{name}@{h:g}m", slice(start, start + width)))
            start += width
    return tuple(out)


def _decision_vector(frozen_hardware, blocks, groups):
    """Decisions of posture blocks ``(H, height_dim)`` and hardware
    ``{group: (density, multiplier)}``, the shared block in the order
    ``group_values`` reads (and none when the hardware is frozen)."""
    parts = [np.reshape(blocks, -1)]
    if not frozen_hardware:
        parts.append([lm for _, lm in groups.values()])
        parts.append([rho for rho, _ in groups.values()])
    return np.concatenate(parts)


def assemble_nlp(scenario: Scenario, system: CoupledSystem,
                 freeze_hardware: bool = False) -> ErgoProblem:
    """Build the co-design NLP over the scenario's heights."""
    heights = tuple(scenario.heights)
    models = system.subsystem_models()
    robot = system.parametrized_model
    nominal = robot.group_hardware()
    if not freeze_hardware and not nominal:
        raise ValueError("robot model declares no optimization groups; "
                         "use freeze_hardware=True")
    # one height's posture bounds, subsystem by subsystem
    top = max(heights) + 2.0
    lo, hi = [], []
    for m in models:
        jlo, jhi = m.joint_limits()
        lo.append(np.concatenate([(-3.0, -3.0, 0.02),
                                  (-np.pi / 3, -np.pi / 3, -np.pi), jlo]))
        hi.append(np.concatenate([(3.0, 3.0, top),
                                  (np.pi / 3, np.pi / 3, np.pi), jhi]))
    lm_b, rho_b = robot.bounds.length_multiplier, robot.bounds.density
    H = len(heights)
    lb = _decision_vector(freeze_hardware, np.tile(np.concatenate(lo), (H, 1)),
                          dict.fromkeys(nominal, (rho_b[0], lm_b[0])))
    ub = _decision_vector(freeze_hardware, np.tile(np.concatenate(hi), (H, 1)),
                          dict.fromkeys(nominal, (rho_b[1], lm_b[1])))

    rows = _row_families(len(system.grasps), len(system.env_contacts))
    return ErgoProblem(
        scenario=scenario, system=system, heights=heights,
        frozen_hardware=freeze_hardware,
        lb=lb, ub=ub, families=_families(heights, rows),
        nominal_groups=nominal,
        n_cons=len(heights) * sum(width for _, width in rows))


# standard deviation (rad) of the seeded joint jitter of a warm start
WARM_START_JITTER = 0.01


def warm_start_vector(problem: ErgoProblem) -> np.ndarray:
    """Deterministic initial decision vector.

    The warm-start postures, each joint jittered by a normal draw of
    standard deviation ``WARM_START_JITTER`` from the scenario's seed,
    and the nominal hardware.
    """
    rng = np.random.default_rng(problem.scenario.seed)
    q = warm_start_configuration(problem.scenario, problem.system,
                                 np.asarray(problem.heights, dtype=float))
    blocks = np.concatenate([_pack_configuration(qi) for qi in q.qs],
                            axis=-1)
    # the joint columns of a height's block; one draw, height by height
    joints = problem.system.actuated
    blocks[:, joints] += (rng.normal(size=(blocks.shape[0], joints.size))
                          * WARM_START_JITTER)
    y0 = _decision_vector(problem.frozen_hardware, blocks,
                          problem.nominal_groups)
    return np.clip(y0, problem.lb + 1e-9, problem.ub - 1e-9)


@dataclass(eq=False, kw_only=True)
class Solution(SolverReport):
    """The solver's report, plus per height the tasks and the static
    analysis at ``y``, and the hardware (None when frozen).

    ``statics[k]`` is None where the analysis of height k was refused;
    ``refusals[k]`` then names the refusal (``"UnloadedFootError"`` or
    ``"SingularConstraintError"``), and is None where it was analysed.
    """

    heights: tuple
    statics: list
    refusals: list
    task_values: list
    hardware: Optional[dict]


def solve(problem: ErgoProblem, warm_start,
          options: SolverOptions) -> Solution:
    """Run the co-design NLP from ``warm_start`` and evaluate the solution
    statics."""
    report = solve_nlp(problem, warm_start, options)
    # the Gauss-Newton cache serves only the solver's curvature calls; a
    # problem kept with its solution should not hold an n x n matrix
    problem._hess_cache = None
    models = problem.system.subsystem_models(
        problem.hardware_params(report.y))
    # one tree per subsystem over the stacked postures: the tasks of
    # every height from one pass, the statics of each on its rows
    trees = _trees(models,
                   problem._configurations(problem.height_blocks(report.y)))
    _, _, t1, t3 = problem._height_tasks(
        trees, contact_rotations(problem.system, trees))
    tasks = [{"torque": float(a), "cop": float(b)} for a, b in zip(t1, t3)]
    statics, refusals = [], []
    for k in range(len(problem.heights)):
        res = refused = None
        try:
            res = evaluate_statics(problem.system,
                                   trees=[t.row(k) for t in trees])
        except (SingularConstraintError, UnloadedFootError) as exc:
            refused = type(exc).__name__
        statics.append(res)
        refusals.append(refused)
    hardware = None
    if not problem.frozen_hardware:
        values = problem.group_values(report.y)
        hardware = {name: {"length_multiplier": float(lm),
                           "density": float(rho)}
                    for name, (rho, lm) in values.items()}
    return Solution(**vars(report), heights=problem.heights,
                    statics=statics, refusals=refusals, task_values=tasks,
                    hardware=hardware)
