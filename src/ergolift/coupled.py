"""Coupled statics of agents sharing a payload while standing on the ground.

The composite system stacks the velocity coordinates of every agent
followed by the payload.  A coupling matrix collects one 6-row block per
environment contact (frame twist pinned to zero) and per grasp (agent
hand twist equal to the payload grasp-point twist), so contact wrenches
enter the dynamics as ``Q^T f`` with action-reaction built in.

Static joint torques resolve the actuation redundancy with the
minimum-norm distribution.  One route computes them together with the
contact wrenches: the symmetric saddle system
``[[B B^T, Q^T], [Q, 0]] [lam; f] = [g; 0]`` of the equivalent
equality-constrained least-norm problem, with ``tau = B^T lam``.  For a
contact set of full row rank its solution does not depend on the mass
matrix.  ``_saddle_solve`` solves it on plain arrays;
``evaluate_statics`` adds the rank check, both residuals and the CoPs,
and ``statics_minnorm`` adds the tangent rule the optimizer
differentiates through.  ``static_torques`` and ``contact_wrenches`` are
thin views.

The projector route (the mass-weighted null-space projector and a
truncated-SVD pseudo-inverse) lives on only in the test-suite, as the
reference the saddle route is held against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

import numpy as np

from . import fad
from .multibody import (Model, apply_hardware, frame_jacobian, gravity_vector,
                        kinematics)
from .spatial import Wrench


class SingularConstraintError(ValueError):
    """The statics are singular as posed.

    Either the contact constraints are linearly dependent (rank
    deficient), or some body is held by no contact.
    """


class UnloadedFootError(ValueError):
    """A center of pressure was requested for an unloaded foot."""


@dataclass(frozen=True, eq=False)
class GraspPair:
    """Rigid coupling of an agent hand frame with a payload frame."""

    agent: int
    agent_frame: str
    payload_frame: str


@dataclass(frozen=True, eq=False)
class CoupledSystem:
    """Agents, optional payload, environment contacts and grasps.

    ``env_contacts`` lists (agent index, frame name) pairs welded to the
    world; wrench ordering in every stacked result follows
    ``env_contacts`` then ``grasps``, 6 rows each.
    ``parametrized_agent`` names the subsystem whose hardware responds
    to optimization parameters (the robot).
    """

    agents: tuple
    payload: Optional[Model] = None
    env_contacts: tuple = ()
    grasps: tuple = ()
    parametrized_agent: int = -1

    def __post_init__(self):
        if self.payload is not None and self.payload.n_joints != 0:
            raise ValueError("payload must be a single rigid body")
        for g in self.grasps:
            if self.payload is None:
                raise ValueError("grasps require a payload")
            if not 0 <= g.agent < len(self.agents):
                raise ValueError(f"grasp references missing agent {g.agent}")

    @property
    def parametrized_model(self) -> Model:
        """The agent whose hardware the parameters set (the robot)."""
        return self.agents[self.parametrized_agent % len(self.agents)]

    def subsystem_models(self, params: Optional[Mapping] = None):
        models = list(self.agents)
        idx = self.parametrized_agent % len(self.agents)
        models[idx] = apply_hardware(models[idx], params, validate=False)
        if self.payload is not None:
            models.append(self.payload)
        return models

    def velocity_layout(self):
        dims = [6 + m.n_joints for m in self.agents]
        if self.payload is not None:
            dims.append(6)
        offsets = np.concatenate([[0], np.cumsum(dims)])
        return dims, offsets

    def selector(self):
        """Composite actuation selector B of shape (n_vel, n_act)."""
        dims, offsets = self.velocity_layout()
        n_vel = offsets[-1]
        n_act = sum(m.n_joints for m in self.agents)
        B = np.zeros((int(n_vel), n_act))
        col = 0
        for i, m in enumerate(self.agents):
            rows = np.arange(offsets[i] + 6, offsets[i] + 6 + m.n_joints)
            B[rows, col + np.arange(m.n_joints)] = 1.0
            col += m.n_joints
        return B

    def torque_labels(self):
        out = []
        for i, m in enumerate(self.agents):
            out.extend(f"{m.name}:{j}" for j in m.joint_names)
        return out

    @cached_property
    def wrench_labels(self):
        """One label per 6-row wrench block, built once per system."""
        env = (f"env:{self.agents[a].name}:{f}" for a, f in self.env_contacts)
        grasp = (f"grasp:{self.agents[g.agent].name}:{g.agent_frame}"
                 for g in self.grasps)
        return (*env, *grasp)


@dataclass(frozen=True, eq=False, slots=True)
class CoupledConfiguration:
    """One configuration per subsystem, payload last."""

    qs: tuple

    @staticmethod
    def of(*qs):
        return CoupledConfiguration(tuple(qs))


@dataclass(frozen=True, eq=False, slots=True)
class StaticsResult:
    """Static torques, stacked contact wrenches and per-foot CoP."""

    tau: np.ndarray
    wrenches: np.ndarray
    cops: dict
    projected_residual: float
    equilibrium_residual: float


# ---------------------------------------------------------------------------
# assembly


def coupled_trees(sys: CoupledSystem, q: CoupledConfiguration,
                  params: Optional[Mapping] = None):
    models = sys.subsystem_models(params)
    if len(q.qs) != len(models):
        raise ValueError("configuration count does not match subsystems")
    return [kinematics(m, qi) for m, qi in zip(models, q.qs)]


def _place_blocks(blocks, n_vel):
    """Assemble a 6-row band [0 .. J_a .. 0 .. J_b .. 0] over the composite.

    ``blocks`` holds (offset, width, J) sorted by offset.
    """
    parts = []
    cursor = 0
    for off, width, J in blocks:
        if off > cursor:
            parts.append(np.zeros((6, off - cursor)))
        parts.append(J)
        cursor = off + width
    if cursor < n_vel:
        parts.append(np.zeros((6, n_vel - cursor)))
    return fad.concatenate(parts, axis=1)


def coupling_matrix(sys: CoupledSystem, q: CoupledConfiguration,
                    params: Optional[Mapping] = None, trees=None):
    """Stacked contact constraint matrix over the composite velocity."""
    if trees is None:
        trees = coupled_trees(sys, q, params)
    models = [t.model for t in trees]
    dims, offsets = sys.velocity_layout()
    n_vel = int(offsets[-1])
    rows = []
    for agent, frame in sys.env_contacts:
        J = frame_jacobian(models[agent], q.qs[agent], frame, trees[agent])
        rows.append(_place_blocks([(int(offsets[agent]), dims[agent], J)],
                                  n_vel))
    payload_idx = len(sys.agents)
    for g in sys.grasps:
        Ja = frame_jacobian(models[g.agent], q.qs[g.agent], g.agent_frame,
                            trees[g.agent])
        Jp = frame_jacobian(models[payload_idx], q.qs[payload_idx],
                            g.payload_frame, trees[payload_idx])
        rows.append(_place_blocks(
            [(int(offsets[g.agent]), dims[g.agent], Ja),
             (int(offsets[payload_idx]), dims[payload_idx], -1.0 * Jp)],
            n_vel))
    if not rows:
        return np.zeros((0, n_vel))
    return fad.concatenate(rows, axis=0)


def composite_gravity(sys: CoupledSystem, q: CoupledConfiguration,
                      params: Optional[Mapping] = None, trees=None):
    if trees is None:
        trees = coupled_trees(sys, q, params)
    return fad.concatenate([
        gravity_vector(t.model, qi, t) for qi, t in zip(q.qs, trees)])


# ---------------------------------------------------------------------------
# statics


def _constraint_svd(Q: np.ndarray, labels=None, rel_tol=1e-10):
    """Thin SVD of the coupling matrix; fails when its rows are dependent.

    The rows of the returned ``Vt`` are an orthonormal basis of
    ``range(Q^T)``, the generalized forces the contacts can exert.
    Raises SingularConstraintError naming the dominant constraint rows
    when the contact set is rank deficient.
    """
    U, sv, Vt = np.linalg.svd(Q, full_matrices=False)
    if sv.size and sv[-1] <= rel_tol * sv[0]:
        bad = np.argsort(-np.abs(U[:, -1]))[:6]
        names = [labels[b // 6] if labels else f"row {b}" for b in sorted(bad)]
        raise SingularConstraintError(
            "rank-deficient contact constraints; dominant rows: "
            + ", ".join(dict.fromkeys(names)))
    return U, sv, Vt


def _saddle_solve(Q: np.ndarray, g: np.ndarray, B: np.ndarray):
    """Solve ``[[B B^T, Q^T], [Q, 0]] [lam; f] = [g; 0]`` on plain arrays.

    Returns the saddle matrix ``A`` (for tangent solves), ``lam`` and
    ``f``.  ``f`` is a copy, so a kept result does not hold the whole
    solution vector.  A singular ``A`` means some body is held by no
    contact.
    """
    n_vel, n_c = B.shape[0], Q.shape[0]
    A = np.zeros((n_vel + n_c, n_vel + n_c))
    A[:n_vel, :n_vel] = B @ B.T
    A[:n_vel, n_vel:] = Q.T
    A[n_vel:, :n_vel] = Q
    try:
        sol = np.linalg.solve(A, np.concatenate([g, np.zeros(n_c)]))
    except np.linalg.LinAlgError as exc:
        raise SingularConstraintError(
            "singular statics: some body is held by no contact") from exc
    return A, sol[:n_vel], sol[n_vel:].copy()


def static_torques(sys: CoupledSystem, q: CoupledConfiguration,
                   params: Optional[Mapping] = None) -> np.ndarray:
    """Minimum-norm joint torques sustaining the configuration at rest."""
    tau, _ = statics_minnorm(sys, q, params)
    return tau


def contact_wrenches(sys: CoupledSystem, q: CoupledConfiguration,
                     params: Optional[Mapping], tau: np.ndarray) -> np.ndarray:
    """Least-squares contact wrenches ``f`` with ``Q^T f = g - B tau``."""
    trees = coupled_trees(sys, q, params)
    Q = fad.value(coupling_matrix(sys, q, params, trees=trees))
    g = fad.value(composite_gravity(sys, q, params, trees=trees))
    U, sv, Vt = _constraint_svd(Q, sys.wrench_labels)
    return U @ ((Vt @ (g - sys.selector() @ tau)) / sv)


def statics_minnorm(sys: CoupledSystem, q: CoupledConfiguration,
                    params: Optional[Mapping] = None, trees=None):
    """Static torques and wrenches from the least-norm saddle system.

    Solves ``[[B B^T, Q^T], [Q, 0]] [lam; f] = [g; 0]`` and reads
    ``tau = B^T lam``.  The solution is smooth in every input, and with
    ``Dual`` inputs the tangents follow from differentiating the saddle
    system, so this is the formulation the optimizer differentiates
    through.
    """
    if trees is None:
        trees = coupled_trees(sys, q, params)
    Q = coupling_matrix(sys, q, params, trees=trees)
    g = composite_gravity(sys, q, params, trees=trees)
    B = sys.selector()
    n_vel = B.shape[0]
    Qv, Qd = (Q.val, Q.dot) if isinstance(Q, fad.Dual) else (Q, None)
    gv, gd = (g.val, g.dot) if isinstance(g, fad.Dual) else (g, None)
    A, lam, f = _saddle_solve(Qv, gv, B)
    if Qd is None and gd is None:
        return B.T @ lam, f
    # tangent rule: A sol_dot = rhs_dot - A_dot sol, with A_dot carrying
    # only the coupling blocks; solved against the same A
    ndir = Qd.shape[0] if Qd is not None else gd.shape[0]
    rhs_dot = np.zeros((ndir, A.shape[0]))
    if gd is not None:
        rhs_dot[:, :n_vel] = gd
    if Qd is not None:
        rhs_dot[:, :n_vel] -= np.einsum("dij,i->dj", Qd, f)
        rhs_dot[:, n_vel:] -= Qd @ lam
    sol_dot = np.linalg.solve(A, rhs_dot.T).T
    lam_d = fad.Dual(lam, sol_dot[:, :n_vel])
    f_d = fad.Dual(f, sol_dot[:, n_vel:])
    return B.T @ lam_d, f_d


# ---------------------------------------------------------------------------
# center of pressure


def center_of_pressure(foot_wrench: Wrench, min_normal: float = 1.0):
    """CoP [-tau_y / f_z, tau_x / f_z] of a wrench given in the sole frame."""
    fz = float(foot_wrench.force[2])
    if fz < min_normal:
        raise UnloadedFootError(
            f"foot normal force {fz:.3f} N below {min_normal} N")
    return np.array([-foot_wrench.torque[1] / fz,
                     foot_wrench.torque[0] / fz])


def cop_smooth(wrench6, sole_rot, min_normal: float = 1.0):
    """Differentiable CoP of a mixed-frame wrench, normal force floored.

    The floor only engages for (physically meaningless) unloaded feet,
    keeping solver iterates finite; at any reported solution the foot
    load is far above it and the value matches ``center_of_pressure``.
    """
    f_sole = sole_rot.T @ wrench6[:3]
    t_sole = sole_rot.T @ wrench6[3:]
    fz = fad.maximum(f_sole[2], min_normal)
    return fad.stack([-t_sole[1] / fz, t_sole[0] / fz])


def foot_cops(sys: CoupledSystem, q: CoupledConfiguration,
              params: Optional[Mapping], f: np.ndarray,
              min_normal: float = 1.0, trees=None):
    """CoP per environment contact, keyed by wrench label."""
    if trees is None:
        trees = coupled_trees(sys, q, params)
    out = {}
    labels = sys.wrench_labels
    for k, (agent, frame) in enumerate(sys.env_contacts):
        R, _ = trees[agent].frame_pose(frame)
        w = fad.value(f[6 * k: 6 * k + 6])
        wrench = Wrench(fad.value(R).T @ w[:3], fad.value(R).T @ w[3:],
                        frame=frame)
        out[labels[k]] = center_of_pressure(wrench, min_normal)
    return out


def evaluate_statics(sys: CoupledSystem, q: CoupledConfiguration,
                     params: Optional[Mapping] = None,
                     min_normal: float = 1.0, trees=None) -> StaticsResult:
    """Full static analysis from the saddle system, with residual checks.

    ``projected_residual`` is the largest entry of the part of
    ``g - B tau`` off ``range(Q^T)``, which no contact wrench can
    balance; ``equilibrium_residual`` is the largest entry of
    ``B tau + Q^T f - g``.  Raises SingularConstraintError for a
    rank-deficient contact set or a body held by no contact, and
    UnloadedFootError when a foot carries less than ``min_normal``.
    """
    if trees is None:
        trees = coupled_trees(sys, q, params)
    Q = fad.value(coupling_matrix(sys, q, params, trees=trees))
    g = fad.value(composite_gravity(sys, q, params, trees=trees))
    B = sys.selector()
    _, _, Vt = _constraint_svd(Q, sys.wrench_labels)
    _, lam, f = _saddle_solve(Q, g, B)
    tau = B.T @ lam
    r = g - B @ tau
    proj = float(np.abs(r - Vt.T @ (Vt @ r)).max())
    full = float(np.abs(B @ tau + Q.T @ f - g).max())
    cops = foot_cops(sys, q, params, f, min_normal, trees=trees)
    return StaticsResult(tau=tau, wrenches=f, cops=cops,
                         projected_residual=proj, equilibrium_residual=full)
