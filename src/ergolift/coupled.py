"""Coupled statics of agents sharing a payload while standing on the ground.

The composite system stacks the velocity coordinates of every agent
followed by the payload.  A coupling matrix collects one 6-row block per
environment contact (frame twist pinned to zero) and per grasp (agent
hand twist equal to the payload grasp-point twist), so contact wrenches
enter the dynamics as ``Q^T f`` with action-reaction built in.

Static joint torques resolve the actuation redundancy with the
minimum-norm distribution.  Two equivalent routes are implemented:

* the projector route projects gravity through the constraint
  null-space projector and applies a truncated-SVD pseudo-inverse.
  ``evaluate_statics`` and its views ``static_torques``,
  ``contact_wrenches`` and ``composite_matrices`` all read one pass,
  ``_assemble``, which builds each subsystem's tree once and from it the
  mass matrix ``M``, coupling matrix ``Q``, gravity ``g`` and selector
  ``B``;
* ``statics_minnorm`` solves the symmetric saddle system of the
  equivalent equality-constrained least-norm problem, which is smooth
  and therefore safe to differentiate through.

The saddle route shares only the trees, ``Q`` and ``g`` with the
projector route and none of its linear algebra, so it is an independent
cross-check: the two agree to solver precision, and the test-suite holds
them against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from . import fad
from .multibody import (Configuration, Model, apply_hardware, frame_jacobian,
                        gravity_vector, kinematics, mass_matrix)
from .spatial import Wrench


class SingularConstraintError(ValueError):
    """Contact constraints are linearly dependent / rank deficient."""


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

    def subsystem_models(self, params: Optional[Mapping] = None):
        models = list(self.agents)
        idx = self.parametrized_agent % len(self.agents)
        if params:
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

    def wrench_labels(self):
        out = [f"env:{self.agents[a].name}:{f}" for a, f in self.env_contacts]
        out.extend(f"grasp:{self.agents[g.agent].name}:{g.agent_frame}"
                   for g in self.grasps)
        return out


@dataclass(frozen=True, eq=False)
class CoupledConfiguration:
    """One configuration per subsystem, payload last."""

    qs: tuple

    @staticmethod
    def of(*qs):
        return CoupledConfiguration(tuple(qs))


@dataclass(frozen=True, eq=False)
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
    return models, [kinematics(m, qi) for m, qi in zip(models, q.qs)]


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
        _, trees = coupled_trees(sys, q, params)
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
        _, trees = coupled_trees(sys, q, params)
    return fad.concatenate([
        gravity_vector(t.model, qi, t) for qi, t in zip(q.qs, trees)])


def _assemble(sys: CoupledSystem, q: CoupledConfiguration,
              params: Optional[Mapping] = None, trees=None):
    """One pass over a configuration: trees, M, Q, g and B as plain arrays.

    ``M`` is the block-diagonal mass matrix, ``Q`` the coupling matrix,
    ``g`` the stacked gravity and ``B`` the actuation selector.
    """
    if trees is None:
        _, trees = coupled_trees(sys, q, params)
    _, offsets = sys.velocity_layout()
    M = np.zeros((int(offsets[-1]),) * 2)
    for i, t in enumerate(trees):
        sl = slice(int(offsets[i]), int(offsets[i + 1]))
        M[sl, sl] = mass_matrix(t.model, t.q, t)
    Q = fad.value(coupling_matrix(sys, q, params, trees=trees))
    g = fad.value(composite_gravity(sys, q, params, trees=trees))
    return trees, M, Q, g, sys.selector()


def composite_matrices(sys: CoupledSystem, q: CoupledConfiguration,
                       params: Optional[Mapping] = None):
    """Block-diagonal mass matrix, stacked gravity and selector matrix."""
    _, M, _, g, B = _assemble(sys, q, params)
    return M, g, B


# ---------------------------------------------------------------------------
# statics


def _check_constraint_rank(Q: np.ndarray, labels=None, rel_tol=1e-10):
    """Fail when the constraint rows are (numerically) dependent.

    Row rank of Q and invertibility of Q M^-1 Q^T are equivalent for
    positive definite M; testing Q directly avoids amplifying the mass
    matrix conditioning.
    """
    U, sv, _ = np.linalg.svd(Q)
    if sv[-1] <= rel_tol * sv[0]:
        bad = np.argsort(-np.abs(U[:, -1]))[:6]
        names = [labels[b // 6] if labels else f"row {b}" for b in sorted(bad)]
        raise SingularConstraintError(
            "rank-deficient contact constraints; dominant rows: "
            + ", ".join(dict.fromkeys(names)))


def nullspace_projector(M: np.ndarray, Q: np.ndarray, labels=None):
    """Projector 1 - Q^T (Q M^-1 Q^T)^-1 Q M^-1 onto admissible dynamics.

    Raises SingularConstraintError naming the dominant constraint rows
    when the contact set is rank deficient.
    """
    n = M.shape[0]
    if Q.shape[0] == 0:
        return np.eye(n)
    _check_constraint_rank(Q, labels)
    Minv_Qt = np.linalg.solve(M, Q.T)
    G = Q @ Minv_Qt
    # 1 - Q^T (Q M^-1 Q^T)^-1 Q M^-1, with Q M^-1 = (M^-1 Q^T)^T
    return np.eye(n) - Q.T @ np.linalg.solve(G, Minv_Qt.T)


def _pinv_truncated(A, rel_tol=1e-8):
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    keep = s > rel_tol * s[0]
    return Vt[keep].T @ ((U[:, keep] / s[keep]).T)


def _torques(N, B, g):
    """Minimum-norm torques of projected gravity, given the projector."""
    return _pinv_truncated(N @ B) @ (N @ g)


def _wrenches(M, Q, g, B, tau):
    """Wrenches balancing gravity under tau; Q must have full row rank."""
    rhs = Q @ np.linalg.solve(M, -B @ tau + g)
    G = Q @ np.linalg.solve(M, Q.T)
    return np.linalg.solve(G, rhs)


def static_torques(sys: CoupledSystem, q: CoupledConfiguration,
                   params: Optional[Mapping] = None) -> np.ndarray:
    """Minimum-norm joint torques sustaining the configuration at rest."""
    _, M, Q, g, B = _assemble(sys, q, params)
    return _torques(nullspace_projector(M, Q, labels=sys.wrench_labels()),
                    B, g)


def contact_wrenches(sys: CoupledSystem, q: CoupledConfiguration,
                     params: Optional[Mapping], tau: np.ndarray) -> np.ndarray:
    """Contact wrenches balancing gravity under the given torques."""
    _, M, Q, g, B = _assemble(sys, q, params)
    _check_constraint_rank(Q, sys.wrench_labels())
    return _wrenches(M, Q, g, B, tau)


def statics_minnorm(sys: CoupledSystem, q: CoupledConfiguration,
                    params: Optional[Mapping] = None, trees=None):
    """Static torques and wrenches from the least-norm saddle system.

    Solves ``[[B B^T, Q^T], [Q, 0]] [lam; f] = [g; 0]`` and reads
    ``tau = B^T lam``.  Identical to the projector route whenever the
    contact set has full row rank, but smooth in every input, so this is
    the formulation the optimizer differentiates through.
    """
    if trees is None:
        _, trees = coupled_trees(sys, q, params)
    Q = coupling_matrix(sys, q, params, trees=trees)
    g = composite_gravity(sys, q, params, trees=trees)
    B = sys.selector()
    n_vel = B.shape[0]
    n_c = Q.shape[0]
    Qv, Qd = (Q.val, Q.dot) if isinstance(Q, fad.Dual) else (Q, None)
    gv, gd = (g.val, g.dot) if isinstance(g, fad.Dual) else (g, None)
    A = np.zeros((n_vel + n_c, n_vel + n_c))
    A[:n_vel, :n_vel] = B @ B.T
    A[:n_vel, n_vel:] = Qv.T
    A[n_vel:, :n_vel] = Qv
    rhs = np.concatenate([gv, np.zeros(n_c)])
    sol = np.linalg.solve(A, rhs)
    lam, f = sol[:n_vel], sol[n_vel:]
    if Qd is None and gd is None:
        return B.T @ lam, f
    # tangent rule: A sol_dot = rhs_dot - A_dot sol, with A_dot carrying
    # only the coupling blocks; solved against the already factored A
    ndir = Qd.shape[0] if Qd is not None else gd.shape[0]
    rhs_dot = np.zeros((ndir, n_vel + n_c))
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
        _, trees = coupled_trees(sys, q, params)
    out = {}
    labels = sys.wrench_labels()
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
    """Full static analysis via the projector route, with residual checks.

    Raises SingularConstraintError for a rank-deficient contact set and
    UnloadedFootError when a foot carries less than ``min_normal``.
    """
    trees, M, Q, g, B = _assemble(sys, q, params, trees)
    N = nullspace_projector(M, Q, labels=sys.wrench_labels())
    tau = _torques(N, B, g)
    f = _wrenches(M, Q, g, B, tau)
    proj = float(np.abs(N @ (g - B @ tau)).max()) if tau.size else 0.0
    full = float(np.abs(B @ tau + Q.T @ f - g).max())
    cops = foot_cops(sys, q, params, f, min_normal, trees=trees)
    return StaticsResult(tau=tau, wrenches=f, cops=cops,
                         projected_residual=proj, equilibrium_residual=full)
