"""Coupled statics of agents sharing a payload while standing on the ground.

The composite system stacks the velocity coordinates of every agent
followed by the payload.  A coupling matrix collects one 6-row block per
environment contact (frame twist pinned to zero) and per grasp (agent
hand twist equal to the payload grasp-point twist), so contact wrenches
enter the dynamics as ``Q^T f`` with action-reaction built in.  It takes
the Jacobians of all of a subsystem's coupled frames from one batched
``frame_jacobian`` call and writes them, times their signs, into ``Q``
at that subsystem's rows of ``CoupledSystem.coupling_blocks``.
``coupling_matrix`` is plain only: a ``Dual`` tree raises TypeError.

Static joint torques resolve the actuation redundancy with the
minimum-norm distribution.  One route computes them together with the
contact wrenches: the symmetric saddle system ``A [lam; f] = [g; 0]``,
``A = [[B B^T, Q^T], [Q, 0]]``, of the equivalent
equality-constrained least-norm problem, with ``tau = B^T lam``.  For a
contact set of full row rank its solution does not depend on the mass
matrix.  ``_saddle_statics`` solves it on plain arrays;
``evaluate_statics`` adds the rank check, both residuals and the CoPs,
and ``statics_minnorm`` adds the tangent rule the optimizer
differentiates through.  ``static_torques`` reads the torques of
``statics_minnorm``.  ``contact_wrenches`` is a separate route: the
least-squares wrenches ``f`` with ``Q^T f = g - B tau`` for a given
``tau``, from the QR factors ``Q^T = Q1 R`` as ``R f = Q1^T (g - B
tau)``.  Those factors also give ``evaluate_statics`` its rank check
and its projection onto ``range(Q^T)``.  The rank check runs no SVD
for a well-conditioned contact set: a bound on the condition number of
``R`` certifies full rank (``_full_rank``).  The SVD of ``R`` runs only
where that bound cannot decide, and the SVD of ``Q`` only to name the
rows of a rank-deficient contact set.  The 0/1 ``B`` is never formed:
``B^T lam`` and ``B tau`` index ``CoupledSystem.actuated``.

The saddle system is solved in reduced form.  ``B B^T`` is the
identity on the actuated rows ``a`` (``CoupledSystem.actuated``, the
joints) and zero on the unactuated rows ``b``
(``CoupledSystem.unactuated``, the floating bases).  For a right-hand
side ``[r_a; r_b; r_c]`` the actuated rows read
``lam_a + Q_a^T f = r_a``, so ``tau = lam_a = r_a - Q_a^T f``, where
``Q_a`` and ``Q_b`` are the actuated and unactuated columns of ``Q``.
Putting ``lam_a`` into the constraint rows
``Q_a lam_a + Q_b lam_b = r_c`` and keeping the unactuated rows
``Q_b^T f = r_b`` leaves the kernel

    K [f; lam_b] = [r_c - Q_a r_a; r_b],
    K = [[-Q_a Q_a^T, Q_b], [Q_b^T, 0]],

48 + 18 = 66 unknowns for the lifting system against the saddle
system's 116.  The eliminated block is an identity, so ``K`` is the
saddle matrix's Schur complement up to a symmetric permutation and
``det K = det A``: ``K`` is singular exactly when the saddle system is.
It is invertible when the contact rows are independent (``Q`` has full
row rank, which ``evaluate_statics`` checks) and every floating base is
held by some contact (``Q_b`` has full column rank); otherwise the
solve raises SingularConstraintError.  ``_saddle_statics`` builds ``K``
once per posture, and ``_saddle_solve`` solves it for the value
right-hand side ``[g; 0]`` and, in ``statics_minnorm``, for the
tangent right-hand sides, so both use one ``K``.

The tangent rule differentiates the saddle system with ``lam`` and
``f`` held fixed: ``A sol' = [g'; 0] - [Q'^T f; Q' lam]``, solved
through the same ``K`` with one column per direction.  Its two
coupling terms come by contraction, never from a ``Dual`` ``Q``: per
subsystem, ``multibody.generalized_force`` of the signed block wrenches
gives ``Q'^T f`` and ``multibody.frame_twists`` of the subsystem's part
of ``lam`` gives ``Q' lam``, each a masked sum over the tree.

``statics_minnorm``, ``composite_gravity``, ``coupled_points``,
``contact_rotations`` and ``cop_smooth`` take configurations with a
leading stack of postures (``multibody``'s batch axes), so one call
serves every target height; ``evaluate_statics`` analyses one posture.

Every center of pressure comes from ``cop_smooth``: the optimizer's CoP
task and ``evaluate_statics``, which first refuses any foot whose
sole-frame normal force is below ``MIN_NORMAL`` and so reports the
unfloored CoP.

Each subsystem's configuration may carry only its own tangent
directions.  ``statics_minnorm``, ``composite_gravity``,
``coupled_points`` and ``contact_rotations`` then take ``dirs = (rows,
ndir)``: ``rows[s]`` places subsystem s's directions among the ``ndir``
shared ones.  Its frame points, contact rotations and gravity are
widened (``fad.widen``) where the subsystems are stacked, and its
``Q'^T f`` and ``Q' lam`` terms are written into its rows of the
tangent right-hand side, so each tree pass carries only its own
subsystem's directions.  ``dirs=None`` means every Dual already carries
the shared directions.

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
from .multibody import (Model, apply_hardware, frame_jacobian, frame_twists,
                        generalized_force, gravity_vector, kinematics)

# a foot's sole-frame normal force (N) below which it counts as unloaded:
# evaluate_statics refuses it and cop_smooth floors it here
MIN_NORMAL = 1.0

# the contact rows are dependent once the coupling matrix's smallest
# singular value is at most this share of its largest
RANK_TOL = 1e-10


class SingularConstraintError(ValueError):
    """The statics are singular as posed.

    Either the contact constraints are linearly dependent (rank
    deficient), or some body is held by no contact.
    """


class UnloadedFootError(ValueError):
    """A foot carries a normal force below ``MIN_NORMAL``, so it has no
    center of pressure; the message names its wrench label and force."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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
    world, and grasps hold the payload; both name an index of
    ``agents``.  Wrench ordering in every stacked result follows
    ``env_contacts`` then ``grasps``, 6 rows each.
    ``parametrized_agent`` names the subsystem whose hardware responds
    to optimization parameters (the robot).

    Every table that depends only on the system is a cached property,
    built once; its arrays are read-only, since every call shares them.
    """

    agents: tuple
    payload: Optional[Model] = None
    env_contacts: tuple = ()
    grasps: tuple = ()
    parametrized_agent: int = -1

    def __post_init__(self):
        if self.payload is not None and self.payload.n_joints != 0:
            raise ValueError("payload must be a single rigid body")
        for agent, frame in self.env_contacts:
            if not 0 <= agent < len(self.agents):
                raise ValueError(f"environment contact {frame!r} references "
                                 f"missing agent {agent}")
        for g in self.grasps:
            if self.payload is None:
                raise ValueError("grasps require a payload")
            if not 0 <= g.agent < len(self.agents):
                raise ValueError(f"grasp references missing agent {g.agent}")

    @property
    def parametrized_index(self) -> int:
        """Subsystem index of the agent the parameters set (the robot)."""
        return self.parametrized_agent % len(self.agents)

    @property
    def parametrized_model(self) -> Model:
        return self.agents[self.parametrized_index]

    def subsystem_models(self, params: Optional[Mapping] = None):
        """The agents, the parametrized one carrying ``params`` (checked
        against its bounds by ``apply_hardware``), then the payload."""
        models = list(self.agents)
        idx = self.parametrized_index
        models[idx] = apply_hardware(models[idx], params)
        if self.payload is not None:
            models.append(self.payload)
        return models

    @cached_property
    def velocity_layout(self):
        """Velocity dimension of each subsystem and their offsets."""
        dims = tuple(6 + m.n_joints for m in self.subsystem_models())
        return dims, _read_only(np.concatenate([[0], np.cumsum(dims)]))

    @cached_property
    def actuated(self):
        """Composite velocity rows of the joints: ``tau = lam[actuated]``."""
        _, offsets = self.velocity_layout
        return _read_only(np.concatenate([
            np.arange(o + 6, o + 6 + m.n_joints)
            for o, m in zip(offsets, self.agents)]))

    @cached_property
    def unactuated(self):
        """Composite velocity rows of the floating bases, the rows that
        ``actuated`` leaves out."""
        n_vel = int(self.velocity_layout[1][-1])
        return _read_only(np.setdiff1d(np.arange(n_vel), self.actuated))

    @cached_property
    def coupling_frames(self):
        """Per subsystem: (frame, 6-row block, sign) of each coupling row.

        Blocks follow ``env_contacts`` then ``grasps``; a grasp couples
        the agent frame (+) with the payload frame (-) in one block.
        """
        out = [[] for _ in self.velocity_layout[0]]
        for k, (agent, frame) in enumerate(self.env_contacts):
            out[agent].append((frame, k, 1))
        for k, g in enumerate(self.grasps, start=len(self.env_contacts)):
            out[g.agent].append((g.agent_frame, k, 1))
            out[-1].append((g.payload_frame, k, -1))
        return tuple(tuple(frames) for frames in out)

    @cached_property
    def coupling_blocks(self):
        """Per subsystem with ``coupling_frames``: its index, the frame
        names, their ``(F, 6)`` rows of ``Q`` (and of the wrenches) and
        their ``(F, 1)`` signs."""
        out = []
        for s, frames in enumerate(self.coupling_frames):
            if frames:
                names, blocks, signs = zip(*frames)
                rows = 6 * np.array(blocks)[:, None] + np.arange(6)
                out.append((s, names, _read_only(rows),
                            _read_only(np.array(signs, dtype=float)[:, None])))
        return tuple(out)

    @cached_property
    def frame_slots(self):
        """Rows of ``coupled_points`` for the env contacts ``(E,)``, the
        grasps' agent frames ``(G,)`` and their payload frames ``(G,)``."""
        slots = {}
        for k, (_, row, sign) in enumerate(
                f for frames in self.coupling_frames for f in frames):
            slots[row, sign] = k
        E = len(self.env_contacts)
        grasp_rows = range(E, E + len(self.grasps))
        return tuple(_read_only(np.array(ks, dtype=int)) for ks in (
            [slots[r, 1] for r in range(E)],
            [slots[r, 1] for r in grasp_rows],
            [slots[r, -1] for r in grasp_rows]))

    @cached_property
    def contact_groups(self):
        """The environment contacts agent by agent: ``(agent, frame
        names)`` per agent in index order, and the rows that put that
        agent-by-agent stack back in ``env_contacts`` order."""
        agents = [a for a, _ in self.env_contacts]
        groups = tuple((a, tuple(f for b, f in self.env_contacts if b == a))
                       for a in sorted(set(agents)))
        return groups, _read_only(np.argsort(np.argsort(agents,
                                                        kind="stable")))

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


def _statics_trees(sys: CoupledSystem, q, params, trees):
    """The trees a statics call reads: ``trees`` as given, or those of
    ``q`` on the hardware ``params``.  A call gives one or the other;
    trees already carry their hardware, so ``params`` never comes with
    them.  Raises ValueError otherwise."""
    if trees is None:
        if q is None:
            raise ValueError("statics need a configuration or trees")
        return coupled_trees(sys, q, params)
    if q is not None or params is not None:
        raise ValueError("statics take trees or a configuration and "
                         "hardware, not both")
    return trees


def coupling_matrix(sys: CoupledSystem, trees):
    """Stacked contact constraint matrix over the composite velocity.

    One ``frame_jacobian`` call per subsystem gives the Jacobians of all
    its contact and grasp frames, ``(..., F, 6, 6 + n)``; times their
    signs they are written into a preallocated ``Q`` at the rows of
    ``CoupledSystem.coupling_blocks``.  Plain only: ``trees`` (from
    ``coupled_trees``) must hold plain arrays, since the statics take the
    tangents of ``Q`` by contraction; a ``Dual`` tree raises TypeError.
    """
    dims, offsets = sys.velocity_layout
    n_rows = 6 * (len(sys.env_contacts) + len(sys.grasps))
    Q = np.zeros(trees[0].pos.shape[:-2] + (n_rows, int(offsets[-1])))
    for s, names, rows, sign in sys.coupling_blocks:
        J = frame_jacobian(trees[s], names)
        if isinstance(J, fad.Dual):
            raise TypeError("coupling_matrix takes plain trees only")
        Q[..., rows, offsets[s]:offsets[s] + dims[s]] = sign[..., None] * J
    return Q


def _widen(x, dirs, s):
    """Subsystem s's part x, its tangent placed at its rows of ``dirs``."""
    return x if dirs is None else fad.widen(x, dirs[0][s], dirs[1])


def composite_gravity(sys: CoupledSystem, trees, dirs=None):
    """Stacked generalized gravity of the subsystems' trees (one per
    subsystem, as from ``coupled_trees``); ``dirs`` as in the module
    docstring."""
    return fad.concatenate([
        _widen(gravity_vector(t), dirs, s) for s, t in enumerate(trees)],
        axis=-1)


def coupled_points(sys: CoupledSystem, trees, dirs=None):
    """World positions ``(..., F, 3)`` of every coupled frame, one
    ``frame_points`` gather per subsystem.

    Rows follow ``coupling_frames`` subsystem by subsystem;
    ``CoupledSystem.frame_slots`` locates the contacts and grasps.
    ``dirs`` as in the module docstring.
    """
    return fad.concatenate([_widen(trees[s].frame_points(names), dirs, s)
                            for s, names, _, _ in sys.coupling_blocks],
                           axis=-2)


def contact_rotations(sys: CoupledSystem, trees, dirs=None):
    """World rotations ``(..., E, 3, 3)`` of the environment contacts, in
    ``env_contacts`` order, one ``frame_rotations`` call per agent; no
    other frame's rotation is formed.  ``dirs`` as in the module
    docstring."""
    groups, order = sys.contact_groups
    R = fad.concatenate([_widen(trees[a].frame_rotations(names), dirs, a)
                         for a, names in groups], axis=-3)
    return R[..., order, :, :]


# ---------------------------------------------------------------------------
# statics


def _full_rank(R: np.ndarray) -> bool:
    """Whether the square ``R`` has ``sv[-1] > RANK_TOL * sv[0]``.

    The product of the Frobenius norms of ``R`` and of its inverse
    bounds the 2-norm condition number ``sv[0] / sv[-1]`` from above,
    so a bound below ``1 / RANK_TOL`` certifies full rank without an
    SVD.  Only when the bound cannot decide (it may exceed the condition
    number by up to the matrix order, or ``R`` cannot be inverted) do
    the singular values of ``R`` decide.
    """
    try:
        bound = np.linalg.norm(R) * np.linalg.norm(np.linalg.inv(R))
    except np.linalg.LinAlgError:
        bound = np.inf
    if bound < 1.0 / RANK_TOL:
        return True
    sv = np.linalg.svd(R, compute_uv=False)
    return not (sv.size and sv[-1] <= RANK_TOL * sv[0])


def _constraint_qr(Q: np.ndarray, labels):
    """Factors ``Q^T = Q1 R`` of the coupling matrix; fails when its rows
    are dependent.

    The columns of ``Q1`` are an orthonormal basis of ``range(Q^T)``,
    the generalized forces the contacts can exert, and ``R`` has the
    singular values of ``Q``, so the rank check reads the small triangle
    ``R``: the contact set is rank deficient when the rows outnumber the
    columns or ``sv[-1] <= RANK_TOL * sv[0]``.  A full-rank ``R`` is
    certified by ``_full_rank``'s bound on its condition number, and its
    SVD runs only when the bound cannot decide.  The SVD of ``Q`` runs
    only for a rank-deficient set, to name (by ``labels``, one per 6-row
    block) the dominant rows of its last left singular vector in the
    SingularConstraintError it always raises.
    """
    Q1, R = np.linalg.qr(Q.T)
    if len(R) < len(Q) or not _full_rank(R):
        U = np.linalg.svd(Q)[0]
        bad = np.argsort(-np.abs(U[:, -1]))[:6]
        names = [labels[b // 6] for b in sorted(bad)]
        raise SingularConstraintError(
            "rank-deficient contact constraints; dominant rows: "
            + ", ".join(dict.fromkeys(names)))
    return Q1, R


def _saddle_solve(sys: CoupledSystem, K, Qa, rhs):
    """Solve ``[[B B^T, Q^T], [Q, 0]] [lam; f] = rhs`` through ``K``.

    ``rhs`` ``(..., n_vel + n_c, m)`` holds m right-hand sides as
    columns; ``K`` and ``Qa`` come from ``_saddle_statics``.  Returns
    ``tau = lam[actuated]``, ``lam[unactuated]`` and ``f``, each with
    the m columns.  A singular ``K`` means some body is held by no
    contact.
    """
    n_c = Qa.shape[-2]
    r_vel, r_c = rhs[..., :-n_c, :], rhs[..., -n_c:, :]
    r_a = r_vel[..., sys.actuated, :]
    reduced = np.concatenate([r_c - Qa @ r_a,
                              r_vel[..., sys.unactuated, :]], axis=-2)
    try:
        sol = np.linalg.solve(K, reduced)
    except np.linalg.LinAlgError as exc:
        raise SingularConstraintError(
            "singular statics: some body is held by no contact") from exc
    f = sol[..., :n_c, :]
    return r_a - np.swapaxes(Qa, -1, -2) @ f, sol[..., n_c:, :], f


def _saddle_statics(sys: CoupledSystem, Q: np.ndarray, g: np.ndarray):
    """The saddle system with right-hand side ``[g; 0]`` on plain arrays.

    ``Q`` ``(..., n_c, n_vel)`` and ``g`` ``(..., n_vel)`` may stack
    postures.  Builds ``K = [[-Q_a Q_a^T, Q_b], [Q_b^T, 0]]`` from the
    actuated and unactuated columns of ``Q`` and returns ``K``, ``Q_a``
    (for tangent solves), ``tau``, ``lam`` and ``f``.  ``f`` is a copy,
    so a kept result does not hold the whole solution.
    """
    act, unact = sys.actuated, sys.unactuated
    n_c = Q.shape[-2]
    Qa, Qb = Q[..., act], Q[..., unact]
    K = np.zeros(Q.shape[:-2] + (n_c + unact.size,) * 2)
    K[..., :n_c, :n_c] = -(Qa @ np.swapaxes(Qa, -1, -2))
    K[..., :n_c, n_c:] = Qb
    K[..., n_c:, :n_c] = np.swapaxes(Qb, -1, -2)
    rhs = np.concatenate([g, np.zeros(g.shape[:-1] + (n_c,))], axis=-1)
    tau, lam_b, f = _saddle_solve(sys, K, Qa, rhs[..., None])
    lam = np.empty_like(g)
    lam[..., act] = tau[..., 0]
    lam[..., unact] = lam_b[..., 0]
    return K, Qa, tau[..., 0], lam, f[..., 0].copy()


def static_torques(sys: CoupledSystem, q: CoupledConfiguration) -> np.ndarray:
    """Minimum-norm joint torques sustaining the configuration at rest,
    on the nominal hardware."""
    tau, _ = statics_minnorm(sys, q)
    return tau


def contact_wrenches(sys: CoupledSystem, q: CoupledConfiguration,
                     tau: np.ndarray) -> np.ndarray:
    """Least-squares contact wrenches ``f`` with ``Q^T f = g - B tau``, on
    the nominal hardware."""
    trees = coupled_trees(sys, q)
    Q = coupling_matrix(sys, trees)
    g = fad.value(composite_gravity(sys, trees))
    Q1, R = _constraint_qr(Q, sys.wrench_labels)
    B_tau = np.zeros_like(g)
    B_tau[sys.actuated] = tau
    return np.linalg.solve(R, Q1.T @ (g - B_tau))


def statics_minnorm(sys: CoupledSystem,
                    q: Optional[CoupledConfiguration] = None,
                    params: Optional[Mapping] = None, trees=None,
                    dirs=None):
    """Static torques and wrenches from the least-norm saddle system.

    Solves ``[[B B^T, Q^T], [Q, 0]] [lam; f] = [g; 0]`` through its
    reduced kernel ``K`` and reads ``tau = B^T lam``, for one posture or
    a stack of them.  The solution is smooth in every input, and with
    ``Dual`` inputs the tangents follow from differentiating the saddle
    system (the tangent rule by contraction in the module docstring), so
    this is the formulation the optimizer differentiates through.  It
    reads ``trees`` (from ``coupled_trees``) or builds them from ``q``
    and ``params``, refusing concrete hardware outside the robot's
    bounds with ValueError (``apply_hardware``); giving both raises
    ValueError too.  With ``dirs`` each subsystem's tree may carry only
    its own directions (see the module docstring); the results carry
    all ``ndir``.
    """
    trees = _statics_trees(sys, q, params, trees)
    Q = coupling_matrix(sys, [t.value() for t in trees])
    g = composite_gravity(sys, trees, dirs)
    K, Qa, tau, lam, f = _saddle_statics(sys, Q, fad.value(g))
    if not isinstance(g, fad.Dual):
        return tau, f
    # tangent rule: A sol_dot = rhs_dot - A_dot sol, with A_dot carrying
    # only the coupling blocks, solved through the same K; the
    # directions are rhs's last axis, and rhs_dot is a view with them
    # first
    dims, offsets = sys.velocity_layout
    n_vel = offsets[-1]
    rhs = np.zeros(g.val.shape[:-1] + (n_vel + f.shape[-1], g.ndir))
    rhs_dot = np.moveaxis(rhs, -1, 0)
    rhs_dot[..., :n_vel] = g.dot
    for s, names, block, sign in sys.coupling_blocks:
        cols = slice(offsets[s], offsets[s] + dims[s])
        # the subsystem's directions of rhs_dot: a copy with dirs, which
        # is written back, since two index arrays do not combine
        rows = slice(None) if dirs is None else dirs[0][s]
        sub = rhs_dot[rows]
        force = generalized_force(trees[s], names, sign * f[..., block])
        if isinstance(force, fad.Dual):
            sub[..., cols] -= force.dot
        twists = frame_twists(trees[s], names, lam[..., cols])
        if isinstance(twists, fad.Dual):
            d = sign * twists.dot
            sub[..., n_vel + block.ravel()] -= d.reshape(
                d.shape[:-2] + (-1,))
        rhs_dot[rows] = sub
    tau_dot, _, f_dot = _saddle_solve(sys, K, Qa, rhs)
    # the tangents in C order, directions first
    return (fad.Dual(tau, np.ascontiguousarray(np.moveaxis(tau_dot, -1, 0))),
            fad.Dual(f, np.ascontiguousarray(np.moveaxis(f_dot, -1, 0))))


# ---------------------------------------------------------------------------
# center of pressure


def cop_smooth(wrench6, sole_rot):
    """Differentiable CoP of mixed-frame wrenches, normal force floored.

    ``wrench6`` ``(..., 6)`` and ``sole_rot`` ``(..., 3, 3)`` give CoPs
    ``(..., 2)``: ``[-tau_y / f_z, tau_x / f_z]`` of the wrench in the
    sole frame, with ``f_z`` floored at ``MIN_NORMAL``.  The floor only
    engages for (physically meaningless) unloaded feet, keeping solver
    iterates finite; ``evaluate_statics`` refuses such feet, so the CoPs
    it reports are never floored.
    """
    Rt = fad.mT(sole_rot)
    f_sole = (Rt @ wrench6[..., :3, None])[..., 0]
    t_sole = (Rt @ wrench6[..., 3:, None])[..., 0]
    fz = fad.maximum(f_sole[..., 2], MIN_NORMAL)
    return fad.stack([-t_sole[..., 1] / fz, t_sole[..., 0] / fz], axis=-1)


def evaluate_statics(sys: CoupledSystem,
                     q: Optional[CoupledConfiguration] = None,
                     params: Optional[Mapping] = None,
                     trees=None) -> StaticsResult:
    """Full static analysis from the saddle system, with residual checks.

    ``projected_residual`` is the largest entry of the part of
    ``r = g - B tau`` off ``range(Q^T)``, which no contact wrench can
    balance: ``r - Q1 (Q1^T r)``, with the orthonormal basis ``Q1`` of
    the factors ``Q^T = Q1 R`` that ``_constraint_qr`` checks for rank
    (a full-rank call whose ``R`` the condition bound certifies runs no
    SVD; the SVD of ``R`` runs where the bound cannot decide, and that
    of ``Q`` only when the check refuses);
    ``equilibrium_residual`` is the largest entry of
    ``B tau + Q^T f - g``.  ``cops`` maps each environment contact's
    wrench label to its ``cop_smooth`` CoP.  Raises
    SingularConstraintError for a rank-deficient contact set or a body
    held by no contact, and UnloadedFootError, naming the first such
    foot, when a foot's sole-frame normal force is below ``MIN_NORMAL``.
    Like ``statics_minnorm`` it reads ``trees`` or builds them from
    ``q`` and ``params``, never both, and raises ValueError for
    hardware outside the robot's bounds.
    """
    trees = _statics_trees(sys, q, params, trees)
    Q = coupling_matrix(sys, trees)
    g = fad.value(composite_gravity(sys, trees))
    Q1, _ = _constraint_qr(Q, sys.wrench_labels)
    _, _, tau, _, f = _saddle_statics(sys, Q, g)
    B_tau = np.zeros_like(g)
    B_tau[sys.actuated] = tau
    r = g - B_tau
    proj = float(np.abs(r - Q1 @ (Q1.T @ r)).max())
    # summed as B tau + Q^T f - g, not Q^T f - r, which rounds otherwise
    full = float(np.abs(B_tau + Q.T @ f - g).max())
    R = contact_rotations(sys, trees)
    w = f[:6 * len(R)].reshape(-1, 6)
    fz = (fad.mT(R) @ w[:, :3, None])[:, 2, 0]
    labels = sys.wrench_labels[:len(R)]
    unloaded = np.flatnonzero(fz < MIN_NORMAL)
    if unloaded.size:
        k = unloaded[0]
        raise UnloadedFootError(
            f"{labels[k]}: sole normal force {fz[k]:.3f} N below "
            f"{MIN_NORMAL} N")
    cops = dict(zip(labels, cop_smooth(w, R)))
    return StaticsResult(tau=tau, wrenches=f, cops=cops,
                         projected_residual=proj, equilibrium_residual=full)
