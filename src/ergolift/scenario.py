"""Lifting scenario: two agents, a shared payload, target heights.

Builds the coupled system (environment contacts at the agents'
``Model.feet``, rigid grasps pairing each of their ``Model.hands`` with a
payload grasp point) and provides the deterministic warm-start
generator: a damped least-squares inverse kinematics pass that plants
the feet, reaches the hands toward their grasp points, and crouches as
needed.  Every scenario lifts the same ``PAYLOAD_SIZE`` box, holds it
at the ``default_grasps`` points of its agent models (derived from the
models, not stored) and prefers the ``PREFERRED_DENSITIES`` materials;
its payload mass, heights, task weights and jitter seed are its own.

The inverse kinematics runs on a stack of postures, one per target
height: each iteration takes one whole-tree kinematics pass, one batched
``frame_jacobian`` and ``frame_points`` call, the rotations of the feet
alone and one stacked ``np.linalg.solve`` for every height at once, and
clips each height's step on its own.  A float height gives one
unstacked posture.  The loop stops once every height's step in one
iteration is at most ``IK_STEP_TOL`` long, and after ``IK_ITERS`` (80)
iterations otherwise.  Every height takes its step in every iteration,
so one height that does not converge keeps the whole stack iterating to
the last.  ``warm_start_report`` tells, per agent and height, whether
the IK converged and how far its hands and feet ended from their
targets.

The inverse kinematics is deterministic, so ``warm_start_configuration``
memoizes each agent's posture in a least-recently-used memo of
``WARM_START_MEMO_SIZE`` entries.  An entry's key is what determines
the posture: the agent's ``Model`` object (by identity:
``apply_hardware`` variants share their ``Topology`` but not their link
lengths), the side of the payload it holds, and the shape and values of
the heights (a float height and a one-element array give different
postures).  Its grasp points and the payload positions derive from
these on a miss.  Scenarios that differ only in their payload mass,
task weights or jitter seed, such as repeated solves of one scenario,
so run the inverse kinematics once.  The memo keeps each posture's
``IKReach`` with it, and hands out the same arrays to every caller, so
they are read-only.  The memo is the ``functools.lru_cache`` of
``_agent_posture``: ``scenario._agent_posture.cache_clear`` empties it,
and ``scenario._agent_posture.cache_info`` counts its hits and misses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .coupled import CoupledConfiguration, CoupledSystem, GraspPair
from .multibody import (Configuration, Model, frame_jacobian, kinematics,
                        perturb_configuration)
from .templates import (build_payload, default_human, default_robot,
                        stance_dimensions)


@dataclass(frozen=True, eq=False)
class TaskWeights:
    torque: float = 1.0
    density: float = 1e-8
    cop: float = 100.0
    com_height: float = 10.0

    def total(self):
        return self.torque + self.density + self.cop + self.com_height


# the payload box (x, y, z extents in m) every scenario lifts, and the
# materials (kg/m^3) the density task prefers
PAYLOAD_SIZE = (0.5, 0.5, 0.025)
PREFERRED_DENSITIES = (1000.0, 2700.0)
# the sign of the payload-frame y edge each agent holds: human, robot
AGENT_SIDES = (-1.0, 1.0)


@dataclass(frozen=True, eq=False)
class Scenario:
    """Everything needed to pose and solve the co-design problem.

    The payload is a ``PAYLOAD_SIZE`` box.  The grasp points are not
    stored: ``grasps`` derives them from the agent models.
    """

    human: Model
    robot: Model
    heights: tuple
    payload_mass: float = 5.0
    weights: TaskWeights = field(default_factory=TaskWeights)
    seed: int = 0

    def __post_init__(self):
        if not self.heights:
            raise ValueError("scenario needs at least one target height")
        # chained comparisons, so that NaN fails them
        if not all(0 < h < math.inf for h in self.heights):
            raise ValueError("heights must be positive and finite")
        if list(self.heights) != sorted(self.heights):
            raise ValueError("heights must be sorted ascending")
        w = self.weights
        if not all(0 <= x < math.inf for x in (
                w.torque, w.density, w.cop, w.com_height)):
            raise ValueError("task weights must be nonnegative and finite")
        if not w.total() > 0:
            raise ValueError("task weights must not all be zero")
        if not 0 < self.payload_mass < math.inf:
            raise ValueError("payload must have positive, finite mass")

    @functools.cached_property
    def grasps(self):
        """[left hand, right hand] grasp points of the human, then of the
        robot, in the payload frame (origin at the bottom-face center),
        from ``default_grasps`` on the agents' ``AGENT_SIDES`` edges."""
        return tuple(default_grasps(agent, side) for agent, side in
                     zip((self.human, self.robot), AGENT_SIDES))


def default_grasps(agent: Model, side: float) -> tuple:
    """Left/right grasp points on one payload edge, shoulder width apart.

    ``side`` is the sign of the payload-frame y edge the agent holds.
    """
    q = Configuration.neutral(agent)
    tree = kinematics(agent, q)
    hl, hr = tree.frame_points(agent.hands)
    half = min(abs(float(hl[1] - hr[1])) / 2.0, 0.45 * PAYLOAD_SIZE[0])
    y = side * PAYLOAD_SIZE[1] / 2.0
    z = PAYLOAD_SIZE[2] / 2.0
    # points are ordered [left, right]; the agent faces the payload, so
    # on the y < 0 edge it faces +y and rotz(+pi/2) maps its left (+y)
    # to world -x, while on the y > 0 edge rotz(-pi/2) maps it to +x
    if side < 0:
        return ((-half, y, z), (half, y, z))
    return ((half, y, z), (-half, y, z))


def make_scenario(heights=(0.8, 1.0, 1.2, 1.5), human=None, robot=None,
                  **kwargs) -> Scenario:
    human = human if human is not None else default_human()
    robot = robot if robot is not None else default_robot()
    return Scenario(human=human, robot=robot, heights=tuple(heights),
                    **kwargs)


GRASP_FRAMES = (("g_human_l", "g_human_r"), ("g_robot_l", "g_robot_r"))


def build_system(scenario: Scenario) -> CoupledSystem:
    points = {}
    for names, pts in zip(GRASP_FRAMES, scenario.grasps):
        points[names[0]], points[names[1]] = pts
    payload = build_payload(PAYLOAD_SIZE, scenario.payload_mass, points)
    agents = (scenario.human, scenario.robot)
    env = tuple((a, sole) for a in (0, 1) for sole in agents[a].feet)
    grasps = tuple(GraspPair(a, hand, grasp) for a in (0, 1) for hand, grasp
                   in zip(agents[a].hands, GRASP_FRAMES[a], strict=True))
    return CoupledSystem(agents=agents, payload=payload, env_contacts=env,
                         grasps=grasps, parametrized_agent=1)


# ---------------------------------------------------------------------------
# warm start


def rpy_from_matrix(R):
    """ZYX Euler angles (roll, pitch, yaw) ``(..., 3)`` of rotation
    matrices ``(..., 3, 3)``."""
    R = np.asarray(R, dtype=float)
    pitch = -np.arcsin(np.clip(R[..., 2, 0], -1.0, 1.0))
    roll = np.arctan2(R[..., 2, 1], R[..., 2, 2])
    yaw = np.arctan2(R[..., 1, 0], R[..., 0, 0])
    return np.stack([roll, pitch, yaw], axis=-1)


def _orientation_error(R, R_target):
    """Small-angle world rotations ``(..., 3)`` taking R to R_target."""
    E = np.asarray(R_target) @ np.swapaxes(R, -1, -2)
    # the axial vector of E - E^T: entries (2, 1), (0, 2) and (1, 0)
    return 0.5 * (E - np.swapaxes(E, -1, -2))[..., [2, 0, 1], [1, 2, 0]]


def _norm(v):
    """Euclidean norms ``(..., 1)`` of vectors ``(..., k)``, rounded as a
    dot product like ``np.linalg.norm`` of one vector."""
    return np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]


# a posture's inverse kinematics has converged once its step is at most
# this long (far below the 0.5 clip, so such a step was never clipped)
IK_STEP_TOL = 1e-10
# the IK's iteration cap, its Levenberg-Marquardt damping and the weight
# of the rows pulling the joints toward the reference posture
IK_ITERS = 80
IK_DAMPING = 1e-3
IK_POSTURE_WEIGHT = 0.05
# the weights of the rows holding the feet and reaching the hands
IK_FOOT_WEIGHT = 4.0
IK_HAND_WEIGHT = 2.0


def _ik_solve(model, q0, p_feet, R_feet, p_hands, s_ref):
    """Damped least-squares IK holding the feet and reaching the hands.

    The model's ``Model.feet`` frames are held at positions ``p_feet``
    ``(..., F, 3)`` and the one rotation ``R_feet``, its ``Model.hands``
    frames reach the points ``p_hands`` ``(..., 2, 3)``, and ``s_ref`` is
    the joints' reference posture.  ``q0`` may stack postures; the target
    positions stack with it.  Each iteration takes the Jacobians and
    points of every target frame, feet first, from one batched
    ``frame_jacobian`` and ``frame_points`` call, and the rotations of
    the feet alone; a hand uses only the linear rows.  Each posture's
    step is solved and clipped to length 0.5 on its own, and every
    posture takes its step in every iteration.  Deterministic: the loop
    ends once every posture of the stack has taken a step of at most
    ``IK_STEP_TOL`` in the same iteration, or after ``IK_ITERS``
    iterations.

    Returns ``(q, converged, error)``: the reached configuration, whether
    each posture's last step was at most ``IK_STEP_TOL``, and each
    posture's largest distance in meters from a target frame (a hand or
    a foot) to its target position at ``q``.  Callers treat ``q`` as a
    warm start, not as an exact solve.
    """
    q = q0
    n = model.n_joints
    lo, hi = model.joint_limits()
    lo, hi = lo + 1e-3, hi - 1e-3
    damping = IK_DAMPING * np.eye(6 + n)
    batch = np.shape(q0.s)[:-1]
    feet, hands = model.feet, model.hands
    frames = (*feet, *hands)
    n_pose = len(feet)
    p_t = np.concatenate([p_feet, p_hands], axis=-2)
    w = np.repeat([IK_FOOT_WEIGHT, IK_HAND_WEIGHT], [n_pose, len(hands)])
    w_gap, w_jac, w_rot = w[:, None], w[:, None, None], w[:n_pose, None]
    # the rows of A: 6 per foot, 3 per hand, and the posture
    # regulariser's n, which are written once
    n_pose_rows = 6 * n_pose
    n_task = n_pose_rows + 3 * len(hands)
    A = np.zeros(batch + (n_task + n, 6 + n))
    A[..., n_task:, 6:] = IK_POSTURE_WEIGHT * np.eye(n)
    At = np.swapaxes(A, -1, -2)  # a view: it follows the writes to A
    converged = np.zeros(batch, dtype=bool)
    for it in range(IK_ITERS + 1):
        tree = kinematics(model, q)
        gap = p_t - tree.frame_points(frames)
        if it == IK_ITERS or converged.all():
            break
        err = w_gap * gap
        J = w_jac * frame_jacobian(tree, frames)
        pose_rhs = np.concatenate([
            err[..., :n_pose, :],
            w_rot * _orientation_error(tree.frame_rotations(feet), R_feet)],
            axis=-1)
        A[..., :n_pose_rows, :] = J[..., :n_pose, :, :].reshape(
            batch + (-1, 6 + n))
        A[..., n_pose_rows:n_task, :] = J[..., n_pose:, :3, :].reshape(
            batch + (-1, 6 + n))
        b = np.concatenate([pose_rhs.reshape(batch + (-1,)),
                            err[..., n_pose:, :].reshape(batch + (-1,)),
                            IK_POSTURE_WEIGHT * (s_ref - q.s)], axis=-1)
        step = np.linalg.solve(At @ A + damping, At @ b[..., None])[..., 0]
        length = _norm(step)
        converged = length[..., 0] <= IK_STEP_TOL
        step = step * (0.5 / np.maximum(length, 0.5))
        q = perturb_configuration(q, step)
        q = Configuration(q.base_pos, q.base_rot, np.clip(q.s, lo, hi))
    return q, converged, _norm(gap)[..., 0].max(axis=-1)


def _agent_warm_start(model, side, grasp_world):
    """IK warm start toward ``(..., 2, 3)`` [left, right] grasp points
    on the payload's ``side`` edge: the agent stands beyond that edge,
    facing the payload (the human +y, the robot -y)."""
    base_h, shoulder, reach = stance_dimensions(model)
    g_z = np.mean(grasp_world[..., 2], axis=-1)
    drop = g_z - shoulder
    horiz = np.sqrt(np.maximum(reach ** 2 - drop ** 2, (0.35 * reach) ** 2))
    # stand a fixed standoff away from the grasp line
    y0 = side * (np.abs(np.mean(grasp_world[..., 1], axis=-1))
                 + 0.85 * horiz)
    crouch = np.minimum(np.maximum(shoulder - (g_z + 0.25 * reach), 0.0),
                        0.35 * base_h)
    batch = np.shape(g_z)
    yaw = side * (-np.pi / 2.0)
    R0 = np.array([[np.cos(yaw), -np.sin(yaw), 0],
                   [np.sin(yaw), np.cos(yaw), 0],
                   [0.0, 0, 1]])
    # start with elbows and knees slightly bent: straight limbs are
    # kinematically singular and trap the least-squares steps
    s0 = np.full(model.n_joints, 0.05)
    s_ref = np.zeros(model.n_joints)
    for j, name in enumerate(model.joint_names):
        if name.startswith("forearm"):
            s0[j] = 0.5
            s_ref[j] = 0.5
        elif name.startswith("lower_leg"):
            s0[j] = 0.4
            s_ref[j] = 0.3
    q0 = Configuration(
        np.stack([np.zeros(batch), y0, base_h - crouch], axis=-1),
        np.broadcast_to(R0, batch + (3, 3)),
        np.broadcast_to(s0, batch + s0.shape))

    # each foot is held where it starts, on the ground
    p_feet = kinematics(model, q0).frame_points(model.feet)
    p_feet[..., 2] = 0.0
    return _ik_solve(model, q0, p_feet, R0, grasp_world, s_ref)


# agent postures the warm-start memo keeps; solving one scenario again
# needs two of them, the human's and the robot's
WARM_START_MEMO_SIZE = 8


@dataclass(frozen=True, eq=False)
class IKReach:
    """What one agent's warm-start IK reached, per posture of the stack.

    ``converged`` (bool) holds where the posture's last step was at most
    ``IK_STEP_TOL``; ``error`` is its largest distance in meters from a
    hand or foot frame to its target position (see ``_ik_solve``).  Both
    have the shape of the heights.
    """

    converged: np.ndarray
    error: np.ndarray


@functools.lru_cache(maxsize=WARM_START_MEMO_SIZE)
def _agent_posture(model, side, shape, heights):
    """One agent's warm start and its ``IKReach``, memoized, as
    read-only arrays.

    ``side`` is the sign of the payload edge the agent holds; the
    heights come as their ``shape`` and a flat tuple of their values.
    """
    payload_pos = _payload_positions(np.reshape(heights, shape))
    q, converged, error = _agent_warm_start(
        model, side,
        payload_pos[..., None, :] + default_grasps(model, side))
    converged, error = np.asarray(converged), np.asarray(error)
    for a in (q.base_pos, q.base_rot, q.s, converged, error):
        a.flags.writeable = False
    return q, IKReach(converged, error)


def _agent_postures(scenario: Scenario, heights):
    """The memo's (posture, ``IKReach``) of the human, then the robot."""
    heights = np.asarray(heights, dtype=float)
    return [_agent_posture(model, side, heights.shape, tuple(heights.flat))
            for model, side in zip((scenario.human, scenario.robot),
                                   AGENT_SIDES)]


def _payload_positions(heights):
    heights = np.asarray(heights, dtype=float)
    zero = np.zeros(heights.shape)
    return np.stack([zero, zero, heights], axis=-1)


def warm_start_configuration(scenario: Scenario, sys: CoupledSystem,
                             heights) -> CoupledConfiguration:
    """Deterministic initial pose for each target height.

    A float height gives one posture per subsystem; an array of ``H``
    heights gives postures stacked ``(H, ...)``, from one inverse
    kinematics pass per agent.  Each agent's posture comes from the
    memo (see the module docstring) when its model object, side and
    heights' shape and values match an entry of the last
    ``WARM_START_MEMO_SIZE``; its arrays are read-only.

    ``sys`` is not read: the postures depend on the scenario alone.  The
    argument stays because existing callers pass it positionally.
    """
    payload_pos = _payload_positions(heights)
    batch = payload_pos.shape[:-1]
    qs = [q for q, _ in _agent_postures(scenario, heights)]
    qs.append(Configuration(payload_pos,
                            np.broadcast_to(np.eye(3), batch + (3, 3)),
                            np.zeros(batch + (0,))))
    return CoupledConfiguration(tuple(qs))


def warm_start_report(scenario: Scenario, heights):
    """``IKReach`` of the human and of the robot at the heights.

    Reads the same memo entries as ``warm_start_configuration`` with the
    same heights, so after it (or before it) no second IK runs.  A
    posture that did not converge is a warm start, not an IK solution:
    its targets may be out of the agent's reach.
    """
    return tuple(reach for _, reach in _agent_postures(scenario, heights))
