"""Lifting scenario: two agents, a shared payload, target heights.

Builds the coupled system (environment contacts at the four soles,
rigid grasps pairing each hand with a payload grasp point) and provides
the deterministic warm-start generator: a damped least-squares inverse
kinematics pass that plants the feet, reaches the hands toward their
grasp points, and crouches as needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coupled import CoupledConfiguration, CoupledSystem, GraspPair
from .multibody import (Configuration, Model, frame_jacobian, kinematics,
                        perturb_configuration)
from .nlpsolver import SolverOptions
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


@dataclass(frozen=True, eq=False)
class Scenario:
    """Everything needed to pose and solve the co-design problem."""

    human: Model
    robot: Model
    heights: tuple
    payload_size: tuple = (0.5, 0.5, 0.025)
    payload_mass: float = 5.0
    # grasp points on the payload, [left hand, right hand] per agent,
    # expressed in the payload frame (origin at bottom-face center)
    grasps_human: tuple = ()
    grasps_robot: tuple = ()
    weights: TaskWeights = field(default_factory=TaskWeights)
    preferred_densities: tuple = (1000.0, 2700.0)
    cop_target: tuple = (0.0, 0.0)
    solver: SolverOptions = field(default_factory=SolverOptions)
    seed: int = 0

    def __post_init__(self):
        if not self.heights:
            raise ValueError("scenario needs at least one target height")
        if list(self.heights) != sorted(self.heights):
            raise ValueError("heights must be sorted ascending")
        if any(h <= 0 for h in self.heights):
            raise ValueError("heights must be positive")
        if not self.preferred_densities:
            raise ValueError("scenario needs at least one preferred density")
        if any(w < 0 for w in (self.weights.torque, self.weights.density,
                               self.weights.cop, self.weights.com_height)):
            raise ValueError("task weights must be nonnegative")
        if self.payload_mass <= 0 or any(s <= 0 for s in self.payload_size):
            raise ValueError("payload must have positive size and mass")


def default_grasps(agent: Model, side: float, payload_size) -> tuple:
    """Left/right grasp points on one payload edge, shoulder width apart.

    ``side`` is the sign of the payload-frame y edge the agent holds.
    """
    q = Configuration.neutral(agent)
    tree = kinematics(agent, q)
    _, hl = tree.frame_pose(agent.frames_with_role("left_hand")[0])
    _, hr = tree.frame_pose(agent.frames_with_role("right_hand")[0])
    half = min(abs(float(hl[1] - hr[1])) / 2.0, 0.45 * payload_size[0])
    y = side * payload_size[1] / 2.0
    z = payload_size[2] / 2.0
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
    payload_size = kwargs.pop("payload_size", (0.5, 0.5, 0.025))
    grasps_h = kwargs.pop("grasps_human", None)
    grasps_r = kwargs.pop("grasps_robot", None)
    if grasps_h is None:
        grasps_h = default_grasps(human, -1.0, payload_size)
    if grasps_r is None:
        grasps_r = default_grasps(robot, +1.0, payload_size)
    return Scenario(human=human, robot=robot, heights=tuple(heights),
                    payload_size=payload_size, grasps_human=tuple(grasps_h),
                    grasps_robot=tuple(grasps_r), **kwargs)


GRASP_FRAMES = (("g_human_l", "g_human_r"), ("g_robot_l", "g_robot_r"))


def build_system(scenario: Scenario) -> CoupledSystem:
    points = {}
    for (names, pts) in zip(GRASP_FRAMES,
                            (scenario.grasps_human, scenario.grasps_robot)):
        points[names[0]], points[names[1]] = pts
    payload = build_payload(scenario.payload_size, scenario.payload_mass,
                            points)
    env = tuple((a, s) for a in (0, 1) for s in ("sole_left", "sole_right"))
    agents = (scenario.human, scenario.robot)
    grasps = tuple(
        GraspPair(agent, agents[agent].frames_with_role(f"{side}_hand")[0],
                  GRASP_FRAMES[agent][k])
        for agent in (0, 1) for k, side in enumerate(("left", "right")))
    return CoupledSystem(agents=(scenario.human, scenario.robot),
                         payload=payload, env_contacts=env, grasps=grasps,
                         parametrized_agent=1)


# ---------------------------------------------------------------------------
# warm start


def rpy_from_matrix(R):
    """ZYX Euler angles (roll, pitch, yaw) of a rotation matrix."""
    R = np.asarray(R, dtype=float)
    pitch = -np.arcsin(np.clip(R[2, 0], -1.0, 1.0))
    roll = np.arctan2(R[2, 1], R[2, 2])
    yaw = np.arctan2(R[1, 0], R[0, 0])
    return np.array([roll, pitch, yaw])


def _orientation_error(R, R_target):
    """Small-angle world rotation taking R to R_target."""
    R = np.asarray(R)
    R_target = np.asarray(R_target)
    E = R_target @ R.T
    return 0.5 * np.array([E[2, 1] - E[1, 2],
                           E[0, 2] - E[2, 0],
                           E[1, 0] - E[0, 1]])


def _ik_solve(model, q0, pose_targets, point_targets, s_ref, iters=80,
              damping=1e-3, posture_weight=0.05):
    """Damped least-squares IK toward frame poses and points.

    Each iteration takes the Jacobians of every target frame, pose
    targets first, from one batched ``frame_jacobian`` call; a point
    target uses only the linear rows.  Deterministic: fixed iteration
    count and step rule.  Returns the reached configuration; callers
    treat it as a warm start, not as an exact solve.
    """
    q = q0
    n = model.n_joints
    lo, hi = model.joint_limits()
    reg = np.zeros((n, 6 + n))
    reg[:, 6:] = posture_weight * np.eye(n)
    frames = (*pose_targets, *point_targets)
    for _ in range(iters):
        tree = kinematics(model, q)
        J = frame_jacobian(model, q, frames, tree)
        rows = []
        rhs = []
        for Jk, (frame, (p_t, R_t, w)) in zip(J, pose_targets.items()):
            R, p = tree.frame_pose(frame)
            rows.append(w * Jk)
            rhs.append(w * np.concatenate([
                np.asarray(p_t) - np.asarray(p),
                _orientation_error(R, R_t)]))
        for Jk, (frame, (p_t, w)) in zip(J[len(pose_targets):],
                                         point_targets.items()):
            _, p = tree.frame_pose(frame)
            rows.append(w * Jk[:3])
            rhs.append(w * (np.asarray(p_t) - np.asarray(p)))
        rows.append(reg)
        rhs.append(posture_weight * (s_ref - q.s))
        A = np.vstack(rows)
        b = np.concatenate(rhs)
        step = np.linalg.solve(A.T @ A + damping * np.eye(6 + n), A.T @ b)
        norm = np.linalg.norm(step)
        if norm > 0.5:
            step *= 0.5 / norm
        q = perturb_configuration(q, step)
        q = Configuration(q.base_pos, q.base_rot,
                          np.clip(q.s, lo + 1e-3, hi - 1e-3))
    return q


def _agent_warm_start(model, y_stand, yaw, grasp_world):
    base_h, shoulder, reach = stance_dimensions(model)
    g_z = float(np.mean([p[2] for p in grasp_world]))
    drop = g_z - shoulder
    horiz = np.sqrt(max(reach ** 2 - drop ** 2, (0.35 * reach) ** 2))
    # stand a fixed standoff away from the grasp line
    y0 = np.sign(y_stand) * (abs(float(np.mean([p[1] for p in grasp_world])))
                             + 0.85 * horiz)
    crouch = min(max(shoulder - (g_z + 0.25 * reach), 0.0), 0.35 * base_h)
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
    q0 = Configuration(np.array([0.0, y0, base_h - crouch]), R0, s0)

    tree0 = kinematics(model, q0)
    pose_targets = {}
    for role in ("left_foot", "right_foot"):
        for name in model.frames_with_role(role):
            _, p = tree0.frame_pose(name)
            target_p = np.array([float(p[0]), float(p[1]), 0.0])
            pose_targets[name] = (target_p, R0, 4.0)
    point_targets = {
        model.frames_with_role("left_hand")[0]: (np.asarray(grasp_world[0]), 2.0),
        model.frames_with_role("right_hand")[0]: (np.asarray(grasp_world[1]), 2.0),
    }
    return _ik_solve(model, q0, pose_targets, point_targets, s_ref=s_ref)


def warm_start_configuration(scenario: Scenario, sys: CoupledSystem,
                             height: float) -> CoupledConfiguration:
    """Deterministic initial pose for one target height."""
    payload_pos = np.array([0.0, 0.0, float(height)])
    qs = []
    for agent, (model, grasps, y_side) in enumerate(
            ((scenario.human, scenario.grasps_human, -1.0),
             (scenario.robot, scenario.grasps_robot, 1.0))):
        yaw = y_side * (-np.pi / 2.0)  # human faces +y, robot faces -y
        grasp_world = [payload_pos + np.asarray(p) for p in grasps]
        qs.append(_agent_warm_start(model, y_side * 0.6, yaw, grasp_world))
    qs.append(Configuration(payload_pos, np.eye(3), np.zeros(0)))
    return CoupledConfiguration(tuple(qs))
