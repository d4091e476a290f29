"""Bundled reduced humanoid templates and payload builder.

Both agents share one topology: a pelvis base, a pitching torso, 6-DoF
arms (shoulder pitch/roll, elbow, wrist pitch/roll/yaw) and 6-DoF legs
(hip pitch/roll/yaw, knee, ankle pitch/roll).  Multi-DoF joints are
realized as stacks of revolute joints through small connector spheres.
Legs carry all six DoF so that double support is a well-posed rigid
contact set, and arms carry six so that welding both hands to a shared
payload stays a full-rank constraint set away from singular postures.

Conventions: agent forward is +x, left is +y, z is up.  Arm and leg
links grow along their local +z, pointed downward by a fixed roll flip
at the shoulder and hip, so length multipliers stretch limbs along the
chain direction.  Sole frames sit under the feet with z up; hand frames
sit at the palm centers past the wrists.
"""

from __future__ import annotations

import numpy as np

from .multibody import (Configuration, FrameDef, HardwareBounds, Joint, Link,
                        Model, ParamGroup, kinematics)
from .shapes import Box, Cylinder, LinkHardware, Sphere

FLIP = np.array([np.pi, 0.0, 0.0])  # points child z downward
NO_RPY = np.zeros(3)

DEFAULT_HUMAN = {
    "name": "human-1.82m",
    "stature": 1.82,
    "pelvis": {"size": (0.16, 0.30, 0.12), "rho": 1100.0},
    "torso": {"size": (0.20, 0.32, 0.50), "rho": 1050.0},
    "upper_arm": {"r": 0.04, "h": 0.28, "rho": 1000.0},
    "forearm": {"r": 0.035, "h": 0.26, "rho": 1000.0},
    "hand": {"size": (0.03, 0.08, 0.10), "rho": 1000.0},
    "upper_leg": {"r": 0.07, "h": 0.42, "rho": 1050.0},
    "lower_leg": {"r": 0.05, "h": 0.42, "rho": 1050.0},
    "foot": {"size": (0.24, 0.09, 0.04), "rho": 1100.0},
    "connector": {"r": 0.035, "rho": 900.0},
    "hip_half_width": 0.09,
    "shoulder_half_width": 0.22,
    "shoulder_drop": 0.04,
    "palm_offset": 0.06,
    "optimized": False,
}

DEFAULT_ROBOT = {
    "name": "robot-desk",
    "stature": 1.04,
    "pelvis": {"size": (0.12, 0.20, 0.10), "rho": 1800.0},
    "torso": {"size": (0.15, 0.22, 0.32), "rho": 1200.0},
    "upper_arm": {"r": 0.03, "h": 0.19, "rho": 2200.0},
    "forearm": {"r": 0.025, "h": 0.18, "rho": 2200.0},
    "hand": {"size": (0.025, 0.05, 0.07), "rho": 1500.0},
    "upper_leg": {"r": 0.045, "h": 0.24, "rho": 2400.0},
    "lower_leg": {"r": 0.035, "h": 0.23, "rho": 2400.0},
    "foot": {"size": (0.14, 0.06, 0.03), "rho": 2000.0},
    "connector": {"r": 0.028, "rho": 1100.0},
    "hip_half_width": 0.06,
    "shoulder_half_width": 0.13,
    "shoulder_drop": 0.03,
    "palm_offset": 0.04,
    "optimized": True,
}

LIMITS = {
    "torso_pitch": (-0.8, 1.4),
    "shoulder_pitch": (-3.4, 3.4),
    "shoulder_roll": (-1.6, 1.6),
    "elbow": (-2.6, 2.6),
    "wrist_pitch": (-1.5, 1.5),
    "wrist_roll": (-1.2, 1.2),
    "wrist_yaw": (-2.0, 2.0),
    "hip_pitch": (-2.0, 2.0),
    "hip_roll": (-1.0, 1.0),
    "hip_yaw": (-1.2, 1.2),
    "knee": (-2.4, 2.4),
    "ankle_pitch": (-1.4, 1.4),
    "ankle_roll": (-0.8, 0.8),
}

AXIS = {"x": np.array([1.0, 0, 0]), "y": np.array([0.0, 1, 0]),
        "z": np.array([0.0, 0, 1])}


def build_humanoid(spec) -> Model:
    """Humanoid of the shared topology from a ``DEFAULT_HUMAN``-style
    spec."""
    conn_shape = Sphere(spec["connector"]["r"])
    conn_hw = LinkHardware(spec["connector"]["rho"])

    links = []
    frames = []
    index = {}

    def add_link(name, shape, hw, parent_name, axis, offset, rpy, limits):
        joint = None
        parent = -1
        if parent_name is not None:
            parent = index[parent_name]
            joint = Joint(axis=AXIS[axis],
                          offset=np.asarray(offset, float),
                          rpy=np.asarray(rpy, float), limits=limits)
        index[name] = len(links)
        links.append(Link(name, shape, hw, parent, joint))

    pelvis = spec["pelvis"]
    add_link("pelvis", Box(*pelvis["size"]), LinkHardware(pelvis["rho"]),
             None, None, None, None, None)

    torso = spec["torso"]
    add_link("torso", Box(*torso["size"]), LinkHardware(torso["rho"]),
             "pelvis", "y", [0, 0, pelvis["size"][2]], NO_RPY,
             LIMITS["torso_pitch"])

    shoulder_z = torso["size"][2] - spec["shoulder_drop"]
    for side, sign in (("left", 1.0), ("right", -1.0)):
        s = f"_{side}"
        ua, fa, hand = spec["upper_arm"], spec["forearm"], spec["hand"]
        add_link("shoulder" + s, conn_shape, conn_hw, "torso", "y",
                 [0, sign * spec["shoulder_half_width"], shoulder_z], FLIP,
                 LIMITS["shoulder_pitch"])
        add_link("upper_arm" + s, Cylinder(ua["r"], ua["h"]),
                 LinkHardware(ua["rho"]), "shoulder" + s, "x",
                 [0, 0, 0], NO_RPY, LIMITS["shoulder_roll"])
        add_link("forearm" + s, Cylinder(fa["r"], fa["h"]),
                 LinkHardware(fa["rho"]), "upper_arm" + s, "y",
                 [0, 0, ua["h"]], NO_RPY, LIMITS["elbow"])
        add_link("wrist_a" + s, conn_shape, conn_hw, "forearm" + s, "y",
                 [0, 0, fa["h"]], NO_RPY, LIMITS["wrist_pitch"])
        add_link("wrist_b" + s, conn_shape, conn_hw, "wrist_a" + s, "x",
                 [0, 0, 0], NO_RPY, LIMITS["wrist_roll"])
        add_link("hand" + s, Box(*hand["size"]), LinkHardware(hand["rho"]),
                 "wrist_b" + s, "z", [0, 0, 0], NO_RPY, LIMITS["wrist_yaw"])
        frames.append(FrameDef(
            "palm" + s, index["hand" + s],
            np.array([0.0, 0.0, spec["palm_offset"]]), NO_RPY.copy(),
            role=f"{side}_hand"))

    for side, sign in (("left", 1.0), ("right", -1.0)):
        s = f"_{side}"
        ul, ll, foot = spec["upper_leg"], spec["lower_leg"], spec["foot"]
        add_link("hip_a" + s, conn_shape, conn_hw, "pelvis", "y",
                 [0, sign * spec["hip_half_width"], 0], FLIP,
                 LIMITS["hip_pitch"])
        add_link("hip_b" + s, conn_shape, conn_hw, "hip_a" + s, "x",
                 [0, 0, 0], NO_RPY, LIMITS["hip_roll"])
        add_link("upper_leg" + s, Cylinder(ul["r"], ul["h"]),
                 LinkHardware(ul["rho"]), "hip_b" + s, "z",
                 [0, 0, 0], NO_RPY, LIMITS["hip_yaw"])
        add_link("lower_leg" + s, Cylinder(ll["r"], ll["h"]),
                 LinkHardware(ll["rho"]), "upper_leg" + s, "y",
                 [0, 0, ul["h"]], NO_RPY, LIMITS["knee"])
        add_link("ankle" + s, conn_shape, conn_hw, "lower_leg" + s, "y",
                 [0, 0, ll["h"]], NO_RPY, LIMITS["ankle_pitch"])
        add_link("foot" + s, Box(*foot["size"]), LinkHardware(foot["rho"]),
                 "ankle" + s, "x", [0, 0, 0], NO_RPY, LIMITS["ankle_roll"])
        frames.append(FrameDef(
            "sole" + s, index["foot" + s],
            np.array([0.0, 0.0, foot["size"][2]]), FLIP.copy(),
            role=f"{side}_foot"))

    groups = ()
    if spec["optimized"]:
        groups = tuple(
            ParamGroup(base, tuple(n for n in (base, f"{base}_left",
                                               f"{base}_right") if n in index))
            for base in ("torso", "upper_arm", "forearm", "upper_leg",
                         "lower_leg"))
    model = Model(name=spec["name"], links=tuple(links), frames=tuple(frames),
                  groups=groups, bounds=HardwareBounds())
    return model.validate()


def default_human() -> Model:
    return build_humanoid(DEFAULT_HUMAN)


def default_robot() -> Model:
    return build_humanoid(DEFAULT_ROBOT)


def build_payload(size, mass, grasp_points) -> Model:
    """Single-box payload; frame origin at the bottom-face center.

    ``grasp_points`` maps frame names to positions in the payload frame.
    """
    w, h, d = size
    volume = w * h * d
    link = Link("payload", Box(w, h, d), LinkHardware(mass / volume))
    frames = tuple(
        FrameDef(name, 0, np.asarray(p, float), NO_RPY.copy())
        for name, p in grasp_points.items())
    return Model(name="payload", links=(link,), frames=frames).validate()


def stance_dimensions(model: Model) -> tuple:
    """Standing heights of the base and shoulders, and the arm reach.

    All three come from one pass over the zero configuration: the base
    height over the sole plane, the mean shoulder height over it, and
    the shoulder-to-palm distance of the straight left arm.
    """
    tree = kinematics(model, Configuration.neutral(model))
    soles = tree.frame_points(model.feet)
    base = -float(np.mean(soles[:, 2])) if soles.size else 0.0
    z = [tree.pos[model.link_index(f"shoulder_{s}")][2]
         for s in ("left", "right")]
    sh = tree.pos[model.link_index("shoulder_left")]
    [hand] = tree.frame_points(model.hands[:1])
    reach = float(np.linalg.norm(hand - sh))
    return base, float(np.mean(z)) + base, reach
