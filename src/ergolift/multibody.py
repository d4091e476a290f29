"""Floating-base kinematic trees parametrized by link hardware.

A ``Model`` is an ordered list of links connected by 1-DoF joints, plus
named attachment frames (hands, feet, grasp points).  Link geometry and
inertia are functions of the per-link hardware (density, length
multiplier).  Joint and frame offsets are given at unit multiplier; where
poses are computed, their z component is scaled by the multiplier of the
link they are mounted on, so a longer link carries its child joints and
attachment frames along its growth axis.  ``apply_hardware`` therefore
only puts new hardware on links and shares everything else.

Velocity convention is mixed/world-aligned: the base twist is the world
linear velocity of the base origin stacked with the world angular
velocity, and frame Jacobians map ``nu = [v_base; w_base; s_dot]`` to
the same kind of frame twist.

Each constant is derived once, on the definition it comes from: a
``Joint`` stores its fixed rpy rotation and the Rodrigues ``K`` and
``K^2`` of its axis, a ``FrameDef`` its fixed rotation, and a ``Link``
its mass, CoM and inertia about its origin (``Link.inertial``), which
only the links given new hardware derive again.  A ``Model`` caches
only topology: the name maps, the links x dofs path mask and the
revolute flags.  One masked cross product over the stacked joint axes
and pivots gives every point Jacobian, and the mass matrix is
``M = sum_i J_i^T M_i J_i`` over the links, with ``J_i`` the Jacobian
of link i's origin and ``M_i`` its spatial inertia about that origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, Optional

import numpy as np

from . import fad
from .shapes import (LinkHardware, Shape, shape_com, shape_inertia_origin,
                     shape_mass)
from .spatial import (GRAVITY, assemble_spatial_inertia, ensure_rotation,
                      exp_so3, skew)

E3 = np.array([0.0, 0.0, 1.0])

ROLE_LEFT_FOOT = "left_foot"
ROLE_RIGHT_FOOT = "right_foot"
ROLE_LEFT_HAND = "left_hand"
ROLE_RIGHT_HAND = "right_hand"
ROLE_GRASP = "grasp"

_FOOT_ROLES = (ROLE_LEFT_FOOT, ROLE_RIGHT_FOOT)


class ModelError(ValueError):
    """Raised when a model violates a structural invariant."""


class UnknownFrameError(KeyError):
    """Raised when a named frame or link does not exist."""


def _rpy_const(rpy):
    rpy = np.asarray(rpy, dtype=float)
    if not rpy.any():
        return np.eye(3)
    return fad.rpy_matrix(rpy[0], rpy[1], rpy[2])


@dataclass(frozen=True, eq=False)
class Joint:
    """1-DoF joint attaching a link to its parent.

    ``offset`` is expressed in the parent frame at unit length
    multiplier; poses scale its z component by the parent's multiplier.
    ``rpy`` is the fixed rotation applied after the offset, and ``axis``
    is the motion axis in the child frame.  ``rotation`` is the matrix
    of ``rpy``, and ``K``, ``K2`` are ``S(axis)`` and its square, the
    Rodrigues terms of a revolute joint.
    """

    kind: str  # "revolute" | "prismatic"
    axis: np.ndarray
    offset: np.ndarray
    rpy: np.ndarray
    limits: tuple
    rotation: np.ndarray = field(init=False, repr=False)
    K: np.ndarray = field(init=False, repr=False)
    K2: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("revolute", "prismatic"):
            raise ModelError(f"unknown joint kind {self.kind!r}")
        axis = np.asarray(self.axis, dtype=float)
        n = np.linalg.norm(axis)
        if not np.isfinite(n) or n < 1e-12:
            raise ModelError("joint axis must be a nonzero vector")
        object.__setattr__(self, "axis", axis / n)
        object.__setattr__(self, "rpy", np.asarray(self.rpy, dtype=float))
        lo, hi = self.limits
        if not lo < hi:
            raise ModelError("joint limits must satisfy lo < hi")
        object.__setattr__(self, "limits", (float(lo), float(hi)))
        K = skew(self.axis)
        object.__setattr__(self, "rotation", _rpy_const(self.rpy))
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "K2", K @ K)


@dataclass(frozen=True, eq=False)
class Link:
    name: str
    shape: Shape
    hardware: LinkHardware
    parent: int = -1
    joint: Optional[Joint] = None

    @cached_property
    def inertial(self):
        """(mass, CoM, inertia about the origin) in the link frame."""
        return (shape_mass(self.shape, self.hardware),
                shape_com(self.shape, self.hardware),
                shape_inertia_origin(self.shape, self.hardware))


@dataclass(frozen=True, eq=False)
class FrameDef:
    """Named frame rigidly attached to a link.

    ``offset`` is given at unit length multiplier; poses scale its z
    component by the link's multiplier.  ``rotation`` is the matrix of
    ``rpy``.
    """

    name: str
    link: int
    offset: np.ndarray
    rpy: np.ndarray
    role: Optional[str] = None
    rotation: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "rotation", _rpy_const(self.rpy))


@dataclass(frozen=True, eq=False)
class ParamGroup:
    """Links sharing one (density, length multiplier) decision pair."""

    name: str
    links: tuple


@dataclass(frozen=True, eq=False)
class HardwareBounds:
    length_multiplier: tuple = (0.5, 2.0)
    density: tuple = (500.0, 8000.0)


@dataclass(frozen=True, eq=False)
class Model:
    """Kinematic tree: links[0] is the floating base."""

    name: str
    links: tuple
    frames: tuple = ()
    groups: tuple = ()
    bounds: HardwareBounds = field(default_factory=HardwareBounds)

    @property
    def n_joints(self):
        return len(self.links) - 1

    @cached_property
    def _frame_map(self):
        return {f.name: f for f in self.frames}

    @cached_property
    def _link_map(self):
        return {l.name: i for i, l in enumerate(self.links)}

    @cached_property
    def joint_names(self):
        return tuple(l.name for l in self.links[1:])

    @cached_property
    def _path_mask(self):
        """Links x dofs: True where the dof is on the base-to-link path."""
        mask = np.zeros((len(self.links), self.n_joints), dtype=bool)
        for i, link in enumerate(self.links[1:], start=1):
            mask[i] = mask[link.parent]
            mask[i, i - 1] = True
        return mask

    @cached_property
    def _revolute(self):
        return np.array([l.joint.kind == "revolute" for l in self.links[1:]],
                        dtype=bool)

    def link_index(self, name):
        try:
            return self._link_map[name]
        except KeyError:
            raise UnknownFrameError(f"unknown link {name!r}") from None

    def frame(self, name):
        try:
            return self._frame_map[name]
        except KeyError:
            raise UnknownFrameError(f"unknown frame {name!r}") from None

    def frames_with_role(self, role):
        return tuple(f.name for f in self.frames if f.role == role)

    def joint_limits(self):
        lo = np.array([l.joint.limits[0] for l in self.links[1:]])
        hi = np.array([l.joint.limits[1] for l in self.links[1:]])
        return lo, hi

    def total_mass(self):
        return float(sum(fad.value(l.inertial[0]) for l in self.links))

    def group_hardware(self):
        """Nominal (density, length multiplier) per optimization group."""
        out = {}
        for g in self.groups:
            hw = self.links[self.link_index(g.links[0])].hardware
            out[g.name] = (hw.density, hw.length_multiplier)
        return out

    def validate(self):
        if not self.links:
            raise ModelError("model has no links")
        if self.links[0].parent != -1 or self.links[0].joint is not None:
            raise ModelError("links[0] must be the base (no parent, no joint)")
        seen = set()
        for i, link in enumerate(self.links):
            if link.name in seen:
                raise ModelError(f"duplicate link name {link.name!r}")
            seen.add(link.name)
            if i == 0:
                continue
            if link.joint is None:
                raise ModelError(f"link {link.name!r} has no joint")
            if not 0 <= link.parent < i:
                raise ModelError(
                    f"link {link.name!r} parent must precede it in the tree")
        fseen = set()
        for f in self.frames:
            if f.name in fseen:
                raise ModelError(f"duplicate frame name {f.name!r}")
            fseen.add(f.name)
            if not 0 <= f.link < len(self.links):
                raise ModelError(f"frame {f.name!r} references a missing link")
        for g in self.groups:
            for name in g.links:
                if name not in self._link_map:
                    raise ModelError(
                        f"group {g.name!r} references unknown link {name!r}")
        return self


@dataclass(frozen=True, eq=False, slots=True)
class Configuration:
    """Floating-base pose plus joint positions."""

    base_pos: object
    base_rot: object
    s: object

    @staticmethod
    def neutral(model: Model):
        return Configuration(np.zeros(3), np.eye(3), np.zeros(model.n_joints))


# ---------------------------------------------------------------------------
# hardware application


def apply_hardware(model: Model, params: Optional[Mapping[str, LinkHardware]],
                   validate: bool = True) -> Model:
    """Model whose named links carry new hardware.

    Only the links in ``params`` are replaced; every other link, every
    joint and every frame is shared with ``model``, since the mounting
    offsets follow the multipliers where poses are computed.
    """
    if not params:
        return model
    for name in params:
        if name not in model._link_map:
            raise UnknownFrameError(f"unknown link {name!r} in hardware params")
    if validate:
        lo_lm, hi_lm = model.bounds.length_multiplier
        lo_rho, hi_rho = model.bounds.density
        for name, hw in params.items():
            if isinstance(hw.density, (int, float)) and not (
                    lo_rho <= hw.density <= hi_rho):
                raise ValueError(
                    f"density for {name!r} outside bounds [{lo_rho}, {hi_rho}]")
            if isinstance(hw.length_multiplier, (int, float)) and not (
                    lo_lm <= hw.length_multiplier <= hi_lm):
                raise ValueError(
                    f"length multiplier for {name!r} outside bounds "
                    f"[{lo_lm}, {hi_lm}]")
    links = tuple(replace(l, hardware=params[l.name]) if l.name in params
                  else l for l in model.links)
    return Model(name=model.name, links=links, frames=model.frames,
                 groups=model.groups, bounds=model.bounds)


def group_params(model: Model, values: Mapping[str, tuple]) -> dict:
    """Expand per-group (density, multiplier) pairs to per-link hardware."""
    out = {}
    for g in model.groups:
        if g.name not in values:
            continue
        rho, lm = values[g.name]
        for name in g.links:
            out[name] = LinkHardware(density=rho, length_multiplier=lm)
    return out


# ---------------------------------------------------------------------------
# kinematics


@dataclass(eq=False)
class KinTree:
    """World poses of every link plus per-joint world axes and pivots.

    ``axis_w`` and ``pivot_w`` stack one row per joint, shape ``(n, 3)``.
    """

    model: Model
    q: Configuration
    rot: list
    pos: list
    axis_w: object
    pivot_w: object

    def frame_pose(self, name):
        f = self.model.frame(name)
        R = self.rot[f.link]
        lm = self.model.links[f.link].hardware.length_multiplier
        p = self.pos[f.link] + R @ _scale_z(f.offset, lm)
        return R @ f.rotation, p


def _scale_z(offset, lm):
    """Mounting offset slid along its link's growth axis."""
    if isinstance(lm, float) and lm == 1.0:
        return offset
    return fad.stack([offset[0], offset[1], offset[2] * lm])


def kinematics(model: Model, q: Configuration) -> KinTree:
    rot = [q.base_rot]
    pos = [q.base_pos]
    axis_w = []
    pivot_w = []
    for i, link in enumerate(model.links[1:], start=1):
        j = link.joint
        Rp, pp = rot[link.parent], pos[link.parent]
        lm = model.links[link.parent].hardware.length_multiplier
        p_joint = pp + Rp @ _scale_z(j.offset, lm)
        R_pre = Rp @ j.rotation
        sj = q.s[i - 1]
        if j.kind == "revolute":
            # Rodrigues rotation about the fixed joint axis
            R_i = R_pre @ (np.eye(3) + fad.sin(sj) * j.K
                           + (1.0 - fad.cos(sj)) * j.K2)
            p_i = p_joint
        else:
            R_i = R_pre
            p_i = p_joint + R_pre @ (j.axis * sj)
        rot.append(R_i)
        pos.append(p_i)
        axis_w.append(R_pre @ j.axis)
        pivot_w.append(p_joint)
    if not axis_w:
        axis_w = pivot_w = np.zeros((0, 3))
    else:
        axis_w, pivot_w = fad.stack(axis_w), fad.stack(pivot_w)
    return KinTree(model=model, q=q, rot=rot, pos=pos,
                   axis_w=axis_w, pivot_w=pivot_w)


def forward_kinematics(model: Model, q: Configuration, frame: str):
    """World (rotation, position) of a named frame, or of a link frame."""
    tree = kinematics(model, q)
    if frame in model._frame_map:
        return tree.frame_pose(frame)
    if frame in model._link_map:
        i = model.link_index(frame)
        return tree.rot[i], tree.pos[i]
    raise UnknownFrameError(f"unknown frame {frame!r}")


def _point_jacobian(model, tree, link_idx, point_w):
    """Mixed Jacobian of a point riding a given link.

    One masked cross product over the stacked joint axes and pivots: a
    revolute dof on the link's path moves the point by ``a x (p - pivot)``
    and turns it about ``a``, a prismatic one slides it along ``a``, and
    every dof off the path gives a zero column.
    """
    eye, zeros = np.eye(3), np.zeros((3, 3))
    Sd = skew(point_w - tree.pos[0])
    axes = tree.axis_w.T
    on = model._path_mask[link_idx]
    rev = on & model._revolute
    lin = fad.where(rev, fad.cross3(axes, (point_w - tree.pivot_w).T),
                    fad.where(on, axes, 0.0))
    ang = fad.where(rev, axes, 0.0)
    return fad.concatenate([fad.concatenate([eye, -Sd, lin], axis=1),
                            fad.concatenate([zeros, eye, ang], axis=1)],
                           axis=0)


def frame_jacobian(model: Model, q: Configuration, frame: str,
                   tree: Optional[KinTree] = None):
    """Mixed 6x(n+6) Jacobian mapping nu to the frame's world twist."""
    if tree is None:
        tree = kinematics(model, q)
    if frame in model._frame_map:
        f = model.frame(frame)
        link_idx = f.link
        _, p = tree.frame_pose(frame)
    elif frame in model._link_map:
        link_idx = model.link_index(frame)
        p = tree.pos[link_idx]
    else:
        raise UnknownFrameError(f"unknown frame {frame!r}")
    return _point_jacobian(model, tree, link_idx, p)


def link_jacobian(model: Model, q: Configuration, link_idx: int,
                  tree: Optional[KinTree] = None):
    if tree is None:
        tree = kinematics(model, q)
    return _point_jacobian(model, tree, link_idx, tree.pos[link_idx])


# ---------------------------------------------------------------------------
# dynamics at zero velocity


def _mixed_spatial_inertia(inertial, R):
    """6x6 inertia about the link origin, world axes."""
    m, c, I0 = inertial
    m = float(fad.value(m))
    c_w = fad.value(R) @ fad.value(c)
    I_w = fad.value(R) @ fad.value(I0) @ fad.value(R).T
    return assemble_spatial_inertia(m, c_w, I_w)


def mass_matrix(model: Model, q: Configuration,
                tree: Optional[KinTree] = None) -> np.ndarray:
    """Mass matrix in mixed coordinates, ``M = sum_i J_i^T M_i J_i``.

    ``J_i`` is the Jacobian of link i's origin and ``M_i`` the link's
    spatial inertia about that origin, world axes.  The statics do not
    need it; the tests' projector reference and the benchmark's traced
    layers read it.
    """
    if tree is None:
        tree = kinematics(model, q)
    n = model.n_joints
    M = np.zeros((6 + n, 6 + n))
    for i, link in enumerate(model.links):
        J = fad.value(_point_jacobian(model, tree, i, tree.pos[i]))
        M += J.T @ _mixed_spatial_inertia(link.inertial, tree.rot[i]) @ J
    return M


def gravity_vector(model: Model, q: Configuration,
                   tree: Optional[KinTree] = None):
    """Generalized gravity g(q): static equilibrium reads g = B tau + J^T f.

    Computed from subtree mass moments, so it is cheap and dual-safe.
    """
    if tree is None:
        tree = kinematics(model, q)
    L = len(model.links)
    masses = []
    moments = []
    for i, (m, c, _) in enumerate(l.inertial for l in model.links):
        com_w = tree.pos[i] + tree.rot[i] @ c
        masses.append(m)
        moments.append(m * com_w)
    msub = list(masses)
    csub = list(moments)
    for i in range(L - 1, 0, -1):
        par = model.links[i].parent
        msub[par] = msub[par] + msub[i]
        csub[par] = csub[par] + csub[i]

    zero = msub[0] * 0.0
    lin = fad.stack([zero, zero, GRAVITY * msub[0]])
    ang = GRAVITY * fad.cross3(csub[0] - msub[0] * tree.pos[0], E3)
    rows = [lin, ang]
    joint_rows = []
    for j in range(model.n_joints):
        i = j + 1
        link = model.links[i]
        if link.joint.kind == "revolute":
            u = csub[i] - msub[i] * tree.pivot_w[j]
            a = tree.axis_w[j]
            # z component of a x u only
            joint_rows.append(GRAVITY * (a[0] * u[1] - a[1] * u[0]))
        else:
            joint_rows.append(GRAVITY * msub[i] * tree.axis_w[j][2])
    if joint_rows:
        rows.append(fad.stack(joint_rows))
    return fad.concatenate(rows)


def com(model: Model, q: Configuration, tree: Optional[KinTree] = None):
    """World center of mass and total mass."""
    if tree is None:
        tree = kinematics(model, q)
    total = 0.0
    moment = np.zeros(3)
    for i, (m, c, _) in enumerate(l.inertial for l in model.links):
        total = total + m
        moment = moment + m * (tree.pos[i] + tree.rot[i] @ c)
    return moment / total, total


def com_height_null_config(model: Model,
                           params: Optional[Mapping] = None):
    """Whole-body CoM height at zero joint positions, feet on the ground.

    With foot frames present the base is lowered so the mean sole height
    is zero (the two are equal for symmetric models); without feet the
    base frame itself sits on the ground plane.
    """
    scaled = apply_hardware(model, params, validate=False)
    q0 = Configuration(np.zeros(3), np.eye(3),
                       np.zeros(scaled.n_joints))
    tree = kinematics(scaled, q0)
    c, _ = com(scaled, q0, tree)
    feet = [scaled.frame(n) for role in _FOOT_ROLES
            for n in scaled.frames_with_role(role)]
    if not feet:
        return c[2]
    sole = [tree.frame_pose(f.name)[1][2] for f in feet]
    ground = sum(sole) / len(sole)
    return c[2] - ground


# ---------------------------------------------------------------------------
# test helpers


def perturb_configuration(q: Configuration, delta) -> Configuration:
    """Apply a mixed-coordinates displacement [dp, dw, ds] to q."""
    delta = np.asarray(delta, dtype=float)
    return Configuration(
        base_pos=q.base_pos + delta[:3],
        base_rot=exp_so3(delta[3:6]) @ q.base_rot,
        s=q.s + delta[6:],
    )


def random_configuration(model: Model, rng, pos_scale=0.5) -> Configuration:
    lo, hi = model.joint_limits()
    s = rng.uniform(lo, hi)
    w = rng.normal(size=3) * 0.3
    return Configuration(
        base_pos=rng.normal(size=3) * pos_scale,
        base_rot=ensure_rotation(exp_so3(w)),
        s=s,
    )
