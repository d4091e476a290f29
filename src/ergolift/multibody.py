"""Floating-base kinematic trees parametrized by link hardware.

A ``Model`` is an ordered list of links connected by revolute joints,
plus named attachment frames (hands, feet, grasp points).  A frame may
carry a role, and ``Model.feet`` and ``Model.hands`` name the frames of
the foot and hand roles, left then right, so that callers find a
model's soles and palms without spelling their names.  Link geometry
and inertia are functions of the per-link hardware (density, length
multiplier).  Joint and frame offsets are given at unit multiplier;
where poses are computed, their z component is scaled by the multiplier
of the link they are mounted on, so a longer link carries its child
joints and attachment frames along its growth axis.  ``apply_hardware``
therefore only puts new hardware on links and shares everything else.

Velocity convention is mixed/world-aligned: the base twist is the world
linear velocity of the base origin stacked with the world angular
velocity, and frame Jacobians map ``nu = [v_base; w_base; s_dot]`` to
the same kind of frame twist.

Each constant is derived once, on the definition it comes from: a
``Joint`` stores its fixed rpy rotation and the Rodrigues ``K`` and
``K^2`` of its axis, a ``FrameDef`` its fixed rotation, and a ``Link``
its mass and CoM (``Link.mass_com``), which only the links given new
hardware derive again; ``mass_matrix``, the one reader of a link's
inertia, takes it about the origin from ``shape_inertia_origin``.
The index tables of a tree (name maps, the links x dofs path mask,
the depth levels, the joint constants stacked in level order, the
mounts of named frames) live on a ``Topology`` that every hardware
variant of a model shares.  What a variant's hardware fixes is derived
once per model, on first use: the stacked multipliers
(``Model._multipliers``), masses and CoMs (``Model._mass_table``), and
the joint offsets scaled by their parents' multipliers
(``Model._joint_offsets``).

Every pass works on whole-tree arrays and takes the ``KinTree`` it
reads.  ``kinematics`` forms every joint's Rodrigues rotation in one
``fad.rodrigues`` call, walks the tree one depth level at a time on
plain arrays composing them, and returns stacked ``(L, 3, 3)``
rotations and ``(L, 3)`` positions; ``KinTree.frame_points`` and
``frame_jacobian`` gather a tuple of frames at once, the Jacobians as
``(F, 6, 6 + n)`` from one masked cross product over the stacked joint
axes and pivots, and ``KinTree.frame_rotations`` gives the rotations
of only the frames it is asked for; ``gravity_vector`` sums the link
mass moments over subtrees with one matmul, the composite-body
bookkeeping of Featherstone, *Rigid Body Dynamics Algorithms* (2008).
The mass matrix is ``M = sum_i J_i^T M_i J_i`` over the links, with
``J_i`` the Jacobian of link i's origin and ``M_i`` its spatial inertia
about that origin.

Two contractions give products with the frame Jacobians without forming
them: ``generalized_force`` is ``sum_k J_k^T w_k`` for wrenches ``w_k``
at frames, a masked subtree sum of the frame forces and moments like
``gravity_vector``'s, and ``frame_twists`` is ``J_k nu``, a masked path
sum of the joint motions.  With a ``Dual`` tree and plain ``w`` or
``nu`` their tangents are ``sum_k dJ_k^T w_k`` and ``dJ_k nu``.

Tangents are link twists, the motion-vector form of kinematic
derivatives (Carpentier and Mansard, "Analytical derivatives of rigid
body dynamics algorithms", RSS 2018).  When the configuration or the
length multipliers are ``Dual``, each direction moves the tree like a
velocity: the base turns at ``w_b = vee(R_b' R_b^T)`` and moves at
``p_b'``, joint j turns at ``a_j s_j'`` about its pivot ``o_j``, and a
multiplier slides its children's joints along its link's z axis.  So
link i turns at ``w_i = w_b + sum_j a_j s_j'`` over the dofs on its
path, its origin moves at ``p_b' + w_b x (p_i - p_b) + sum_j a_j s_j'
x (p_i - o_j)`` plus the slides on its path, and a joint axis turns
with its parent link, ``a_j' = w_parent x a_j``; each sum is a masked
path sum, as in ``frame_twists``.  A point fixed in link i at the
link-frame offset ``o`` (a frame's mounting point, a link's CoM) moves
at ``p_i' + w_i x (R_i o) + R_i o'``, one rule for both (``_points``).
A rotation's tangent is ``[w_i]x R_i``, which
``KinTree.frame_rotations`` forms only for the frames it is asked for,
so no pass builds the whole tree's ``(L, 3, 3)`` rotation tangents, and
no point's tangent goes through one.  The rule needs a ``Dual`` base
rotation to carry a rotation tangent, ``R_b' R_b^T`` skew, as
``fad.rpy_matrix`` of ``Dual`` angles gives.

Postures may carry leading batch axes: a ``Configuration`` of
``(..., 3)`` base positions, ``(..., 3, 3)`` base rotations and
``(..., n)`` joint positions is a stack of postures of one model, and
every pass indexes links, joints and frames from the trailing axes
(``rot[..., links, :, :]``), so it returns the same stack of results
from one call.  Hardware, and so every model constant, is shared by the
whole stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional

import numpy as np

from . import fad
from .shapes import (LinkHardware, Shape, shape_com, shape_inertia_origin,
                     shape_mass)
from .spatial import GRAVITY, assemble_spatial_inertia, exp_so3, skew

E3 = np.array([0.0, 0.0, 1.0])

# shared by every pose and Jacobian; read-only, so an in-place write raises
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False

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
    """Revolute joint attaching a link to its parent.

    ``offset`` is expressed in the parent frame at unit length
    multiplier; poses scale its z component by the parent's multiplier.
    ``rpy`` is the fixed rotation applied after the offset, and ``axis``
    is the motion axis in the child frame.  ``rotation`` is the matrix
    of ``rpy``, and ``K``, ``K2`` are ``S(axis)`` and its square, the
    Rodrigues terms of the joint's rotation.
    """

    axis: np.ndarray
    offset: np.ndarray
    rpy: np.ndarray
    limits: tuple
    rotation: np.ndarray = field(init=False, repr=False)
    K: np.ndarray = field(init=False, repr=False)
    K2: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
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
    def mass_com(self):
        """(mass, CoM) in the link frame."""
        return (shape_mass(self.shape, self.hardware),
                shape_com(self.shape, self.hardware))


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
class _Level:
    """Joints at one depth.

    ``links`` are the child link indices, ``rows`` each parent's row in
    the previous level's arrays and ``span`` the level's rows of the
    ``Topology.joints`` tables.
    """

    links: np.ndarray
    rows: np.ndarray
    span: slice


@dataclass(frozen=True, eq=False)
class _Joints:
    """Joint constants stacked in level order, the levels one after the
    other: the dofs ``(n,)``, their parent links ``(n,)``, unit-multiplier
    offsets ``(n, 3)``, fixed rotations ``(n, 3, 3)``, axes ``(n, 3)``
    and Rodrigues terms ``K`` and ``K2`` ``(n, 3, 3)``."""

    dofs: np.ndarray
    parents: np.ndarray
    offset: np.ndarray
    rotation: np.ndarray
    axis: np.ndarray
    K: np.ndarray
    K2: np.ndarray


class Topology:
    """Index tables of a tree, built on first use.

    They read only link names, parents and joints and the frames, which
    ``apply_hardware`` shares, so every hardware variant of a model uses
    its nominal model's tables.  ``levels`` splits the joints by depth,
    and ``joints`` stacks their constants level after level, the
    Rodrigues ``K`` and ``K2`` among them, so ``kinematics`` forms every
    joint's rotation in one ``fad.rodrigues`` call and each level reads
    its ``span`` of the result.  The offsets there are at unit
    multiplier; ``Model._joint_offsets`` scales them once per model.
    """

    def __init__(self, links, frames):
        self._links = links
        self._frames = frames
        self._mounts = {}

    @cached_property
    def frame_map(self):
        return {f.name: f for f in self._frames}

    @cached_property
    def link_map(self):
        return {l.name: i for i, l in enumerate(self._links)}

    @cached_property
    def joint_names(self):
        return tuple(l.name for l in self._links[1:])

    @cached_property
    def path_mask(self):
        """Links x dofs: True where the dof is on the base-to-link path."""
        links = self._links
        mask = np.zeros((len(links), len(links) - 1), dtype=bool)
        for i, link in enumerate(links[1:], start=1):
            mask[i] = mask[link.parent]
            mask[i, i - 1] = True
        return mask

    @cached_property
    def joint_mounts(self):
        """Parent link ``(n,)`` and unit-multiplier offset ``(n, 3)`` of
        each joint, in dof order: the rows of ``joints`` that
        ``level_rows`` gives the dofs."""
        rows = self.level_rows[1]
        return self.joints.parents[rows], self.joints.offset[rows]

    @cached_property
    def subtree(self):
        """Links x links: 1 where the column link is in the row's subtree."""
        return np.vstack([np.ones(len(self._links)),
                          self.path_mask.T.astype(float)])

    def mounts(self, names):
        """Links ``(F,)``, unit-multiplier offsets ``(F, 3)`` and fixed
        rotations ``(F, 3, 3)`` of named frames, built once per tuple.

        A link name mounts at the link origin.
        """
        out = self._mounts.get(names)
        if out is None:
            fmap, lmap = self.frame_map, self.link_map
            rows = []
            for n in names:
                if n in fmap:
                    f = fmap[n]
                    rows.append((f.link, f.offset, f.rotation))
                elif n in lmap:
                    rows.append((lmap[n], np.zeros(3), _EYE3))
                else:
                    raise UnknownFrameError(f"unknown frame {n!r}")
            out = (np.array([r[0] for r in rows], dtype=int),
                   np.array([r[1] for r in rows]).reshape(-1, 3),
                   np.array([r[2] for r in rows]).reshape(-1, 3, 3))
            self._mounts[names] = out
        return out

    @cached_property
    def level_rows(self):
        """Rows of each link and of each dof in arrays that concatenate
        the base and then the ``levels`` in order."""
        order = np.concatenate([[0]] + [lv.links for lv in self.levels])
        return np.argsort(order), np.argsort(order[1:] - 1)

    @cached_property
    def levels(self):
        """One ``_Level`` per depth, base excluded, root side first."""
        links = self._links
        depth = [0] * len(links)
        for i, link in enumerate(links[1:], start=1):
            depth[i] = depth[link.parent] + 1
        out = []
        prev = {0: 0}
        start = 0
        for d in range(1, max(depth) + 1):
            idx = [i for i in range(len(links)) if depth[i] == d]
            out.append(_Level(
                links=np.array(idx),
                rows=np.array([prev[links[i].parent] for i in idx]),
                span=slice(start, start + len(idx))))
            prev = {i: r for r, i in enumerate(idx)}
            start += len(idx)
        return tuple(out)

    @cached_property
    def joints(self):
        """The ``_Joints`` tables, in the order of the ``levels``."""
        order = [int(i) for lv in self.levels for i in lv.links]
        joints = [self._links[i].joint for i in order]
        return _Joints(
            dofs=np.array(order, dtype=int) - 1,
            parents=np.array([self._links[i].parent for i in order],
                             dtype=int),
            offset=np.array([j.offset for j in joints]).reshape(-1, 3),
            rotation=np.array([j.rotation for j in joints]).reshape(-1, 3, 3),
            axis=np.array([j.axis for j in joints]).reshape(-1, 3),
            K=np.array([j.K for j in joints]).reshape(-1, 3, 3),
            K2=np.array([j.K2 for j in joints]).reshape(-1, 3, 3))


@dataclass(frozen=True, eq=False)
class Model:
    """Kinematic tree: links[0] is the floating base.

    ``topology`` is built from the links and frames; ``apply_hardware``
    hands its model's to the model it returns.
    """

    name: str
    links: tuple
    frames: tuple = ()
    groups: tuple = ()
    bounds: HardwareBounds = field(default_factory=HardwareBounds)
    topology: Topology = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "topology", Topology(self.links, self.frames))

    @property
    def n_joints(self):
        return len(self.links) - 1

    @property
    def joint_names(self):
        return self.topology.joint_names

    @cached_property
    def _multipliers(self):
        """Per-link length multipliers ``(L,)``; None when all are 1.0."""
        lms = [l.hardware.length_multiplier for l in self.links]
        if all(isinstance(lm, float) and lm == 1.0 for lm in lms):
            return None
        return fad.stack(lms)

    @cached_property
    def _joint_offsets(self):
        """Joint offsets ``(n, 3)`` in the order of ``Topology.joints``,
        the z component scaled by the value of the parent's multiplier:
        the offsets ``kinematics`` reads, scaled once per model."""
        joints = self.topology.joints
        lms = self._multipliers
        if lms is None:
            return joints.offset
        return _scale_z(joints.offset, fad.value(lms)[joints.parents][:, None])

    @cached_property
    def _mass_table(self):
        """Stacked link masses ``(L,)`` and link-frame CoMs ``(L, 3)``."""
        return (fad.stack([l.mass_com[0] for l in self.links]),
                fad.stack([l.mass_com[1] for l in self.links]))

    def link_index(self, name):
        try:
            return self.topology.link_map[name]
        except KeyError:
            raise UnknownFrameError(f"unknown link {name!r}") from None

    @property
    def feet(self):
        """Names of the frames of role "left_foot", then "right_foot"."""
        return self._frames_with_roles("left_foot", "right_foot")

    @property
    def hands(self):
        """Names of the frames of role "left_hand", then "right_hand"."""
        return self._frames_with_roles("left_hand", "right_hand")

    def _frames_with_roles(self, *roles):
        return tuple(f.name for r in roles for f in self.frames if f.role == r)

    def joint_limits(self):
        lo = np.array([l.joint.limits[0] for l in self.links[1:]])
        hi = np.array([l.joint.limits[1] for l in self.links[1:]])
        return lo, hi

    def total_mass(self):
        return float(sum(fad.value(l.mass_com[0]) for l in self.links))

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
                if name not in self.topology.link_map:
                    raise ModelError(
                        f"group {g.name!r} references unknown link {name!r}")
        return self


@dataclass(frozen=True, eq=False, slots=True)
class Configuration:
    """Floating-base pose plus joint positions.

    ``base_pos`` ``(..., 3)``, ``base_rot`` ``(..., 3, 3)`` and ``s``
    ``(..., n)`` share their leading axes, which stack postures.
    """

    base_pos: object
    base_rot: object
    s: object

    @staticmethod
    def neutral(model: Model):
        return Configuration(np.zeros(3), np.eye(3), np.zeros(model.n_joints))


# ---------------------------------------------------------------------------
# hardware application


def apply_hardware(model: Model,
                   params: Optional[Mapping[str, LinkHardware]]) -> Model:
    """Model whose named links carry new hardware.

    Only the links in ``params`` are replaced, each built directly with
    its new hardware; every other link, every joint, every frame and the
    topology are shared with ``model``, since the mounting offsets
    follow the multipliers where poses are computed.  The variant
    derives its own hardware tables (``Model._joint_offsets`` and the
    like) once, when a pass first reads them.

    Every concrete density and multiplier, anything but a ``fad.Dual``,
    is checked against ``model.bounds``; one outside them, or NaN,
    raises ValueError naming its link.  ``Dual`` hardware, which only a
    derivative pass builds, is not checked.
    """
    if not params:
        return model
    bounds = model.bounds
    for name, hw in params.items():
        if name not in model.topology.link_map:
            raise UnknownFrameError(
                f"unknown link {name!r} in hardware params")
        for what, v, (lo, hi) in (
                ("density", hw.density, bounds.density),
                ("length multiplier", hw.length_multiplier,
                 bounds.length_multiplier)):
            if not (isinstance(v, fad.Dual) or lo <= v <= hi):
                raise ValueError(f"{what} {v} for {name!r} outside "
                                 f"bounds [{lo}, {hi}]")
    links = tuple(Link(l.name, l.shape, params[l.name], l.parent, l.joint)
                  if l.name in params else l for l in model.links)
    scaled = Model(name=model.name, links=links, frames=model.frames,
                   groups=model.groups, bounds=model.bounds)
    object.__setattr__(scaled, "topology", model.topology)
    return scaled


def group_params(model: Model, values: Mapping[str, tuple]) -> dict:
    """Expand per-group (density, multiplier) pairs to per-link hardware;
    the links of a group share one ``LinkHardware``."""
    out = {}
    for g in model.groups:
        if g.name not in values:
            continue
        rho, lm = values[g.name]
        hw = LinkHardware(density=rho, length_multiplier=lm)
        out.update(dict.fromkeys(g.links, hw))
    return out


# ---------------------------------------------------------------------------
# kinematics


@dataclass(eq=False)
class KinTree:
    """World poses of every link plus per-joint world axes and pivots.

    ``rot`` ``(..., L, 3, 3)`` and ``pos`` ``(..., L, 3)`` stack one row
    per link in link order, ``axis_w`` one row per joint, ``(..., n, 3)``.
    A joint turns about its child link's origin, so ``pivot_w`` is
    ``pos`` without the base row.  ``lms`` are the per-link length
    multipliers the poses were computed with (None when all are 1.0).

    ``rot`` is always plain.  ``pos`` and ``axis_w`` are ``Dual`` when
    the configuration or the multipliers carry tangents, and the
    rotations' tangents are kept as the links' angular velocities
    ``omega`` ``(ndir, ..., L, 3)`` (the module docstring), None when no
    direction turns a link.  ``frame_rotations`` forms ``Dual`` rotations
    ``[omega]x R`` of the frames (or links) it is given.

    The links and world mounting points of each tuple of frames are
    gathered once per tree and kept, since ``frame_points``,
    ``frame_jacobian``, ``generalized_force`` and ``frame_twists`` of one
    pass all read them; ``value`` and ``row`` hand the kept gathers on to
    the trees they derive, and a plain tree is its own ``value``.
    """

    model: Model
    rot: np.ndarray
    pos: object
    axis_w: object
    lms: object = None
    omega: Optional[np.ndarray] = None
    _gathered: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def pivot_w(self):
        return self.pos[..., 1:, :]

    def _map(self, f, lms, omega):
        """The tree with f applied to every posture array and kept gather."""
        tree = KinTree(self.model, f(self.rot), f(self.pos), f(self.axis_w),
                       lms, omega)
        tree._gathered.update((names, (links, f(p)))
                              for names, (links, p) in self._gathered.items())
        return tree

    def value(self):
        """The same tree on plain arrays, the values of its Duals.  A
        plain tree is its own value, so what is gathered on its value is
        kept on it."""
        if self.omega is None and not any(isinstance(x, fad.Dual) for x in (
                self.pos, self.axis_w, self.lms)):
            return self
        return self._map(fad.value,
                         None if self.lms is None else fad.value(self.lms),
                         None)

    def row(self, k):
        """Posture k of a tree over stacked postures (the leading axis)."""
        return self._map(lambda x: x[k], self.lms,
                         None if self.omega is None else self.omega[:, k])

    def _mounts(self, names):
        """Links of named frames and their world mounting points."""
        out = self._gathered.get(names)
        if out is None:
            links, offsets, _ = self.model.topology.mounts(names)
            if self.lms is not None:
                offsets = _scale_z(offsets, self.lms[links][:, None])
            out = links, _points(self, links, offsets)
            self._gathered[names] = out
        return out

    def frame_points(self, names):
        """World positions ``(..., F, 3)`` of a tuple of frames (or
        links), from one gather over the tree."""
        return self._mounts(tuple(names))[1]

    def frame_rotations(self, names):
        """World rotations ``(..., F, 3, 3)`` of a tuple of frames (or
        links), with tangents ``[omega]x R`` when the tree has ``omega``."""
        links, _, rotations = self.model.topology.mounts(tuple(names))
        R = self.rot[..., links, :, :]
        if self.omega is not None:
            R = fad.Dual(R, _spin(self.omega[..., links, :], R))
        return R @ rotations


def _spin(w, R):
    """Tangents ``[w]x R`` ``(ndir, ..., 3, 3)`` of rotations R turning at
    angular velocities w ``(ndir, ..., 3)``: column c is ``w x R[:, c]``,
    from the rolled products of ``fad.cross3``, in C order."""
    nxt, prv = [1, 2, 0], [2, 0, 1]
    return (w[..., nxt, None] * R[..., prv, :]
            - w[..., prv, None] * R[..., nxt, :])


def _points(tree, links, offsets):
    """World points ``(..., F, 3)`` fixed in the links ``(F,)`` at their
    link-frame ``offsets`` ``(F, 3)``.

    The tangent is the rule of the module docstring, ``p_i' + w_i x
    (R_i o) + R_i o'``, so no rotation tangent is formed; ``R_i o'`` is
    one product per point and posture over every direction.
    """
    R = tree.rot[..., links, :, :]
    Ro = _rows(R, fad.value(offsets))
    dot = None if tree.omega is None else fad.cross3(
        tree.omega[..., links, :], Ro)
    if isinstance(offsets, fad.Dual):
        t = np.moveaxis(R @ np.moveaxis(offsets.dot, 0, -1), -1, 0)
        dot = t if dot is None else dot + t
    if dot is not None:
        Ro = fad.Dual(Ro, dot)
    return tree.pos[..., links, :] + Ro


def _scale_z(offset, lm):
    """Mounting offsets ``(..., 3)`` slid along their links' growth axes.

    ``lm`` broadcasts against ``offset[..., 2:]``.
    """
    return fad.concatenate([offset[..., :2], offset[..., 2:] * lm], axis=-1)


def _rows(R, v):
    """Stacked matrix-vector products ``R[k] @ v[k]``."""
    return (R @ v[..., None])[..., 0]


def _dot3(a, b):
    """Row-wise dot products of 3-vectors along the last axis."""
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
            + a[..., 2] * b[..., 2])


def kinematics(model: Model, q: Configuration) -> KinTree:
    """World poses of the whole tree, one depth level at a time.

    Every joint's Rodrigues rotation about its fixed axis comes from one
    ``fad.rodrigues`` call over the tree's joints in level order
    (``Topology.joints``), and the offsets from the model's scaled table
    (``Model._joint_offsets``).  Each level then gathers its parents'
    rows and composes its slice of both at once.  The levels' rows are
    concatenated and put in link order by one gather, and the world
    joint axes come from one product after the loop.  The loop runs on
    the values only; ``_twists`` adds the tangents.
    """
    topo = model.topology
    joints = topo.joints
    offsets = model._joint_offsets
    s = fad.value(q.s)
    turns = fad.rodrigues(s[..., joints.dofs], joints.K, joints.K2)
    # R, p: the previous level's rotations and positions
    R = fad.value(q.base_rot)[..., None, :, :]
    p = fad.value(q.base_pos)[..., None, :]
    rots, poss, pres = [R], [p], []
    for lv in topo.levels:
        Rp, pp = R[..., lv.rows, :, :], p[..., lv.rows, :]
        p = pp + _rows(Rp, offsets[lv.span])
        R_pre = Rp @ joints.rotation[lv.span]
        R = R_pre @ turns[..., lv.span, :, :]
        rots.append(R)
        poss.append(p)
        pres.append(R_pre)
    links, dofs = topo.level_rows
    if pres:
        axis_w = _rows(np.concatenate(pres, axis=-3),
                       joints.axis)[..., dofs, :]
    else:  # a single rigid body
        axis_w = np.zeros(s.shape + (3,))
    rot = np.concatenate(rots, axis=-3)[..., links, :, :]
    pos, axis_w, omega = _twists(
        model, q, rot, np.concatenate(poss, axis=-2)[..., links, :], axis_w)
    return KinTree(model=model, rot=rot, pos=pos, axis_w=axis_w,
                   lms=model._multipliers, omega=omega)


def _twists(model, q, rot, pos, axis_w):
    """The poses ``pos`` and axes ``axis_w`` of a tree with their
    tangents from its link twists, and ``omega``.

    The rule of the module docstring in spatial form, with the
    directions first: the base and each dof contribute an angular
    velocity and the velocity they give the world origin, a point
    riding link i moves at ``v_i + w_i x p`` with ``v_i`` and ``w_i``
    summed along its path, and ``omega`` is ``(ndir, ..., L, 3)``.
    Without tangents the arrays come back plain, and ``omega`` None.
    """
    topo = model.topology
    lms = model._multipliers
    parents, offsets = topo.joint_mounts
    # the base's (..., 1, 3) and the dofs' (..., n, 3) terms, or None
    w_base = v_base = w_dof = v_dof = None
    if isinstance(q.base_rot, fad.Dual):
        W = q.base_rot.dot @ fad.mT(q.base_rot.val)
        w_base = np.stack([W[..., 2, 1], W[..., 0, 2], W[..., 1, 0]],
                          axis=-1)[..., None, :]
        v_base = -fad.cross3(w_base, pos[..., :1, :])
    if isinstance(q.base_pos, fad.Dual):
        v = q.base_pos.dot[..., None, :]
        v_base = v if v_base is None else v_base + v
    # a body without joints takes nothing from the tangents of its
    # (empty) joint positions
    if isinstance(q.s, fad.Dual) and axis_w.shape[-2]:
        s_dot = q.s.dot[..., None]
        w_dof = axis_w * s_dot
        v_dof = fad.cross3(pos[..., 1:, :], axis_w) * s_dot
    if isinstance(lms, fad.Dual):
        # a multiplier slides its children's joints along its z axis,
        # the column rot[..., :, 2]
        slide = lms.dot[:, parents] * offsets[:, 2]
        slide = slide.reshape(slide.shape[:1] + (1,) * (rot.ndim - 3)
                              + slide.shape[1:] + (1,))
        v = slide * rot[..., 2][..., parents, :]
        v_dof = v if v_dof is None else v_dof + v
    if v_base is None and v_dof is None:
        return pos, axis_w, None
    P = topo.path_mask.astype(float)
    omega = None
    if w_dof is not None:
        omega = P @ w_dof if w_base is None else w_base + P @ w_dof
    elif w_base is not None:
        omega = np.broadcast_to(w_base, w_base.shape[:-2] + pos.shape[-2:])
    vel = sum(v for v in (v_base, None if v_dof is None else P @ v_dof,
                          None if omega is None else fad.cross3(omega, pos))
              if v is not None)
    if omega is not None and axis_w.shape[-2]:
        axis_w = fad.Dual(axis_w, fad.cross3(omega[..., parents, :], axis_w))
    return fad.Dual(pos, vel), axis_w, omega


def _point_jacobians(tree, links, points):
    """Mixed Jacobians ``(..., F, 6, 6 + n)`` of points riding given links.

    One masked cross product over the stacked joint axes and pivots: a
    dof on a link's path moves its point by ``a x (p - pivot)`` and
    turns it about ``a``, and every dof off the path gives a zero
    column.  The base columns hold the identity blocks and the lever
    ``-S(p - p0)``.
    """
    d = points - tree.pos[..., :1, :]
    # (F, n, 1) mask against (..., F, n, 3) joint-by-point vectors
    on = tree.model.topology.path_mask[links][..., None]
    axes = tree.axis_w[..., None, :, :]
    arm = points[..., :, None, :] - tree.pivot_w[..., None, :, :]
    lin = fad.where(on, fad.cross3(axes, arm), 0.0)
    ang = fad.where(on, axes, 0.0)
    shape = points.shape[:-2] + (len(links), 6, 6 + tree.model.n_joints)
    return fad.assemble(shape, [
        ((..., slice(0, 3), slice(0, 3)), _EYE3),
        ((..., slice(3, 6), slice(3, 6)), _EYE3),
        ((..., 0, 4), d[..., 2]), ((..., 0, 5), -d[..., 1]),
        ((..., 1, 3), -d[..., 2]), ((..., 1, 5), d[..., 0]),
        ((..., 2, 3), d[..., 1]), ((..., 2, 4), -d[..., 0]),
        ((..., slice(0, 3), slice(6, None)), fad.mT(lin)),
        ((..., slice(3, 6), slice(6, None)), fad.mT(ang))])


def frame_jacobian(tree: KinTree, frames):
    """Mixed Jacobians ``(..., F, 6, 6 + n)`` mapping nu to the world
    twists of the frames (or links) named in the tuple ``frames``, from
    one batched pass."""
    links, points = tree._mounts(tuple(frames))
    return _point_jacobians(tree, links, points)


def generalized_force(tree: KinTree, frames, wrenches):
    """Generalized force ``sum_k J_k^T w_k`` of wrenches at frames.

    ``wrenches`` ``(..., F, 6)`` are mixed ``[force; torque]`` at the
    frames named in the tuple ``frames``.  A dof collects the forces and
    the moments about the world origin of the frames in its subtree,
    summed with the path mask as ``gravity_vector`` sums link weights;
    no Jacobian is formed.  Dual-safe; with a ``Dual`` tree and plain
    wrenches the tangent is ``sum_k dJ_k^T w_k``.
    """
    topo = tree.model.topology
    links, points = tree._mounts(tuple(frames))
    force = wrenches[..., :3]
    moment = wrenches[..., 3:] + fad.cross3(points, force)
    # row 0 sums every frame (the base), row 1 + j the frames below dof j
    S = np.vstack([np.ones(len(links)), topo.path_mask[links].T])
    fsub, msub = S @ force, S @ moment
    ang = msub[..., 0, :] - fad.cross3(tree.pos[..., 0, :], fsub[..., 0, :])
    joints = _dot3(tree.axis_w, msub[..., 1:, :]
                   - fad.cross3(tree.pivot_w, fsub[..., 1:, :]))
    return fad.concatenate([fsub[..., 0, :], ang, joints], axis=-1)


def frame_twists(tree: KinTree, frames, nu):
    """Mixed twists ``J_k nu`` ``(..., F, 6)`` of frames under ``nu``.

    ``nu`` ``(..., 6 + n)`` is a generalized velocity.  Each dof's motion
    (the rotation rate and the velocity it gives the world origin) is
    summed along the path mask to every frame's link; no Jacobian is
    formed.  Dual-safe; with a ``Dual`` tree and plain ``nu`` the tangent
    is ``dJ_k nu``.
    """
    links, points = tree._mounts(tuple(frames))
    v, w, sd = nu[..., None, :3], nu[..., None, 3:6], nu[..., 6:, None]
    w_joint = tree.axis_w * sd
    v_joint = fad.cross3(tree.pivot_w, w_joint)
    P = tree.model.topology.path_mask[links].astype(float)
    w_path, v_path = P @ w_joint, P @ v_joint
    lin = (v + fad.cross3(w, points - tree.pos[..., :1, :])
           + fad.cross3(w_path, points) + v_path)
    return fad.concatenate([lin, w + w_path], axis=-1)


# ---------------------------------------------------------------------------
# dynamics at zero velocity


def _mixed_spatial_inertia(link, R):
    """6x6 inertia of a link about its origin, world axes."""
    m, c = link.mass_com
    I0 = shape_inertia_origin(link.shape, link.hardware)
    m = float(fad.value(m))
    c_w = fad.value(R) @ fad.value(c)
    I_w = fad.value(R) @ fad.value(I0) @ fad.value(R).T
    return assemble_spatial_inertia(m, c_w, I_w)


def mass_matrix(tree: KinTree) -> np.ndarray:
    """Mass matrix in mixed coordinates, ``M = sum_i J_i^T M_i J_i``.

    ``J_i`` is the Jacobian of link i's origin and ``M_i`` the link's
    spatial inertia about that origin, world axes.  One posture only.
    The statics do not need it; the tests' projector reference and the
    benchmark's traced layers read it.
    """
    model = tree.model
    n = model.n_joints
    J = fad.value(_point_jacobians(tree, np.arange(len(model.links)),
                                   tree.pos))
    M = np.zeros((6 + n, 6 + n))
    for i, link in enumerate(model.links):
        M += J[i].T @ _mixed_spatial_inertia(link, tree.rot[i]) @ J[i]
    return M


def _mass_moments(tree):
    """Link masses ``(L,)`` and world mass moments ``m * com``
    ``(..., L, 3)``, the CoMs as ``_points`` of their links."""
    m, c = tree.model._mass_table
    return m, m[:, None] * _points(tree, slice(None), c)


def gravity_vector(tree: KinTree):
    """Generalized gravity g(q): static equilibrium reads g = B tau + J^T f.

    The subtree sums of the link masses and mass moments come from one
    matmul with ``Topology.subtree``; the base rows and every joint row
    follow from them as array expressions, and it is dual-safe.
    """
    m, moments = _mass_moments(tree)
    D = tree.model.topology.subtree
    msub, csub = D @ m, D @ moments
    lin = GRAVITY * msub[0] * E3 + np.zeros(tree.pos.shape[:-2] + (3,))
    ang = GRAVITY * fad.cross3(csub[..., 0, :] - msub[0] * tree.pos[..., 0, :],
                               E3)
    u = csub[..., 1:, :] - msub[1:, None] * tree.pivot_w
    a = tree.axis_w
    # the z component of a x u
    joints = GRAVITY * (a[..., 0] * u[..., 1] - a[..., 1] * u[..., 0])
    return fad.concatenate([lin, ang, joints], axis=-1)


def com(tree: KinTree):
    """World center of mass and total mass."""
    m, moments = _mass_moments(tree)
    ones = np.ones(len(m))
    total = ones @ m
    return (ones @ moments) / total, total


def com_height_null_config(model: Model):
    """Whole-body CoM height at zero joint positions, feet on the ground.

    With foot frames present the base is lowered so the mean sole height
    is zero (the two are equal for symmetric models); without feet the
    base frame itself sits on the ground plane.
    """
    tree = kinematics(model, Configuration.neutral(model))
    c, _ = com(tree)
    feet = model.feet
    if not feet:
        return c[2]
    sole = tree.frame_points(feet)
    ground = sole[:, 2] @ np.ones(len(feet)) / len(feet)
    return c[2] - ground


# ---------------------------------------------------------------------------
# configuration steps (the warm-start IK's) and random postures (tests')


def perturb_configuration(q: Configuration, delta) -> Configuration:
    """Apply mixed-coordinates displacements [dp, dw, ds] ``(..., 6 + n)``."""
    delta = np.asarray(delta, dtype=float)
    return Configuration(
        base_pos=q.base_pos + delta[..., :3],
        base_rot=exp_so3(delta[..., 3:6]) @ q.base_rot,
        s=q.s + delta[..., 6:],
    )


def random_configuration(model: Model, rng) -> Configuration:
    lo, hi = model.joint_limits()
    s = rng.uniform(lo, hi)
    w = rng.normal(size=3) * 0.3
    return Configuration(
        base_pos=rng.normal(size=3) * 0.5,
        base_rot=exp_so3(w),
        s=s,
    )
