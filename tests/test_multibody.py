import numpy as np
import pytest

from ergolift import coupled, fad, multibody
from ergolift.coupled import CoupledConfiguration, coupled_trees, \
    coupling_matrix
from ergolift.multibody import (Configuration, FrameDef, Joint, Link, Model,
                                ModelError, UnknownFrameError, apply_hardware,
                                com, com_height_null_config, frame_jacobian,
                                frame_twists, generalized_force,
                                gravity_vector, group_params, kinematics,
                                mass_matrix, perturb_configuration,
                                random_configuration)
from ergolift.shapes import (Box, Cylinder, LinkHardware, Sphere, shape_com,
                             shape_inertia_origin, shape_mass)
from ergolift.scenario import build_system, make_scenario, rpy_from_matrix
from ergolift.spatial import GRAVITY, assemble_spatial_inertia, skew
from ergolift.templates import default_human, default_robot

def joint(axis, offset, rpy=(0, 0, 0), limits=(-3.0, 3.0)):
    return Joint(axis=np.array(axis, float), offset=np.array(offset, float),
                 rpy=np.array(rpy, float), limits=limits)


def single_body(shape=None, hw=None):
    shape = shape or Box(0.2, 0.3, 0.4)
    hw = hw or LinkHardware(1200.0)
    return Model(name="one", links=(Link("body", shape, hw),)).validate()


def planar_2r():
    """Two unit links rotating about z in the x-y plane."""
    hw = LinkHardware(500.0)
    links = (
        Link("base", Box(0.1, 0.1, 0.1), hw),
        Link("l1", Box(0.05, 0.05, 0.1), hw, parent=0,
             joint=joint([0, 0, 1], [0, 0, 0])),
        Link("l2", Box(0.05, 0.05, 0.1), hw, parent=1,
             joint=joint([0, 0, 1], [1, 0, 0])),
    )
    frames = (FrameDef("ee", 2, np.array([1.0, 0, 0]), np.zeros(3)),)
    return Model(name="2r", links=links, frames=frames).validate()


def branching_chain():
    """Chain that branches at link a into b (then d) and c.

    b and c share a depth level with different axes, so one batched
    level turns joints about different axes.
    """
    links = (
        Link("base", Box(0.2, 0.15, 0.1), LinkHardware(900.0)),
        Link("a", Cylinder(0.04, 0.3), LinkHardware(1500.0), parent=0,
             joint=joint([0, 1, 0], [0.05, 0, 0.1], rpy=(0.2, 0, 0))),
        Link("b", Cylinder(0.03, 0.25), LinkHardware(2000.0), parent=1,
             joint=joint([1, 0, 0], [0, 0, 0.3], rpy=(0, -0.3, 0.1))),
        Link("c", Sphere(0.05), LinkHardware(800.0), parent=1,
             joint=joint([0, 0, 1], [0, 0.02, 0.3], rpy=(0.4, 0, 0),
                         limits=(-1.5, 1.5))),
        Link("d", Box(0.06, 0.04, 0.2), LinkHardware(1100.0), parent=2,
             joint=joint([0, 1, 0], [0, 0, 0.25])),
    )
    frames = (
        FrameDef("tip", 4, np.array([0.0, 0, 0.2]), np.array([0.1, 0, 0])),
        FrameDef("side", 3, np.array([0.02, 0, 0.05]), np.zeros(3)),
    )
    return Model(name="chain", links=links, frames=frames).validate()


def mixed_inertia_world(link, R):
    m = float(shape_mass(link.shape, link.hardware))
    c_w = R @ np.asarray(shape_com(link.shape, link.hardware))
    I_w = R @ np.asarray(shape_inertia_origin(link.shape, link.hardware)) @ R.T
    return assemble_spatial_inertia(m, c_w, I_w)


def payload_body():
    """Zero-joint body with one attachment frame."""
    links = (Link("box", Box(0.5, 0.5, 0.025), LinkHardware(800.0)),)
    frames = (FrameDef("grip", 0, np.array([0.2, -0.25, 0.0125]),
                       np.zeros(3)),)
    return Model(name="box", links=links, frames=frames).validate()


def path_dofs(model, link_idx):
    """Dof indices between the base and a link, by walking the parents."""
    dofs = set()
    while link_idx > 0:
        dofs.add(link_idx - 1)
        link_idx = model.links[link_idx].parent
    return dofs


def loop_point_jacobian(model, tree, link_idx, point_w):
    """Reference Jacobian: one column per joint, built in a Python loop."""
    n = model.n_joints
    zeros3 = np.zeros(3)
    lin_cols = [None] * (6 + n)
    ang_cols = [None] * (6 + n)
    Sd = skew(point_w - tree.pos[0])
    eye = np.eye(3)
    for k in range(3):
        lin_cols[k] = eye[:, k]
        ang_cols[k] = zeros3
        lin_cols[3 + k] = -Sd[:, k]
        ang_cols[3 + k] = eye[:, k]
    on_path = path_dofs(model, link_idx)
    for j in range(n):
        if j not in on_path:
            lin_cols[6 + j] = zeros3
            ang_cols[6 + j] = zeros3
            continue
        a = tree.axis_w[j]
        lin_cols[6 + j] = fad.cross3(a, point_w - tree.pivot_w[j])
        ang_cols[6 + j] = a
    return fad.concatenate([fad.stack(lin_cols, axis=1),
                            fad.stack(ang_cols, axis=1)], axis=0)


def loop_kinematics(model, q):
    """Reference poses: one joint at a time, parents before children.

    Returns per-link lists of rotations and positions and the stacked
    joint axes and pivots.
    """
    rot = [q.base_rot]
    pos = [q.base_pos]
    axis_w = []
    pivot_w = []
    for i, link in enumerate(model.links[1:], start=1):
        j = link.joint
        Rp, pp = rot[link.parent], pos[link.parent]
        lm = model.links[link.parent].hardware.length_multiplier
        offset = j.offset
        if not (isinstance(lm, float) and lm == 1.0):
            offset = fad.stack([offset[0], offset[1], offset[2] * lm])
        p_joint = pp + Rp @ offset
        R_pre = Rp @ j.rotation
        sj = q.s[i - 1]
        rot.append(R_pre @ (np.eye(3) + fad.sin(sj) * j.K
                            + (1.0 - fad.cos(sj)) * j.K2))
        pos.append(p_joint)
        axis_w.append(R_pre @ j.axis)
        pivot_w.append(p_joint)
    if not axis_w:
        return rot, pos, np.zeros((0, 3)), np.zeros((0, 3))
    return rot, pos, fad.stack(axis_w), fad.stack(pivot_w)


def loop_gravity_vector(model, tree):
    """Reference g(q): subtree sums accumulated child by child."""
    L = len(model.links)
    msub = []
    csub = []
    rot = all_rotations(tree)
    for i, (m, c) in enumerate(l.mass_com for l in model.links):
        msub.append(m)
        csub.append(m * (tree.pos[i] + rot[i] @ c))
    for i in range(L - 1, 0, -1):
        par = model.links[i].parent
        msub[par] = msub[par] + msub[i]
        csub[par] = csub[par] + csub[i]
    zero = msub[0] * 0.0
    rows = [fad.stack([zero, zero, GRAVITY * msub[0]]),
            GRAVITY * fad.cross3(csub[0] - msub[0] * tree.pos[0],
                                 np.array([0.0, 0.0, 1.0]))]
    joint_rows = []
    for j in range(model.n_joints):
        i = j + 1
        a = tree.axis_w[j]
        u = csub[i] - msub[i] * tree.pivot_w[j]
        joint_rows.append(GRAVITY * (a[0] * u[1] - a[1] * u[0]))
    if joint_rows:
        rows.append(fad.stack(joint_rows))
    return fad.concatenate(rows)


def crba_mass_matrix(model, tree):
    """Reference mass matrix by the composite rigid-body algorithm."""
    pos = [np.asarray(fad.value(p)) for p in tree.pos]
    comp = [mixed_inertia_world(link, np.asarray(fad.value(tree.rot[i])))
            for i, link in enumerate(model.links)]
    for i in range(len(model.links) - 1, 0, -1):
        par = model.links[i].parent
        V = np.eye(6)
        V[:3, 3:] = -skew(pos[i] - pos[par])
        comp[par] = comp[par] + V.T @ comp[i] @ V

    def motion_vector(j):
        return np.concatenate([np.zeros(3),
                               np.asarray(fad.value(tree.axis_w[j]))])

    n = model.n_joints
    M = np.zeros((6 + n, 6 + n))
    M[:6, :6] = comp[0]
    for j in range(n):
        i = j + 1
        F = comp[i] @ motion_vector(j)
        M[6 + j, 6 + j] = motion_vector(j) @ F
        origin = pos[i]
        k = model.links[i].parent
        while True:
            # move the wrench reference point to the ancestor origin
            F = F.copy()
            F[3:] += np.cross(origin - pos[k], F[:3])
            origin = pos[k]
            if k == 0:
                M[:6, 6 + j] = F
                M[6 + j, :6] = F
                break
            M[6 + (k - 1), 6 + j] = motion_vector(k - 1) @ F
            M[6 + j, 6 + (k - 1)] = M[6 + (k - 1), 6 + j]
            k = model.links[k].parent
    return M


def tangent(x, ndir):
    """Tangent of a Dual; a plain array has a zero tangent."""
    if isinstance(x, fad.Dual):
        return x.dot
    return np.zeros((ndir,) + np.shape(x))


def assert_same(a, b):
    """Equal values and tangents, bit for bit; plain counts as zero tangent."""
    np.testing.assert_array_equal(fad.value(a), fad.value(b))
    ndir = max(getattr(a, "ndir", 0), getattr(b, "ndir", 0))
    np.testing.assert_array_equal(tangent(a, ndir), tangent(b, ndir))


# the twist rule and the composed Dual products round differently; the
# tangents here are O(1) (metres, unit vectors), so a few ulps of their
# sums stay far below this bound
TANGENT_ATOL = 1e-13


def assert_twin(a, b):
    """Equal values bit for bit, and tangents within ``TANGENT_ATOL``."""
    np.testing.assert_array_equal(fad.value(a), fad.value(b))
    ndir = max(getattr(a, "ndir", 0), getattr(b, "ndir", 0))
    np.testing.assert_allclose(tangent(a, ndir), tangent(b, ndir),
                               rtol=0, atol=TANGENT_ATOL)


def all_rotations(tree):
    """The tree's link rotations, Duals when it carries ``omega``."""
    return tree.frame_rotations(tuple(l.name for l in tree.model.links))


def dual_length_robot():
    """Default robot with a one-direction Dual upper-arm multiplier."""
    robot = default_robot()
    lm = fad.seed(np.array([1.3]))[0]
    return apply_hardware(robot, group_params(
        robot, {"upper_arm": (2200.0, lm), "lower_leg": (2400.0, 0.9)}))


def seeded_configurations(model, q):
    """q with tangents on the base and joints, on the joints only, and none."""
    x = fad.seed(np.concatenate([q.base_pos, [0.1, -0.2, 0.3], q.s]))
    yield Configuration(x[:3], fad.rpy_matrix(x[3], x[4], x[5]), x[6:])
    yield Configuration(q.base_pos, q.base_rot, fad.seed(np.asarray(q.s)))
    yield q


class TestForwardKinematics:
    def test_base_pose_is_configuration(self, rng):
        model = branching_chain()
        q = random_configuration(model, rng)
        tree = kinematics(model, q)
        [R] = tree.frame_rotations(("base",))
        [p] = tree.frame_points(("base",))
        np.testing.assert_array_equal(R, q.base_rot)
        np.testing.assert_array_equal(p, q.base_pos)

    def test_zero_angle_child_is_fixed_offset(self):
        model = planar_2r()
        q = Configuration.neutral(model)
        tree = kinematics(model, q)
        [R] = tree.frame_rotations(("l2",))
        [p] = tree.frame_points(("l2",))
        np.testing.assert_allclose(R, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(p, [1, 0, 0], atol=1e-15)

    def test_planar_2r_right_angles(self):
        model = planar_2r()
        q = Configuration(np.zeros(3), np.eye(3),
                          np.array([np.pi / 2, np.pi / 2]))
        [p] = kinematics(model, q).frame_points(("ee",))
        np.testing.assert_allclose(p, [-1.0, 1.0, 0.0], atol=1e-12)

    def test_unknown_frame(self):
        model = planar_2r()
        tree = kinematics(model, Configuration.neutral(model))
        for accessor in (tree.frame_points, tree.frame_rotations):
            with pytest.raises(UnknownFrameError):
                accessor(("ee", "nope"))


class TestLevelKinematics:
    def test_matches_per_link_loop(self, rng):
        # b and c turn about different axes on branching_chain's depth-2
        # level; the values are the loop's bit for bit, the tangents
        # come from the twist rule
        for model in (branching_chain(), planar_2r(), single_body(),
                      dual_length_robot()):
            for _ in range(3):
                q = random_configuration(model, rng)
                for qd in seeded_configurations(model, q):
                    tree = kinematics(model, qd)
                    rot, pos, axis_w, pivot_w = loop_kinematics(model, qd)
                    R = all_rotations(tree)
                    assert_twin(R, fad.stack(rot))
                    assert_twin(tree.pos, fad.stack(pos))
                    assert_twin(tree.axis_w, axis_w)
                    assert_twin(tree.pivot_w, pivot_w)
                    for i in range(len(model.links)):
                        assert_twin(R[i], rot[i])
                        assert_twin(tree.pos[i], pos[i])

    def test_stacked_shapes(self):
        model = branching_chain()
        tree = kinematics(model, Configuration.neutral(model))
        assert tree.rot.shape == (5, 3, 3) and tree.pos.shape == (5, 3)
        assert tree.axis_w.shape == tree.pivot_w.shape == (4, 3)
        body = single_body()
        tree = kinematics(body, Configuration.neutral(body))
        assert tree.rot.shape == (1, 3, 3) and tree.axis_w.shape == (0, 3)


class TestFrameJacobian:
    def test_tuple_matches_single_frames(self, rng):
        # frames on different branches, a link frame and the base
        cases = ((branching_chain(), ("tip", "side", "base", "c")),
                 (dual_length_robot(), ("palm_left", "sole_right", "pelvis",
                                        "palm_right", "forearm_left")))
        for model, names in cases:
            for _ in range(3):
                q = random_configuration(model, rng)
                for qd in seeded_configurations(model, q):
                    tree = kinematics(model, qd)
                    J = frame_jacobian(tree, names)
                    assert J.shape == (len(names), 6, 6 + model.n_joints)
                    for k, name in enumerate(names):
                        one = frame_jacobian(tree, (name,))
                        assert_same(J[k], one[..., 0, :, :])

    def test_unknown_frame_in_tuple(self):
        model = branching_chain()
        with pytest.raises(UnknownFrameError):
            frame_jacobian(kinematics(model, Configuration.neutral(model)),
                           ("tip", "nope"))

    def test_base_frame_identity(self, rng):
        model = branching_chain()
        q = random_configuration(model, rng)
        J = frame_jacobian(kinematics(model, q), ("base",))[..., 0, :, :]
        np.testing.assert_allclose(J[:, :6], np.eye(6), atol=1e-12)
        np.testing.assert_allclose(J[:, 6:], 0.0, atol=1e-15)

    def test_finite_difference_agreement(self, rng):
        model = branching_chain()
        h = 1e-7
        for _ in range(100):
            q = random_configuration(model, rng)
            tree = kinematics(model, q)
            J = np.asarray(frame_jacobian(tree, ("tip",))[..., 0, :, :])
            d = rng.normal(size=6 + model.n_joints)
            Rp, pp = kinematics(model, perturb_configuration(q, h * d)), None
            Rm = kinematics(model, perturb_configuration(q, -h * d))
            [p_plus] = Rp.frame_points(("tip",))
            [p_minus] = Rm.frame_points(("tip",))
            lin_fd = (p_plus - p_minus) / (2 * h)
            lin = J[:3] @ d
            denom = max(np.linalg.norm(lin), np.linalg.norm(lin_fd), 1e-9)
            assert np.linalg.norm(lin - lin_fd) / denom <= 1e-5

    def test_angular_rows_match_rotation_rate(self, rng):
        model = branching_chain()
        h = 1e-7
        for _ in range(20):
            q = random_configuration(model, rng)
            J = np.asarray(
                frame_jacobian(kinematics(model, q), ("tip",))[..., 0, :, :])
            d = rng.normal(size=6 + model.n_joints)
            [R_plus] = kinematics(model, perturb_configuration(
                q, h * d)).frame_rotations(("tip",))
            [R_minus] = kinematics(model, perturb_configuration(
                q, -h * d)).frame_rotations(("tip",))
            Rdot = (R_plus - R_minus) / (2 * h)
            [R0] = kinematics(model, q).frame_rotations(("tip",))
            W = Rdot @ R0.T  # skew of world angular velocity
            w_fd = np.array([W[2, 1], W[0, 2], W[1, 0]])
            w = J[3:] @ d
            denom = max(np.linalg.norm(w), np.linalg.norm(w_fd), 1e-9)
            assert np.linalg.norm(w - w_fd) / denom <= 1e-5

    def test_off_path_columns_are_zero(self, rng):
        model = branching_chain()
        q = random_configuration(model, rng)
        # frame "side" rides link c (dof 2); dofs 1 ("b") and 3 ("d") are
        # off its path
        J = np.asarray(
            frame_jacobian(kinematics(model, q), ("side",))[..., 0, :, :])
        np.testing.assert_array_equal(J[:, 6 + 1], np.zeros(6))
        np.testing.assert_array_equal(J[:, 6 + 3], np.zeros(6))
        assert np.abs(J[:, 6 + 2]).max() > 0


    def test_matches_joint_loop_reference(self, rng):
        # the masked kernel does the loop's arithmetic element for element
        lm = fad.seed(np.array([1.3]))[0]
        for model in (branching_chain(), payload_body(),
                      apply_hardware(branching_chain(), {
                          "a": LinkHardware(1500.0, lm)})):
            for _ in range(5):
                q = random_configuration(model, rng)
                for qd in seeded_configurations(model, q):
                    tree = kinematics(model, qd)
                    points = [(i, tree.pos[i])
                              for i in range(len(model.links))]
                    points += [(f.link, tree.frame_points((f.name,))[0])
                               for f in model.frames]
                    jacs = [frame_jacobian(tree, (l.name,))[..., 0, :, :]
                            for l in model.links]
                    jacs += [frame_jacobian(tree, (f.name,))[..., 0, :, :]
                             for f in model.frames]
                    for (i, p), J in zip(points, jacs):
                        ref = loop_point_jacobian(model, tree, i, p)
                        np.testing.assert_array_equal(fad.value(J),
                                                      fad.value(ref))
                        ndir = max(getattr(J, "ndir", 0),
                                   getattr(ref, "ndir", 0))
                        np.testing.assert_array_equal(tangent(J, ndir),
                                                      tangent(ref, ndir))


def stacked_configurations(model, qs):
    """Stacks of the postures qs with their per-posture views.

    Yields ``(stack, singles)`` with tangents on the base and joints, on
    the joints only, and none; the stack's direction j of row k is the
    single k's direction j, as in the NLP's seeding.
    """
    H = len(qs)
    x = np.stack([np.concatenate([q.base_pos, rpy_from_matrix(q.base_rot),
                                  q.s]) for q in qs])
    seeds = np.zeros((x.shape[1], H, x.shape[1]))
    seeds[np.arange(x.shape[1]), :, np.arange(x.shape[1])] = 1.0

    def config(xd):
        rot = fad.rpy_matrix(xd[..., 3], xd[..., 4], xd[..., 5])
        return Configuration(xd[..., :3], rot, xd[..., 6:])

    yield (config(fad.Dual(x, seeds)),
           [config(fad.Dual(x[k], seeds[:, k])) for k in range(H)])
    s = np.stack([q.s for q in qs])
    joints = fad.seed(s[0])
    shared = np.broadcast_to(joints.dot[:, None], (s.shape[1],) + s.shape)
    stack = Configuration(np.stack([q.base_pos for q in qs]),
                          np.stack([q.base_rot for q in qs]),
                          fad.Dual(s, shared))
    yield stack, [Configuration(q.base_pos, q.base_rot,
                                fad.Dual(q.s, joints.dot)) for q in qs]
    yield (Configuration(np.stack([q.base_pos for q in qs]),
                         np.stack([q.base_rot for q in qs]),
                         np.stack([q.s for q in qs])), qs)


def assert_row(stacked, k, single):
    """Row k of a stacked result equals the per-posture result bit for bit."""
    ndir = max(getattr(stacked, "ndir", 0), getattr(single, "ndir", 0))
    np.testing.assert_array_equal(fad.value(stacked)[k], fad.value(single))
    np.testing.assert_array_equal(tangent(stacked, ndir)[:, k],
                                  tangent(single, ndir))


class TestStackedPostures:
    """A leading stack axis gives each posture's own result, bit for bit."""

    def test_passes_match_per_posture(self, rng):
        cases = ((branching_chain(), ("tip", "side", "base", "c")),
                 (dual_length_robot(), ("palm_left", "sole_right", "pelvis",
                                        "palm_right", "forearm_left")))
        for model, names in cases:
            qs = [random_configuration(model, rng) for _ in range(3)]
            for stack, singles in stacked_configurations(model, qs):
                tree = kinematics(model, stack)
                J = frame_jacobian(tree, names)
                R, p = tree.frame_rotations(names), tree.frame_points(names)
                g = gravity_vector(tree)
                assert tree.rot.shape == (3, len(model.links), 3, 3)
                assert J.shape == (3, len(names), 6, 6 + model.n_joints)
                for k, q in enumerate(singles):
                    one = kinematics(model, q)
                    for name in ("rot", "pos", "axis_w", "pivot_w"):
                        assert_row(getattr(tree, name), k, getattr(one, name))
                    assert_row(all_rotations(tree), k, all_rotations(one))
                    assert_row(J, k, frame_jacobian(one, names))
                    assert_row(R, k, one.frame_rotations(names))
                    assert_row(p, k, one.frame_points(names))
                    assert_row(g, k, gravity_vector(one))

    def test_frames_match_link_poses(self, rng):
        # the rotations are the links' Dual rotations times the fixed ones
        # bit for bit; a point takes the twist rule, whose tangent rounds
        # otherwise than the Dual product of the link's pose
        model = dual_length_robot()
        q = random_configuration(model, rng)
        for qd in seeded_configurations(model, q):
            tree = kinematics(model, qd)
            names = tuple(f.name for f in model.frames)
            R, p = tree.frame_rotations(names), tree.frame_points(names)
            for k, f in enumerate(model.frames):
                lm = model.links[f.link].hardware.length_multiplier
                offset = fad.stack([f.offset[0], f.offset[1],
                                    f.offset[2] * lm])
                Rl = all_rotations(tree)[f.link]
                assert_same(R[k], Rl @ f.rotation)
                assert_twin(p[k], tree.pos[f.link] + Rl @ offset)
                assert_same(tree.frame_points((f.name,))[0], p[k])


class TestContractions:
    """generalized_force and frame_twists against the frame Jacobians."""

    def test_match_jacobian_products(self, rng):
        cases = ((branching_chain(), ("tip", "side", "c")),
                 (dual_length_robot(), ("palm_left", "sole_right",
                                        "sole_left", "forearm_left")),
                 (payload_body(), ("grip", "box")))
        for model, names in cases:
            qs = [random_configuration(model, rng) for _ in range(2)]
            w = rng.normal(size=(2, len(names), 6))
            nu = rng.normal(size=(2, 6 + model.n_joints))
            for stack, _ in stacked_configurations(model, qs):
                tree = kinematics(model, stack)
                J = frame_jacobian(tree, names)
                force = generalized_force(tree, names, w)
                twists = frame_twists(tree, names, nu)
                ref_force = fad.value(J).swapaxes(-1, -2)
                ref_force = (ref_force @ w[:, :, :, None])[..., 0].sum(1)
                ref_twists = (fad.value(J) @ nu[:, None, :, None])[..., 0]
                assert_rel_close(fad.value(force), ref_force, 1e-13)
                assert_rel_close(fad.value(twists), ref_twists, 1e-13)
                if isinstance(J, fad.Dual):
                    dJ = J.dot
                    assert_rel_close(
                        force.dot, np.einsum("dhfij,hfi->dhj", dJ, w), 1e-13)
                    assert_rel_close(
                        twists.dot, np.einsum("dhfij,hj->dhfi", dJ, nu), 1e-13)


# central differences with this step lose about eps * |x| / step to
# rounding and step^2 times the third derivative to truncation, both far
# below the tolerance (relative to max(1, the largest difference)) on
# these O(1) poses and O(100) N m gravity rows; both were fixed before
# the tests first ran
FD_STEP = 1e-6
FD_TOL = 1e-7


def assert_central_differences(f, x, dirs):
    """f's Dual outputs at ``Dual(x, dirs)`` against central differences.

    ``f`` maps a parameter array to a list of outputs; ``dirs``
    ``(ndir, *x.shape)`` are the seed directions, and direction j is
    differenced as ``f(x + h dirs[j]) - f(x - h dirs[j])``.
    """
    outs = f(fad.Dual(x, dirs))
    ndir = dirs.shape[0]
    for j in range(ndir):
        plus = f(x + FD_STEP * dirs[j])
        minus = f(x - FD_STEP * dirs[j])
        for out, a, b in zip(outs, plus, minus):
            fd = (np.asarray(a) - np.asarray(b)) / (2 * FD_STEP)
            scale = max(1.0, float(np.abs(fd).max(initial=0.0)))
            err = np.abs(tangent(out, ndir)[j] - fd).max(initial=0.0)
            assert err <= FD_TOL * scale, (j, err, scale)


def twist_outputs(tree, names):
    """What the twist rule differentiates: link rotations, origins and
    axes, the frames' rotations and positions, and the gravity rows."""
    return [all_rotations(tree), tree.pos, tree.axis_w,
            tree.frame_rotations(names), tree.frame_points(names),
            gravity_vector(tree)]


def scaled_robot(robot, x):
    """The robot with upper-arm and lower-leg multipliers x[0], x[1]."""
    return apply_hardware(robot, group_params(
        robot, {"upper_arm": (2200.0, x[0]), "lower_leg": (2400.0, x[1])}))


class TestTwistTangents:
    """The tree's tangents from link twists against central differences."""

    def test_multiplier_base_and_joint_directions(self, rng):
        # the two multipliers, the base position, its rpy angles through
        # fad.rpy_matrix and every joint, all at once
        robot = default_robot()
        names = ("palm_left", "sole_right", "pelvis", "forearm_left")
        q = random_configuration(robot, rng)
        x = np.concatenate([[1.3, 0.9], q.base_pos, [0.1, -0.2, 0.3], q.s])

        def f(x):
            qx = Configuration(x[2:5], fad.rpy_matrix(x[5], x[6], x[7]),
                               x[8:])
            return twist_outputs(kinematics(scaled_robot(robot, x), qx),
                                 names)

        assert_central_differences(f, x, np.eye(x.size))

    def test_multiplier_directions_alone(self):
        # a plain posture: the multipliers slide joints and frames but
        # turn no link, so the tree has no omega
        robot = default_robot()
        q = Configuration.neutral(robot)

        def f(x):
            return twist_outputs(kinematics(scaled_robot(robot, x), q),
                                 ("palm_left", "sole_right"))

        x = np.array([1.3, 0.9])
        seeded = scaled_robot(robot, fad.seed(x))
        assert kinematics(seeded, q).omega is None
        assert_central_differences(f, x, np.eye(2))

    def test_stacked_postures(self, rng):
        # direction j of row k is posture k's decision j, as the NLP
        # seeds them; the base turns through fad.rpy_matrix
        model = branching_chain()
        qs = [random_configuration(model, rng) for _ in range(3)]
        x = np.stack([np.concatenate([q.base_pos,
                                      rpy_from_matrix(q.base_rot), q.s])
                      for q in qs])
        d = x.shape[1]
        dirs = np.zeros((d,) + x.shape)
        dirs[np.arange(d), :, np.arange(d)] = 1.0

        def f(x):
            qx = Configuration(x[..., :3], fad.rpy_matrix(
                x[..., 3], x[..., 4], x[..., 5]), x[..., 6:])
            return twist_outputs(kinematics(model, qx), ("tip", "side"))

        assert_central_differences(f, x, dirs)


def assert_rel_close(actual, reference, rel):
    scale = max(float(np.abs(reference).max()), 1.0)
    assert float(np.abs(np.asarray(actual) - reference).max()) <= rel * scale


class TestMassMatrix:
    def test_matches_composite_rigid_body_reference(self, rng):
        # the sum over links reorders the arithmetic of the CRBA walk
        rtol = 1e-12
        for model in (branching_chain(), planar_2r(), single_body(),
                      default_robot()):
            for _ in range(5):
                q = random_configuration(model, rng)
                tree = kinematics(model, q)
                M = mass_matrix(tree)
                ref = crba_mass_matrix(model, tree)
                assert np.abs(M - ref).max() <= rtol * np.abs(ref).max()

    def test_single_floating_body(self, rng):
        model = single_body()
        q = random_configuration(model, rng)
        M = mass_matrix(kinematics(model, q))
        expected = mixed_inertia_world(model.links[0], q.base_rot)
        np.testing.assert_allclose(M, expected, atol=1e-12)

    def test_symmetry_and_positive_definite(self, rng):
        model = branching_chain()
        for _ in range(25):
            q = random_configuration(model, rng)
            M = mass_matrix(kinematics(model, q))
            assert np.abs(M - M.T).max() <= 1e-9
            assert np.linalg.eigvalsh(M).min() > 0

    def test_kinetic_energy_oracle(self, rng):
        # independent route: sum per-link 1/2 v^T M_link v with v from the
        # link Jacobians
        model = branching_chain()
        for _ in range(10):
            q = random_configuration(model, rng)
            tree = kinematics(model, q)
            M = mass_matrix(tree)
            nu = rng.normal(size=6 + model.n_joints)
            ke_mass = 0.5 * nu @ M @ nu
            ke_links = 0.0
            for i, link in enumerate(model.links):
                J = np.asarray(frame_jacobian(tree, (link.name,)))[0]
                v = J @ nu
                Mi = mixed_inertia_world(link, np.asarray(tree.rot[i]))
                ke_links += 0.5 * v @ Mi @ v
            assert abs(ke_mass - ke_links) <= 1e-9 * max(1.0, abs(ke_links))


class TestGravityVector:
    def test_matches_subtree_loop(self, rng):
        # one subtree matmul reorders the loop's sums
        rtol = 1e-12
        for model in (branching_chain(), planar_2r(), single_body(),
                      payload_body(), dual_length_robot()):
            for _ in range(3):
                q = random_configuration(model, rng)
                for qd in seeded_configurations(model, q):
                    tree = kinematics(model, qd)
                    g = gravity_vector(tree)
                    ref = loop_gravity_vector(model, tree)
                    ndir = max(getattr(g, "ndir", 0), getattr(ref, "ndir", 0))
                    for a, b in ((fad.value(g), fad.value(ref)),
                                 (tangent(g, ndir), tangent(ref, ndir))):
                        scale = max(np.abs(b).max(initial=0.0), 1e-300)
                        assert np.abs(a - b).max(initial=0.0) <= rtol * scale

    def test_weightless_limit(self, rng):
        links = tuple(
            Link(l.name, l.shape,
                 LinkHardware(1e-9, l.hardware.length_multiplier),
                 l.parent, l.joint) for l in branching_chain().links)
        model = Model(name="air", links=links)
        q = random_configuration(model, rng)
        g = gravity_vector(kinematics(model, q))
        assert np.abs(np.asarray(g)).max() <= 1e-8

    def test_single_body_rows(self, rng):
        model = single_body()
        q = random_configuration(model, rng)
        g = np.asarray(gravity_vector(kinematics(model, q)))
        link = model.links[0]
        m = float(shape_mass(link.shape, link.hardware))
        c_w = q.base_rot @ np.asarray(shape_com(link.shape, link.hardware))
        np.testing.assert_allclose(g[:3], [0, 0, m * GRAVITY], atol=1e-12)
        np.testing.assert_allclose(
            g[3:6], GRAVITY * np.cross(m * c_w, [0, 0, 1]), atol=1e-12)

    def test_potential_energy_gradient_oracle(self, rng):
        model = branching_chain()
        h = 1e-6

        def potential(q):
            c, total = com(kinematics(model, q))
            return float(total * GRAVITY * np.asarray(c)[2])

        for _ in range(20):
            q = random_configuration(model, rng)
            g = np.asarray(gravity_vector(kinematics(model, q)))
            for j in rng.choice(model.n_joints, size=2, replace=False):
                d = np.zeros(6 + model.n_joints)
                d[6 + j] = 1.0
                fd = (potential(perturb_configuration(q, h * d))
                      - potential(perturb_configuration(q, -h * d))) / (2 * h)
                denom = max(abs(g[6 + j]), abs(fd), 1e-10)
                assert abs(g[6 + j] - fd) / denom <= 1e-4

    def test_matches_jacobian_sum(self, rng):
        # second independent route: g = -sum_i J_i^T w_i with the gravity
        # wrench of each link expressed at its origin
        model = branching_chain()
        q = random_configuration(model, rng)
        tree = kinematics(model, q)
        g_sum = np.zeros(6 + model.n_joints)
        for i, link in enumerate(model.links):
            J = np.asarray(frame_jacobian(tree, (link.name,)))[0]
            m = float(shape_mass(link.shape, link.hardware))
            c_w = np.asarray(tree.rot[i]) @ np.asarray(
                shape_com(link.shape, link.hardware))
            f = np.array([0.0, 0, -m * GRAVITY])
            w = np.concatenate([f, np.cross(c_w, f)])
            g_sum -= J.T @ w
        np.testing.assert_allclose(np.asarray(gravity_vector(tree)), g_sum,
                                   atol=1e-10)


def check_mount(point, R, p, offset, lm):
    """point is p + R @ [ox, oy, oz * lm], with d/dlm = R @ [0, 0, oz].

    R and p are rows of a stacked tree, so they are Duals (with zero
    tangents here) whenever any row of the tree carries a tangent.
    """
    ox, oy, oz = offset
    R, p = fad.value(R), fad.value(p)
    np.testing.assert_allclose(
        fad.value(point), p + R @ np.array([ox, oy, oz * fad.value(lm)]),
        rtol=0, atol=1e-15)
    if isinstance(lm, fad.Dual):
        np.testing.assert_allclose(point.dot[0], R @ np.array([0, 0, oz]),
                                   rtol=0, atol=1e-15)


class TestApplyHardware:
    def test_identity_is_bitwise_noop(self, rng):
        model = branching_chain()
        same = apply_hardware(
            model, {"a": model.links[1].hardware})
        q = random_configuration(model, rng)
        tree, same_tree = kinematics(model, q), kinematics(same, q)
        np.testing.assert_array_equal(tree.frame_points(("tip",)),
                                      same_tree.frame_points(("tip",)))
        np.testing.assert_array_equal(mass_matrix(tree),
                                      mass_matrix(same_tree))

    def test_child_offset_scales_along_parent_axis(self, rng):
        # b and c hang from a at [0, 0, 0.3] and [0, 0.02, 0.3]
        model = branching_chain()
        for lm in (2.0, fad.seed(np.array([2.0]))[0]):
            scaled = apply_hardware(model, {"a": LinkHardware(1500.0, lm)})
            for q in (Configuration.neutral(model),
                      random_configuration(model, rng)):
                tree = kinematics(scaled, q)
                for i in (2, 3):
                    check_mount(tree.pivot_w[i - 1], tree.rot[1],
                                tree.pos[1], model.links[i].joint.offset, lm)

    def test_density_change_keeps_kinematics(self, rng):
        model = branching_chain()
        heavier = apply_hardware(model, {"b": LinkHardware(4000.0, 1.0)})
        q = random_configuration(model, rng)
        tree, heavy_tree = kinematics(model, q), kinematics(heavier, q)
        np.testing.assert_array_equal(tree.frame_points(("tip",)),
                                      heavy_tree.frame_points(("tip",)))
        assert not np.array_equal(mass_matrix(tree), mass_matrix(heavy_tree))

    def test_total_mass_bookkeeping(self):
        model = branching_chain()
        params = {"a": LinkHardware(3000.0, 1.4),
                  "d": LinkHardware(600.0, 0.7)}
        scaled = apply_hardware(model, params)
        expected = sum(
            float(shape_mass(l.shape, params.get(l.name, l.hardware)))
            for l in model.links)
        assert scaled.total_mass() == pytest.approx(expected, rel=1e-12)

    def test_frame_offset_scales_with_its_link(self, rng):
        # tip sits on d at [0, 0, 0.2]
        model = branching_chain()
        for lm in (1.5, fad.seed(np.array([1.5]))[0]):
            scaled = apply_hardware(model, {"d": LinkHardware(1100.0, lm)})
            for q in (Configuration.neutral(model),
                      random_configuration(model, rng)):
                tree = kinematics(scaled, q)
                p = tree.frame_points(("tip",))[0]
                check_mount(p, tree.rot[4], tree.pos[4],
                            model.topology.frame_map["tip"].offset, lm)

    def test_template_groups_start_inside_their_bounds(self):
        # group_hardware reads a group's first link only, so every link
        # of a group must carry its hardware
        robot = default_robot()
        bounds = robot.bounds
        assert robot.groups
        for g in robot.groups:
            hws = {(hw.density, hw.length_multiplier) for hw in (
                robot.links[robot.link_index(name)].hardware
                for name in g.links)}
            assert hws == {robot.group_hardware()[g.name]}, g.name
            (rho, lm), = hws
            assert bounds.density[0] <= rho <= bounds.density[1], g.name
            assert (bounds.length_multiplier[0] <= lm
                    <= bounds.length_multiplier[1]), g.name

    @pytest.mark.parametrize("build", [default_robot, default_human])
    def test_template_links_carry_hardware_inside_their_bounds(self, build):
        # a model's own hardware is not checked when it is built, so the
        # templates' must be held inside their bounds here
        model = build()
        rho_lo, rho_hi = model.bounds.density
        lm_lo, lm_hi = model.bounds.length_multiplier
        for link in model.links:
            hw = link.hardware
            assert rho_lo <= hw.density <= rho_hi, link.name
            assert lm_lo <= hw.length_multiplier <= lm_hi, link.name

    def test_apply_hardware_shares_joints_frames_and_untouched_links(self):
        robot = default_robot()
        values = {g.name: (1000.0 + 500.0 * k, 0.8 + 0.1 * k)
                  for k, g in enumerate(robot.groups)}
        assert len(values) == 5
        params = group_params(robot, values)
        assert len(params) == 9
        # a group's links share one hardware object
        for g in robot.groups:
            assert {id(params[name]) for name in g.links} == {
                id(params[g.links[0]])}
            assert (params[g.links[0]].density,
                    params[g.links[0]].length_multiplier) == values[g.name]
        assert len({id(hw) for hw in params.values()}) == 5
        scaled = apply_hardware(robot, params)
        assert scaled.topology is robot.topology
        assert all(f is f0 for f, f0 in zip(scaled.frames, robot.frames))
        for l, l0 in zip(scaled.links, robot.links):
            assert l.joint is l0.joint
            if l.name in params:
                assert l is not l0 and l.hardware is params[l.name]
                assert l.shape is l0.shape
            else:
                assert l is l0

    @pytest.mark.parametrize("dual", [False, True])
    def test_variant_tables_match_per_link_results(self, dual):
        # the stacked tables a variant reads equal, bit for bit, the
        # per-link mass_com, fad.stack and per-level _scale_z results
        robot = default_robot()
        values = {g.name: (1000.0 + 500.0 * k, 0.6 + 0.1 * k)
                  for k, g in enumerate(robot.groups)}
        if dual:
            x = fad.seed(np.array([v for pair in values.values()
                                   for v in pair]))
            values = {name: (x[2 * k], x[2 * k + 1])
                      for k, name in enumerate(values)}
        scaled = apply_hardware(robot, group_params(robot, values))
        links = scaled.links

        def same(a, b):
            assert isinstance(a, fad.Dual) == isinstance(b, fad.Dual)
            for x, y in ((a, b),) if not isinstance(a, fad.Dual) else (
                    (a.val, b.val), (a.dot, b.dot)):
                assert x.dtype == y.dtype and x.shape == y.shape
                assert x.tobytes() == y.tobytes()

        def stacked(items):
            # np.stack of the values, and of the tangents (zero for a
            # plain item) behind the direction axis
            vals = np.stack([fad.value(x) for x in items])
            ndir = {x.ndir for x in items if isinstance(x, fad.Dual)}
            if not ndir:
                return vals
            n = ndir.pop()
            return fad.Dual(vals, np.stack([
                x.dot if isinstance(x, fad.Dual)
                else np.zeros((n,) + np.shape(fad.value(x)))
                for x in items], axis=1))

        reference = [stacked([l.hardware.length_multiplier for l in links]),
                     stacked([l.mass_com[0] for l in links]),
                     stacked([l.mass_com[1] for l in links])]
        same(scaled._multipliers, reference[0])
        same(scaled._mass_table[0], reference[1])
        same(scaled._mass_table[1], reference[2])
        assert isinstance(scaled._mass_table[0], fad.Dual) == dual
        lm = fad.value(reference[0])
        offsets = scaled._joint_offsets
        assert offsets.shape == (robot.n_joints, 3)
        for lv in scaled.topology.levels:
            offset = np.stack([links[i].joint.offset for i in lv.links])
            parents = [links[i].parent for i in lv.links]
            same(offsets[lv.span],
                 multibody._scale_z(offset, lm[parents][:, None]))

    def test_topology_tables_built_on_first_use(self):
        model = branching_chain()
        scaled = apply_hardware(model, {"a": LinkHardware(1500.0, 1.2)})
        assert "levels" not in model.topology.__dict__
        kinematics(scaled, Configuration.neutral(scaled))
        assert [lv.links.tolist() for lv in model.topology.levels] == [
            [1], [2, 3], [4]]

    def test_errors(self):
        model = branching_chain()
        with pytest.raises(UnknownFrameError):
            apply_hardware(model, {"nope": LinkHardware(1000.0)})
        with pytest.raises(ValueError):
            apply_hardware(model, {"a": LinkHardware(1000.0, 99.0)})
        with pytest.raises(ValueError):
            apply_hardware(model, {"a": LinkHardware(1.0, 1.0)})


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper; returns the list of its calls."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestWholeTreeCalls:
    """Each pass makes one batched call per tree, not one per joint."""

    def test_kinematics_one_rodrigues_call_per_tree(self, monkeypatch, rng):
        # one fad.rodrigues call, so one sine, over every joint of the
        # tree, for a single posture and for a stack of three
        robot = default_robot()
        qs = [random_configuration(robot, rng) for _ in range(3)]
        stack = Configuration(np.stack([q.base_pos for q in qs]),
                              np.stack([q.base_rot for q in qs]),
                              np.stack([q.s for q in qs]))
        cases = [(m, random_configuration(m, rng)) for m in (
            default_human(), robot, payload_body())] + [(robot, stack)]
        for model, q in cases:
            calls = counting(monkeypatch, fad, "rodrigues")
            kinematics(model, q)
            assert len(calls) == 1, model.name
            s, K, K2 = calls[0]
            assert s.shape == np.shape(q.s)
            assert K.shape == K2.shape == (model.n_joints, 3, 3)

    def test_coupling_matrix_one_jacobian_call_per_subsystem(
            self, monkeypatch):
        sys = build_system(make_scenario(heights=(1.0,)))
        models = sys.subsystem_models()
        q = CoupledConfiguration(tuple(Configuration.neutral(m)
                                       for m in models))
        trees = coupled_trees(sys, q)
        calls = counting(monkeypatch, coupled, "frame_jacobian")
        Q = coupling_matrix(sys, trees)
        assert len(calls) == len(models) == 3
        assert Q.shape == (6 * 8, sum(6 + m.n_joints for m in models))


class TestDerivedOnce:
    """Model constants are derived when their definition is built."""

    def test_no_rpy_rotation_after_construction(self, monkeypatch, rng):
        robot = default_robot()
        calls = counting(monkeypatch, fad, "rpy_matrix")
        q = random_configuration(robot, rng)
        scaled = apply_hardware(robot, group_params(
            robot, {g.name: (2000.0, 1.4) for g in robot.groups}))
        for model in (robot, scaled):
            tree = kinematics(model, q)
            for f in model.frames:
                tree.frame_rotations((f.name,))
                tree.frame_points((f.name,))
                frame_jacobian(tree, (f.name,))
                frame_jacobian(kinematics(model, q), (f.name,))
        assert calls == []

    def test_apply_hardware_derives_only_rebuilt_links(self, monkeypatch):
        robot = default_robot()
        q = Configuration.neutral(robot)
        gravity_vector(kinematics(robot, q))
        calls = counting(monkeypatch, multibody, "shape_mass")
        scaled = apply_hardware(
            robot, group_params(robot, {"upper_arm": (1500.0, 1.3)}))
        gravity_vector(kinematics(scaled, q))
        rebuilt = [l for l, l0 in zip(scaled.links, robot.links)
                   if l is not l0]
        # the two upper arms; the forearms' joints ride them unchanged
        assert [l.name for l in rebuilt] == ["upper_arm_left",
                                             "upper_arm_right"]
        assert [hw for _, hw in calls] == [l.hardware for l in rebuilt]


class TestComHeight:
    def test_sphere_on_ground(self):
        model = Model(name="ball",
                      links=(Link("ball", Sphere(0.2), LinkHardware(1000.0)),))
        assert com_height_null_config(model) == pytest.approx(0.2)
        scaled = apply_hardware(model, {"ball": LinkHardware(1000.0, 1.5)})
        assert com_height_null_config(scaled) == pytest.approx(0.3)

    def test_uniform_density_scaling_invariance(self):
        model = branching_chain()
        h0 = com_height_null_config(model)
        params = {l.name: LinkHardware(3.0 * l.hardware.density,
                                       l.hardware.length_multiplier)
                  for l in model.links}
        scaled = apply_hardware(model, params)
        assert com_height_null_config(scaled) == pytest.approx(h0, rel=1e-12)


class TestModelValidation:
    def test_rejects_cycle_breaking_order(self):
        hw = LinkHardware(1000.0)
        with pytest.raises(ModelError):
            Model(name="bad", links=(
                Link("base", Box(0.1, 0.1, 0.1), hw),
                Link("x", Box(0.1, 0.1, 0.1), hw, parent=2,
                     joint=joint([0, 0, 1], [0, 0, 0])),
                Link("y", Box(0.1, 0.1, 0.1), hw, parent=1,
                     joint=joint([0, 0, 1], [0, 0, 0])),
            )).validate()

    def test_rejects_duplicate_names(self):
        hw = LinkHardware(1000.0)
        with pytest.raises(ModelError):
            Model(name="bad", links=(
                Link("a", Box(0.1, 0.1, 0.1), hw),
                Link("a", Box(0.1, 0.1, 0.1), hw, parent=0,
                     joint=joint([0, 0, 1], [0, 0, 0])),
            )).validate()

    def test_rejects_bad_limits(self):
        with pytest.raises(ModelError):
            joint([0, 0, 1], [0, 0, 0], limits=(1.0, 1.0))


class TestDualPathConsistency:
    def test_fk_with_dual_configuration(self, rng):
        # the same pipeline must evaluate identically under dual tracing
        model = branching_chain()
        q = random_configuration(model, rng)
        x = np.concatenate([q.base_pos, [0.1, -0.2, 0.3], q.s])

        def tip_z(x):
            qd = Configuration(
                base_pos=x[:3],
                base_rot=fad.rpy_matrix(x[3], x[4], x[5]),
                s=x[6:])
            tree = kinematics(model, qd)
            return tree.frame_points(("tip",))[0, 2]

        grad = tip_z(fad.seed(x)).dot
        assert np.isfinite(grad).all()
        h = 1e-6
        fd = np.zeros_like(x)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            fd[i] = (tip_z(x + e) - tip_z(x - e)) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)

    def test_gravity_vector_dual(self, rng):
        model = branching_chain()
        q = random_configuration(model, rng)

        def g_first(s):
            qd = Configuration(q.base_pos, q.base_rot, s)
            return gravity_vector(kinematics(model, qd))[6]

        grad = g_first(fad.seed(np.asarray(q.s))).dot
        h = 1e-6
        for j in range(model.n_joints):
            e = np.zeros(model.n_joints)
            e[j] = h
            fd = (g_first(q.s + e) - g_first(q.s - e)) / (2 * h)
            assert abs(grad[j] - fd) <= 1e-5 * max(1.0, abs(fd))
