import numpy as np
import pytest

from ergolift import fad, multibody
from ergolift.multibody import (Configuration, FrameDef, Joint, Link, Model,
                                ModelError, UnknownFrameError, apply_hardware,
                                com, com_height_null_config, forward_kinematics,
                                frame_jacobian, gravity_vector, group_params,
                                kinematics, link_jacobian, mass_matrix,
                                perturb_configuration, random_configuration)
from ergolift.shapes import (Box, Cylinder, LinkHardware, Sphere, shape_com,
                             shape_inertia_origin, shape_mass)
from ergolift.spatial import GRAVITY, assemble_spatial_inertia, skew
from ergolift.templates import default_robot

REV = "revolute"
PRI = "prismatic"


def joint(axis, offset, rpy=(0, 0, 0), kind=REV, limits=(-3.0, 3.0)):
    return Joint(kind=kind, axis=np.array(axis, float),
                 offset=np.array(offset, float), rpy=np.array(rpy, float),
                 limits=limits)


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


def mixed_chain():
    """Branching chain with revolute and prismatic joints."""
    links = (
        Link("base", Box(0.2, 0.15, 0.1), LinkHardware(900.0)),
        Link("a", Cylinder(0.04, 0.3), LinkHardware(1500.0), parent=0,
             joint=joint([0, 1, 0], [0.05, 0, 0.1], rpy=(0.2, 0, 0))),
        Link("b", Cylinder(0.03, 0.25), LinkHardware(2000.0), parent=1,
             joint=joint([1, 0, 0], [0, 0, 0.3], rpy=(0, -0.3, 0.1))),
        Link("c", Sphere(0.05), LinkHardware(800.0), parent=1,
             joint=joint([0, 0, 1], [0, 0.02, 0.3], kind=PRI,
                         limits=(-0.5, 0.5))),
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
        if model.links[j + 1].joint.kind == REV:
            lin_cols[6 + j] = fad.cross3(a, point_w - tree.pivot_w[j])
            ang_cols[6 + j] = a
        else:
            lin_cols[6 + j] = a
            ang_cols[6 + j] = zeros3
    return fad.concatenate([fad.stack(lin_cols, axis=1),
                            fad.stack(ang_cols, axis=1)], axis=0)


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
        a = np.asarray(fad.value(tree.axis_w[j]))
        if model.links[j + 1].joint.kind == REV:
            return np.concatenate([np.zeros(3), a])
        return np.concatenate([a, np.zeros(3)])

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


def seeded_configurations(model, q):
    """q with tangents on the base and joints, on the joints only, and none."""
    x = fad.seed(np.concatenate([q.base_pos, [0.1, -0.2, 0.3], q.s]))
    yield Configuration(x[:3], fad.rpy_matrix(x[3], x[4], x[5]), x[6:])
    yield Configuration(q.base_pos, q.base_rot, fad.seed(np.asarray(q.s)))
    yield q


class TestForwardKinematics:
    def test_base_pose_is_configuration(self, rng):
        model = mixed_chain()
        q = random_configuration(model, rng)
        R, p = forward_kinematics(model, q, "base")
        np.testing.assert_array_equal(R, q.base_rot)
        np.testing.assert_array_equal(p, q.base_pos)

    def test_zero_angle_child_is_fixed_offset(self):
        model = planar_2r()
        q = Configuration.neutral(model)
        R, p = forward_kinematics(model, q, "l2")
        np.testing.assert_allclose(R, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(p, [1, 0, 0], atol=1e-15)

    def test_planar_2r_right_angles(self):
        model = planar_2r()
        q = Configuration(np.zeros(3), np.eye(3),
                          np.array([np.pi / 2, np.pi / 2]))
        _, p = forward_kinematics(model, q, "ee")
        np.testing.assert_allclose(p, [-1.0, 1.0, 0.0], atol=1e-12)

    def test_unknown_frame(self):
        with pytest.raises(UnknownFrameError):
            forward_kinematics(planar_2r(), Configuration.neutral(planar_2r()),
                               "nope")


class TestFrameJacobian:
    def test_base_frame_identity(self, rng):
        model = mixed_chain()
        q = random_configuration(model, rng)
        J = frame_jacobian(model, q, "base")
        np.testing.assert_allclose(J[:, :6], np.eye(6), atol=1e-12)
        np.testing.assert_allclose(J[:, 6:], 0.0, atol=1e-15)

    def test_finite_difference_agreement(self, rng):
        model = mixed_chain()
        h = 1e-7
        for _ in range(100):
            q = random_configuration(model, rng)
            tree = kinematics(model, q)
            J = np.asarray(frame_jacobian(model, q, "tip", tree))
            d = rng.normal(size=6 + model.n_joints)
            Rp, pp = kinematics(model, perturb_configuration(q, h * d)), None
            Rm = kinematics(model, perturb_configuration(q, -h * d))
            _, p_plus = Rp.frame_pose("tip")
            _, p_minus = Rm.frame_pose("tip")
            lin_fd = (p_plus - p_minus) / (2 * h)
            lin = J[:3] @ d
            denom = max(np.linalg.norm(lin), np.linalg.norm(lin_fd), 1e-9)
            assert np.linalg.norm(lin - lin_fd) / denom <= 1e-5

    def test_angular_rows_match_rotation_rate(self, rng):
        model = mixed_chain()
        h = 1e-7
        for _ in range(20):
            q = random_configuration(model, rng)
            J = np.asarray(frame_jacobian(model, q, "tip"))
            d = rng.normal(size=6 + model.n_joints)
            R_plus, _ = kinematics(
                model, perturb_configuration(q, h * d)).frame_pose("tip")
            R_minus, _ = kinematics(
                model, perturb_configuration(q, -h * d)).frame_pose("tip")
            Rdot = (R_plus - R_minus) / (2 * h)
            R0, _ = kinematics(model, q).frame_pose("tip")
            W = Rdot @ R0.T  # skew of world angular velocity
            w_fd = np.array([W[2, 1], W[0, 2], W[1, 0]])
            w = J[3:] @ d
            denom = max(np.linalg.norm(w), np.linalg.norm(w_fd), 1e-9)
            assert np.linalg.norm(w - w_fd) / denom <= 1e-5

    def test_off_path_columns_are_zero(self, rng):
        model = mixed_chain()
        q = random_configuration(model, rng)
        # frame "side" rides link c (dof 2); dofs 1 ("b") and 3 ("d") are off path
        J = np.asarray(frame_jacobian(model, q, "side"))
        np.testing.assert_array_equal(J[:, 6 + 1], np.zeros(6))
        np.testing.assert_array_equal(J[:, 6 + 3], np.zeros(6))
        assert np.abs(J[:, 6 + 2]).max() > 0


    def test_matches_joint_loop_reference(self, rng):
        # the masked kernel does the loop's arithmetic element for element
        lm = fad.seed(np.array([1.3]))[0]
        for model in (mixed_chain(), payload_body(),
                      apply_hardware(mixed_chain(), {
                          "a": LinkHardware(1500.0, lm)}, validate=False)):
            for _ in range(5):
                q = random_configuration(model, rng)
                for qd in seeded_configurations(model, q):
                    tree = kinematics(model, qd)
                    points = [(i, tree.pos[i])
                              for i in range(len(model.links))]
                    points += [(f.link, tree.frame_pose(f.name)[1])
                               for f in model.frames]
                    jacs = [link_jacobian(model, qd, i, tree)
                            for i in range(len(model.links))]
                    jacs += [frame_jacobian(model, qd, f.name, tree)
                             for f in model.frames]
                    for (i, p), J in zip(points, jacs):
                        ref = loop_point_jacobian(model, tree, i, p)
                        np.testing.assert_array_equal(fad.value(J),
                                                      fad.value(ref))
                        ndir = max(getattr(J, "ndir", 0),
                                   getattr(ref, "ndir", 0))
                        np.testing.assert_array_equal(tangent(J, ndir),
                                                      tangent(ref, ndir))


class TestMassMatrix:
    def test_matches_composite_rigid_body_reference(self, rng):
        # the sum over links reorders the arithmetic of the CRBA walk
        rtol = 1e-12
        for model in (mixed_chain(), planar_2r(), single_body(),
                      default_robot()):
            for _ in range(5):
                q = random_configuration(model, rng)
                tree = kinematics(model, q)
                M = mass_matrix(model, q, tree)
                ref = crba_mass_matrix(model, tree)
                assert np.abs(M - ref).max() <= rtol * np.abs(ref).max()

    def test_single_floating_body(self, rng):
        model = single_body()
        q = random_configuration(model, rng)
        M = mass_matrix(model, q)
        expected = mixed_inertia_world(model.links[0], q.base_rot)
        np.testing.assert_allclose(M, expected, atol=1e-12)

    def test_symmetry_and_positive_definite(self, rng):
        model = mixed_chain()
        for _ in range(25):
            q = random_configuration(model, rng)
            M = mass_matrix(model, q)
            assert np.abs(M - M.T).max() <= 1e-9
            assert np.linalg.eigvalsh(M).min() > 0

    def test_kinetic_energy_oracle(self, rng):
        # independent route: sum per-link 1/2 v^T M_link v with v from the
        # link Jacobians
        model = mixed_chain()
        for _ in range(10):
            q = random_configuration(model, rng)
            tree = kinematics(model, q)
            M = mass_matrix(model, q)
            # a prebuilt tree gives the same matrix bit for bit
            np.testing.assert_array_equal(mass_matrix(model, q, tree), M)
            nu = rng.normal(size=6 + model.n_joints)
            ke_mass = 0.5 * nu @ M @ nu
            ke_links = 0.0
            for i, link in enumerate(model.links):
                J = np.asarray(link_jacobian(model, q, i, tree))
                v = J @ nu
                Mi = mixed_inertia_world(link, np.asarray(tree.rot[i]))
                ke_links += 0.5 * v @ Mi @ v
            assert abs(ke_mass - ke_links) <= 1e-9 * max(1.0, abs(ke_links))


class TestGravityVector:
    def test_weightless_limit(self, rng):
        links = tuple(
            Link(l.name, l.shape, LinkHardware(1e-9, l.hardware.length_multiplier),
                 l.parent, l.joint) for l in mixed_chain().links)
        model = Model(name="air", links=links)
        q = random_configuration(model, rng)
        assert np.abs(np.asarray(gravity_vector(model, q))).max() <= 1e-8

    def test_single_body_rows(self, rng):
        model = single_body()
        q = random_configuration(model, rng)
        g = np.asarray(gravity_vector(model, q))
        link = model.links[0]
        m = float(shape_mass(link.shape, link.hardware))
        c_w = q.base_rot @ np.asarray(shape_com(link.shape, link.hardware))
        np.testing.assert_allclose(g[:3], [0, 0, m * GRAVITY], atol=1e-12)
        np.testing.assert_allclose(
            g[3:6], GRAVITY * np.cross(m * c_w, [0, 0, 1]), atol=1e-12)

    def test_potential_energy_gradient_oracle(self, rng):
        model = mixed_chain()
        h = 1e-6

        def potential(q):
            c, total = com(model, q)
            return float(total * GRAVITY * np.asarray(c)[2])

        for _ in range(20):
            q = random_configuration(model, rng)
            g = np.asarray(gravity_vector(model, q))
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
        model = mixed_chain()
        q = random_configuration(model, rng)
        tree = kinematics(model, q)
        g_sum = np.zeros(6 + model.n_joints)
        for i, link in enumerate(model.links):
            J = np.asarray(link_jacobian(model, q, i, tree))
            m = float(shape_mass(link.shape, link.hardware))
            c_w = np.asarray(tree.rot[i]) @ np.asarray(
                shape_com(link.shape, link.hardware))
            f = np.array([0.0, 0, -m * GRAVITY])
            w = np.concatenate([f, np.cross(c_w, f)])
            g_sum -= J.T @ w
        np.testing.assert_allclose(np.asarray(gravity_vector(model, q)),
                                   g_sum, atol=1e-10)


def check_mount(point, R, p, offset, lm):
    """point is p + R @ [ox, oy, oz * lm], with d/dlm = R @ [0, 0, oz]."""
    ox, oy, oz = offset
    np.testing.assert_allclose(
        fad.value(point), p + R @ np.array([ox, oy, oz * fad.value(lm)]),
        rtol=0, atol=1e-15)
    if isinstance(lm, fad.Dual):
        np.testing.assert_allclose(point.dot[0], R @ np.array([0, 0, oz]),
                                   rtol=0, atol=1e-15)


class TestApplyHardware:
    def test_identity_is_bitwise_noop(self, rng):
        model = mixed_chain()
        same = apply_hardware(
            model, {"a": model.links[1].hardware})
        q = random_configuration(model, rng)
        np.testing.assert_array_equal(
            np.asarray(forward_kinematics(model, q, "tip")[1]),
            np.asarray(forward_kinematics(same, q, "tip")[1]))
        np.testing.assert_array_equal(mass_matrix(model, q),
                                      mass_matrix(same, q))

    def test_child_offset_scales_along_parent_axis(self, rng):
        # b and c hang from a at [0, 0, 0.3] and [0, 0.02, 0.3]
        model = mixed_chain()
        for lm in (2.0, fad.seed(np.array([2.0]))[0]):
            scaled = apply_hardware(model, {"a": LinkHardware(1500.0, lm)})
            for q in (Configuration.neutral(model),
                      random_configuration(model, rng)):
                tree = kinematics(scaled, q)
                for i in (2, 3):
                    check_mount(tree.pivot_w[i - 1], tree.rot[1],
                                tree.pos[1], model.links[i].joint.offset, lm)

    def test_density_change_keeps_kinematics(self, rng):
        model = mixed_chain()
        heavier = apply_hardware(model, {"b": LinkHardware(4000.0, 1.0)})
        q = random_configuration(model, rng)
        np.testing.assert_array_equal(
            np.asarray(forward_kinematics(model, q, "tip")[1]),
            np.asarray(forward_kinematics(heavier, q, "tip")[1]))
        assert not np.array_equal(mass_matrix(model, q),
                                  mass_matrix(heavier, q))

    def test_total_mass_bookkeeping(self):
        model = mixed_chain()
        params = {"a": LinkHardware(3000.0, 1.4), "d": LinkHardware(600.0, 0.7)}
        scaled = apply_hardware(model, params)
        expected = sum(
            float(shape_mass(l.shape, params.get(l.name, l.hardware)))
            for l in model.links)
        assert scaled.total_mass() == pytest.approx(expected, rel=1e-12)

    def test_frame_offset_scales_with_its_link(self, rng):
        # tip sits on d at [0, 0, 0.2]
        model = mixed_chain()
        for lm in (1.5, fad.seed(np.array([1.5]))[0]):
            scaled = apply_hardware(model, {"d": LinkHardware(1100.0, lm)})
            for q in (Configuration.neutral(model),
                      random_configuration(model, rng)):
                tree = kinematics(scaled, q)
                _, p = tree.frame_pose("tip")
                check_mount(p, tree.rot[4], tree.pos[4],
                            model.frame("tip").offset, lm)

    def test_apply_hardware_shares_joints_frames_and_untouched_links(self):
        robot = default_robot()
        values = {g.name: (1000.0 + 500.0 * k, 0.8 + 0.1 * k)
                  for k, g in enumerate(robot.groups)}
        assert len(values) == 5
        params = group_params(robot, values)
        assert len(params) == 9
        scaled = apply_hardware(robot, params)
        assert all(f is f0 for f, f0 in zip(scaled.frames, robot.frames))
        for l, l0 in zip(scaled.links, robot.links):
            assert l.joint is l0.joint
            if l.name in params:
                assert l is not l0 and l.hardware is params[l.name]
                assert l.shape is l0.shape
            else:
                assert l is l0

    def test_errors(self):
        model = mixed_chain()
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
                tree.frame_pose(f.name)
                frame_jacobian(model, q, f.name, tree)
                frame_jacobian(model, q, f.name)
        assert calls == []

    def test_apply_hardware_derives_only_rebuilt_links(self, monkeypatch):
        robot = default_robot()
        q = Configuration.neutral(robot)
        gravity_vector(robot, q)
        calls = counting(monkeypatch, multibody, "shape_mass")
        scaled = apply_hardware(
            robot, group_params(robot, {"upper_arm": (1500.0, 1.3)}))
        gravity_vector(scaled, q)
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
        assert com_height_null_config(
            model, {"ball": LinkHardware(1000.0, 1.5)}) == pytest.approx(0.3)

    def test_uniform_density_scaling_invariance(self):
        model = mixed_chain()
        h0 = com_height_null_config(model)
        params = {l.name: LinkHardware(3.0 * l.hardware.density,
                                       l.hardware.length_multiplier)
                  for l in model.links}
        assert com_height_null_config(model, params) == pytest.approx(
            h0, rel=1e-12)


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
        model = mixed_chain()
        q = random_configuration(model, rng)
        x = np.concatenate([q.base_pos, [0.1, -0.2, 0.3], q.s])

        def tip_z(x):
            qd = Configuration(
                base_pos=x[:3],
                base_rot=fad.rpy_matrix(x[3], x[4], x[5]),
                s=x[6:])
            tree = kinematics(model, qd)
            _, p = tree.frame_pose("tip")
            return p[2]

        val, grad = fad.jacobian(tip_z, x)
        assert np.isfinite(grad).all()
        h = 1e-6
        fd = np.zeros_like(x)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            fd[i] = (tip_z(x + e) - tip_z(x - e)) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)

    def test_gravity_vector_dual(self, rng):
        model = mixed_chain()
        q = random_configuration(model, rng)

        def g_first(s):
            qd = Configuration(q.base_pos, q.base_rot, s)
            return gravity_vector(model, qd)[6]

        val, grad = fad.jacobian(g_first, np.asarray(q.s))
        h = 1e-6
        for j in range(model.n_joints):
            e = np.zeros(model.n_joints)
            e[j] = h
            fd = (g_first(q.s + e) - g_first(q.s - e)) / (2 * h)
            assert abs(grad[j] - fd) <= 1e-5 * max(1.0, abs(fd))
