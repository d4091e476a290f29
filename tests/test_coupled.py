import numpy as np
import pytest

from ergolift.coupled import (CoupledConfiguration, CoupledSystem,
                              SingularConstraintError, UnloadedFootError,
                              _constraint_svd, center_of_pressure,
                              composite_gravity, contact_wrenches,
                              coupled_trees, coupling_matrix, evaluate_statics,
                              foot_cops, static_torques)
from ergolift.multibody import (Configuration, FrameDef, Joint, Link, Model,
                                mass_matrix)
from ergolift.scenario import (build_system, make_scenario,
                               warm_start_configuration)
from ergolift.shapes import Box, LinkHardware, Sphere
from ergolift.spatial import GRAVITY, Wrench
from ergolift.templates import build_payload, default_human


# The projector route, kept as the reference the saddle statics are held
# against: the block-diagonal mass matrix M, the mass-weighted null-space
# projector N = 1 - Q^T (Q M^-1 Q^T)^-1 Q M^-1, the minimum-norm torques
# pinv(N B) N g and the M-weighted wrenches.  Its answer does not depend
# on M whenever the contact set has full row rank.


def composite_matrices(sys, q, params=None):
    """Block-diagonal mass matrix, stacked gravity and selector matrix."""
    trees = coupled_trees(sys, q, params)
    _, offsets = sys.velocity_layout()
    M = np.zeros((int(offsets[-1]),) * 2)
    for i, t in enumerate(trees):
        sl = slice(int(offsets[i]), int(offsets[i + 1]))
        M[sl, sl] = mass_matrix(t.model, t.q, t)
    g = np.asarray(composite_gravity(sys, q, params, trees=trees))
    return M, g, sys.selector()


def nullspace_projector(M, Q, labels=None):
    """Projector 1 - Q^T (Q M^-1 Q^T)^-1 Q M^-1 onto admissible dynamics."""
    n = M.shape[0]
    if Q.shape[0] == 0:
        return np.eye(n)
    _constraint_svd(Q, labels)
    Minv_Qt = np.linalg.solve(M, Q.T)
    G = Q @ Minv_Qt
    return np.eye(n) - Q.T @ np.linalg.solve(G, Minv_Qt.T)


def pinv_truncated(A, rel_tol=1e-8):
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    keep = s > rel_tol * s[0]
    return Vt[keep].T @ ((U[:, keep] / s[keep]).T)


def projector_statics(sys, q, params=None):
    """Torques and wrenches from the projector route."""
    M, g, B = composite_matrices(sys, q, params)
    Q = np.asarray(coupling_matrix(sys, q, params))
    N = nullspace_projector(M, Q, labels=sys.wrench_labels)
    tau = pinv_truncated(N @ B) @ (N @ g)
    rhs = Q @ np.linalg.solve(M, g - B @ tau)
    f = np.linalg.solve(Q @ np.linalg.solve(M, Q.T), rhs)
    return tau, f


def assert_rel_close(actual, reference, rel):
    scale = max(float(np.abs(reference).max()), 1.0)
    assert float(np.abs(actual - reference).max()) <= rel * scale


def pendulum_system(axis=(0, -1, 0)):
    """Anchored base plus one revolute arm carrying 1 kg at 1 m."""
    links = (
        Link("ground", Box(0.2, 0.2, 0.05), LinkHardware(2000.0)),
        Link("arm", Sphere(1.0), LinkHardware(3.0 / (4.0 * np.pi)), parent=0,
             joint=Joint(kind="revolute", axis=np.array(axis, float),
                         offset=np.zeros(3), rpy=np.array([0.0, np.pi / 2, 0]),
                         limits=(-3.0, 3.0))),
    )
    frames = (FrameDef("anchor", 0, np.zeros(3), np.zeros(3)),)
    model = Model(name="pendulum", links=links, frames=frames).validate()
    sys = CoupledSystem(agents=(model,), env_contacts=((0, "anchor"),))
    q = CoupledConfiguration.of(Configuration.neutral(model))
    return sys, q


def standing_human_system():
    human = default_human()
    sys = CoupledSystem(agents=(human,),
                        env_contacts=((0, "sole_left"), (0, "sole_right")))
    q0 = Configuration(np.array([0.0, 0.0, 0.83]), np.eye(3),
                       np.zeros(human.n_joints))
    return sys, CoupledConfiguration.of(q0)


@pytest.fixture(scope="module")
def desk():
    sc = make_scenario(heights=(1.0,))
    sys = build_system(sc)
    q = warm_start_configuration(sc, sys, 1.0)
    return sc, sys, q


def perturbed(sys, q, rng, joint_scale=0.15, base_scale=0.04):
    """Within-limits random variation of a working configuration."""
    out = []
    for model, qi in zip(sys.subsystem_models(), q.qs):
        lo, hi = model.joint_limits()
        s = qi.s + rng.normal(size=model.n_joints) * joint_scale \
            if model.n_joints else qi.s
        s = np.clip(s, lo + 1e-3, hi - 1e-3) if model.n_joints else s
        out.append(Configuration(
            qi.base_pos + rng.normal(size=3) * base_scale,
            qi.base_rot, s))
    return CoupledConfiguration(tuple(out))


class TestStaticTorques:
    def test_pendulum_horizontal(self):
        sys, q = pendulum_system()
        tau = static_torques(sys, q)
        assert tau.shape == (1,)
        assert tau[0] == pytest.approx(GRAVITY, rel=1e-9)

    def test_weightless_limit(self):
        # torque scales linearly down to (numerically) zero with density
        links = (
            Link("ground", Box(0.2, 0.2, 0.05), LinkHardware(1e-12)),
            Link("arm", Sphere(1.0), LinkHardware(1e-12), parent=0,
                 joint=Joint(kind="revolute", axis=np.array([0.0, -1, 0]),
                             offset=np.zeros(3),
                             rpy=np.array([0.0, np.pi / 2, 0]),
                             limits=(-3.0, 3.0))),
        )
        frames = (FrameDef("anchor", 0, np.zeros(3), np.zeros(3)),)
        model = Model(name="air", links=links, frames=frames)
        sys = CoupledSystem(agents=(model,), env_contacts=((0, "anchor"),))
        q = CoupledConfiguration.of(Configuration.neutral(model))
        tau = static_torques(sys, q)
        assert np.abs(tau).max() <= 1e-9
        # and the residual weight torque is exactly m g l
        m = model.links[1].shape.radius ** 3 * (4.0 / 3.0) * np.pi * 1e-12
        assert tau[0] == pytest.approx(m * GRAVITY * 1.0, rel=1e-6)

    def test_matches_projector_reference(self, desk, rng):
        _, sys, q0 = desk
        for _ in range(5):
            q = perturbed(sys, q0, rng)
            tau_ref, f_ref = projector_statics(sys, q)
            tau = static_torques(sys, q)
            assert_rel_close(tau, tau_ref, 1e-10)
            assert_rel_close(contact_wrenches(sys, q, None, tau), f_ref, 1e-10)

    def test_symmetric_stance_symmetric_torques(self, desk):
        sc, sys, q0 = desk
        qs = []
        for model, qi in zip(sys.subsystem_models(), q0.qs):
            if model.n_joints == 0:
                qs.append(Configuration(
                    np.array([0.0, 0.0, float(qi.base_pos[2])]), np.eye(3),
                    qi.s))
                continue
            names = model.joint_names
            s = np.array(qi.s, dtype=float)
            for j, name in enumerate(names):
                if ("upper_arm" in name or "hip_b" in name
                        or "upper_leg" in name or "foot" in name
                        or "wrist_b" in name or "hand" in name):
                    s[j] = 0.0  # zero the roll/yaw joints
            for j, name in enumerate(names):
                if name.endswith("_right"):
                    s[j] = s[names.index(name[:-6] + "_left")]
            # mirror symmetry about the x = 0 plane needs yaw exactly +-pi/2
            rpy_yaw = np.sign(np.arctan2(float(qi.base_rot[1, 0]),
                                         float(qi.base_rot[0, 0]))) * np.pi / 2
            R = np.array([[np.cos(rpy_yaw), -np.sin(rpy_yaw), 0],
                          [np.sin(rpy_yaw), np.cos(rpy_yaw), 0], [0, 0, 1.0]])
            qs.append(Configuration(
                np.array([0.0, float(qi.base_pos[1]), float(qi.base_pos[2])]),
                R, s))
        q = CoupledConfiguration(tuple(qs))
        tau = static_torques(sys, q)
        labels = sys.torque_labels()
        for i, lab in enumerate(labels):
            if lab.endswith("_left"):
                j = labels.index(lab[:-5] + "_right")
                pair = lab.split(":")[1][:-5]
                sign = -1.0 if ("upper_arm" in pair or "hip_b" in pair
                                or "upper_leg" in pair or "foot" in pair
                                or "wrist_b" in pair or "hand" in pair) else 1.0
                assert tau[i] == pytest.approx(sign * tau[j], abs=1e-6), lab

    def test_projected_equilibrium_on_random_configs(self, desk, rng):
        _, sys, q0 = desk
        for _ in range(10):
            q = perturbed(sys, q0, rng)
            tau = static_torques(sys, q)
            f = contact_wrenches(sys, q, None, tau)
            M, g, B = composite_matrices(sys, q)
            Q = np.asarray(coupling_matrix(sys, q))
            N = nullspace_projector(M, Q)
            assert np.abs(N @ (g - B @ tau)).max() <= 1e-6
            assert np.abs(B @ tau + Q.T @ f - g).max() <= 1e-6


class TestCouplingMatrix:
    def test_no_grasp_block_structure(self):
        sys, q = standing_human_system()
        Q = np.asarray(coupling_matrix(sys, q))
        assert Q.shape == (12, 6 + sys.agents[0].n_joints)
        assert np.abs(Q).max() > 0

    def test_row_count_bookkeeping(self, desk):
        _, sys, q = desk
        Q = np.asarray(coupling_matrix(sys, q))
        n_rows = 6 * (len(sys.env_contacts) + len(sys.grasps))
        dims, offsets = sys.velocity_layout()
        assert Q.shape == (n_rows, int(offsets[-1]))

    def test_payload_columns_zero_without_grasps(self, desk):
        sc, sys, q = desk
        no_grasp = CoupledSystem(agents=sys.agents, payload=sys.payload,
                                 env_contacts=sys.env_contacts, grasps=())
        Q = np.asarray(coupling_matrix(no_grasp, q))
        np.testing.assert_array_equal(Q[:, -6:], 0.0)

    def test_grasp_rows_annihilate_common_rigid_twist(self, desk, rng):
        sc, sys, q = desk
        # rebuild the payload so its grasp frames coincide with the hands
        trees = coupled_trees(sys, q)
        q3 = q.qs[2]
        points = {}
        for g in sys.grasps:
            _, p_hand = trees[g.agent].frame_pose(g.agent_frame)
            points[g.payload_frame] = np.asarray(q3.base_rot).T @ (
                np.asarray(p_hand) - np.asarray(q3.base_pos))
        payload = build_payload(sc.payload_size, sc.payload_mass, points)
        sys2 = CoupledSystem(agents=sys.agents, payload=payload,
                             env_contacts=sys.env_contacts, grasps=sys.grasps)
        Q = np.asarray(coupling_matrix(sys2, q))
        # one shared rigid twist: every subsystem base rides it, joints frozen
        v, w = rng.normal(size=3), rng.normal(size=3)
        nu = []
        for model, qi in zip(sys2.subsystem_models(), q.qs):
            base = np.concatenate([v + np.cross(w, np.asarray(qi.base_pos)), w])
            nu.append(np.concatenate([base, np.zeros(model.n_joints)]))
        nu = np.concatenate(nu)
        out = Q @ nu
        assert np.abs(out[-6 * len(sys2.grasps):]).max() <= 1e-9


class TestCompositeMatrices:
    def test_dimensions_and_structure(self, desk):
        _, sys, q = desk
        M, g, B = composite_matrices(sys, q)
        n1 = sys.agents[0].n_joints
        n2 = sys.agents[1].n_joints
        n = n1 + n2 + 18
        assert M.shape == (n, n)
        assert g.shape == (n,)
        assert B.shape == (n, n1 + n2)
        # payload rows of the selector are zero: no actuation
        np.testing.assert_array_equal(B[-6:], 0.0)
        assert np.abs(M - M.T).max() <= 1e-9
        assert np.linalg.eigvalsh(M).min() > 0

    def test_offdiagonal_blocks_zero(self, desk):
        _, sys, q = desk
        M, _, _ = composite_matrices(sys, q)
        d1 = 6 + sys.agents[0].n_joints
        np.testing.assert_array_equal(M[:d1, d1:], 0.0)


class TestNullspaceProjector:
    def test_empty_constraints(self):
        M = np.diag([2.0, 3.0, 4.0])
        np.testing.assert_array_equal(
            nullspace_projector(M, np.zeros((0, 3))), np.eye(3))

    def test_idempotent_and_annihilates(self, desk, rng):
        _, sys, q0 = desk
        for _ in range(3):
            q = perturbed(sys, q0, rng)
            M, _, _ = composite_matrices(sys, q)
            Q = np.asarray(coupling_matrix(sys, q))
            N = nullspace_projector(M, Q)
            assert np.abs(N @ N - N).max() <= 1e-8
            assert np.abs(N @ Q.T).max() <= 1e-8

    def test_duplicate_contact_raises(self, desk):
        _, sys, q = desk
        dup = CoupledSystem(agents=sys.agents, payload=sys.payload,
                            env_contacts=sys.env_contacts
                            + (sys.env_contacts[0],),
                            grasps=sys.grasps)
        M, _, _ = composite_matrices(dup, q)
        Q = np.asarray(coupling_matrix(dup, q))
        with pytest.raises(SingularConstraintError):
            nullspace_projector(M, Q, labels=dup.wrench_labels)


class TestContactWrenches:
    def test_single_standing_body_balance(self):
        sys, q = standing_human_system()
        tau = static_torques(sys, q)
        f = contact_wrenches(sys, q, None, tau)
        total = sys.agents[0].total_mass() * GRAVITY
        assert f[2] + f[8] == pytest.approx(total, rel=1e-9)

    def test_vertical_force_balance(self, desk, rng):
        sc, sys, q0 = desk
        total = (sys.agents[0].total_mass() + sys.agents[1].total_mass()
                 + sc.payload_mass) * GRAVITY
        for _ in range(5):
            q = perturbed(sys, q0, rng)
            tau = static_torques(sys, q)
            f = contact_wrenches(sys, q, None, tau)
            fz = sum(f[6 * k + 2] for k in range(len(sys.env_contacts)))
            assert fz == pytest.approx(total, rel=1e-6)

    def test_payload_free_body(self, desk, rng):
        _, sys, q0 = desk
        q = perturbed(sys, q0, rng)
        tau = static_torques(sys, q)
        f = contact_wrenches(sys, q, None, tau)
        Q = np.asarray(coupling_matrix(sys, q))
        g = np.asarray(composite_gravity(sys, q))
        resid = Q.T @ f - g
        weight = sys.payload.total_mass() * GRAVITY
        # payload block: grasp wrenches balance payload gravity exactly
        assert np.abs(resid[-6:]).max() <= 1e-6 * weight


class TestCenterOfPressure:
    def test_centered_load(self):
        w = Wrench(np.array([0.0, 0, 100.0]), np.zeros(3))
        np.testing.assert_array_equal(center_of_pressure(w), [0.0, 0.0])

    def test_formula(self):
        w = Wrench(np.array([0.0, 0, 100.0]), np.array([0.0, -5.0, 0.0]))
        cop = center_of_pressure(w)
        assert cop[0] == pytest.approx(0.05)
        assert cop[1] == pytest.approx(0.0)

    def test_frame_shift_moves_cop(self, rng):
        f = np.array([3.0, -2.0, 200.0])
        tau = np.array([0.4, -0.3, 0.05])
        w = Wrench(f, tau)
        d = 0.04
        shifted = Wrench(f, tau + np.cross(np.array([-d, 0.0, 0.0]), f))
        cop0 = center_of_pressure(w)
        cop1 = center_of_pressure(shifted)
        assert cop1[0] == pytest.approx(cop0[0] - d, abs=1e-12)
        assert cop1[1] == pytest.approx(cop0[1], abs=1e-12)

    def test_unloaded_foot_raises(self):
        with pytest.raises(UnloadedFootError):
            center_of_pressure(Wrench(np.array([0.0, 0, 0.5]), np.zeros(3)))

    def test_desk_cops_inside_feet(self, desk):
        sc, sys, q = desk
        tau = static_torques(sys, q)
        f = contact_wrenches(sys, q, None, tau)
        cops = foot_cops(sys, q, None, f)
        assert len(cops) == 4
        for label, cop in cops.items():
            assert np.abs(cop).max() < 0.4


class TestEvaluateStatics:
    def test_matches_projector_reference(self, desk, rng):
        _, sys, q0 = desk
        # small joint jitter only: after larger moves the minimum-norm
        # split can pull on a foot, which evaluate_statics refuses
        for q in [q0] + [perturbed(sys, q0, rng, joint_scale=0.02,
                                   base_scale=0.0) for _ in range(4)]:
            res = evaluate_statics(sys, q)
            tau_ref, f_ref = projector_statics(sys, q)
            assert_rel_close(res.tau, tau_ref, 1e-10)
            assert_rel_close(res.wrenches, f_ref, 1e-10)
            fscale = max(np.abs(res.wrenches).max(), 1.0)
            assert res.projected_residual <= 1e-8 * fscale
            assert res.equilibrium_residual <= 1e-8 * fscale
            cops = foot_cops(sys, q, None, res.wrenches)
            assert res.cops.keys() == cops.keys()
            for label, cop in cops.items():
                np.testing.assert_array_equal(res.cops[label], cop)

    def test_duplicate_contact_raises(self, desk):
        _, sys, q = desk
        dup = CoupledSystem(agents=sys.agents, payload=sys.payload,
                            env_contacts=sys.env_contacts
                            + (sys.env_contacts[0],),
                            grasps=sys.grasps)
        with pytest.raises(SingularConstraintError):
            evaluate_statics(dup, q)

    def test_unheld_payload_raises(self, desk):
        # without grasps nothing holds the payload: the saddle matrix is
        # singular, which is a refusal, not a bare LinAlgError
        _, sys, q = desk
        loose = CoupledSystem(agents=sys.agents, payload=sys.payload,
                              env_contacts=sys.env_contacts, grasps=())
        with pytest.raises(SingularConstraintError, match="no contact"):
            evaluate_statics(loose, q)

    def test_unloaded_foot_raises(self):
        # a near-weightless body loads each sole far below the 1 N floor
        sys, q = standing_human_system()
        human = sys.agents[0]
        params = {l.name: LinkHardware(1e-4, l.hardware.length_multiplier)
                  for l in human.links}
        with pytest.raises(UnloadedFootError):
            evaluate_statics(sys, q, params)


class TestScaling:
    def test_uniform_density_scales_statics(self, rng):
        # single agent, no payload: scaling every density by k scales both
        # torques and wrenches by k and leaves the coupling rows unchanged
        sys, q0 = standing_human_system()
        q = perturbed(sys, q0, rng, joint_scale=0.2)
        k = 3.7
        human = sys.agents[0]
        params = {l.name: LinkHardware(k * l.hardware.density,
                                       l.hardware.length_multiplier)
                  for l in human.links}
        scaled_sys = CoupledSystem(
            agents=(type(human)(name=human.name,
                                links=tuple(
                                    type(l)(l.name, l.shape, params[l.name],
                                            l.parent, l.joint)
                                    for l in human.links),
                                frames=human.frames, groups=human.groups,
                                bounds=human.bounds),),
            env_contacts=sys.env_contacts)
        tau = static_torques(sys, q)
        tau_k = static_torques(scaled_sys, q)
        np.testing.assert_allclose(tau_k, k * tau, rtol=1e-9, atol=1e-10)
        f = contact_wrenches(sys, q, None, tau)
        f_k = contact_wrenches(scaled_sys, q, None, tau_k)
        np.testing.assert_allclose(f_k, k * f, rtol=1e-9, atol=1e-10)
        Q1 = np.asarray(coupling_matrix(sys, q))
        Q2 = np.asarray(coupling_matrix(scaled_sys, q))
        np.testing.assert_array_equal(Q1, Q2)

    def test_density_only_params_keep_coupling_rows(self, desk):
        sc, sys, q = desk
        robot = sys.agents[1]
        params = {}
        for g in robot.groups:
            for name in g.links:
                link = robot.links[robot.link_index(name)]
                params[name] = LinkHardware(
                    min(link.hardware.density * 1.5, 7999.0),
                    link.hardware.length_multiplier)
        Q1 = np.asarray(coupling_matrix(sys, q))
        Q2 = np.asarray(coupling_matrix(sys, q, params))
        np.testing.assert_array_equal(Q1, Q2)
