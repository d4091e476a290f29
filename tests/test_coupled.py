import re

import numpy as np
import pytest

from ergolift import fad
from ergolift.coupled import (MIN_NORMAL, RANK_TOL, CoupledConfiguration,
                              CoupledSystem, GraspPair,
                              SingularConstraintError,
                              UnloadedFootError, _constraint_qr,
                              composite_gravity, contact_rotations,
                              contact_wrenches, cop_smooth, coupled_trees,
                              coupling_matrix, evaluate_statics,
                              static_torques, statics_minnorm)
from ergolift.multibody import (Configuration, FrameDef, Joint, Link, Model,
                                frame_jacobian, group_params, mass_matrix)
from ergolift.scenario import (PAYLOAD_SIZE, build_system, make_scenario,
                               rpy_from_matrix, warm_start_configuration)
from ergolift.shapes import Box, LinkHardware, Sphere
from ergolift.spatial import GRAVITY
from ergolift.templates import build_payload, default_human


# The projector route, kept as the reference the saddle statics are held
# against: the block-diagonal mass matrix M, the mass-weighted null-space
# projector N = 1 - Q^T (Q M^-1 Q^T)^-1 Q M^-1, the minimum-norm torques
# pinv(N B) N g and the M-weighted wrenches.  Its answer does not depend
# on M whenever the contact set has full row rank.


def selector(sys):
    """The 0/1 actuation matrix B ``(n_vel, n_act)``: a one in each
    column at that joint's row of ``sys.actuated``."""
    act = sys.actuated
    B = np.zeros((int(sys.velocity_layout[1][-1]), act.size))
    B[act, np.arange(act.size)] = 1.0
    return B


def composite_matrices(sys, q, params=None):
    """Block-diagonal mass matrix, stacked gravity and selector matrix."""
    trees = coupled_trees(sys, q, params)
    _, offsets = sys.velocity_layout
    M = np.zeros((int(offsets[-1]),) * 2)
    for i, t in enumerate(trees):
        sl = slice(int(offsets[i]), int(offsets[i + 1]))
        M[sl, sl] = mass_matrix(t)
    g = np.asarray(composite_gravity(sys, trees))
    return M, g, selector(sys)


def nullspace_projector(M, Q, labels):
    """Projector 1 - Q^T (Q M^-1 Q^T)^-1 Q M^-1 onto admissible dynamics."""
    n = M.shape[0]
    if Q.shape[0] == 0:
        return np.eye(n)
    _constraint_qr(Q, labels)
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
    Q = np.asarray(coupling_matrix(sys, coupled_trees(sys, q, params)))
    N = nullspace_projector(M, Q, labels=sys.wrench_labels)
    tau = pinv_truncated(N @ B) @ (N @ g)
    rhs = Q @ np.linalg.solve(M, g - B @ tau)
    f = np.linalg.solve(Q @ np.linalg.solve(M, Q.T), rhs)
    return tau, f


# The center of pressure foot by foot, kept as the reference the stacked
# cop_smooth of evaluate_statics is held against: each environment
# contact's mixed wrench turned into its sole's axes, then
# [-tau_y / f_z, tau_x / f_z].


def sole_wrenches(sys, q, f):
    """Force and torque of each environment contact in its sole's axes."""
    trees = coupled_trees(sys, q)
    out = []
    for k, (agent, frame) in enumerate(sys.env_contacts):
        [R] = trees[agent].frame_rotations((frame,))
        out.append((R.T @ f[6 * k: 6 * k + 3], R.T @ f[6 * k + 3: 6 * k + 6]))
    return out


def reference_cop(force, torque):
    """CoP of a wrench given in the sole frame."""
    return np.array([-torque[1] / force[2], torque[0] / force[2]])


# The tangent rule through a Dual coupling matrix, kept as the reference
# the contraction tangents of statics_minnorm are held against: Q is
# assembled from Dual frame Jacobians and the saddle system is
# differentiated with its whole tangent, dQ^T f and dQ lam.


def dual_coupling_matrix(sys, trees):
    """Q with the tangents of the Dual trees' frame Jacobians."""
    dims, offsets = sys.velocity_layout
    parts = []
    for s, frames in enumerate(sys.coupling_frames):
        if not frames:
            continue
        J = frame_jacobian(trees[s], tuple(f for f, _, _ in frames))
        cols = slice(int(offsets[s]), int(offsets[s]) + dims[s])
        parts.extend(((slice(6 * row, 6 * row + 6), cols),
                      J[k] if sign > 0 else -J[k])
                     for k, (_, row, sign) in enumerate(frames))
    n_rows = 6 * (len(sys.env_contacts) + len(sys.grasps))
    return fad.assemble((n_rows, int(offsets[-1])), parts)


def dual_coupling_statics(sys, q, params):
    """Torques and wrenches of one posture, tangents through the Dual Q.

    The full saddle system is built and solved here, from ``Q``, ``g``
    and the 0/1 ``B``, so it stays independent of the reduced kernel of
    ``statics_minnorm``.
    """
    trees = coupled_trees(sys, q, params)
    Q = dual_coupling_matrix(sys, trees)
    g = composite_gravity(sys, trees)
    B = selector(sys)
    n_c, n_vel = Q.shape
    A = np.zeros((n_vel + n_c, n_vel + n_c))
    A[:n_vel, :n_vel] = B @ B.T
    A[:n_vel, n_vel:] = Q.val.T
    A[n_vel:, :n_vel] = Q.val
    sol = np.linalg.solve(A, np.concatenate([g.val, np.zeros(n_c)]))
    lam, f = sol[:n_vel], sol[n_vel:]
    rhs_dot = np.zeros((g.ndir, A.shape[0]))
    rhs_dot[:, :n_vel] = g.dot - np.einsum("dij,i->dj", Q.dot, f)
    rhs_dot[:, n_vel:] = -(Q.dot @ lam)
    sol_dot = np.linalg.solve(A, rhs_dot.T).T
    return (B.T @ fad.Dual(lam, sol_dot[:, :n_vel]),
            fad.Dual(f, sol_dot[:, n_vel:]))


def seeded_statics(sys, qs, rng):
    """Free robot hardware, a stack of the postures qs and its rows.

    Every posture entry and every hardware value carries a tangent
    direction; the stack's direction j of row k is row k's direction j,
    and the hardware directions come last, as in the NLP's seeding.
    """
    robot = sys.parametrized_model
    names = [g.name for g in robot.groups]
    G = len(names)
    X = np.stack([np.concatenate([
        np.concatenate([qi.base_pos, rpy_from_matrix(qi.base_rot), qi.s])
        for qi in q.qs]) for q in qs])
    H, hd = X.shape
    seeds = np.zeros((hd + 2 * G, H, hd))
    seeds[np.arange(hd), :, np.arange(hd)] = 1.0
    hw_seeds = np.zeros((hd + 2 * G, 2 * G))
    hw_seeds[hd + np.arange(2 * G), np.arange(2 * G)] = 1.0
    hw = fad.Dual(np.concatenate([rng.uniform(0.8, 1.3, G),
                                  rng.uniform(1500.0, 3000.0, G)]), hw_seeds)
    params = group_params(robot, {name: (hw[G + i], hw[i])
                                  for i, name in enumerate(names)})
    ends = np.cumsum([6 + m.n_joints for m in sys.subsystem_models()])

    def config(x):
        return CoupledConfiguration(tuple(
            Configuration(x[..., start:start + 3],
                          fad.rpy_matrix(x[..., start + 3], x[..., start + 4],
                                         x[..., start + 5]),
                          x[..., start + 6:end])
            for start, end in zip(np.concatenate([[0], ends[:-1]]), ends)))

    return params, config(fad.Dual(X, seeds)), [
        config(fad.Dual(X[k], seeds[:, k])) for k in range(H)]


def assert_rel_close(actual, reference, rel):
    scale = max(float(np.abs(reference).max()), 1.0)
    assert float(np.abs(actual - reference).max()) <= rel * scale


def pendulum_system(axis=(0, -1, 0)):
    """Anchored base plus one revolute arm carrying 1 kg at 1 m."""
    links = (
        Link("ground", Box(0.2, 0.2, 0.05), LinkHardware(2000.0)),
        Link("arm", Sphere(1.0), LinkHardware(3.0 / (4.0 * np.pi)), parent=0,
             joint=Joint(axis=np.array(axis, float), offset=np.zeros(3),
                         rpy=np.array([0.0, np.pi / 2, 0]),
                         limits=(-3.0, 3.0))),
    )
    frames = (FrameDef("anchor", 0, np.zeros(3), np.zeros(3)),)
    model = Model(name="pendulum", links=links, frames=frames).validate()
    sys = CoupledSystem(agents=(model,), env_contacts=((0, "anchor"),))
    q = CoupledConfiguration((Configuration.neutral(model),))
    return sys, q


def standing_human_system():
    human = default_human()
    sys = CoupledSystem(agents=(human,),
                        env_contacts=((0, "sole_left"), (0, "sole_right")))
    q0 = Configuration(np.array([0.0, 0.0, 0.83]), np.eye(3),
                       np.zeros(human.n_joints))
    return sys, CoupledConfiguration((q0,))


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
                 joint=Joint(axis=np.array([0.0, -1, 0]), offset=np.zeros(3),
                             rpy=np.array([0.0, np.pi / 2, 0]),
                             limits=(-3.0, 3.0))),
        )
        frames = (FrameDef("anchor", 0, np.zeros(3), np.zeros(3)),)
        model = Model(name="air", links=links, frames=frames)
        sys = CoupledSystem(agents=(model,), env_contacts=((0, "anchor"),))
        q = CoupledConfiguration((Configuration.neutral(model),))
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
            assert_rel_close(contact_wrenches(sys, q, tau), f_ref, 1e-10)

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
        labels = [f"{m.name}:{j}" for m in sys.agents for j in m.joint_names]
        for i, lab in enumerate(labels):
            if lab.endswith("_left"):
                j = labels.index(lab[:-5] + "_right")
                pair = lab.split(":")[1][:-5]
                flipped = ("upper_arm" in pair or "hip_b" in pair
                           or "upper_leg" in pair or "foot" in pair
                           or "wrist_b" in pair or "hand" in pair)
                sign = -1.0 if flipped else 1.0
                assert tau[i] == pytest.approx(sign * tau[j], abs=1e-6), lab

    def test_projected_equilibrium_on_random_configs(self, desk, rng):
        _, sys, q0 = desk
        for _ in range(10):
            q = perturbed(sys, q0, rng)
            tau = static_torques(sys, q)
            f = contact_wrenches(sys, q, tau)
            M, g, B = composite_matrices(sys, q)
            Q = np.asarray(coupling_matrix(sys, coupled_trees(sys, q)))
            N = nullspace_projector(M, Q, sys.wrench_labels)
            assert np.abs(N @ (g - B @ tau)).max() <= 1e-6
            assert np.abs(B @ tau + Q.T @ f - g).max() <= 1e-6


class TestTangentRule:
    def test_contractions_match_dual_coupling_matrix(self, desk, rng):
        _, sys, q0 = desk
        params, stack, singles = seeded_statics(
            sys, [q0, perturbed(sys, q0, rng)], rng)
        tau_s, f_s = statics_minnorm(sys, stack, params)
        for k, q in enumerate(singles):
            tau_ref, f_ref = dual_coupling_statics(sys, q, params)
            tau, f = statics_minnorm(sys, q, params)
            for got, ref in ((tau, tau_ref), (f, f_ref),
                             (tau_s[k], tau_ref), (f_s[k], f_ref)):
                assert_rel_close(got.val, ref.val, 1e-12)
                assert_rel_close(got.dot, ref.dot, 1e-12)


class TestSystemValidation:
    """Every contact and grasp names one of the agents."""

    @pytest.mark.parametrize("agent", [-1, 2])
    def test_env_contact_of_missing_agent_raises(self, desk, agent):
        # agent -1 would weld the payload's grasp frame to the world
        _, sys, _ = desk
        with pytest.raises(ValueError, match="missing agent"):
            CoupledSystem(agents=sys.agents, payload=sys.payload,
                          env_contacts=((agent, "g_human_l"),),
                          grasps=sys.grasps)

    @pytest.mark.parametrize("agent", [-1, 2])
    def test_grasp_of_missing_agent_raises(self, desk, agent):
        _, sys, _ = desk
        g = sys.grasps[0]
        with pytest.raises(ValueError, match="missing agent"):
            CoupledSystem(agents=sys.agents, payload=sys.payload,
                          env_contacts=sys.env_contacts,
                          grasps=(GraspPair(agent, g.agent_frame,
                                            g.payload_frame),))


class TestCouplingMatrix:
    def test_no_grasp_block_structure(self):
        sys, q = standing_human_system()
        Q = np.asarray(coupling_matrix(sys, coupled_trees(sys, q)))
        assert Q.shape == (12, 6 + sys.agents[0].n_joints)
        assert np.abs(Q).max() > 0

    def test_row_count_bookkeeping(self, desk):
        _, sys, q = desk
        Q = np.asarray(coupling_matrix(sys, coupled_trees(sys, q)))
        n_rows = 6 * (len(sys.env_contacts) + len(sys.grasps))
        dims, offsets = sys.velocity_layout
        assert Q.shape == (n_rows, int(offsets[-1]))

    def test_shared_tables_are_read_only(self, desk):
        # every call reads the cached tables, so an in-place edit raises
        _, sys, _ = desk
        dims, offsets = sys.velocity_layout
        assert isinstance(dims, tuple)
        arrays = [offsets, sys.actuated, sys.unactuated, *sys.frame_slots]
        for _, _, rows, signs in sys.coupling_blocks:
            arrays += [rows, signs]
        for a in arrays:
            with pytest.raises(ValueError):
                a[...] = 0

    def test_actuation_tables_partition_the_rows(self, desk):
        # the statics kernel eliminates the actuated rows and keeps the
        # unactuated ones, the 6 floating-base rows of each subsystem
        _, sys, _ = desk
        _, offsets = sys.velocity_layout
        np.testing.assert_array_equal(
            np.sort(np.concatenate([sys.actuated, sys.unactuated])),
            np.arange(offsets[-1]))
        np.testing.assert_array_equal(
            sys.unactuated, (offsets[:-1, None] + np.arange(6)).ravel())

    def test_dual_trees_raise(self, desk, rng):
        _, sys, q0 = desk
        params, _, (q,) = seeded_statics(sys, [q0], rng)
        with pytest.raises(TypeError):
            coupling_matrix(sys, coupled_trees(sys, q, params))

    def test_payload_columns_zero_without_grasps(self, desk):
        sc, sys, q = desk
        no_grasp = CoupledSystem(agents=sys.agents, payload=sys.payload,
                                 env_contacts=sys.env_contacts, grasps=())
        Q = np.asarray(coupling_matrix(no_grasp, coupled_trees(no_grasp, q)))
        np.testing.assert_array_equal(Q[:, -6:], 0.0)

    def test_grasp_rows_annihilate_common_rigid_twist(self, desk, rng):
        sc, sys, q = desk
        # rebuild the payload so its grasp frames coincide with the hands
        trees = coupled_trees(sys, q)
        q3 = q.qs[2]
        points = {}
        for g in sys.grasps:
            [p_hand] = trees[g.agent].frame_points((g.agent_frame,))
            points[g.payload_frame] = np.asarray(q3.base_rot).T @ (
                p_hand - np.asarray(q3.base_pos))
        payload = build_payload(PAYLOAD_SIZE, sc.payload_mass, points)
        sys2 = CoupledSystem(agents=sys.agents, payload=payload,
                             env_contacts=sys.env_contacts, grasps=sys.grasps)
        Q = np.asarray(coupling_matrix(sys2, coupled_trees(sys2, q)))
        # one shared rigid twist: every subsystem base rides it, joints frozen
        v, w = rng.normal(size=3), rng.normal(size=3)
        nu = []
        for model, qi in zip(sys2.subsystem_models(), q.qs):
            base = np.concatenate(
                [v + np.cross(w, np.asarray(qi.base_pos)), w])
            nu.append(np.concatenate([base, np.zeros(model.n_joints)]))
        nu = np.concatenate(nu)
        out = Q @ nu
        assert np.abs(out[-6 * len(sys2.grasps):]).max() <= 1e-9


class TestContactRotations:
    def test_rows_follow_env_contacts(self, desk):
        # contacts interleaving the agents: each row is that contact's own
        # frame rotation bit for bit, plain and widened through dirs
        _, sys, q = desk
        env = ((1, "sole_right"), (0, "sole_left"), (1, "sole_left"),
               (0, "sole_right"))
        mixed = CoupledSystem(agents=sys.agents, payload=sys.payload,
                              env_contacts=env, grasps=sys.grasps)
        dims, offsets = mixed.velocity_layout
        dirs = (tuple(np.arange(o, o + d) for o, d in zip(offsets, dims)),
                int(offsets[-1]))
        seeded = []
        for qi in q.qs:
            x = fad.seed(np.concatenate([qi.base_pos,
                                         rpy_from_matrix(qi.base_rot), qi.s]))
            seeded.append(Configuration(x[:3], fad.rpy_matrix(*x[3:6]), x[6:]))
        for qs, d in ((q, None), (CoupledConfiguration(tuple(seeded)), dirs)):
            trees = coupled_trees(mixed, qs)
            R = contact_rotations(mixed, trees, d)
            assert R.shape == (len(env), 3, 3)
            assert not np.array_equal(fad.value(R[0]), fad.value(R[1]))
            for k, (agent, frame) in enumerate(env):
                own = trees[agent].frame_rotations((frame,))[0]
                np.testing.assert_array_equal(fad.value(R[k]),
                                              fad.value(own))
                if d is not None:
                    own = fad.widen(own, d[0][agent], d[1])
                    np.testing.assert_array_equal(R[k].dot, own.dot)


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
            nullspace_projector(M, np.zeros((0, 3)), ()), np.eye(3))

    def test_idempotent_and_annihilates(self, desk, rng):
        _, sys, q0 = desk
        for _ in range(3):
            q = perturbed(sys, q0, rng)
            M, _, _ = composite_matrices(sys, q)
            Q = np.asarray(coupling_matrix(sys, coupled_trees(sys, q)))
            N = nullspace_projector(M, Q, sys.wrench_labels)
            assert np.abs(N @ N - N).max() <= 1e-8
            assert np.abs(N @ Q.T).max() <= 1e-8

    def test_duplicate_contact_raises(self, desk):
        _, sys, q = desk
        dup = CoupledSystem(agents=sys.agents, payload=sys.payload,
                            env_contacts=sys.env_contacts
                            + (sys.env_contacts[0],),
                            grasps=sys.grasps)
        M, _, _ = composite_matrices(dup, q)
        Q = np.asarray(coupling_matrix(dup, coupled_trees(dup, q)))
        with pytest.raises(SingularConstraintError):
            nullspace_projector(M, Q, labels=dup.wrench_labels)


@pytest.fixture(scope="module")
def jittered(desk):
    """50 seeded postures and hardware as the statics benchmark draws
    them: a warm start at one of the paper's heights, joints jittered by
    0.05 rad, and robot hardware inside its bounds."""
    sc, sys, _ = desk
    bases = [warm_start_configuration(sc, sys, h)
             for h in (0.8, 1.0, 1.2, 1.5)]
    robot = sys.parametrized_model
    (lm_lo, lm_hi), (rho_lo, rho_hi) = (robot.bounds.length_multiplier,
                                        robot.bounds.density)
    rng = np.random.default_rng(29)
    out = []
    for _ in range(50):
        qs = []
        for model, qi in zip(sys.subsystem_models(),
                             bases[rng.integers(len(bases))].qs):
            if model.n_joints:
                lo, hi = model.joint_limits()
                qi = Configuration(qi.base_pos, qi.base_rot, np.clip(
                    qi.s + rng.normal(size=model.n_joints) * 0.05,
                    lo + 1e-3, hi - 1e-3))
            qs.append(qi)
        out.append((CoupledConfiguration(tuple(qs)), group_params(robot, {
            g.name: (rng.uniform(rho_lo, rho_hi), rng.uniform(lm_lo, lm_hi))
            for g in robot.groups})))
    return out


def recording_svd(monkeypatch):
    """Record the shape of every ``np.linalg.svd`` operand; returns the
    list of shapes."""
    shapes = []
    original = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes


class TestConstraintFactors:
    """``Q^T = Q1 R`` gives the rank check and the projector that the
    SVD of ``Q`` gave; a bound on the condition number of ``R`` certifies
    full rank, the SVD of ``R`` runs only where the bound cannot decide,
    and the SVD of ``Q`` only to name a refusal."""

    def test_certificate_agrees_with_svd_criterion(self, monkeypatch):
        # 12 x 20 matrices whose smallest singular value sits at ratio *
        # RANK_TOL of the largest, at least 10% off the threshold (a
        # margin fixed before the first run), under three spectra; the
        # verdict must be the SVD criterion's, and the SVDs run only
        # where the certificate cannot decide
        rng = np.random.default_rng(30)
        cases = []
        for ratio in (0.1, 0.5, 0.9, 1.1, 2.0, 10.0, 1e3):
            low = ratio * RANK_TOL
            for sv in (np.geomspace(1.0, low, 12),
                       np.r_[np.ones(11), low],
                       np.r_[np.ones(6), np.full(6, low)]):
                U = np.linalg.qr(rng.normal(size=(12, 12)))[0]
                V = np.linalg.qr(rng.normal(size=(20, 12)))[0]
                Q = (U * sv) @ V.T
                svq = np.linalg.svd(Q, compute_uv=False)
                R = np.linalg.qr(Q.T)[1]
                bound = np.linalg.norm(R) * np.linalg.norm(np.linalg.inv(R))
                cases.append((Q, svq[-1] <= RANK_TOL * svq[0], bound))
        shapes = recording_svd(monkeypatch)
        fell_through = 0
        for Q, refused, bound in cases:
            shapes.clear()
            if refused:
                with pytest.raises(SingularConstraintError,
                                   match="rank-deficient"):
                    _constraint_qr(Q, ("a", "b"))
                assert shapes == [(12, 12), (12, 20)]
                continue
            _constraint_qr(Q, ("a", "b"))
            if bound < 1.0 / RANK_TOL:
                assert shapes == []
            else:
                # the bound cannot tell, the singular values pass it
                assert shapes == [(12, 12)]
                fell_through += 1
        assert sum(refused for _, refused, _ in cases) == 9
        assert fell_through >= 2

    def test_singular_values_and_projector_match_svd(self, desk, jittered):
        _, sys, _ = desk
        B = selector(sys)
        answered = 0
        for q, params in jittered:
            trees = coupled_trees(sys, q, params)
            Q = coupling_matrix(sys, trees)
            Q1, R = _constraint_qr(Q, sys.wrench_labels)
            sv = np.linalg.svd(Q, compute_uv=False)
            assert np.abs(np.linalg.svd(R, compute_uv=False) - sv).max() \
                <= 1e-13 * sv[0]
            try:
                res = evaluate_statics(sys, trees=trees)
            except UnloadedFootError:
                continue
            r = np.asarray(composite_gravity(sys, trees)) - B @ res.tau
            Vt = np.linalg.svd(Q, full_matrices=False)[2]
            ref = float(np.abs(r - Vt.T @ (Vt @ r)).max())
            assert abs(res.projected_residual - ref) \
                <= 1e-12 * np.abs(r).max()
            answered += 1
        assert answered >= 40

    @pytest.mark.parametrize("ratio, refused", [(0.5, True), (2.0, False)])
    def test_rank_threshold(self, ratio, refused):
        # singular values from 1 down to ratio * RANK_TOL, between random
        # orthonormal factors
        rng = np.random.default_rng(7)
        U = np.linalg.qr(rng.normal(size=(12, 12)))[0]
        V = np.linalg.qr(rng.normal(size=(20, 12)))[0]
        sv = np.geomspace(1.0, ratio * RANK_TOL, 12)
        Q = (U * sv) @ V.T
        if refused:
            with pytest.raises(SingularConstraintError,
                               match="rank-deficient"):
                _constraint_qr(Q, ("a", "b"))
        else:
            Q1, R = _constraint_qr(Q, ("a", "b"))
            np.testing.assert_allclose(Q1 @ R, Q.T, rtol=0, atol=1e-14)

    def test_more_rows_than_coordinates_refused(self):
        # two welded frames give a 1-dof pendulum 12 contact rows over 7
        # coordinates: the rows are dependent whatever their singular
        # values read
        sys, q = pendulum_system()
        two = CoupledSystem(agents=sys.agents,
                            env_contacts=((0, "anchor"), (0, "arm")))
        for statics in (lambda: evaluate_statics(two, q),
                        lambda: contact_wrenches(two, q, np.zeros(1))):
            with pytest.raises(SingularConstraintError, match=(
                    "rank-deficient contact constraints; dominant rows: "
                    "env:pendulum:anchor, env:pendulum:arm")):
                statics()

    def test_full_rank_call_runs_no_svd(self, desk, jittered, monkeypatch):
        _, sys, q = desk
        shapes = recording_svd(monkeypatch)
        evaluate_statics(sys, q)
        for qj, params in jittered:
            try:
                evaluate_statics(sys, qj, params)
            except UnloadedFootError:
                pass
        assert shapes == []
        # a refused call runs the SVD of R that decides and the SVD of Q
        # that names the rows
        n_c = 6 * (len(sys.env_contacts) + len(sys.grasps))
        dup = CoupledSystem(agents=sys.agents, payload=sys.payload,
                            env_contacts=sys.env_contacts
                            + (sys.env_contacts[0],), grasps=sys.grasps)
        shapes.clear()
        with pytest.raises(SingularConstraintError):
            evaluate_statics(dup, q)
        n_vel = int(sys.velocity_layout[1][-1])
        assert shapes == [(n_c + 6, n_c + 6), (n_c + 6, n_vel)]


class TestContactWrenches:
    def test_single_standing_body_balance(self):
        sys, q = standing_human_system()
        tau = static_torques(sys, q)
        f = contact_wrenches(sys, q, tau)
        total = sys.agents[0].total_mass() * GRAVITY
        assert f[2] + f[8] == pytest.approx(total, rel=1e-9)

    def test_vertical_force_balance(self, desk, rng):
        sc, sys, q0 = desk
        total = (sys.agents[0].total_mass() + sys.agents[1].total_mass()
                 + sc.payload_mass) * GRAVITY
        for _ in range(5):
            q = perturbed(sys, q0, rng)
            tau = static_torques(sys, q)
            f = contact_wrenches(sys, q, tau)
            fz = sum(f[6 * k + 2] for k in range(len(sys.env_contacts)))
            assert fz == pytest.approx(total, rel=1e-6)

    def test_payload_free_body(self, desk, rng):
        _, sys, q0 = desk
        q = perturbed(sys, q0, rng)
        tau = static_torques(sys, q)
        f = contact_wrenches(sys, q, tau)
        trees = coupled_trees(sys, q)
        Q = np.asarray(coupling_matrix(sys, trees))
        g = np.asarray(composite_gravity(sys, trees))
        resid = Q.T @ f - g
        weight = sys.payload.total_mass() * GRAVITY
        # payload block: grasp wrenches balance payload gravity exactly
        assert np.abs(resid[-6:]).max() <= 1e-6 * weight


class TestCenterOfPressure:
    def test_centered_load(self):
        w = np.array([0.0, 0, 100.0, 0, 0, 0])
        np.testing.assert_array_equal(cop_smooth(w, np.eye(3)), [0.0, 0.0])

    def test_formula(self):
        w = np.array([0.0, 0, 100.0, 0.0, -5.0, 0.0])
        cop = cop_smooth(w, np.eye(3))
        assert cop[0] == pytest.approx(0.05)
        assert cop[1] == pytest.approx(0.0)

    def test_frame_shift_moves_cop(self):
        f = np.array([3.0, -2.0, 200.0])
        tau = np.array([0.4, -0.3, 0.05])
        d = 0.04
        shifted = tau + np.cross(np.array([-d, 0.0, 0.0]), f)
        cop0 = cop_smooth(np.concatenate([f, tau]), np.eye(3))
        cop1 = cop_smooth(np.concatenate([f, shifted]), np.eye(3))
        assert cop1[0] == pytest.approx(cop0[0] - d, abs=1e-12)
        assert cop1[1] == pytest.approx(cop0[1], abs=1e-12)

    def test_unloaded_foot_floored(self):
        # below MIN_NORMAL the normal force is floored; evaluate_statics
        # refuses such a foot instead (TestEvaluateStatics)
        w = np.array([0.0, 0, 0.5, 0.2, -0.1, 0.0])
        np.testing.assert_array_equal(cop_smooth(w, np.eye(3)),
                                      [0.1 / MIN_NORMAL, 0.2 / MIN_NORMAL])

    def test_desk_cops_inside_feet(self, desk):
        sc, sys, q = desk
        cops = evaluate_statics(sys, q).cops
        assert list(cops) == list(sys.wrench_labels[:4])
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
            soles = sole_wrenches(sys, q, res.wrenches)
            assert list(res.cops) == list(sys.wrench_labels[:len(soles)])
            for cop, (force, torque) in zip(res.cops.values(), soles):
                np.testing.assert_allclose(cop, reference_cop(force, torque),
                                           rtol=1e-12, atol=1e-15)

    def test_shares_the_saddle_of_statics_minnorm(self, desk, rng):
        # both routes read one saddle solve: plain statics_minnorm gives
        # the same torques and wrenches bit for bit, with and without
        # robot hardware
        _, sys, q0 = desk
        robot = sys.parametrized_model
        for k in range(5):
            q = q0 if k == 0 else perturbed(sys, q0, rng, joint_scale=0.02,
                                            base_scale=0.0)
            params = None if k < 2 else group_params(robot, {
                g.name: (rng.uniform(1500.0, 3000.0), rng.uniform(0.8, 1.3))
                for g in robot.groups})
            res = evaluate_statics(sys, q, params)
            tau, f = statics_minnorm(sys, q, params)
            np.testing.assert_array_equal(res.tau, tau)
            np.testing.assert_array_equal(res.wrenches, f)

    def test_refusal_names_the_unloaded_foot(self, desk, rng):
        # after larger moves the minimum-norm split pulls on some foot;
        # the refusal names the first foot, in env_contacts order, whose
        # reference sole normal force is below MIN_NORMAL, and that force
        _, sys, q0 = desk
        refused = 0
        for _ in range(8):
            q = perturbed(sys, q0, rng)
            _, f_ref = projector_statics(sys, q)
            fz = [force[2] for force, _ in sole_wrenches(sys, q, f_ref)]
            unloaded = [k for k, v in enumerate(fz) if v < MIN_NORMAL]
            if not unloaded:
                evaluate_statics(sys, q)
                continue
            k = unloaded[0]
            with pytest.raises(UnloadedFootError) as refusal:
                evaluate_statics(sys, q)
            m = re.fullmatch(re.escape(sys.wrench_labels[k])
                             + rf": sole normal force (\S+) N below "
                             rf"{MIN_NORMAL} N", str(refusal.value))
            assert m, str(refusal.value)
            assert float(m[1]) == pytest.approx(fz[k], abs=1e-3)
            refused += 1
        assert refused >= 2

    def test_duplicate_contact_raises(self, desk):
        _, sys, q = desk
        dup = CoupledSystem(agents=sys.agents, payload=sys.payload,
                            env_contacts=sys.env_contacts
                            + (sys.env_contacts[0],),
                            grasps=sys.grasps)
        with pytest.raises(SingularConstraintError) as refusal:
            evaluate_statics(dup, q)
        # the dominant rows are the duplicated contact's, both copies
        # under its one label
        assert str(refusal.value) == ("rank-deficient contact constraints;"
                                      " dominant rows: "
                                      + sys.wrench_labels[0])

    def test_unheld_payload_raises(self, desk):
        # without grasps nothing holds the payload: the saddle matrix is
        # singular, which is a refusal, not a bare LinAlgError
        _, sys, q = desk
        loose = CoupledSystem(agents=sys.agents, payload=sys.payload,
                              env_contacts=sys.env_contacts, grasps=())
        with pytest.raises(SingularConstraintError, match="no contact"):
            evaluate_statics(loose, q)

    def test_unloaded_foot_raises(self):
        # a near-weightless body loads each sole far below the 1 N floor;
        # its density is below the bounds, which apply_hardware refuses,
        # so the model is built with it
        sys, q = standing_human_system()
        human = sys.agents[0]
        params = {l.name: LinkHardware(1e-4, l.hardware.length_multiplier)
                  for l in human.links}
        with pytest.raises(ValueError, match="outside bounds"):
            evaluate_statics(sys, q, params)
        light = Model(name=human.name, frames=human.frames,
                      links=tuple(Link(l.name, l.shape, params[l.name],
                                       l.parent, l.joint)
                                  for l in human.links))
        with pytest.raises(UnloadedFootError):
            evaluate_statics(CoupledSystem(agents=(light,),
                                           env_contacts=sys.env_contacts), q)


class TestStaticsInputs:
    """The statics read trees or a configuration with its hardware; a
    call that gives both, or neither, is refused."""

    @staticmethod
    def hardware(sys):
        robot = sys.parametrized_model
        return group_params(robot, {g.name: (2000.0, 1.1)
                                    for g in robot.groups})

    @pytest.mark.parametrize("statics", [evaluate_statics, statics_minnorm])
    def test_refused_combinations(self, desk, statics):
        _, sys, q = desk
        params = self.hardware(sys)
        trees = coupled_trees(sys, q, params)
        for kwargs, message in (
                ({}, "need a configuration or trees"),
                ({"params": params}, "need a configuration or trees"),
                ({"q": q, "trees": trees}, "not both"),
                ({"params": params, "trees": trees}, "not both"),
                ({"q": q, "params": params, "trees": trees}, "not both")):
            with pytest.raises(ValueError, match=message):
                statics(sys, **kwargs)

    @pytest.mark.parametrize("statics", [evaluate_statics, statics_minnorm])
    @pytest.mark.parametrize("group, hardware", [
        ("upper_arm", lambda b: (2000.0, b.length_multiplier[1] + 0.3)),
        ("forearm", lambda b: (b.density[0] - 50.0, 1.0)),
        ("forearm", lambda b: (np.nan, 1.0))],
        ids=["multiplier_above", "density_below", "nan_density"])
    def test_refuses_hardware_outside_bounds(self, desk, statics, group,
                                             hardware):
        # the configuration route checks the robot's concrete hardware
        _, sys, q = desk
        robot = sys.parametrized_model
        params = group_params(robot, {group: hardware(robot.bounds)})
        with pytest.raises(ValueError, match=f"'{group}_left'"):
            statics(sys, q, params)

    @pytest.mark.parametrize("statics", [evaluate_statics, statics_minnorm])
    def test_trees_answer_as_their_configuration(self, desk, statics):
        _, sys, q = desk
        params = self.hardware(sys)
        by_q = statics(sys, q, params)
        by_trees = statics(sys, trees=coupled_trees(sys, q, params))
        if statics is evaluate_statics:
            by_q = (by_q.tau, by_q.wrenches)
            by_trees = (by_trees.tau, by_trees.wrenches)
        for a, b in zip(by_q, by_trees):
            np.testing.assert_array_equal(a, b)


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
        f = contact_wrenches(sys, q, tau)
        f_k = contact_wrenches(scaled_sys, q, tau_k)
        np.testing.assert_allclose(f_k, k * f, rtol=1e-9, atol=1e-10)
        Q1 = np.asarray(coupling_matrix(sys, coupled_trees(sys, q)))
        Q2 = np.asarray(coupling_matrix(scaled_sys,
                                        coupled_trees(scaled_sys, q)))
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
        Q1 = np.asarray(coupling_matrix(sys, coupled_trees(sys, q)))
        Q2 = np.asarray(coupling_matrix(sys, coupled_trees(sys, q, params)))
        np.testing.assert_array_equal(Q1, Q2)
