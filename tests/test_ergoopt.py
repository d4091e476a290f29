import dataclasses

import numpy as np
import pytest

from ergolift import coupled, ergoopt, fad, multibody, shapes
from ergolift.coupled import SingularConstraintError, UnloadedFootError, \
    cop_smooth, coupled_trees, evaluate_statics, statics_minnorm
from ergolift.ergoopt import DegenerateModelError, assemble_nlp, solve, \
    task_com_height, warm_start_vector
from ergolift.multibody import FrameDef, Link, Model, kinematics
from ergolift.nlpsolver import SolverOptions, SolverReport, solve_nlp
from ergolift.shapes import Box, LinkHardware
from ergolift.scenario import PREFERRED_DENSITIES, TaskWeights, \
    build_system, make_scenario, warm_start_configuration


def per_height_derivatives(problem, y):
    """The per-height loop, kept as the reference of the one-pass NLP.

    Each height seeds its own active decisions and is evaluated on its
    own, its rows built frame by frame; returns the cost, gradient,
    constraints, constraint Jacobian and Gauss-Newton Hessian.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    sys = problem.system
    w = problem.scenario.weights
    rows = problem.n_cons // len(problem.heights)
    grad = np.zeros(n)
    cons = np.zeros(problem.n_cons)
    jac = np.zeros((problem.n_cons, n))
    gauss_newton = np.zeros((n, n))
    sl = problem.pi_slice()
    hd = problem.height_dim
    dirs = np.zeros((hd + problem.pi_dim, n))
    dirs[np.arange(hd, dirs.shape[0]), np.arange(sl.start, sl.stop)] = 1.0
    yd = fad.Dual(y, dirs)
    models = sys.subsystem_models(problem.hardware_params(yd))
    out = problem._shared_terms(yd, models)
    cost = float(fad.value(out))
    if isinstance(out, fad.Dual):
        grad[sl] += out.dot[hd:]
    payload = len(sys.agents)
    for k, h in enumerate(problem.heights):
        idx = problem.active_indices(k)
        dirs = np.zeros((idx.size, n))
        dirs[np.arange(idx.size), idx] = 1.0
        q = problem.configurations(fad.Dual(y, dirs), k)
        trees = [kinematics(m, qi) for m, qi in zip(models, q.qs)]
        tau, f = statics_minnorm(sys, trees=trees)
        t3 = 0.0
        block = 2.0 * w.torque * (tau.dot @ tau.dot.T)
        for c, (agent, frame) in enumerate(sys.env_contacts):
            R = trees[agent].frame_rotations((frame,))[0]
            cop = cop_smooth(f[6 * c: 6 * c + 6], R)
            t3 = t3 + fad.sumsq(cop)
            block += 2.0 * w.cop * (cop.dot @ cop.dot.T)
        ck = w.torque * fad.sumsq(tau) + w.cop * t3
        q3 = q.qs[payload]
        r = [q3.base_rot[0, 2], q3.base_rot[1, 2], q3.base_pos[2] - float(h)]
        for g in sys.grasps:
            d = (trees[g.agent].frame_points((g.agent_frame,))[0]
                 - trees[payload].frame_points((g.payload_frame,))[0])
            r.extend([d[0], d[1], d[2]])
        for a, frame in sys.env_contacts:
            r.append(trees[a].frame_points((frame,))[0, 2])
        for a, frame in sys.env_contacts:
            R = trees[a].frame_rotations((frame,))[0]
            r.extend([R[0, 2], R[1, 2]])
        rk = fad.stack(r)
        cost += float(ck.val)
        grad[idx] += ck.dot
        cons[k * rows:(k + 1) * rows] = rk.val
        jac[k * rows:(k + 1) * rows, idx] = rk.dot.T
        gauss_newton[np.ix_(idx, idx)] += block
    total = w.total()
    return cost / total, grad / total, cons, jac, gauss_newton / total


def full_width_derivatives(problem, y):
    """The derivative pass with every tree carrying all directions.

    Each subsystem is seeded with all ``height_dim + pi_dim`` directions
    of its height, the hardware Dual too, and nothing is widened; kept
    as the reference the per-subsystem seeding must match bit for bit.
    Returns the cost, gradient, constraints, constraint Jacobian and
    Gauss-Newton Hessian.
    """
    y = np.asarray(y, dtype=float)
    n, H, hd = y.size, len(problem.heights), problem.height_dim
    ndir = hd + problem.pi_dim
    rows = problem.n_cons // H
    w = problem.scenario.weights
    sl_pi = problem.pi_slice()
    dirs = np.zeros((ndir, n))
    dirs[np.arange(hd, ndir), np.arange(sl_pi.start, sl_pi.stop)] = 1.0
    yd = fad.Dual(y, dirs)
    models = problem.system.subsystem_models(problem.hardware_params(yd))
    out = problem._shared_terms(yd, models)
    cost = float(fad.value(out))
    grad = np.zeros(n)
    if isinstance(out, fad.Dual):
        grad[sl_pi] += out.dot[hd:]
    seeds = np.zeros((ndir, H, hd))
    seeds[np.arange(hd), :, np.arange(hd)] = 1.0
    q = problem._configurations(fad.Dual(problem.height_blocks(y), seeds))
    costs, cons, tau, cops = problem._pieces(q, models)
    t_dot = np.moveaxis(tau.dot, 0, -2)
    c_dot = np.moveaxis(cops.dot, 0, -3).reshape(H, ndir, -1)
    blocks = (2.0 * w.torque * (t_dot @ fad.mT(t_dot))
              + 2.0 * w.cop * (c_dot @ fad.mT(c_dot)))
    jac = np.zeros((problem.n_cons, n))
    gauss_newton = np.zeros((n, n))
    for k in range(H):
        idx = problem.active_indices(k)
        cost += float(costs.val[k])
        grad[idx] += costs.dot[:, k]
        jac[k * rows:(k + 1) * rows, idx] = cons.dot[:, k].T
        gauss_newton[np.ix_(idx, idx)] += blocks[k]
    total = w.total()
    return (cost / total, grad / total, cons.val.reshape(-1), jac,
            gauss_newton / total)


def assert_rel(actual, reference, rel):
    scale = float(np.abs(reference).max())
    assert float(np.abs(np.asarray(actual) - reference).max()) <= rel * scale


def leaves(x):
    """The arrays inside trees, configurations and containers of them."""
    if isinstance(x, (list, tuple)):
        for item in x:
            yield from leaves(item)
    elif isinstance(x, multibody.KinTree):
        yield from leaves([x.rot, x.pos, x.axis_w, x.pivot_w, x.lms])
    elif isinstance(x, multibody.Configuration):
        yield from leaves([x.base_pos, x.base_rot, x.s])
    elif isinstance(x, coupled.CoupledConfiguration):
        yield from leaves(x.qs)
    else:
        yield x


@pytest.fixture(scope="module")
def paper_problem():
    """Free hardware at the four paper heights, near the warm start."""
    sc = make_scenario()
    problem = assemble_nlp(sc, build_system(sc))
    y0 = warm_start_vector(problem)
    rng = np.random.default_rng(3)
    y = np.clip(y0 + rng.normal(size=y0.size) * 0.02,
                problem.lb + 1e-9, problem.ub - 1e-9)
    return problem, y


@pytest.fixture(scope="module")
def frozen_problem():
    """Frozen hardware at one height, near the warm start."""
    sc = make_scenario(heights=(1.1,), payload_mass=7.0)
    problem = assemble_nlp(sc, build_system(sc), freeze_hardware=True)
    y0 = warm_start_vector(problem)
    rng = np.random.default_rng(4)
    y = np.clip(y0 + rng.normal(size=y0.size) * 0.02,
                problem.lb + 1e-9, problem.ub - 1e-9)
    return problem, y


class TestValueOfTheDerivativePass:
    """The solver reads the cost and rows of every point from its
    derivative pass, so ``value`` must give the same numbers bit for
    bit."""

    @pytest.mark.parametrize("fixture", ["paper_problem", "frozen_problem"])
    def test_value_equals_derivative_pass(self, fixture, request):
        problem, y = request.getfixturevalue(fixture)
        rng = np.random.default_rng(17)
        for _ in range(4):
            yk = np.clip(y + rng.normal(size=y.size) * 0.01,
                         problem.lb + 1e-9, problem.ub - 1e-9)
            cost, cons = problem.value(yk)
            d_cost, _, d_cons, _ = problem.value_and_derivatives(yk)
            assert cost == d_cost
            np.testing.assert_array_equal(cons, d_cons)


class TestSubsystemDirections:
    """Each subsystem's trees carry only its own tangent directions."""

    @pytest.mark.parametrize("fixture", ["paper_problem", "frozen_problem"])
    def test_matches_full_width_pass(self, fixture, request):
        problem, y = request.getfixturevalue(fixture)
        ref = full_width_derivatives(problem, y)
        cost, grad, cons, jac = problem.value_and_derivatives(y)
        assert cost == ref[0]
        for got, want in zip((grad, cons, jac, problem.hessian(y)), ref[1:]):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("fixture, widths", [
        ("paper_problem", [31, 41, 6]), ("frozen_problem", [31, 31, 6])])
    def test_tree_widths(self, fixture, widths, request, monkeypatch):
        # human: its posture; robot: its posture and the hardware; payload:
        # its pose
        problem, y = request.getfixturevalue(fixture)
        seen = []
        original = ergoopt.kinematics

        def wrapper(model, q):
            tree = original(model, q)
            links = tuple(link.name for link in model.links)
            seen.append((model.name, tree.frame_rotations(links).ndir))
            return tree

        monkeypatch.setattr(ergoopt, "kinematics", wrapper)
        problem.value_and_derivatives(y)
        models = problem.system.subsystem_models()
        assert seen == [(m.name, w) for m, w in zip(models, widths)]
        assert list(problem.system.velocity_layout[0]) == [31, 31, 6]

    def test_coupled_frames_gathered_once_per_tree(self, paper_problem,
                                                   monkeypatch):
        # each subsystem's tuple is gathered once, on its Dual tree: the
        # poses and statics tangents share it, and the plain tree the
        # coupling matrix reads takes its values
        problem, y = paper_problem
        gathered = []
        original = multibody.Topology.mounts

        def wrapper(self, names):
            gathered.append((self, names))
            return original(self, names)

        monkeypatch.setattr(multibody.Topology, "mounts", wrapper)
        problem.value_and_derivatives(y)
        sys = problem.system
        models = sys.subsystem_models()
        assert len(sys.coupling_blocks) == len(models)
        for s, names, _, _ in sys.coupling_blocks:
            assert gathered.count((models[s].topology, names)) == 1, \
                models[s].name

    def test_coupling_matrix_of_kept_gathers_matches_fresh_ones(
            self, paper_problem, monkeypatch):
        problem, y = paper_problem
        seen = []
        original = coupled.coupling_matrix

        def wrapper(sys, trees):
            out = original(sys, trees)
            seen.append((trees, out))
            return out

        monkeypatch.setattr(coupled, "coupling_matrix", wrapper)
        problem.value_and_derivatives(y)
        [(trees, Q)] = seen
        assert all(t._gathered for t in trees)
        # the same plain trees without kept gathers gather afresh
        fresh = [dataclasses.replace(t) for t in trees]
        assert not any(t._gathered for t in fresh)
        np.testing.assert_array_equal(Q, original(problem.system, fresh))


class TestSharedTerms:
    def test_frozen_hardware_terms_computed_once(self, frozen_problem,
                                                 monkeypatch):
        # the nominal robot's null-posture CoM height is a constant of a
        # frozen-hardware problem: one pass serves every evaluation
        problem, y = frozen_problem
        fresh = assemble_nlp(problem.scenario, problem.system,
                             freeze_hardware=True)
        calls = []
        original = ergoopt.com_height_null_config

        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(ergoopt, "com_height_null_config", wrapper)
        cost = fresh.value_and_derivatives(y)[0]
        assert fresh.value(y)[0] == pytest.approx(cost, rel=1e-12)
        fresh.value_and_derivatives(y)
        assert len(calls) == 1
        monkeypatch.undo()
        sc = problem.scenario
        robot = problem.system.parametrized_model
        densities = [rho for rho, _ in robot.group_hardware().values()]
        want = (sc.weights.density
                * ergoopt.task_density(densities, PREFERRED_DENSITIES)
                + sc.weights.com_height * ergoopt.task_com_height(robot))
        assert fresh._shared_terms(y, None) == want


def box_on_soles(lift):
    """A 10 cm box (its CoM 5 cm above its base origin) with both sole
    frames ``lift`` m above that origin."""
    soles = tuple(FrameDef(f"sole_{side}", 0, np.array([0.0, 0.0, lift]),
                           np.zeros(3), role=f"{side}_foot")
                  for side in ("left", "right"))
    base = Link("box", Box(0.1, 0.1, 0.1), LinkHardware(1000.0))
    return Model(name="box", links=(base,), frames=soles).validate()


def dual_hardware(model):
    """The model with its density and multiplier as two directions."""
    hw = LinkHardware(fad.Dual(1000.0, [1.0, 0.0]), fad.Dual(1.0, [0.0, 1.0]))
    return multibody.apply_hardware(model, {"box": hw})


class TestDegenerateModel:
    """The CoM-height task refuses a model whose null-posture CoM sits
    below its soles, with plain hardware and with the ``Dual`` hardware
    of a derivative pass."""

    @pytest.mark.parametrize("lift", [0.06, 0.3])
    @pytest.mark.parametrize("hardware", [lambda m: m, dual_hardware],
                             ids=["plain", "dual"])
    def test_collapsed_model_refused(self, lift, hardware):
        model = hardware(box_on_soles(lift))
        with pytest.raises(DegenerateModelError, match="not positive"):
            task_com_height(model)

    def test_upright_model_priced(self):
        # soles 10 cm below the origin: the CoM stands 15 cm above them
        plain = task_com_height(box_on_soles(-0.1))
        dual = task_com_height(dual_hardware(box_on_soles(-0.1)))
        assert plain == pytest.approx(1.0 / 0.15 ** 2, rel=1e-12)
        assert dual.val == plain
        assert dual.ndir == 2


class TestWeightScaling:
    """The cost is normalized by the sum of the task weights."""

    @pytest.fixture(scope="class")
    def warm_start_pass(self):
        sc = make_scenario()
        system = build_system(sc)
        y0 = warm_start_vector(assemble_nlp(sc, system))

        def derivatives(factor):
            w = TaskWeights(**{f.name: factor * getattr(sc.weights, f.name)
                               for f in dataclasses.fields(TaskWeights)})
            problem = assemble_nlp(dataclasses.replace(sc, weights=w),
                                   system)
            return problem.value_and_derivatives(y0)

        return derivatives

    def test_power_of_two_factor_is_exact(self, warm_start_pass):
        for got, want in zip(warm_start_pass(2.0), warm_start_pass(1.0)):
            np.testing.assert_array_equal(got, want)

    def test_other_factor_agrees_to_rounding(self, warm_start_pass):
        # relative to each output's largest entry, since an entry that
        # cancels to near zero keeps only an absolute agreement
        for got, want in zip(warm_start_pass(3.0), warm_start_pass(1.0)):
            np.testing.assert_allclose(
                got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.fixture(scope="module")
def two_height_problem():
    """Free hardware at two heights, near the warm start."""
    sc = make_scenario(heights=(0.9, 1.3), payload_mass=7.0)
    problem = assemble_nlp(sc, build_system(sc))
    y0 = warm_start_vector(problem)
    rng = np.random.default_rng(5)
    y = np.clip(y0 + rng.normal(size=y0.size) * 0.02,
                problem.lb + 1e-9, problem.ub - 1e-9)
    return problem, y


class TestDerivativesAgainstCentralDifferences:
    """The gradient and constraint Jacobian of the derivative pass match
    central differences of ``value``, column by column.

    Decision j steps by ``h_j = 1e-6 max(1, |y_j|)`` and its column is
    compared per unit relative change (times ``max(1, |y_j|)``), so the
    density columns count as much as the angles.  The tolerance, 1e-6 of
    the largest such entry, sits well above the differences' truncation
    and rounding error (about 1e-10 of it here) and well below what a
    dropped tangent term costs.
    """

    REL = 1e-6

    @pytest.mark.parametrize("fixture", ["frozen_problem",
                                         "two_height_problem"])
    def test_gradient_and_jacobian(self, fixture, request):
        problem, y = request.getfixturevalue(fixture)
        _, grad, _, jac = problem.value_and_derivatives(y)
        scale = np.maximum(1.0, np.abs(y))
        fd_grad = np.zeros_like(grad)
        fd_jac = np.zeros_like(jac)
        for j, h in enumerate(1e-6 * scale):
            step = np.zeros_like(y)
            step[j] = h
            up, down = problem.value(y + step), problem.value(y - step)
            fd_grad[j] = (up[0] - down[0]) / (2 * h)
            fd_jac[:, j] = (up[1] - down[1]) / (2 * h)
        assert_rel(grad * scale, fd_grad * scale, self.REL)
        assert_rel(jac * scale, fd_jac * scale, self.REL)


class TestOnePass:
    """One pass over every height gives the per-height loop's answers."""

    def test_matches_per_height_loop(self, paper_problem, monkeypatch):
        problem, y = paper_problem
        assert problem.heights == (0.8, 1.0, 1.2, 1.5)
        ref_cost, ref_grad, ref_cons, ref_jac, ref_hess = \
            per_height_derivatives(problem, y)
        calls = []
        for name in ("kinematics", "statics_minnorm"):
            original = getattr(ergoopt, name)

            def wrapper(*args, original=original, name=name, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(ergoopt, name, wrapper)
        cost, grad, cons, jac = problem.value_and_derivatives(y)
        # one tree per subsystem and one statics solve serve every height
        assert sorted(calls) == ["kinematics"] * 3 + ["statics_minnorm"]
        assert_rel(cost, ref_cost, 1e-12)
        assert_rel(grad, ref_grad, 1e-12)
        assert_rel(cons, ref_cons, 1e-12)
        assert_rel(jac, ref_jac, 1e-12)
        assert_rel(problem.hessian(y), ref_hess, 1e-12)
        value, value_cons = problem.value(y)
        assert_rel(value, ref_cost, 1e-12)
        assert_rel(value_cons, ref_cons, 1e-12)

    def test_warm_start_stack_matches_single_heights(self):
        sc = make_scenario()
        sys = build_system(sc)
        stack = warm_start_configuration(sc, sys, np.array(sc.heights))
        worst = 0.0
        for k, h in enumerate(sc.heights):
            single = warm_start_configuration(sc, sys, h)
            for qs, q1 in zip(stack.qs, single.qs):
                assert np.shape(q1.base_pos) == (3,)
                assert np.shape(q1.base_rot) == (3, 3)
                assert np.ndim(q1.s) == 1
                for a, b in ((qs.base_pos[k], q1.base_pos),
                             (qs.base_rot[k], q1.base_rot), (qs.s[k], q1.s)):
                    worst = max(worst, float(np.abs(a - b).max(initial=0.0)))
        assert worst <= 1e-9

    def test_coupling_matrix_and_jacobians_see_plain_arrays(
            self, paper_problem, monkeypatch):
        # the statics tangents come by contraction, so neither Q nor a
        # frame Jacobian is ever a Dual (which would hold 78 x H copies)
        problem, y = paper_problem
        seen = []
        for owner, name in ((coupled, "coupling_matrix"),
                            (coupled, "frame_jacobian"),
                            (multibody, "frame_jacobian")):
            original = getattr(owner, name)

            def wrapper(*args, original=original, name=name, **kwargs):
                out = original(*args, **kwargs)
                seen.append((name, out, args, kwargs))
                return out

            monkeypatch.setattr(owner, name, wrapper)
        problem.value_and_derivatives(y)
        assert sorted(name for name, *_ in seen) == [
            "coupling_matrix"] + ["frame_jacobian"] * 3
        for name, out, args, kwargs in seen:
            arrays = list(leaves([out, list(args), list(kwargs.values())]))
            assert not any(isinstance(a, fad.Dual) for a in arrays), name

    @staticmethod
    def rotation_calls(problem, y, monkeypatch):
        """(tree, names) of each ``KinTree.frame_rotations`` call of one
        pass."""
        calls = []
        original = multibody.KinTree.frame_rotations

        def recording(self, names):
            calls.append((self, tuple(names)))
            return original(self, names)

        monkeypatch.setattr(multibody.KinTree, "frame_rotations", recording)
        problem.value_and_derivatives(y)
        return calls

    @staticmethod
    def whole_tree(problem, calls):
        """The calls that ask for every link of a tree with more than one
        link, or for the payload tree's rotations."""
        return [(t.model.name, names) for t, names in calls
                if t.model is problem.system.payload
                or (len(t.model.links) > 1
                    and {link.name for link in t.model.links} <= set(names))]

    def test_no_whole_tree_rotation_tangents(self, paper_problem,
                                             monkeypatch):
        # rotations are formed only for named frames, from the link
        # twists: no call of a pass asks for a whole tree's rotations
        problem, y = paper_problem
        calls = self.rotation_calls(problem, y, monkeypatch)
        assert calls
        assert self.whole_tree(problem, calls) == []
        # the guard sees a whole tree's rotations when they are asked for
        tree, _ = calls[0]
        links = tuple(link.name for link in tree.model.links)
        assert self.whole_tree(problem, [(tree, links)]) == [
            (tree.model.name, links)]

    def test_one_rotation_call_per_contact_passes(self, paper_problem,
                                                  monkeypatch):
        # one frame_rotations call per contact forms (..., 1, 3, 3)
        # tangents, which are single frames' and not the payload tree's
        problem, y = paper_problem

        def per_contact(sys, trees, dirs=None):
            return fad.concatenate([
                fad.widen(trees[a].frame_rotations((frame,)), dirs[0][a],
                          dirs[1])
                for a, frame in sys.env_contacts], axis=-3)

        monkeypatch.setattr(ergoopt, "contact_rotations", per_contact)
        calls = self.rotation_calls(problem, y, monkeypatch)
        assert [names for _, names in calls] == [
            (frame,) for _, frame in problem.system.env_contacts]
        assert self.whole_tree(problem, calls) == []

    def test_rotations_formed_only_for_contacts(self, paper_problem,
                                                monkeypatch):
        # the pass reads the soles' rotations alone: no Dual holds the
        # rotations of more frames than the environment contacts, and no
        # hand or grip rotation is asked for
        problem, y = paper_problem
        contacts = problem.system.env_contacts
        shapes_seen, asked = [], []
        original = fad.Dual.__init__
        rotations = multibody.KinTree.frame_rotations

        def recording(self, val, dot):
            original(self, val, dot)
            shapes_seen.append(np.shape(self.val))

        def asking(self, names):
            asked.extend(names)
            return rotations(self, names)

        monkeypatch.setattr(fad.Dual, "__init__", recording)
        monkeypatch.setattr(multibody.KinTree, "frame_rotations", asking)
        problem.value_and_derivatives(y)
        monkeypatch.undo()
        assert len(contacts) == 4
        assert not [s for s in shapes_seen if len(s) >= 3
                    and s[-2:] == (3, 3) and s[-3] > len(contacts)]
        assert set(asked) == {frame for _, frame in contacts}

    def test_no_rotational_inertia_on_statics_paths(self, paper_problem,
                                                     monkeypatch):
        # only mass_matrix reads a link's inertia; the statics and the NLP
        # read its mass and CoM
        problem, y = paper_problem
        calls = []
        original = shapes.shape_inertia_cm

        def wrapper(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(shapes, "shape_inertia_cm", wrapper)
        problem.value_and_derivatives(y)
        params = problem.hardware_params(y)
        assert params
        for k in range(len(problem.heights)):
            evaluate_statics(problem.system, problem.configurations(y, k),
                             params)
        assert calls == []


@pytest.fixture(scope="module")
def solved():
    """Two short frozen-hardware solves of one height from one start."""
    sc = make_scenario(heights=(1.0,))
    problem = assemble_nlp(sc, build_system(sc), freeze_hardware=True)
    y0 = warm_start_vector(problem)
    options = SolverOptions(max_iter=3)
    return problem, solve(problem, y0, options), solve(problem, y0, options)


@pytest.fixture(scope="module")
def solved_free():
    """Two 2-iteration free-hardware solves of one height (78 decisions)."""
    sc = make_scenario(heights=(1.0,))
    problem = assemble_nlp(sc, build_system(sc))
    y0 = warm_start_vector(problem)
    options = SolverOptions(max_iter=2)
    return problem, solve(problem, y0, options), solve(problem, y0, options)


class TestSolveFreeHardware:
    """The shared hardware columns go through the solver too."""

    def test_deterministic(self, solved_free):
        problem, a, b = solved_free
        assert problem.lb.size == 78
        np.testing.assert_array_equal(a.y, b.y)
        assert a.cost == b.cost
        assert a.hardware == b.hardware

    def test_solved_problem_keeps_no_hessian(self, solved_free):
        # a problem kept with its solution holds no n x n Gauss-Newton
        # matrix from the solver's last derivative pass, nor any other
        # array with more entries than the decision vector: its fields
        # and cached properties, and one level into their tuples and
        # dicts
        problem, _, _ = solved_free
        assert problem._hess_cache is None
        held = []
        for v in vars(problem).values():
            held.append(v)
            if isinstance(v, tuple):
                held.extend(v)
            elif isinstance(v, dict):
                held.extend(v.values())
        sizes = [a.size for a in held if isinstance(a, np.ndarray)]
        assert sizes and max(sizes) <= problem.lb.size

    @pytest.mark.parametrize("fixture", ["solved_free", "solved"])
    def test_within_bounds(self, fixture, request):
        problem, sol, _ = request.getfixturevalue(fixture)
        assert np.all(sol.y >= problem.lb) and np.all(sol.y <= problem.ub)
        assert (sol.hardware is None) == problem.frozen_hardware

    def test_robot_scaled_once_per_evaluation(self, monkeypatch):
        sc = make_scenario(heights=(0.8, 1.2))
        problem = assemble_nlp(sc, build_system(sc))
        y = warm_start_vector(problem)
        scaled = []
        for owner in (coupled, multibody):
            original = owner.apply_hardware

            def wrapper(model, params, *args, original=original, **kwargs):
                if params:
                    scaled.append(model.name)
                return original(model, params, *args, **kwargs)

            monkeypatch.setattr(owner, "apply_hardware", wrapper)
        problem.value(y)
        assert scaled == ["robot-desk"]
        problem.value_and_derivatives(y)
        assert scaled == ["robot-desk"] * 2

    def test_hardware_inside_hardware_bounds(self, solved_free):
        problem, sol, _ = solved_free
        robot = problem.system.parametrized_model
        lm_lo, lm_hi = robot.bounds.length_multiplier
        rho_lo, rho_hi = robot.bounds.density
        assert list(sol.hardware) == [g.name for g in robot.groups]
        for hw in sol.hardware.values():
            assert lm_lo <= hw["length_multiplier"] <= lm_hi
            assert rho_lo <= hw["density"] <= rho_hi


class TestSolve:
    """Short solves of the lifting problem.

    trust-constr gets the constraint Jacobian sparse and projects through
    the sparse augmented system.  Were that system singular, scipy would
    warn "Singular Jacobian matrix. Using dense SVD..." and fall back to
    the dense path; the tier-1 warning filter turns that warning into a
    failure, so these solves also show that the problem factors sparsely.
    """

    def test_deterministic(self, solved):
        _, a, b = solved
        np.testing.assert_array_equal(a.y, b.y)
        assert a.cost == b.cost
        assert a.task_values == b.task_values

    def test_report_fields_are_the_solvers(self, solved):
        # a Solution is the solver's report, its stop message included,
        # plus five fields of its own
        problem, sol, _ = solved
        names = [f.name for f in dataclasses.fields(SolverReport)]
        assert [f.name for f in dataclasses.fields(sol)] == names + [
            "heights", "statics", "refusals", "task_values", "hardware"]
        report = solve_nlp(problem, warm_start_vector(problem),
                           SolverOptions(max_iter=3))
        assert report.message and sol.message == report.message
        for name in names:
            np.testing.assert_equal(getattr(sol, name), getattr(report, name))

    def test_status_is_documented(self, solved):
        _, sol, _ = solved
        assert sol.status in ("converged", "infeasible", "max-iter")
        assert sol.iterations <= 3

    def test_constraint_rows_per_height(self, solved):
        # 3 + 3 * grasps + 3 * contacts tilt-encoded rows, as documented
        problem, sol, _ = solved
        sys = problem.system
        n_env = len(sys.env_contacts)
        layout = (("load_orientation", 2), ("load_height", 1),
                  ("hand_position", 3 * len(sys.grasps)),
                  ("foot_height", n_env), ("foot_orientation", 2 * n_env))
        per = sum(width for _, width in layout)
        assert per == 27
        _, cons = problem.value(sol.y)
        assert cons.size == problem.n_cons == per * len(problem.heights)
        families = iter(problem.families)
        start = 0
        for k, h in enumerate(problem.heights):
            spans = {}
            for name, width in layout:
                assert next(families) == (f"{name}@{h:g}m",
                                          slice(start, start + width))
                spans[name] = slice(start, start + width)
                start += width
            q = problem.configurations(sol.y, k)
            trees = coupled_trees(sys, q)
            assert cons[spans["load_height"]] == [q.qs[2].base_pos[2] - h]
            feet = [trees[a].frame_points((f,))[0, 2]
                    for a, f in sys.env_contacts]
            np.testing.assert_allclose(cons[spans["foot_height"]], feet,
                                       rtol=0, atol=1e-15)
        assert next(families, None) is None and start == problem.n_cons

    def test_task_values_from_saddle_statics(self, solved):
        problem, sol, _ = solved
        sys = problem.system
        params = problem.hardware_params(sol.y)
        assert len(sol.task_values) == len(problem.heights)
        for k, tasks in enumerate(sol.task_values):
            q = problem.configurations(sol.y, k)
            trees = coupled_trees(sys, q, params)
            tau, f = statics_minnorm(sys, q, params)
            cop = 0.0
            for c, (agent, frame) in enumerate(sys.env_contacts):
                [R] = trees[agent].frame_rotations((frame,))
                d = fad.value(cop_smooth(f[6 * c: 6 * c + 6], R))
                cop += float(d @ d)
            assert tasks["torque"] == pytest.approx(float(tau @ tau),
                                                    rel=1e-12)
            assert tasks["cop"] == pytest.approx(cop, rel=1e-12)

    def test_statics_none_only_on_refusal(self, solved):
        problem, sol, _ = solved
        params = problem.hardware_params(sol.y)
        assert len(sol.statics) == len(problem.heights)
        for k, res in enumerate(sol.statics):
            q = problem.configurations(sol.y, k)
            if res is None:
                with pytest.raises((SingularConstraintError,
                                    UnloadedFootError)) as refusal:
                    evaluate_statics(problem.system, q, params)
                assert sol.refusals[k] == type(refusal.value).__name__
                continue
            assert sol.refusals[k] is None
            fresh = evaluate_statics(problem.system, q, params)
            np.testing.assert_array_equal(res.tau, fresh.tau)
            np.testing.assert_array_equal(res.wrenches, fresh.wrenches)

    def test_statics_errors_other_than_refusals_propagate(self, solved,
                                                          monkeypatch):
        problem, sol, _ = solved

        def broken(*args, **kwargs):
            raise ValueError("not a refusal")

        monkeypatch.setattr(ergoopt, "evaluate_statics", broken)
        with pytest.raises(ValueError, match="not a refusal"):
            solve(problem, sol.y, SolverOptions(max_iter=1))


def stop_at_start(monkeypatch):
    """Make ``solve`` return its start at once, so only its tail runs."""
    monkeypatch.setattr(ergoopt, "solve_nlp", lambda p, y0, options:
                        SolverReport(y=y0, cost=0.0, status="max-iter",
                                     iterations=0, kkt_residual=0.0,
                                     constraint_violation=0.0,
                                     worst_family=None, message="stub"))


class TestSolutionTail:
    def test_tasks_of_every_height_from_one_statics_solve(self, monkeypatch):
        # evaluate_statics analyses each height; the task values of all
        # heights come from one saddle solve over the stacked postures
        sc = make_scenario(heights=(0.8, 1.2))
        problem = assemble_nlp(sc, build_system(sc))
        y = warm_start_vector(problem)
        stop_at_start(monkeypatch)
        calls = []
        for owner, name in ((ergoopt, "statics_minnorm"),
                            (ergoopt, "evaluate_statics"),
                            (ergoopt, "kinematics"), (coupled, "kinematics"),
                            (multibody, "kinematics")):
            original = getattr(owner, name)

            def wrapper(*args, original=original, name=name, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)
        sol = solve(problem, y, SolverOptions(max_iter=1))
        # the stacked trees, one per subsystem, serve the statics of each
        # height as well as the tasks of all of them
        assert sorted(calls) == (["evaluate_statics"] * 2
                                 + ["kinematics"] * 3 + ["statics_minnorm"])
        monkeypatch.undo()
        params = problem.hardware_params(y)
        models = problem.system.subsystem_models(params)
        for k, tasks in enumerate(sol.task_values):
            q = problem.configurations(y, k)
            trees = [kinematics(m, qi) for m, qi in zip(models, q.qs)]
            _, _, t1, t3 = problem._height_tasks(
                trees, coupled.contact_rotations(problem.system, trees))
            assert tasks["torque"] == pytest.approx(float(t1), rel=1e-12)
            assert tasks["cop"] == pytest.approx(float(t3), rel=1e-12)
            # each height's statics on its rows of the stacked trees are
            # those of its own trees
            res, ref = sol.statics[k], evaluate_statics(problem.system, q,
                                                        params)
            np.testing.assert_array_equal(res.tau, ref.tau)
            np.testing.assert_array_equal(res.wrenches, ref.wrenches)
            assert res.cops.keys() == ref.cops.keys()
            for label, cop in ref.cops.items():
                np.testing.assert_array_equal(res.cops[label], cop)
            assert res.projected_residual == ref.projected_residual
            assert res.equilibrium_residual == ref.equilibrium_residual
        assert sol.refusals == [None, None]

    def test_tail_gathers_once_per_subsystem(self, monkeypatch):
        # the coupling matrix of the stacked statics gathers on the
        # stacked plain trees, and each height's rows reuse the gathers
        sc = make_scenario()
        problem = assemble_nlp(sc, build_system(sc))
        y = warm_start_vector(problem)
        stop_at_start(monkeypatch)
        fresh = []
        original = multibody.KinTree._mounts

        def counting(self, names):
            if names not in self._gathered:
                fresh.append(names)
            return original(self, names)

        monkeypatch.setattr(multibody.KinTree, "_mounts", counting)
        solve(problem, y, SolverOptions(max_iter=1))
        assert len(problem.heights) == 4
        assert sorted(fresh) == sorted(
            names for _, names, _, _ in problem.system.coupling_blocks)
        assert len(fresh) == 3

    @pytest.mark.parametrize("error", [UnloadedFootError,
                                       SingularConstraintError])
    def test_refusal_named_at_its_height(self, monkeypatch, error):
        sc = make_scenario(heights=(0.8, 1.0, 1.2))
        problem = assemble_nlp(sc, build_system(sc), freeze_hardware=True)
        stop_at_start(monkeypatch)
        original = ergoopt.evaluate_statics
        calls = []

        def refuse_second(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise error("refused as posed")
            return original(*args, **kwargs)

        monkeypatch.setattr(ergoopt, "evaluate_statics", refuse_second)
        sol = solve(problem, warm_start_vector(problem),
                    SolverOptions(max_iter=1))
        assert sol.refusals == [None, error.__name__, None]
        assert sol.statics[1] is None
        assert sol.statics[0] is not None and sol.statics[2] is not None
