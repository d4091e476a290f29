import collections
import dataclasses

import numpy as np
import pytest

from ergolift import ergoopt, scenario
from ergolift.ergoopt import assemble_nlp, warm_start_vector
from ergolift.multibody import apply_hardware, group_params
from ergolift.scenario import TaskWeights, build_system, make_scenario, \
    warm_start_configuration

FIELDS = ("base_pos", "base_rot", "s")


@pytest.fixture
def ik_calls(monkeypatch):
    """Names of the models each inverse kinematics pass ran on."""
    calls = []
    original = scenario._ik_solve

    def wrapper(model, *args, **kwargs):
        calls.append(model.name)
        return original(model, *args, **kwargs)

    monkeypatch.setattr(scenario, "_ik_solve", wrapper)
    return calls


@pytest.fixture
def ik_iterations(monkeypatch):
    """Inverse kinematics iterations per model name: each iteration
    takes one batched ``frame_jacobian`` call, and nothing else in
    ``scenario`` calls it."""
    counts = collections.Counter()
    original = scenario.frame_jacobian

    def wrapper(tree, *args, **kwargs):
        counts[tree.model.name] += 1
        return original(tree, *args, **kwargs)

    monkeypatch.setattr(scenario, "frame_jacobian", wrapper)
    return counts


def jitter_vector(problem):
    """The joint jitter ``warm_start_vector`` draws from the seed, 0.01
    rad standard deviation, drawn block by block: height by height,
    subsystem by subsystem."""
    rng = np.random.default_rng(problem.scenario.seed)
    out = np.zeros(problem.lb.size)
    start = 0
    for _ in problem.heights:
        for width in problem.system.velocity_layout[0]:
            if width > 6:
                out[start + 6:start + width] = rng.normal(
                    size=width - 6) * 0.01
            start += width
    return out


class TestWarmStartMemo:
    def test_repeat_call_runs_no_ik(self, ik_calls):
        sc = make_scenario(heights=(0.9, 1.3))
        sys = build_system(sc)
        heights = np.array(sc.heights)
        first = warm_start_configuration(sc, sys, heights)
        assert ik_calls == [sc.human.name, sc.robot.name]
        again = warm_start_configuration(sc, sys, heights)
        assert len(ik_calls) == 2
        scenario.clear_warm_start_memo()
        uncached = warm_start_configuration(sc, sys, heights)
        assert len(ik_calls) == 4
        for q1, q2, q3 in zip(first.qs, again.qs, uncached.qs):
            for name in FIELDS:
                np.testing.assert_array_equal(getattr(q2, name),
                                              getattr(q1, name))
                np.testing.assert_array_equal(getattr(q2, name),
                                              getattr(q3, name))

    def test_height_shape_is_part_of_the_key(self, ik_calls):
        sc = make_scenario(heights=(1.0,))
        sys = build_system(sc)
        single = warm_start_configuration(sc, sys, 1.0)
        stacked = warm_start_configuration(sc, sys, np.array([1.0]))
        assert len(ik_calls) == 4
        for q1, qs in zip(single.qs, stacked.qs):
            assert np.shape(q1.s) == np.shape(qs.s)[1:]

    def test_hardware_variant_misses(self, ik_calls):
        sc = make_scenario(heights=(1.0,))
        sys = build_system(sc)
        robot = sc.robot
        scaled = apply_hardware(robot, group_params(
            robot, {g.name: (2000.0, 1.2) for g in robot.groups}))
        assert scaled.topology is robot.topology
        nominal = warm_start_configuration(sc, sys, 1.0)
        variant = warm_start_configuration(
            dataclasses.replace(sc, robot=scaled), sys, 1.0)
        # the human hits, the scaled robot runs its own pass
        assert ik_calls == [sc.human.name, robot.name, robot.name]
        np.testing.assert_array_equal(variant.qs[0].s, nominal.qs[0].s)
        assert not np.array_equal(variant.qs[1].s, nominal.qs[1].s)

    def test_cached_arrays_refuse_writes(self):
        sc = make_scenario(heights=(1.0,))
        q = warm_start_configuration(sc, build_system(sc), 1.0)
        for qi in q.qs[:2]:
            for name in FIELDS:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(qi, name)[...] = 0.0

    def test_seeds_share_one_ik_and_differ_by_the_jitter(self, ik_calls,
                                                         monkeypatch):
        sc = make_scenario(heights=(0.8, 1.2))
        sys = build_system(sc)
        with monkeypatch.context() as m:
            m.setattr(ergoopt, "WARM_START_JITTER", 0.0)
            plain = warm_start_vector(assemble_nlp(sc, sys))
        for seed in (1, 2):
            problem = assemble_nlp(dataclasses.replace(sc, seed=seed), sys)
            y = warm_start_vector(problem)
            np.testing.assert_array_equal(
                y, np.clip(plain + jitter_vector(problem),
                           problem.lb + 1e-9, problem.ub - 1e-9))
        assert ik_calls == [sc.human.name, sc.robot.name]

    def test_key_ignores_what_does_not_pose(self, ik_calls):
        # payload mass, task weights and seed do not move the postures,
        # so scenarios differing only in them share one entry per agent
        sc = make_scenario(heights=(0.9, 1.3))
        sys = build_system(sc)
        heights = np.array(sc.heights)
        variants = [sc, dataclasses.replace(sc, payload_mass=12.0),
                    dataclasses.replace(sc, weights=TaskWeights(cop=1.0)),
                    dataclasses.replace(sc, seed=7)]
        poses = [warm_start_configuration(v, sys, heights) for v in variants]
        assert ik_calls == [sc.human.name, sc.robot.name]
        assert scenario._agent_posture.cache_info().currsize == 2
        for pose in poses[1:]:
            for q, q0 in zip(pose.qs[:2], poses[0].qs):
                assert q is q0

    def test_memo_is_bounded(self, ik_calls):
        sc = make_scenario(heights=(1.0,))
        sys = build_system(sc)
        for h in np.linspace(0.8, 1.4, scenario.WARM_START_MEMO_SIZE):
            warm_start_configuration(sc, sys, h)
        info = scenario._agent_posture.cache_info()
        assert info.currsize == scenario.WARM_START_MEMO_SIZE
        # the first height's postures were the least recently used
        warm_start_configuration(sc, sys, 0.8)
        assert len(ik_calls) == 2 * scenario.WARM_START_MEMO_SIZE + 2


class TestIKStop:
    def test_reachable_height_stops_early(self, ik_iterations):
        sc = make_scenario(heights=(1.0,))
        warm_start_configuration(sc, build_system(sc), 1.0)
        assert 0 < ik_iterations[sc.robot.name] < 80
        _, robot = scenario.warm_start_report(sc, 1.0)
        assert robot.converged

    def test_more_iterations_move_no_coordinate(self, monkeypatch):
        runs = []
        original = scenario._ik_solve

        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            runs.append((args, kwargs, out))
            return out

        monkeypatch.setattr(scenario, "_ik_solve", wrapper)
        sc = make_scenario(heights=(1.0,))
        warm_start_configuration(sc, build_system(sc), np.array([1.0]))
        assert len(runs) == 2
        # a step tolerance no step meets: all 80 iterations run
        monkeypatch.setattr(scenario, "IK_STEP_TOL", -1.0)
        for (model, _, *targets), kwargs, (q, converged, _) in runs:
            assert converged.all()
            again, _, _ = original(model, q, *targets, **kwargs)
            for name in FIELDS:
                moved = np.abs(getattr(again, name) - getattr(q, name))
                assert moved.max() <= 1e-9

    def test_paper_stack_runs_every_iteration(self, ik_iterations):
        # the human at 0.8 m and the robot at 1.2 and 1.5 m never
        # converge, so each agent's stack runs the whole cap
        sc = make_scenario()
        warm_start_configuration(sc, build_system(sc), np.array(sc.heights))
        assert ik_iterations == {sc.human.name: 80, sc.robot.name: 80}


class TestWarmStartReport:
    def test_paper_heights(self):
        sc = make_scenario()
        human, robot = scenario.warm_start_report(sc, np.array(sc.heights))
        np.testing.assert_array_equal(human.converged,
                                      [False, True, True, True])
        np.testing.assert_array_equal(robot.converged,
                                      [True, True, False, False])
        for reach in (human, robot):
            assert reach.error.shape == (4,)
            assert reach.error[reach.converged].max() <= 2.5e-3
        # out of reach: the hands end centimeters from their grasp points
        np.testing.assert_allclose(human.error[0], 0.0278, rtol=0.05)
        np.testing.assert_allclose(robot.error[2:], [0.0265, 0.129],
                                   rtol=0.05)

    def test_no_ik_on_a_memo_hit(self, ik_calls):
        sc = make_scenario(heights=(0.9, 1.3))
        sys = build_system(sc)
        heights = np.array(sc.heights)
        warm_start_configuration(sc, sys, heights)
        reach = scenario.warm_start_report(sc, heights)
        assert len(ik_calls) == 2
        scenario.clear_warm_start_memo()
        assert scenario.warm_start_report(sc, heights)[0].error.shape == (2,)
        warm_start_configuration(sc, sys, heights)
        assert len(ik_calls) == 4
        for r in reach:
            for a in (r.converged, r.error):
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0


class TestGrasps:
    def test_direct_scenario_matches_make_scenario(self, ik_calls):
        """The grasp points derive from the agent models, so a
        ``Scenario`` built directly couples and poses like
        ``make_scenario``'s, down to the warm-start memo key."""
        made = make_scenario(heights=(0.9, 1.3))
        direct = scenario.Scenario(made.human, made.robot, (0.9, 1.3))
        systems = [build_system(sc) for sc in (made, direct)]
        pairs = [[(g.agent, g.agent_frame, g.payload_frame)
                  for g in s.grasps] for s in systems]
        assert pairs[1] == pairs[0]
        frames = [{f.name: f.offset for f in s.payload.frames}
                  for s in systems]
        assert sorted(frames[1]) == sorted(sum(scenario.GRASP_FRAMES, ()))
        for name, offset in frames[0].items():
            np.testing.assert_array_equal(frames[1][name], offset)
        heights = np.array(made.heights)
        poses = [warm_start_configuration(sc, s, heights)
                 for sc, s in zip((made, direct), systems)]
        assert len(ik_calls) == 2  # the direct scenario hits the memo
        for q1, q2 in zip(*(p.qs for p in poses)):
            for name in FIELDS:
                np.testing.assert_array_equal(getattr(q2, name),
                                              getattr(q1, name))


class TestScenarioValidation:
    """A scenario whose weights or values cannot be used is refused when
    it is built, not by a division in the first derivative pass."""

    @pytest.fixture(scope="class")
    def made(self):
        return make_scenario(heights=(1.0,))

    @pytest.mark.parametrize("change, match", [
        (dict(weights=TaskWeights(0.0, 0.0, 0.0, 0.0)), "all be zero"),
        (dict(weights=TaskWeights(torque=np.nan)), "nonnegative and finite"),
        (dict(weights=TaskWeights(cop=np.inf)), "nonnegative and finite"),
        (dict(weights=TaskWeights(density=-1.0)), "nonnegative and finite"),
        (dict(payload_mass=np.nan), "positive, finite mass"),
        (dict(payload_mass=np.inf), "positive, finite mass"),
        (dict(payload_mass=0.0), "positive, finite mass"),
        (dict(heights=(np.nan,)), "positive and finite"),
        (dict(heights=(0.8, np.nan)), "positive and finite"),
        (dict(heights=(np.inf,)), "positive and finite"),
        (dict(heights=(0.0, 1.0)), "positive and finite"),
        (dict(heights=(1.2, 0.8)), "sorted ascending"),
        (dict(heights=()), "at least one"),
    ])
    def test_rejects(self, made, change, match):
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(made, **change)

    def test_one_positive_weight_suffices(self, made):
        sc = dataclasses.replace(made, weights=TaskWeights(0.0, 0.0, 0.0, 1.0))
        assert sc.weights.total() == 1.0
