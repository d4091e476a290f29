"""The benchmark's workloads: seeded inputs, one request, output checks.

Every workload is a closed loop of one client: a design tool sends the
next request only after the previous answer arrived.  Inputs come from
``inputs(state, seed)`` alone, so the same seed replays the same
requests.  ``request`` is the only code the benchmark times; ``check``
and ``cost`` run afterwards, outside the timed region.

The solve workloads run fixed decks of inputs in seeded order (see
``Workload.inputs``); ``statics_eval`` draws every input from the seed.

Functions of the program are always reached through their module
(``ergoopt.solve``), never imported by name, so a traced run sees
every call the benchmark makes.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from typing import Any, Optional

import numpy as np

from ergolift import coupled, ergoopt, fad, multibody, nlpsolver, scenario, \
    templates

PAPER_HEIGHTS = (0.8, 1.0, 1.2, 1.5)
HEIGHT_RANGE = (0.7, 1.6)
MASS_RANGE = (2.0, 15.0)
REFUSALS = (coupled.SingularConstraintError, coupled.UnloadedFootError)

# statics residuals are solver precision (about 1e-10 N at the seed);
# scaled by the largest contact wrench entry
RESIDUAL_TOL = 1e-8
# same comparison as tests/test_coupled.py: projector route vs saddle route
MINNORM_TAU_TOL = 1e-7
MINNORM_F_TOL = 1e-6
MINNORM_EVERY = 5


class CheckFailure(Exception):
    """An output of the program is wrong."""


@dataclasses.dataclass
class Answer:
    """What one request returned, plus the time of its core call."""

    core_s: float
    value: Any
    problem: Any = None
    refused: Optional[str] = None


class Checks:
    """Counts of output checks run, by kind."""

    def __init__(self):
        self.counts = {}

    def require(self, kind, ok, message):
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if not ok:
            raise CheckFailure(f"{kind}: {message}")


def default_models():
    return templates.default_human(), templates.default_robot()


def stratified(rng, lo, hi, n):
    """One uniform draw inside each of n equal strata of [lo, hi]."""
    edges = np.linspace(lo, hi, n + 1)
    return edges[:-1] + rng.uniform(size=n) * np.diff(edges)


def robot_of(system):
    return system.agents[system.parametrized_agent % len(system.agents)]


def check_statics(res, checks, where):
    scale = max(1.0, float(np.abs(res.wrenches).max()))
    checks.require("statics_equilibrium",
                   res.equilibrium_residual <= RESIDUAL_TOL * scale,
                   f"{where}: equilibrium residual "
                   f"{res.equilibrium_residual:.3e}")
    checks.require("statics_projected",
                   res.projected_residual <= RESIDUAL_TOL * scale,
                   f"{where}: projected residual {res.projected_residual:.3e}")


def check_solution(problem, sol, violation_tol, checks):
    """Checks one co-design ``Solution``; returns a refusal name or None."""
    y = np.asarray(sol.y)
    checks.require("decisions_finite", bool(np.all(np.isfinite(y))),
                   "non-finite decision")
    checks.require("decisions_in_bounds",
                   bool(np.all(y >= problem.lb) and np.all(y <= problem.ub)),
                   "decision outside lb/ub")
    checks.require("cost_finite", bool(np.isfinite(sol.cost)),
                   f"cost {sol.cost}")
    if sol.hardware is not None:
        bounds = robot_of(problem.system).bounds
        lm_lo, lm_hi = bounds.length_multiplier
        rho_lo, rho_hi = bounds.density
        for name, hw in sol.hardware.items():
            checks.require(
                "hardware_in_bounds",
                lm_lo <= hw["length_multiplier"] <= lm_hi
                and rho_lo <= hw["density"] <= rho_hi,
                f"{name}: {hw}")
    checks.require("constraint_violation",
                   sol.constraint_violation <= violation_tol,
                   f"violation {sol.constraint_violation:.3e} > "
                   f"{violation_tol:g}")
    refused = None
    params = problem.hardware_params(sol.y)
    for k, res in enumerate(sol.statics):
        where = f"height {problem.heights[k]:.3f} m"
        if res is not None:
            check_statics(res, checks, where)
            continue
        # solve() drops the statics when the analysis raised; find out
        # whether that was a refusal by design or an error
        q = problem.configurations(sol.y, k)
        try:
            coupled.evaluate_statics(problem.system, q, params)
        except REFUSALS as exc:
            refused = type(exc).__name__
            continue
        except ValueError as exc:
            raise CheckFailure(f"{where}: statics failed: {exc}") from exc
        raise CheckFailure(f"{where}: statics missing from the solution")
    return refused


def jacobian_density(problem, y):
    _, _, _, jac = problem.value_and_derivatives(np.asarray(y, dtype=float))
    return float(np.count_nonzero(jac)) / jac.size if jac.size else 0.0


def warm_up_solver(human, robot):
    """One tiny solve, so lazy imports and first-call costs stay untimed."""
    sc = scenario.make_scenario(heights=(1.0,), human=human, robot=robot)
    problem = ergoopt.assemble_nlp(sc, scenario.build_system(sc),
                                   freeze_hardware=True)
    ergoopt.solve(problem, ergoopt.warm_start_vector(problem),
                  nlpsolver.SolverOptions(max_iter=2))


class Workload:
    """Base of the two solve workloads; ``StaticsEval`` overrides most."""

    name = ""
    budget = 0              # solver iterations per request (0: no solve)
    deck = None             # requests per deck; final_cost uses the first
    violation_tol = np.inf  # largest final constraint violation accepted

    def setup(self):
        raise NotImplementedError

    def prepare(self, state):
        """Untimed input preparation that needs the set-up state."""

    def warm_up(self, state):
        warm_up_solver(state["human"], state["robot"])

    def deck_inputs(self, d):
        raise NotImplementedError

    def inputs(self, state, seed):
        """Deck after deck of fixed inputs, each deck in seeded order.

        The decks do not depend on the seed: at a fixed iteration budget
        the trust-constr path is chaotic in its inputs, and seeded draws
        let final_cost spread by half its median between seeds.
        """
        order = np.random.default_rng(seed)
        for d in itertools.count():
            cells = self.deck_inputs(d)
            for i in order.permutation(len(cells)):
                yield cells[i]

    def options(self):
        return nlpsolver.SolverOptions(max_iter=self.budget)

    def check(self, state, inp, answer, checks):
        return check_solution(answer.problem, answer.value,
                              self.violation_tol, checks)

    def cost(self, state, inp, answer):
        return float(answer.value.cost)

    def violation(self, answer):
        return float(answer.value.constraint_violation)

    def same_output(self, a, b):
        return bool(np.array_equal(a.value.y, b.value.y)
                    and a.value.cost == b.value.cost)

    def jac_density(self, state, answers):
        for a in answers:
            return jacobian_density(a.problem, a.value.y)
        return 0.0


class Codesign(Workload):
    """The paper's problem: four heights, free robot hardware.

    A deck is three warm-start jitters of the same problem.
    """

    name = "codesign"
    budget = 10
    deck = 3
    violation_tol = 0.02  # largest in the seed runs: 3.5e-3

    def setup(self):
        human, robot = default_models()
        sc = scenario.make_scenario(heights=PAPER_HEIGHTS, human=human,
                                    robot=robot)
        system = scenario.build_system(sc)
        problem = ergoopt.assemble_nlp(sc, system)
        return {"human": human, "robot": robot, "scenario": sc,
                "system": system, "problem": problem}

    def deck_inputs(self, d):
        rng = np.random.default_rng([1, d])
        return [{"heights": PAPER_HEIGHTS,
                 "jitter_seed": int(rng.integers(2 ** 31))}
                for _ in range(self.deck)]

    def request(self, state, inp):
        sc = dataclasses.replace(state["scenario"], heights=inp["heights"],
                                 seed=inp["jitter_seed"])
        problem = ergoopt.assemble_nlp(sc, state["system"])
        t0 = time.perf_counter()
        y0 = ergoopt.warm_start_vector(problem)
        sol = ergoopt.solve(problem, y0, self.options())
        return Answer(time.perf_counter() - t0, sol, problem)

    def describe(self, state):
        p = state["problem"]
        return {"heights_m": list(PAPER_HEIGHTS),
                "payload_mass_kg": state["scenario"].payload_mass,
                "decisions": int(p.lb.size), "constraints": int(p.n_cons),
                "hardware": "free", "deck": self.deck,
                "iteration_budget": self.budget}


class PostureSweep(Workload):
    """Single-height solves with frozen hardware over heights and masses.

    A deck holds one draw in each cell of a height x mass grid, so the
    first deck, which final_cost reads, covers the whole input range.
    """

    name = "posture_sweep"
    budget = 15
    height_strata = 4
    mass_strata = 3
    deck = height_strata * mass_strata
    violation_tol = 0.5  # largest in the seed runs: 0.14

    def setup(self):
        human, robot = default_models()
        sc = scenario.make_scenario(heights=(float(np.mean(HEIGHT_RANGE)),),
                                    human=human, robot=robot)
        system = scenario.build_system(sc)
        problem = ergoopt.assemble_nlp(sc, system, freeze_hardware=True)
        return {"human": human, "robot": robot, "problem": problem}

    def deck_inputs(self, d):
        rng = np.random.default_rng([2, d])
        nh, nm = self.height_strata, self.mass_strata
        heights = stratified(rng, *HEIGHT_RANGE, nh * nm).reshape(nh, nm)
        masses = stratified(rng, *MASS_RANGE, nh * nm).reshape(nm, nh).T
        return [{"height": float(heights[i, j]),
                 "payload_mass": float(masses[i, j]),
                 "jitter_seed": int(rng.integers(2 ** 31))}
                for i in range(nh) for j in range(nm)]

    def request(self, state, inp):
        sc = scenario.make_scenario(
            heights=(inp["height"],), human=state["human"],
            robot=state["robot"], payload_mass=inp["payload_mass"],
            seed=inp["jitter_seed"])
        problem = ergoopt.assemble_nlp(sc, scenario.build_system(sc),
                                       freeze_hardware=True)
        t0 = time.perf_counter()
        y0 = ergoopt.warm_start_vector(problem)
        sol = ergoopt.solve(problem, y0, self.options())
        return Answer(time.perf_counter() - t0, sol, problem)

    def describe(self, state):
        p = state["problem"]
        return {"heights_m": list(HEIGHT_RANGE),
                "payload_mass_kg": list(MASS_RANGE),
                "grid": [self.height_strata, self.mass_strata],
                "decisions": int(p.lb.size), "constraints": int(p.n_cons),
                "hardware": "frozen", "deck": self.deck,
                "iteration_budget": self.budget}


class StaticsEval(Workload):
    """Projector-route statics of jittered postures and seeded hardware.

    The base postures are the warm starts at the paper's heights; the
    seed draws the base, the joint jitter and the robot hardware.
    """

    name = "statics_eval"
    joint_jitter = 0.05  # rad, standard deviation

    def setup(self):
        human, robot = default_models()
        sc = scenario.make_scenario(heights=(1.0,), human=human, robot=robot)
        system = scenario.build_system(sc)
        return {"human": human, "robot": robot, "scenario": sc,
                "system": system}

    def prepare(self, state):
        state["bases"] = [
            scenario.warm_start_configuration(state["scenario"],
                                              state["system"], h)
            for h in PAPER_HEIGHTS]

    def warm_up(self, state):
        coupled.evaluate_statics(state["system"], state["bases"][0])

    def inputs(self, state, seed):
        rng = np.random.default_rng([seed, 4])
        system = state["system"]
        robot = robot_of(system)
        lm_lo, lm_hi = robot.bounds.length_multiplier
        rho_lo, rho_hi = robot.bounds.density
        models = system.subsystem_models()
        for n in itertools.count():
            k = int(rng.integers(len(state["bases"])))
            qs = []
            for model, qi in zip(models, state["bases"][k].qs):
                if model.n_joints:
                    lo, hi = model.joint_limits()
                    s = qi.s + rng.normal(size=model.n_joints) \
                        * self.joint_jitter
                    qi = multibody.Configuration(
                        qi.base_pos, qi.base_rot,
                        np.clip(s, lo + 1e-3, hi - 1e-3))
                qs.append(qi)
            values = {g.name: (float(rng.uniform(rho_lo, rho_hi)),
                               float(rng.uniform(lm_lo, lm_hi)))
                      for g in robot.groups}
            yield {"n": n, "base": k,
                   "q": coupled.CoupledConfiguration(tuple(qs)),
                   "params": multibody.group_params(robot, values)}

    def request(self, state, inp):
        t0 = time.perf_counter()
        try:
            res = coupled.evaluate_statics(state["system"], inp["q"],
                                           inp["params"])
        except REFUSALS as exc:
            return Answer(time.perf_counter() - t0, None,
                          refused=type(exc).__name__)
        return Answer(time.perf_counter() - t0, res)

    def check(self, state, inp, answer, checks):
        if answer.refused:
            return answer.refused
        res = answer.value
        check_statics(res, checks, f"base {inp['base']}")
        checks.require("torques_finite", bool(np.all(np.isfinite(res.tau))),
                       "non-finite torque")
        if inp["n"] % MINNORM_EVERY == 0:
            self.check_minnorm(state, inp, res, checks)
        return None

    def check_minnorm(self, state, inp, res, checks):
        """Projector route against the saddle route, as the tests do."""
        tau, f = coupled.statics_minnorm(state["system"], inp["q"],
                                         inp["params"])
        scale = max(float(np.abs(res.tau).max()), 1.0)
        fscale = max(float(np.abs(res.wrenches).max()), 1.0)
        checks.require(
            "minnorm_torques",
            float(np.abs(res.tau - np.asarray(tau)).max())
            <= MINNORM_TAU_TOL * scale, "torques differ from statics_minnorm")
        checks.require(
            "minnorm_wrenches",
            float(np.abs(res.wrenches - np.asarray(f)).max())
            <= MINNORM_F_TOL * fscale, "wrenches differ from statics_minnorm")

    def cost(self, state, inp, answer):
        """Normalised torque task of the analysed posture."""
        w = state["scenario"].weights
        return float(w.torque * fad.sumsq(answer.value.tau) / w.total())

    def same_output(self, a, b):
        if a.refused or b.refused:
            return a.refused == b.refused
        return bool(np.array_equal(a.value.tau, b.value.tau)
                    and np.array_equal(a.value.wrenches, b.value.wrenches))

    def jac_density(self, state, answers):
        return 0.0

    def describe(self, state):
        robot = robot_of(state["system"])
        return {"base_heights_m": list(PAPER_HEIGHTS),
                "payload_mass_kg": state["scenario"].payload_mass,
                "joint_jitter_rad": self.joint_jitter,
                "hardware": {"length_multiplier":
                             list(robot.bounds.length_multiplier),
                             "density": list(robot.bounds.density)},
                "minnorm_check_every": MINNORM_EVERY,
                "iteration_budget": 0}


WORKLOADS = {w.name: w for w in (Codesign(), PostureSweep(), StaticsEval())}
