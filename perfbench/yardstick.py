"""Host speed yardstick: fixed multibody-style work sampled during a run.

The development machine shares its two cores with other tenants, and
their load moved the speed of this process by up to 1.7x between runs a
minute apart.  The yardstick below does the kind of work the program
does (interpreted loops over links, 3x3 and 6x6 numpy products, a small
dense solve and an SVD) on a fixed 25-link tree.  It is its own code, so
changes to the program never change it.  It is sampled ten times a
second through the run, inside requests too.  The median sample time
divided by ``REF_S``, raised to ``ELASTICITY``, is the run's slowdown,
and the benchmark divides reported times by it.

Over 32 blocks of six posture_sweep requests, block time divided by
the yardstick's full ratio had a quartile spread of 12% against 21% raw,
about as narrow as with a statics evaluation of the program itself as
the yardstick (11%).
"""

import signal
import statistics
import time

import numpy as np

REF_S = 0.0014  # yardstick seconds at the development machine's usual speed
# Request time moves as slowdown ** ELASTICITY: the log-log slope of raw
# solve_s on the slowdown over 38 runs was 0.44 (posture_sweep), 0.29
# (codesign) and 0.40 (statics_eval).  Dividing by the full slowdown
# over-corrected: two sets of posture_sweep runs whose raw medians were
# 34% apart ended 34% apart the other way.
ELASTICITY = 0.4
N_LINKS = 25


def _skew(v):
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def _rot(axis, angle):
    K = _skew(axis)
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


class Yardstick:
    """Samples the yardstick every PERIOD_S of wall time while active.

    A periodic SIGALRM runs one sample between bytecodes of whatever the
    main thread is doing, so the samples cover the inside of long
    requests too.  ``spent`` accumulates sample time, which callers
    subtract from the intervals they time.
    """

    PERIOD_S = 0.1

    def __init__(self):
        rng = np.random.default_rng(0)
        self.parent = [-1] + [max(0, i - 1 - (i % 3 == 0) * 2)
                              for i in range(1, N_LINKS)]
        self.axis = [np.eye(3)[i % 3] for i in range(N_LINKS)]
        self.offset = [rng.normal(size=3) * 0.2 for _ in range(N_LINKS)]
        self.mass = rng.uniform(0.5, 3.0, size=N_LINKS)
        self.q = rng.uniform(-1.0, 1.0, size=N_LINKS)
        self.samples = []
        self.spent = 0.0
        self._busy = False

    def _work(self):
        n = N_LINKS
        rot, pos = [np.eye(3)], [np.zeros(3)]
        for i in range(1, n):
            p = self.parent[i]
            pos.append(pos[p] + rot[p] @ self.offset[i])
            rot.append(rot[p] @ _rot(self.axis[i], self.q[i]))
        axes = [rot[i] @ self.axis[i] for i in range(n)]
        jac = np.zeros((6, n))
        tip = pos[-1]
        i = n - 1
        while i > 0:
            jac[:3, i] = np.cross(axes[i], tip - pos[i])
            jac[3:, i] = axes[i]
            i = self.parent[i]
        comp = []
        for i in range(n):
            inertia = np.zeros((6, 6))
            inertia[:3, :3] = self.mass[i] * np.eye(3)
            inertia[3:, 3:] = rot[i] @ (0.01 * np.eye(3)) @ rot[i].T
            comp.append(inertia)
        for i in range(n - 1, 0, -1):
            V = np.eye(6)
            V[:3, 3:] = -_skew(pos[i] - pos[self.parent[i]])
            comp[self.parent[i]] = comp[self.parent[i]] + V.T @ comp[i] @ V
        M = np.eye(n) + jac.T @ jac
        for i in range(1, n):
            phi = np.concatenate([np.zeros(3), axes[i]])
            M[i, i] += phi @ comp[i] @ phi
        np.linalg.svd(jac)
        return np.linalg.solve(M, jac.T @ np.ones(6))

    def sample(self, seconds=0.0):
        """Run the workload at least once and for about ``seconds``."""
        start = self.spent
        while True:
            t0 = time.perf_counter()
            self._work()
            dt = time.perf_counter() - t0
            self.samples.append(dt)
            self.spent += dt
            if self.spent - start >= seconds:
                return

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            self.sample()
        finally:
            self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def slowdown(self):
        """Factor to divide this run's times by."""
        return (statistics.median(self.samples) / REF_S) ** ELASTICITY
