import operator

import numpy as np
import pytest

from ergolift import fad


class TestWiden:
    def test_rows_placed_and_others_zero(self, rng):
        x = fad.Dual(rng.normal(size=(2, 3)), rng.normal(size=(4, 2, 3)))
        rows = np.array([5, 1, 7, 2])
        w = fad.widen(x, rows, 9)
        assert w.ndir == 9
        np.testing.assert_array_equal(w.val, x.val)
        np.testing.assert_array_equal(w.dot[rows], x.dot)
        others = np.setdiff1d(np.arange(9), rows)
        assert not w.dot[others].any()

    def test_plain_passes_through(self):
        x = np.arange(3.0)
        assert fad.widen(x, [0, 2], 4) is x

    def test_widened_parts_match_one_seeding(self, rng):
        # x seeded with directions 0 and 2, y with 1, then widened to
        # three: the same derivatives as seeding all three at once
        v = rng.normal(size=3)

        def f(x, y):
            return fad.sin(x[:2]) * y + x[:2] @ x[:2]

        ref = fad.seed(v)
        direct = f(fad.concatenate([ref[0:1], ref[2:3]]), ref[1])
        x = fad.seed(v[[0, 2]])
        y = fad.seed(v[1:2])[0]
        split = f(fad.widen(x, [0, 2], 3), fad.widen(y, [1], 3))
        np.testing.assert_array_equal(split.val, direct.val)
        np.testing.assert_array_equal(split.dot, direct.dot)


class TestWidthMismatch:
    """Duals of two widths, neither of them one, refuse to meet."""

    @pytest.fixture
    def pair(self):
        return (fad.Dual(np.ones(3), np.ones((4, 3))),
                fad.Dual(np.ones(3), np.ones((5, 3))))

    @pytest.mark.parametrize("op", [
        operator.add, operator.sub, operator.mul, operator.truediv,
        operator.matmul])
    def test_arithmetic(self, pair, op):
        a, b = pair
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="4 and 5 directions.*widen"):
                op(x, y)

    @pytest.mark.parametrize("combine", [
        lambda a, b: fad.concatenate([a, b]),
        lambda a, b: fad.stack([a, b]),
        lambda a, b: fad.where(np.array([True, False, True]), a, b),
        lambda a, b: fad.assemble((2, 3), [((0,), a), ((1,), b)])],
        ids=["concatenate", "stack", "where", "assemble"])
    def test_structural(self, pair, combine):
        a, b = pair
        with pytest.raises(ValueError, match="4 and 5 directions.*widen"):
            combine(a, b)

    @pytest.mark.parametrize("rule", [
        fad.cross3, lambda a, b: fad.rpy_matrix(a, b, a)],
        ids=["cross3", "rpy_matrix"])
    def test_fused_rules(self, pair, rule):
        a, b = pair
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="4 and 5 directions.*widen"):
                rule(x, y)

    def test_one_direction_broadcasts(self, pair):
        a, _ = pair
        one = fad.Dual(np.full(3, 2.0), np.full((1, 3), 3.0))
        for out in (a + one, one * a, a @ one, fad.concatenate([one, a]),
                    fad.stack([a, one]),
                    fad.where(np.array([True, False, True]), one, a),
                    fad.cross3(one, a), fad.rpy_matrix(a, one, one)):
            assert out.ndir == 4
        np.testing.assert_array_equal((a + one).dot, np.full((4, 3), 4.0))


# The composed Dual rules the fused ones replaced, kept as their
# oracles: the componentwise cross product, Rodrigues' rule from sin, cos
# and Dual arithmetic (the oracle of the plain rule's value), and the
# rpy rotation as Rz @ Ry @ Rx of stacked elementary rotations.


def composed_cross3(a, b):
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return fad.stack([a1 * b2 - a2 * b1,
                      a2 * b0 - a0 * b2,
                      a0 * b1 - a1 * b0], axis=-1)


def composed_rodrigues(s, K, K2):
    return (np.eye(3) + fad.sin(s)[..., None, None] * K
            + (1.0 - fad.cos(s))[..., None, None] * K2)


def _elementary(t, rows):
    c, s = fad.cos(t), fad.sin(t)
    zero = t * 0.0
    one = zero + 1.0
    entries = {"c": c, "s": s, "-s": -s, "0": zero, "1": one}
    return fad.stack([fad.stack([entries[e] for e in row.split()], axis=-1)
                      for row in rows], axis=-2)


def composed_rpy(roll, pitch, yaw):
    rx = _elementary(roll, ["1 0 0", "0 c -s", "0 s c"])
    ry = _elementary(pitch, ["c 0 s", "0 1 0", "-s 0 c"])
    rz = _elementary(yaw, ["c -s 0", "s c 0", "0 0 1"])
    return rz @ ry @ rx


def axis_constants(rng, m):
    """Cross-product matrices K and K^2 of m random unit axes."""
    axes = rng.normal(size=(m, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    K = np.zeros((m, 3, 3))
    K[:, 0, 1], K[:, 0, 2], K[:, 1, 2] = -axes[:, 2], axes[:, 1], -axes[:, 0]
    K -= np.swapaxes(K, -1, -2)
    return K, K @ K


def central_difference(f, args, h=1e-6):
    """Tangents ``(ndir, ...)`` of f at the values of args, by central
    differences along each Dual argument's tangent rows."""
    ndir = max(a.ndir for a in args if isinstance(a, fad.Dual))

    def at(step, k):
        return f(*(a.val + step * np.broadcast_to(
            a.dot, (ndir,) + a.shape)[k] if isinstance(a, fad.Dual) else a
            for a in args))

    return np.stack([(at(h, k) - at(-h, k)) / (2 * h) for k in range(ndir)])


def dual(rng, shape, ndir=4):
    return fad.Dual(rng.normal(size=shape), rng.normal(size=(ndir,) + shape))


# each case: (name, function of rng giving the operands)
CROSS_CASES = {
    "plain_dual": lambda rng: (rng.normal(size=(5, 3)), dual(rng, (5, 3))),
    "dual_plain": lambda rng: (dual(rng, (5, 3)), rng.normal(size=(5, 3))),
    "dual_dual": lambda rng: (dual(rng, (5, 3)), dual(rng, (5, 3))),
    "broadcast": lambda rng: (dual(rng, (2, 1, 4, 3)), dual(rng, (5, 1, 3))),
    "one_direction": lambda rng: (dual(rng, (5, 3), ndir=1),
                                  dual(rng, (5, 3))),
}


class TestCross3:
    @pytest.mark.parametrize("case", sorted(CROSS_CASES))
    def test_equals_componentwise_rule(self, case, rng):
        a, b = CROSS_CASES[case](rng)
        got, want = fad.cross3(a, b), composed_cross3(a, b)
        np.testing.assert_array_equal(got.val, want.val)
        np.testing.assert_array_equal(got.dot, want.dot)

    @pytest.mark.parametrize("case", sorted(CROSS_CASES))
    def test_tangent_matches_central_differences(self, case, rng):
        a, b = CROSS_CASES[case](rng)
        fd = central_difference(fad.cross3, (a, b))
        np.testing.assert_allclose(fad.cross3(a, b).dot, fd, atol=1e-8)

    def test_plain(self, rng):
        a, b = rng.normal(size=(2, 4, 3))
        got = fad.cross3(a, b)
        assert not isinstance(got, fad.Dual)
        np.testing.assert_array_equal(got, composed_cross3(a, b))
        np.testing.assert_allclose(got, np.cross(a, b), atol=1e-15)


RODRIGUES_CASES = {
    "stack": lambda rng: dual(rng, (5,)),
    "broadcast": lambda rng: dual(rng, (2, 3, 5)),
    "one_direction": lambda rng: dual(rng, (3, 5), ndir=1),
}


class TestRodrigues:
    """The rule is plain: joint rotation tangents come from the links'
    twists, so a Dual angle is refused."""

    @pytest.mark.parametrize("case", sorted(RODRIGUES_CASES))
    def test_equals_composed_rule(self, case, rng):
        # on a Dual's angles, the value of the composed Dual rule
        s = RODRIGUES_CASES[case](rng)
        K, K2 = axis_constants(rng, 5)
        np.testing.assert_array_equal(fad.rodrigues(s.val, K, K2),
                                      composed_rodrigues(s, K, K2).val)

    def test_refuses_dual(self, rng):
        K, K2 = axis_constants(rng, 5)
        with pytest.raises(TypeError, match="plain angles"):
            fad.rodrigues(dual(rng, (5,)), K, K2)

    def test_plain_is_a_rotation(self, rng):
        K, K2 = axis_constants(rng, 5)
        s = rng.normal(size=(2, 5))
        R = fad.rodrigues(s, K, K2)
        np.testing.assert_array_equal(R, composed_rodrigues(s, K, K2))
        np.testing.assert_allclose(R @ np.swapaxes(R, -1, -2),
                                   np.broadcast_to(np.eye(3), R.shape),
                                   atol=1e-15)


RPY_CASES = {
    "plain_dual_plain": lambda rng: (rng.normal(size=4), dual(rng, (4,)),
                                     rng.normal(size=4)),
    "dual_plain_dual": lambda rng: (dual(rng, (4,)), rng.normal(size=4),
                                    dual(rng, (4,))),
    "dual_dual_dual": lambda rng: (dual(rng, (4,)), dual(rng, (4,)),
                                   dual(rng, (4,))),
    "broadcast": lambda rng: (dual(rng, (2, 4)), dual(rng, (4,)),
                              rng.normal(size=(3, 1, 1))),
    "one_direction": lambda rng: (dual(rng, (4,), ndir=1), dual(rng, (4,)),
                                  dual(rng, (4,), ndir=1)),
}


class TestRpyMatrix:
    @pytest.mark.parametrize("case", sorted(RPY_CASES))
    def test_agrees_with_composed_rotations(self, case, rng):
        angles = RPY_CASES[case](rng)
        got, want = fad.rpy_matrix(*angles), composed_rpy(*angles)
        assert got.shape == want.shape
        np.testing.assert_allclose(got.val, want.val, rtol=0, atol=1e-15)
        np.testing.assert_allclose(got.dot, want.dot, rtol=0,
                                   atol=1e-15 * np.abs(want.dot).max())

    @pytest.mark.parametrize("case", sorted(RPY_CASES))
    def test_tangent_matches_central_differences(self, case, rng):
        angles = RPY_CASES[case](rng)
        fd = central_difference(fad.rpy_matrix, angles)
        np.testing.assert_allclose(fad.rpy_matrix(*angles).dot, fd,
                                   atol=1e-8)

    def test_plain(self, rng):
        angles = rng.normal(size=(3, 6))
        R = fad.rpy_matrix(*angles)
        assert not isinstance(R, fad.Dual)
        np.testing.assert_allclose(R, composed_rpy(*angles), rtol=0,
                                   atol=1e-15)
        np.testing.assert_allclose(R @ np.swapaxes(R, -1, -2),
                                   np.broadcast_to(np.eye(3), R.shape),
                                   atol=1e-15)
