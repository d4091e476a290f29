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

    def test_one_direction_broadcasts(self, pair):
        a, _ = pair
        one = fad.Dual(np.full(3, 2.0), np.full((1, 3), 3.0))
        for out in (a + one, one * a, a @ one, fad.concatenate([one, a]),
                    fad.stack([a, one]),
                    fad.where(np.array([True, False, True]), one, a)):
            assert out.ndir == 4
        np.testing.assert_array_equal((a + one).dot, np.full((4, 3), 4.0))
