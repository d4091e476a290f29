import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from ergolift import fad
from ergolift.spatial import (assemble_spatial_inertia, check_physical_inertia,
                              exp_so3, skew, triangle_inequality_defect)

finite_vec = st.lists(st.floats(-10, 10), min_size=3, max_size=3).map(np.array)


class TestSkew:
    def test_canonical_cross(self):
        out = skew(np.array([1.0, 0, 0])) @ np.array([0.0, 1, 0])
        np.testing.assert_array_equal(out, [0.0, 0, 1])

    def test_zero(self):
        np.testing.assert_array_equal(skew(np.zeros(3)), np.zeros((3, 3)))

    def test_self_annihilation(self):
        v = np.array([0.3, -1.2, 2.0])
        np.testing.assert_allclose(skew(v) @ v, np.zeros(3), atol=1e-15)

    def test_exact_antisymmetry(self):
        v = np.array([0.1234567, -9.87, 3.3e-7])
        S = skew(v)
        assert np.array_equal(S, -S.T)

    @given(v=finite_vec, u=finite_vec)
    def test_matches_cross(self, v, u):
        np.testing.assert_allclose(skew(v) @ u, np.cross(v, u), atol=1e-12)

    def test_entries_are_the_components(self):
        x, y, z = 0.1234567, -9.87, 3.3e-7
        np.testing.assert_array_equal(
            skew(np.array([x, y, z])),
            [[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])

    def test_stacked_and_dual_rows(self, rng):
        V = rng.normal(size=(2, 4, 3))
        S = skew(V)
        assert S.shape == (2, 4, 3, 3)
        T = rng.normal(size=(5, 2, 4, 3))
        D = skew(fad.Dual(V, T))
        np.testing.assert_array_equal(D.val, S)
        for i in range(2):
            for j in range(4):
                np.testing.assert_array_equal(S[i, j], skew(V[i, j]))
                for d in range(5):
                    np.testing.assert_array_equal(
                        D.dot[d, i, j], skew(T[d, i, j]))


class TestSpatialInertia:
    def test_massless(self):
        M = assemble_spatial_inertia(0.0, np.zeros(3), np.zeros((3, 3)))
        np.testing.assert_array_equal(M, np.zeros((6, 6)))

    def test_centered_unit_body(self):
        M = assemble_spatial_inertia(1.0, np.zeros(3), np.eye(3))
        np.testing.assert_array_equal(M, np.eye(6))

    def test_offdiagonal_blocks(self):
        c = np.array([0.1, 0.0, 0.0])
        I = np.diag([0.2, 0.3, 0.4])
        M = assemble_spatial_inertia(2.0, c, I)
        np.testing.assert_array_equal(M[:3, 3:], -2.0 * skew(c))
        np.testing.assert_array_equal(M[3:, :3], 2.0 * skew(c))

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            assemble_spatial_inertia(-1.0, np.zeros(3), np.eye(3))

    def test_symmetry(self, rng):
        for _ in range(10):
            c = rng.normal(size=3)
            A = rng.normal(size=(3, 3))
            I = A @ A.T
            M = assemble_spatial_inertia(rng.uniform(0.1, 5), c, I)
            assert np.abs(M - M.T).max() <= 1e-12

    def test_quadratic_form_nonnegative(self, rng):
        # physically consistent body: CoM inertia of a box, shifted
        for _ in range(20):
            m = rng.uniform(0.1, 10)
            dims = rng.uniform(0.05, 1.0, size=3)
            I_cm = m / 12.0 * np.diag([dims[1]**2 + dims[2]**2,
                                       dims[0]**2 + dims[2]**2,
                                       dims[0]**2 + dims[1]**2])
            c = rng.normal(size=3)
            Sc = skew(c)
            I_origin = I_cm - m * (Sc @ Sc)
            M = assemble_spatial_inertia(m, c, I_origin)
            v = rng.normal(size=6)
            assert v @ M @ v >= -1e-10

    def test_check_physical_inertia(self):
        check_physical_inertia(1.0, np.zeros(3), (2.0 / 5.0) * np.eye(3))
        # a rod-like inertia violating the triangle inequality
        with pytest.raises(ValueError):
            check_physical_inertia(1.0, np.zeros(3),
                                   np.diag([1.0, 0.1, 0.1]))

    def test_triangle_defect_sign(self):
        assert triangle_inequality_defect(np.eye(3)) < 0
        assert triangle_inequality_defect(np.diag([1.0, 0.2, 0.2])) > 0


class TestExpSO3:
    def test_stacked_rotations(self, rng):
        w = rng.normal(size=(4, 5, 3)) * 2.0
        R = exp_so3(w)
        ref = Rotation.from_rotvec(w.reshape(-1, 3)).as_matrix()
        np.testing.assert_allclose(R.reshape(-1, 3, 3), ref, rtol=0,
                                   atol=1e-14)
        np.testing.assert_allclose(np.swapaxes(R, -1, -2) @ R,
                                   np.broadcast_to(np.eye(3), R.shape),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(np.linalg.det(R), 1.0, rtol=0, atol=1e-14)

    def test_small_angle_is_first_order(self):
        w = np.array([[1e-13, -2e-13, 0.0], [0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(exp_so3(w), np.eye(3) + skew(w))
