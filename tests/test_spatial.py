import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ergolift.spatial import (assemble_spatial_inertia, check_physical_inertia,
                              ensure_rotation, exp_so3, is_rotation,
                              project_rotation, skew,
                              triangle_inequality_defect)

finite_vec = st.lists(st.floats(-10, 10), min_size=3, max_size=3).map(np.array)


def random_rotation(rng):
    return ensure_rotation(exp_so3(rng.normal(size=3)))


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


class TestRotationRepair:
    def test_project_restores_orthonormality(self, rng):
        R = random_rotation(rng)
        drifted = R + 1e-6 * rng.normal(size=(3, 3))
        repaired = project_rotation(drifted)
        assert is_rotation(repaired, 1e-12)
        assert np.abs(repaired - R).max() < 1e-5

    def test_ensure_rotation_passthrough(self, rng):
        R = random_rotation(rng)
        assert ensure_rotation(R) is not None
        np.testing.assert_allclose(ensure_rotation(R), R, atol=1e-12)
