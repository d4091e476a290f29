import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ergolift import fad
from ergolift.shapes import (Box, Cylinder, LinkHardware, Sphere,
                             _voxel_integrals, shape_com, shape_inertia_cm,
                             shape_inertia_origin, shape_mass,
                             voxel_inertia_oracle)
from ergolift.spatial import (assemble_spatial_inertia,
                              triangle_inequality_defect)

densities = st.floats(100.0, 8000.0)
multipliers = st.floats(0.5, 2.0)


def random_shape(rng):
    k = rng.integers(3)
    if k == 0:
        return Sphere(rng.uniform(0.02, 0.3))
    if k == 1:
        return Cylinder(rng.uniform(0.02, 0.2), rng.uniform(0.05, 0.6))
    return Box(rng.uniform(0.02, 0.4), rng.uniform(0.02, 0.4),
               rng.uniform(0.02, 0.4))


class TestMass:
    def test_sphere_frozen_value(self):
        m = shape_mass(Sphere(0.1), LinkHardware(1000.0))
        assert m == pytest.approx(4.18879, abs=1e-4)

    def test_identity_multiplier_is_nominal(self, rng):
        for _ in range(20):
            s = random_shape(rng)
            rho = rng.uniform(100, 8000)
            nominal = shape_mass(s, LinkHardware(rho, 1.0))
            assert shape_mass(s, LinkHardware(rho)) == nominal

    def test_box_frozen_value(self):
        m = shape_mass(Box(0.1, 0.1, 0.2), LinkHardware(500.0, 1.5))
        assert m == pytest.approx(1.5, rel=1e-12)

    def test_rejects_nonpositive(self):
        # every value is checked where it is built
        for bad in (lambda: Sphere(0.0), lambda: Cylinder(0.1, -0.2),
                    lambda: Box(0.1, 0.1, 0.0), lambda: Box(0.1, -0.1, 0.2),
                    lambda: LinkHardware(-1.0),
                    lambda: LinkHardware(1000.0, 0.0)):
            with pytest.raises(ValueError):
                bad()


class TestInertia:
    def test_unit_sphere(self):
        # rho chosen so the sphere has unit mass
        hw = LinkHardware(3.0 / (4.0 * np.pi))
        s = Sphere(1.0)
        I = shape_inertia_cm(s, hw, shape_mass(s, hw))
        np.testing.assert_allclose(I, 0.4 * np.eye(3), atol=1e-12)

    def test_cylinder_disc_limit(self):
        s = Cylinder(0.2, 1e-9)
        hw = LinkHardware(1000.0)
        m = shape_mass(s, hw)
        I = shape_inertia_cm(s, hw, m)
        assert I[2, 2] == pytest.approx(m * 0.2**2 / 2.0, rel=1e-12)
        assert I[0, 0] == pytest.approx(m * 3 * 0.2**2 / 12.0, rel=1e-6)

    def test_cube_frozen_value(self):
        s = Box(0.2, 0.2, 0.2)
        hw = LinkHardware(1000.0)
        assert shape_mass(s, hw) == pytest.approx(8.0, rel=1e-12)
        I = shape_inertia_cm(s, hw, shape_mass(s, hw))
        np.testing.assert_allclose(np.diag(I), 8.0 * 0.08 / 12.0, rtol=1e-12)

    @given(rho=densities, lm=multipliers)
    def test_triangle_inequalities(self, rho, lm):
        hw = LinkHardware(rho, lm)
        for s in (Sphere(0.11), Cylinder(0.05, 0.4), Box(0.1, 0.2, 0.3)):
            I = shape_inertia_cm(s, hw, shape_mass(s, hw))
            assert triangle_inequality_defect(np.asarray(I)) <= 1e-12


class TestCom:
    def test_sphere_centroid_above_proximal_point(self):
        c = shape_com(Sphere(0.1), LinkHardware(1000.0, 1.3))
        np.testing.assert_allclose(c, [0, 0, 0.13], atol=1e-15)

    def test_box_lateral_symmetry(self):
        c = shape_com(Box(0.1, 0.3, 0.2), LinkHardware(700.0))
        assert c[0] == 0.0 and c[1] == 0.0

    def test_cylinder_half_height(self):
        c = shape_com(Cylinder(0.05, 0.4), LinkHardware(1000.0, 2.0))
        assert c[2] == pytest.approx(0.4, rel=1e-12)

    @pytest.mark.parametrize("shape", [Sphere(0.1), Cylinder(0.05, 0.4),
                                       Box(0.1, 0.3, 0.2)])
    def test_matches_component_stack(self, shape):
        # the centroid on the growth axis equals its components stacked,
        # values and tangents bit for bit, the signs of zeros included
        seeds = np.array([[1.0, 0.0], [-0.5, 1.0], [0.0, -2.0]])
        for hw in (LinkHardware(1000.0, 1.3),
                   LinkHardware(fad.Dual(1000.0, seeds[:, 0]),
                                fad.Dual(1.3, seeds[:, 1]))):
            c = shape_com(shape, hw)
            zc = c[2]
            ref = fad.stack([zc * 0.0, zc * 0.0, zc])
            assert type(c) is type(ref)
            pairs = [(fad.value(c), fad.value(ref))]
            if isinstance(c, fad.Dual):
                pairs.append((c.dot, ref.dot))
            for a, b in pairs:
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @given(rho1=densities, rho2=densities, lm=multipliers)
    def test_density_invariance(self, rho1, rho2, lm):
        s = Cylinder(0.07, 0.33)
        c1 = shape_com(s, LinkHardware(rho1, lm))
        c2 = shape_com(s, LinkHardware(rho2, lm))
        np.testing.assert_array_equal(c1, c2)


class TestScalingLaws:
    @given(rho=densities, k=st.floats(1.1, 4.0))
    def test_mass_linear_in_density(self, rho, k):
        s = Box(0.1, 0.15, 0.2)
        m1 = shape_mass(s, LinkHardware(rho))
        m2 = shape_mass(s, LinkHardware(k * rho))
        assert m2 == pytest.approx(k * m1, rel=1e-12)

    @given(lm=multipliers, k=st.floats(1.1, 2.0))
    def test_multiplier_polynomial_orders(self, lm, k):
        rho = 1200.0
        sph, cyl, box = Sphere(0.1), Cylinder(0.05, 0.3), Box(0.1, 0.1, 0.2)
        assert shape_mass(sph, LinkHardware(rho, k * lm)) == pytest.approx(
            k**3 * shape_mass(sph, LinkHardware(rho, lm)), rel=1e-12)
        assert shape_mass(cyl, LinkHardware(rho, k * lm)) == pytest.approx(
            k * shape_mass(cyl, LinkHardware(rho, lm)), rel=1e-12)
        assert shape_mass(box, LinkHardware(rho, k * lm)) == pytest.approx(
            k * shape_mass(box, LinkHardware(rho, lm)), rel=1e-12)


class TestVoxelOracle:
    def test_sphere_mass_at_256(self):
        ref = voxel_inertia_oracle(Sphere(0.1), LinkHardware(1000.0), 256)
        assert ref.mass == pytest.approx(4.18879, rel=1e-3)

    def test_zero_density_gives_zero(self):
        m, first, I = _voxel_integrals(Sphere(0.1), 0.0, 1.0, 32)
        assert m == 0.0
        np.testing.assert_array_equal(first, np.zeros(3))
        np.testing.assert_array_equal(I, np.zeros((3, 3)))

    def test_density_linearity(self):
        a = voxel_inertia_oracle(Cylinder(0.06, 0.3), LinkHardware(900.0), 64)
        b = voxel_inertia_oracle(Cylinder(0.06, 0.3), LinkHardware(1800.0), 64)
        assert b.mass == pytest.approx(2 * a.mass, rel=1e-12)
        np.testing.assert_allclose(b.inertia_cm, 2 * a.inertia_cm, rtol=1e-9)
        np.testing.assert_allclose(b.com, a.com, atol=1e-12)

    def test_rejects_low_resolution(self):
        with pytest.raises(ValueError):
            voxel_inertia_oracle(Sphere(0.1), LinkHardware(1000.0), 8)

    def test_closed_forms_match_oracle(self, rng):
        # spot check at moderate resolution; the acceptance suite runs the
        # full 50-sample sweep at 256
        for _ in range(6):
            s = random_shape(rng)
            hw = LinkHardware(rng.uniform(100, 8000), rng.uniform(0.5, 2.0))
            ref = voxel_inertia_oracle(s, hw, 256)
            m = shape_mass(s, hw)
            c = np.asarray(shape_com(s, hw))
            I = np.asarray(shape_inertia_cm(s, hw, m))
            assert ref.mass == pytest.approx(m, rel=1e-3)
            np.testing.assert_allclose(ref.com, c,
                                       atol=1e-2 * max(c.max(), 0.01))
            assert np.abs(ref.inertia_cm - I).max() <= 1e-2 * np.abs(I).max()


class TestSpatialInertiaView:
    def test_parallel_axis_consistency(self):
        # parallel axis: I_origin = I_cm + m (|c|^2 1 - c c^T)
        s = Cylinder(0.05, 0.4)
        hw = LinkHardware(2000.0, 1.2)
        m = shape_mass(s, hw)
        c = np.asarray(shape_com(s, hw))
        shift = m * (c @ c * np.eye(3) - np.outer(c, c))
        np.testing.assert_allclose(shape_inertia_origin(s, hw),
                                   np.asarray(shape_inertia_cm(s, hw, m))
                                   + shift,
                                   rtol=1e-12, atol=1e-15)
        # the 6x6 assembled from them is symmetric
        M = assemble_spatial_inertia(m, c, shape_inertia_origin(s, hw))
        assert np.abs(M - M.T).max() <= 1e-12

    def test_origin_inertia_exceeds_com_inertia(self):
        s = Box(0.1, 0.1, 0.5)
        hw = LinkHardware(1500.0)
        I_cm = np.asarray(shape_inertia_cm(s, hw, shape_mass(s, hw)))
        I_0 = np.asarray(shape_inertia_origin(s, hw))
        # moving the reference away from the CoM cannot reduce lateral inertia
        assert I_0[0, 0] > I_cm[0, 0]
        assert I_0[2, 2] == pytest.approx(I_cm[2, 2], rel=1e-12)
