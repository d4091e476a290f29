"""Link geometry primitives and their hardware-parametrized inertia.

Each link is a sphere, cylinder or box of uniform density.  Two hardware
parameters control it: the density ``rho`` and a dimensionless length
multiplier ``l_m`` that scales the primitive along its growth direction
(the radius for a sphere, the height for a cylinder, the depth for a
box).

Link frame convention: the frame origin sits at the proximal end of the
primitive along the growth axis, with z pointing along that axis.  The
sphere's proximal end is its tangent point, so its centroid sits at
``r * l_m`` above the origin; cylinders and boxes extend from z = 0 to
their scaled length.

Values are checked once, where they are built: each primitive rejects a
nonpositive dimension and ``LinkHardware`` a nonpositive concrete
density or multiplier, so the closed forms below take them as valid.

``voxel_inertia_oracle`` integrates the same quantities on a uniform
grid and is the test-side ground truth for the closed forms.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Union

import numpy as np

from . import fad
from .spatial import skew

# the growth axis, along which every centroid sits
_E3 = np.array([0.0, 0.0, 1.0])
_E3.flags.writeable = False


class _Primitive:
    """Base of the primitives: every dimension must be positive."""

    def __post_init__(self):
        if any(d <= 0 for d in astuple(self)):
            raise ValueError(
                f"{type(self).__name__.lower()} dimensions must be positive")


@dataclass(frozen=True)
class Sphere(_Primitive):
    radius: float


@dataclass(frozen=True)
class Cylinder(_Primitive):
    radius: float
    height: float


@dataclass(frozen=True)
class Box(_Primitive):
    width: float
    height: float
    depth: float


Shape = Union[Sphere, Cylinder, Box]


def _is_concrete(x) -> bool:
    return not isinstance(x, fad.Dual)


@dataclass(frozen=True, slots=True)
class LinkHardware:
    """Per-link hardware parameters: density (kg/m^3), length multiplier."""

    density: float
    length_multiplier: float = 1.0

    def __post_init__(self):
        if _is_concrete(self.density) and self.density <= 0:
            raise ValueError("density must be positive")
        lm = self.length_multiplier
        if _is_concrete(lm) and lm <= 0:
            raise ValueError("length multiplier must be positive")


@dataclass(frozen=True, eq=False)
class LinkInertialSummary:
    """Mass, centroid (link frame) and inertia about the centroid."""

    mass: float
    com: np.ndarray
    inertia_cm: np.ndarray


def shape_mass(shape: Shape, hw: LinkHardware):
    """Mass of the scaled primitive at uniform density."""
    rho, lm = hw.density, hw.length_multiplier
    if isinstance(shape, Sphere):
        return (4.0 / 3.0) * np.pi * (shape.radius * lm) ** 3 * rho
    if isinstance(shape, Cylinder):
        return np.pi * shape.radius ** 2 * (shape.height * lm) * rho
    return shape.width * shape.height * (shape.depth * lm) * rho


def shape_com(shape: Shape, hw: LinkHardware):
    """Centroid in the link frame (origin at the proximal end)."""
    lm = hw.length_multiplier
    if isinstance(shape, Sphere):
        zc = shape.radius * lm
    elif isinstance(shape, Cylinder):
        zc = 0.5 * shape.height * lm
    else:
        zc = 0.5 * shape.depth * lm
    return zc * _E3


def shape_inertia_cm(shape: Shape, hw: LinkHardware, m):
    """Rotational inertia about the centroid, in the shape's principal axes.

    ``m`` is the shape's mass, which callers have already derived.
    """
    lm = hw.length_multiplier
    if isinstance(shape, Sphere):
        d = 0.4 * (shape.radius * lm) ** 2
        dx = dy = dz = d
    elif isinstance(shape, Cylinder):
        dx = dy = (3.0 * shape.radius ** 2 + (shape.height * lm) ** 2) / 12.0
        dz = 0.5 * shape.radius ** 2
    else:
        dx = (shape.height ** 2 + (shape.depth * lm) ** 2) / 12.0
        dy = (shape.width ** 2 + (shape.depth * lm) ** 2) / 12.0
        dz = (shape.width ** 2 + shape.height ** 2) / 12.0
    zero = m * 0.0
    return fad.stack([fad.stack([m * dx, zero, zero]),
                      fad.stack([zero, m * dy, zero]),
                      fad.stack([zero, zero, m * dz])])


def parallel_axis(I_cm, m, c):
    """Shift the inertia about the CoM ``c`` of mass ``m`` to the origin."""
    Sc = skew(c)
    return I_cm - m * (Sc @ Sc)


def shape_inertia_origin(shape: Shape, hw: LinkHardware):
    """Rotational inertia about the link frame origin (parallel axis)."""
    m = shape_mass(shape, hw)
    return parallel_axis(shape_inertia_cm(shape, hw, m), m,
                         shape_com(shape, hw))


# ---------------------------------------------------------------------------
# volumetric oracle


def _grid_axis(lo, hi, n):
    step = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * step, step


def _voxel_integrals(shape: Shape, density: float, multiplier: float,
                     resolution: int):
    """Midpoint-rule volume integrals of mass, first moment and second
    moments over the scaled primitive.  Accepts zero density."""
    if multiplier <= 0:
        raise ValueError("length multiplier must be positive")
    n = int(resolution)
    if isinstance(shape, Sphere):
        R = shape.radius * multiplier
        xs, dx = _grid_axis(-R, R, n)
        ys, dy = _grid_axis(-R, R, n)
        zs, dz = _grid_axis(0.0, 2.0 * R, n)
        inside = (xs[:, None, None] ** 2 + ys[None, :, None] ** 2
                  + (zs[None, None, :] - R) ** 2) <= R * R
    elif isinstance(shape, Cylinder):
        r, H = shape.radius, shape.height * multiplier
        xs, dx = _grid_axis(-r, r, n)
        ys, dy = _grid_axis(-r, r, n)
        zs, dz = _grid_axis(0.0, H, n)
        disc = (xs[:, None] ** 2 + ys[None, :] ** 2) <= r * r
        inside = np.broadcast_to(disc[:, :, None], (n, n, n))
    else:
        w, h, D = shape.width, shape.height, shape.depth * multiplier
        xs, dx = _grid_axis(-0.5 * w, 0.5 * w, n)
        ys, dy = _grid_axis(-0.5 * h, 0.5 * h, n)
        zs, dz = _grid_axis(0.0, D, n)
        inside = np.ones((n, n, n), dtype=bool)

    dV = dx * dy * dz
    cnt_xy = inside.sum(axis=2, dtype=np.int64)
    cnt_xz = inside.sum(axis=1, dtype=np.int64)
    cnt_yz = inside.sum(axis=0, dtype=np.int64)
    cnt_x = cnt_xy.sum(axis=1)
    cnt_y = cnt_xy.sum(axis=0)
    cnt_z = cnt_xz.sum(axis=0)
    count = cnt_x.sum()

    mass = density * dV * count
    first = density * dV * np.array(
        [xs @ cnt_x, ys @ cnt_y, zs @ cnt_z])
    sx2 = xs ** 2 @ cnt_x
    sy2 = ys ** 2 @ cnt_y
    sz2 = zs ** 2 @ cnt_z
    sxy = xs @ cnt_xy @ ys
    sxz = xs @ cnt_xz @ zs
    syz = ys @ cnt_yz @ zs
    # I_origin = rho * integral(|r|^2 1 - r r^T)
    second = density * dV * np.array([
        [sy2 + sz2, -sxy, -sxz],
        [-sxy, sx2 + sz2, -syz],
        [-sxz, -syz, sx2 + sy2],
    ])
    return mass, first, second


def voxel_inertia_oracle(shape: Shape, hw: LinkHardware,
                         resolution: int) -> LinkInertialSummary:
    """Numerically integrated mass/centroid/CoM-inertia of a scaled link.

    Converges to the closed forms as the grid resolution grows; used as
    the independent check of the analytic parametrization.
    """
    if resolution < 16:
        raise ValueError("resolution must be at least 16")
    mass, first, I_origin = _voxel_integrals(
        shape, hw.density, hw.length_multiplier, resolution)
    com = first / mass
    Sc = skew(com)
    I_cm = I_origin + mass * (Sc @ Sc)
    return LinkInertialSummary(mass=float(mass), com=com, inertia_cm=I_cm)
