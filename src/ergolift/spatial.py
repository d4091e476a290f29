"""6D spatial algebra for the statics of rigid bodies.

The package analyses bodies at rest, so this module holds what statics
needs: skew matrices and rotations, and the 6x6 spatial inertia with
its physical-consistency checks.  Wrenches are plain ``(..., 6)``
arrays, ``[force; torque]``.

Conventions used throughout the package:

* 6D vectors stack the linear part first, angular second:
  velocities are ``[v; w]``, wrenches are ``[force; torque]``.
* The world frame is right handed with z pointing up against gravity.
"""

from __future__ import annotations

import numpy as np

from . import fad

GRAVITY = 9.81  # m/s^2, world -z


# S(e_x), S(e_y), S(e_z) flattened: S(v) = sum_k v[k] S(e_k) is one
# product, for plain and Dual vectors and for stacks of them
_SKEW_BASIS = np.array([[[0, 0, 0], [0, 0, -1], [0, 1, 0]],
                        [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
                        [[0, -1, 0], [1, 0, 0], [0, 0, 0]]],
                       dtype=float).reshape(3, 9)


def skew(v):
    """Matrix S(v) with S(v) @ u == cross(v, u); exactly antisymmetric.

    Vectors ``(..., 3)``, plain or ``Dual``, give matrices ``(..., 3, 3)``.
    """
    if not isinstance(v, fad.Dual):
        v = np.asarray(v, dtype=float)
    return (v @ _SKEW_BASIS).reshape(v.shape[:-1] + (3, 3))


def exp_so3(w):
    """Rotation matrices ``(..., 3, 3)`` of rotation vectors ``(..., 3)``.

    Rodrigues' formula; below an angle of 1e-12 the first-order
    ``1 + S(w)``.
    """
    w = np.asarray(w, dtype=float)
    # the angle as a (..., 1, 1) dot product, which rounds like a norm
    t = np.sqrt(w[..., None, :] @ w[..., :, None])
    small = t < 1e-12
    K = skew(w / np.where(small, 1.0, t)[..., 0])
    out = np.eye(3) + np.sin(t) * K + (1.0 - np.cos(t)) * (K @ K)
    if small.any():
        out = np.where(small, np.eye(3) + skew(w), out)
    return out


def assemble_spatial_inertia(mass, com, inertia):
    """6x6 inertia [[m 1, -m S(c)], [m S(c), I]] about the body frame origin.

    ``inertia`` is the rotational inertia about the body frame origin,
    expressed in body axes.  Negative mass is rejected.
    """
    if isinstance(mass, (int, float)) and mass < 0:
        raise ValueError("mass must be nonnegative")
    Sc = skew(np.asarray(com, dtype=float))
    out = np.zeros((6, 6))
    out[:3, :3] = mass * np.eye(3)
    out[:3, 3:] = -mass * Sc
    out[3:, :3] = mass * Sc
    out[3:, 3:] = np.asarray(inertia, dtype=float)
    return out


def triangle_inequality_defect(inertia_cm):
    """How far a CoM inertia's eigenvalues are from lam_i <= lam_j + lam_k.

    Nonpositive means physically realizable by some mass distribution.
    """
    lam = np.sort(np.linalg.eigvalsh(np.asarray(inertia_cm, dtype=float)))
    return float(lam[2] - (lam[0] + lam[1]))


# check_physical_inertia's tolerance, relative to the largest eigenvalue
INERTIA_TOL = 1e-9


def check_physical_inertia(mass, com, inertia_origin):
    """Validate a positive-mass body: symmetric PSD CoM inertia obeying the
    eigenvalue triangle inequalities."""
    I = np.asarray(inertia_origin, dtype=float)
    if np.abs(I - I.T).max() > 1e-12 * max(1.0, np.abs(I).max()):
        raise ValueError("rotational inertia must be symmetric")
    if mass <= 0:
        raise ValueError("check_physical_inertia requires positive mass")
    Sc = skew(np.asarray(com, dtype=float))
    I_cm = I + mass * (Sc @ Sc)
    lam = np.linalg.eigvalsh(I_cm)
    scale = max(1.0, float(np.abs(lam).max()))
    if lam[0] < -INERTIA_TOL * scale:
        raise ValueError("CoM inertia is not positive semidefinite")
    if triangle_inequality_defect(I_cm) > INERTIA_TOL * scale:
        raise ValueError("CoM inertia violates the triangle inequalities")

