"""6D spatial algebra for the statics of rigid bodies.

The package analyses bodies at rest, so this module holds what statics
needs: skew matrices and rotations, wrenches, and the 6x6 spatial
inertia with its physical-consistency checks.

Conventions used throughout the package:

* 6D vectors stack the linear part first, angular second:
  velocities are ``[v; w]``, wrenches are ``[force; torque]``.
* The world frame is right handed with z pointing up against gravity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fad

GRAVITY = 9.81  # m/s^2, world -z


def _ro(a, shape=None):
    """Read-only float array (our value types are immutable)."""
    out = np.array(a, dtype=float)
    if shape is not None and out.shape != shape:
        raise ValueError(f"expected shape {shape}, got {out.shape}")
    out.flags.writeable = False
    return out


def skew(v):
    """Matrix S(v) with S(v) @ u == cross(v, u); exactly antisymmetric."""
    if isinstance(v, fad.Dual):
        x, y, z = v[0], v[1], v[2]
        zero = x * 0.0
        return fad.stack([fad.stack([zero, -z, y]),
                          fad.stack([z, zero, -x]),
                          fad.stack([-y, x, zero])])
    x, y, z = v
    return np.array([[0.0, -z, y],
                     [z, 0.0, -x],
                     [-y, x, 0.0]])


def rotation_defect(R):
    """Max of the orthonormality residual and |det - 1|."""
    R = np.asarray(R, dtype=float)
    ortho = np.abs(R.T @ R - np.eye(3)).max()
    return max(ortho, abs(np.linalg.det(R) - 1.0))


def is_rotation(R, tol=1e-9):
    return rotation_defect(R) <= tol


def project_rotation(R):
    """Closest rotation matrix (polar factor via SVD)."""
    U, _, Vt = np.linalg.svd(np.asarray(R, dtype=float))
    out = U @ Vt
    if np.linalg.det(out) < 0:
        out = U @ np.diag([1.0, 1.0, -1.0]) @ Vt
    return out


def ensure_rotation(R, tol=1e-9):
    """Return R, re-projected onto SO(3) if drift exceeds tol."""
    if is_rotation(R, tol):
        return np.asarray(R, dtype=float)
    return project_rotation(R)


def exp_so3(w):
    """Rotation matrix for a rotation vector (Rodrigues)."""
    w = np.asarray(w, dtype=float)
    t = np.linalg.norm(w)
    if t < 1e-12:
        return np.eye(3) + skew(w)
    a = w / t
    K = skew(a)
    return np.eye(3) + np.sin(t) * K + (1.0 - np.cos(t)) * (K @ K)


@dataclass(frozen=True, eq=False)
class Wrench:
    """6D force/torque pair with a tag naming its expression frame."""

    force: np.ndarray
    torque: np.ndarray
    frame: str = ""

    def __post_init__(self):
        object.__setattr__(self, "force", _ro(self.force, (3,)))
        object.__setattr__(self, "torque", _ro(self.torque, (3,)))

    def as_vector(self):
        return np.concatenate([self.force, self.torque])

    @staticmethod
    def from_vector(w, frame=""):
        w = np.asarray(w, dtype=float)
        return Wrench(w[:3], w[3:], frame)


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
    """How far the eigenvalues of a CoM inertia are from lam_i <= lam_j + lam_k.

    Nonpositive means physically realizable by some mass distribution.
    """
    lam = np.sort(np.linalg.eigvalsh(np.asarray(inertia_cm, dtype=float)))
    return float(lam[2] - (lam[0] + lam[1]))


def check_physical_inertia(mass, com, inertia_origin, tol=1e-9):
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
    if lam[0] < -tol * scale:
        raise ValueError("CoM inertia is not positive semidefinite")
    if triangle_inequality_defect(I_cm) > tol * scale:
        raise ValueError("CoM inertia violates the triangle inequalities")

