"""Unit-quaternion rotations: composition, ZYZ Euler angles, Haar sampling.

Quaternions are stored as (w, x, y, z) with the SU(2) identification
U = w*I - i*(x*sx + y*sy + z*sz), so the quaternion for a rotation by
``angle`` about the unit axis ``n`` is (cos(angle/2), sin(angle/2)*n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_NORM_TOL = 1e-12


def quat_multiply(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product, broadcasting over leading axes; last axis is (w,x,y,z)."""
    w1, x1, y1, z1 = np.moveaxis(p, -1, 0)
    w2, x2, y2, z2 = np.moveaxis(q, -1, 0)
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    out = np.array(q, dtype=float, copy=True)
    out[..., 1:] *= -1.0
    return out


def euler_zyz_from_quaternion(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ZYZ Euler angles (alpha, beta, gamma) of the rotation(s) ``q``.

    Uses U = exp(-i*alpha*sz/2) exp(-i*beta*sy/2) exp(-i*gamma*sz/2) with
    beta in [0, pi].  At the coordinate singularities beta = 0, pi the
    gamma angle is set to 0.
    """
    return _euler_zyz_and_moduli(q)[:3]


def _euler_zyz_and_moduli(q: np.ndarray) -> tuple[np.ndarray, ...]:
    """(alpha, beta, gamma, |(w, z)|, |(x, y)|): the Euler angles and the two moduli
    whose ratio is tan(beta/2), each hypot evaluated once."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    cos_half, sin_half = np.hypot(w, z), np.hypot(x, y)
    beta = 2.0 * np.arctan2(sin_half, cos_half)
    half_sum = np.arctan2(z, w)          # (alpha + gamma)/2
    half_diff = np.arctan2(-x, y)        # (alpha - gamma)/2
    alpha = half_sum + half_diff
    gamma = half_sum - half_diff
    degenerate = np.minimum(sin_half, cos_half) < 1e-15
    if np.ndim(degenerate) == 0:
        if degenerate:
            alpha = 2.0 * np.where(beta < 1.0, half_sum, half_diff)
            gamma = np.zeros_like(gamma)
    else:
        alpha = np.where(degenerate, 2.0 * np.where(beta < 1.0, half_sum, half_diff), alpha)
        gamma = np.where(degenerate, 0.0, gamma)
    return alpha % (2.0 * np.pi), beta, gamma % (2.0 * np.pi), cos_half, sin_half


def su2_from_quaternion(q: np.ndarray) -> np.ndarray:
    """2x2 SU(2) matrix (batched over leading axes) for quaternion(s) ``q``."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = np.moveaxis(q, -1, 0)
    out = np.empty(q.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = w - 1j * z
    out[..., 0, 1] = -y - 1j * x
    out[..., 1, 0] = y - 1j * x
    out[..., 1, 1] = w + 1j * z
    return out


def z_axis(q: np.ndarray) -> np.ndarray:
    """Rotated z-axes n = R_q z, last axis (x, y, z): the axis of U_q R_z(theta) U_q^-1."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.stack([2.0 * (x * z + w * y), 2.0 * (y * z - w * x), 1.0 - 2.0 * (x * x + y * y)],
                    axis=-1)


def rotate_vectors(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """R_q v, batched over leading axes: v + w t + u x t with u = (x, y, z), t = 2 u x v."""
    q = np.asarray(q, dtype=float)
    t = 2.0 * np.cross(q[..., 1:], v)
    return v + q[..., :1] * t + np.cross(q[..., 1:], t)


def rotation_angle(q: np.ndarray) -> np.ndarray:
    """SO(3) rotation angle in [0, pi] of quaternion(s) ``q``."""
    w = np.clip(np.abs(np.asarray(q, dtype=float)[..., 0]), 0.0, 1.0)
    return 2.0 * np.arccos(w)


@dataclass(frozen=True)
class Rotation:
    """An SO(3) element stored as a unit quaternion."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        norm = math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"quaternion norm {norm} deviates from 1 beyond {_NORM_TOL}")

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_quaternion(cls, q, normalize: bool = True) -> "Rotation":
        q = np.asarray(q, dtype=float)
        if normalize:
            q = q / np.linalg.norm(q)
        return cls(*q)

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "Rotation":
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        half = 0.5 * angle
        s = math.sin(half)
        return cls(math.cos(half), s * axis[0], s * axis[1], s * axis[2])

    @classmethod
    def from_euler_zyz(cls, alpha: float, beta: float, gamma: float) -> "Rotation":
        qa = cls.from_axis_angle([0, 0, 1], alpha)
        qb = cls.from_axis_angle([0, 1, 0], beta)
        qc = cls.from_axis_angle([0, 0, 1], gamma)
        return qa @ qb @ qc

    @property
    def quaternion(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    def __matmul__(self, other: "Rotation") -> "Rotation":
        return Rotation.from_quaternion(quat_multiply(self.quaternion, other.quaternion))

    def inverse(self) -> "Rotation":
        return Rotation.from_quaternion(quat_conjugate(self.quaternion), normalize=False)

    def euler_zyz(self) -> tuple[float, float, float]:
        alpha, beta, gamma = euler_zyz_from_quaternion(self.quaternion)
        return float(alpha), float(beta), float(gamma)

    def matrix(self) -> np.ndarray:
        """3x3 orthogonal rotation matrix."""
        w, x, y, z = self.w, self.x, self.y, self.z
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )

    def rotate_vector(self, v) -> np.ndarray:
        return rotate_vectors(self.quaternion, np.asarray(v, dtype=float))

    def axis(self) -> np.ndarray:
        """Rotated z-axis, i.e. the direction this rotation sends (0,0,1) to."""
        return z_axis(self.quaternion)

    def qubit_unitary(self) -> np.ndarray:
        return su2_from_quaternion(self.quaternion)

    def angle(self) -> float:
        return float(rotation_angle(self.quaternion))


def haar_quaternions(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 4) array of Haar-uniform unit quaternions (normalized Gaussians)."""
    q = rng.standard_normal((n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def haar_rotation(rng: np.random.Generator) -> Rotation:
    """One Haar-uniform rotation from the given random stream."""
    return Rotation.from_quaternion(haar_quaternions(rng, 1)[0], normalize=False)


def angle_between_axes(g: Rotation, h: Rotation) -> float:
    """Angle between the rotated z-axes of two rotations."""
    dot = float(np.dot(g.axis(), h.axis()))
    return math.acos(max(-1.0, min(1.0, dot)))
