"""Unit-quaternion rotations: the phase e^(i alpha), rotated axes, Haar sampling.

A rotation is a (..., 4) float array, one unit quaternion (w, x, y, z) per
row, with the SU(2) identification U = w*I - i*(x*sx + y*sy + z*sz), so the
quaternion for a rotation by ``angle`` about the unit axis ``n`` is
(cos(angle/2), sin(angle/2)*n).  The samplers never compose two rotations or take
Euler angles: they read what they need off the quaternion (``z_axis``, ``rotate_vectors``).
"""

from __future__ import annotations

from ._numpy import np


def _alpha_phase_and_moduli(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(omega, |(w, z)|, |(x, y)|): omega = e^(i alpha) of the ZYZ angle alpha, read off the
    quaternion as (y - ix)(w + iz) / (|(x, y)| |(w, z)|) with no Euler angle, and 1 where
    either modulus is below 1e-15 (beta = 0 or pi, where alpha is a convention)."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    cos_half, sin_half = np.hypot(w, z), np.hypot(x, y)
    degenerate = np.minimum(sin_half, cos_half) < 1e-15
    omega = (y - 1j * x) * (w + 1j * z) / np.where(degenerate, 1.0, cos_half * sin_half)
    return np.where(degenerate, 1.0, omega), cos_half, sin_half


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


def haar_quaternions(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 4) array of Haar-uniform unit quaternions (normalized Gaussians)."""
    q = rng.standard_normal((n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)
