import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    axis_angle_quaternion,
    conjugated_z_rotation,
    euler_zyz_angles,
    quat_conjugate,
    quat_multiply,
    relative_rotation_angle,
    su2_from_quaternion,
    z_rotation_quaternion,
)
from spinlearn.rotations import (
    haar_quaternions,
    rotate_vectors,
    z_axis,
)


def _matrices(q):
    """3x3 SO(3) matrices of quaternions (..., 4), from the textbook formula."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=-1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1),
    ], axis=-2)


def _from_euler_zyz(alpha, beta, gamma):
    a = axis_angle_quaternion([0, 0, 1], alpha)
    b = axis_angle_quaternion([0, 1, 0], beta)
    c = axis_angle_quaternion([0, 0, 1], gamma)
    return quat_multiply(quat_multiply(a, b), c)


def test_identity_and_inverse():
    g = haar_quaternions(np.random.default_rng(0), 1)[0]
    assert np.allclose(_matrices(quat_multiply(g, quat_conjugate(g))), np.eye(3), atol=1e-12)


def test_composition_matches_matrix_product(rng):
    g, h = haar_quaternions(rng, 2)
    assert np.allclose(_matrices(quat_multiply(g, h)), _matrices(g) @ _matrices(h), atol=1e-12)


@given(st.integers(min_value=0, max_value=10**6))
def test_euler_round_trip(seed):
    g = haar_quaternions(np.random.default_rng(seed), 1)[0]
    g2 = _from_euler_zyz(*euler_zyz_angles(g))
    assert np.max(np.abs(_matrices(g) - _matrices(g2))) < 1e-12
    assert np.max(np.abs(g - g2)) < 1e-12  # unreduced angles: q itself, not -q


@pytest.mark.parametrize("axis,angle", [([0, 0, 1], 0.7), ([0, 1, 0], math.pi), ([0, 0, 1], 0.0)])
def test_euler_round_trip_degenerate(axis, angle):
    g = axis_angle_quaternion(axis, angle)
    g2 = _from_euler_zyz(*euler_zyz_angles(g))
    assert np.max(np.abs(_matrices(g) - _matrices(g2))) < 1e-12
    assert np.max(np.abs(g - g2)) < 1e-12  # unreduced angles: q itself, not -q


def test_su2_matches_rotation_action(rng):
    # conjugating Pauli vectors by the SU(2) matrix rotates them by the SO(3) matrix
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    g = haar_quaternions(rng, 1)[0]
    u = su2_from_quaternion(g)
    r = _matrices(g)
    for i in range(3):
        conj = u @ paulis[i] @ u.conj().T
        expected = sum(r[k, i] * paulis[k] for k in range(3))
        assert np.max(np.abs(conj - expected)) < 1e-12


def test_haar_seed_determinism():
    a = haar_quaternions(np.random.default_rng(42), 10)
    b = haar_quaternions(np.random.default_rng(42), 10)
    assert np.array_equal(a, b)


def test_haar_mean_rotation_matrix_is_zero():
    n = 100000
    mean = _matrices(haar_quaternions(np.random.default_rng(3), n)).mean(axis=0)
    assert np.max(np.abs(mean)) < 4.0 / math.sqrt(n)


def test_z_rotation_quaternion():
    q = z_rotation_quaternion(1.3)
    u = su2_from_quaternion(q)
    assert np.allclose(u, np.diag([np.exp(-0.65j), np.exp(0.65j)]), atol=1e-14)


def test_conjugated_z_rotation_angle_preserved(rng):
    q_g = haar_quaternions(rng, 50)
    v = conjugated_z_rotation(q_g, 0.9)
    # conjugation preserves the rotation angle
    w = np.clip(np.abs(v[:, 0]), 0, 1)
    assert np.allclose(2 * np.arccos(w), 0.9, atol=1e-10)


def test_relative_rotation_angle(rng):
    q = haar_quaternions(rng, 20)
    assert np.allclose(relative_rotation_angle(q, q), 0.0, atol=1e-6)
    qz = np.broadcast_to(z_rotation_quaternion(1.1), (20, 4))
    rel = relative_rotation_angle(qz, np.broadcast_to(z_rotation_quaternion(1.8), (20, 4)))
    assert np.allclose(rel, 0.7, atol=1e-10)


def test_angle_between_axes():
    # the angle between two rotated z-axes is the arccosine of their dot product
    g = axis_angle_quaternion([0, 1, 0], 0.4)
    cos_angle = np.dot(z_axis(np.array([1.0, 0.0, 0.0, 0.0])), z_axis(g))
    assert math.acos(cos_angle) == pytest.approx(0.4, abs=1e-12)


# the fixed training rotations of the per_rotation_fidelity tests, then the poles
_FIXED_Q = np.array([[0.3, 0.1, -0.5, 0.8], [math.cos(0.4), 0.0, math.sin(0.4), 0.0],
                     [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
_FIXED_Q /= np.linalg.norm(_FIXED_Q, axis=1, keepdims=True)


@pytest.mark.parametrize("theta", [0.9, math.pi, 4.0])
def test_z_axis_is_the_axis_of_the_conjugated_z_rotation(rng, theta):
    # U_g R_z(theta) U_g^-1 = (cos(theta/2), sin(theta/2) n_g) by two Hamilton products
    q_g = np.concatenate([_FIXED_Q, haar_quaternions(rng, 500)])
    v = conjugated_z_rotation(q_g, theta)
    expected = np.concatenate([np.full((len(q_g), 1), math.cos(theta / 2)),
                               math.sin(theta / 2) * z_axis(q_g)], axis=1)
    assert np.max(np.abs(v - expected)) < 1e-14


def test_rotate_vectors_matches_quaternion_conjugation(rng):
    q = np.concatenate([_FIXED_Q, haar_quaternions(rng, 500)])
    v = rng.standard_normal((len(q), 3))
    pure = np.concatenate([np.zeros((len(q), 1)), v], axis=1)
    expected = quat_multiply(quat_multiply(q, pure), quat_conjugate(q))[:, 1:]
    assert np.max(np.abs(rotate_vectors(q, v) - expected)) < 1e-14
    assert np.max(np.abs(rotate_vectors(q, np.broadcast_to([0.0, 0.0, 1.0], v.shape))
                         - z_axis(q))) < 1e-15
    g = _matrices(q[0])
    assert np.max(np.abs(rotate_vectors(q[0], v[0]) - g @ v[0])) < 1e-15
    assert np.max(np.abs(z_axis(q[0]) - g[:, 2])) < 1e-15
