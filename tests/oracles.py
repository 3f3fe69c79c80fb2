"""Test oracles: dense, slow or brute-force routes to what the library computes
in closed form, grouped by the library module they check (rotations, channels, spins,
optimal, mo, memory, montecarlo).  Only the tests import this module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from spinlearn import heisenberg, mo, montecarlo, optimal, rotations, spins
from spinlearn._record import Record, record
from spinlearn.channels import FidelityEstimate, KrausChannel, maximally_entangled
from spinlearn.memory import (MemoryDistribution, _fidelity_from_moments, _fixed_schedule,
                              _rate, thermal_state)
from spinlearn.montecarlo import (_conditional_fidelity_channel_output, _target_states,
                                  sample_pure_states)
from spinlearn.spins import _check_nonzero_j, coupling_decomposition, dim, two_m_values


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


def rotation_angle(q: np.ndarray) -> np.ndarray:
    """SO(3) rotation angle in [0, pi] of quaternion(s) ``q``."""
    w = np.clip(np.abs(np.asarray(q, dtype=float)[..., 0]), 0.0, 1.0)
    return 2.0 * np.arccos(w)


def axis_angle_quaternion(axis, angle: float) -> np.ndarray:
    """Quaternion of a rotation by ``angle`` about the unit vector ``axis``."""
    return np.concatenate([[math.cos(angle / 2)], math.sin(angle / 2) * np.asarray(axis, float)])


def z_rotation_quaternion(theta) -> np.ndarray:
    """Quaternion(s) for a rotation by ``theta`` about z; broadcasts over theta."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(theta.shape + (4,))
    out[..., 0] = np.cos(theta / 2.0)
    out[..., 3] = np.sin(theta / 2.0)
    return out


def conjugated_z_rotation(q_g: np.ndarray, theta) -> np.ndarray:
    """Quaternion(s) of U_g R_z(theta) U_g^-1 by two Hamilton products: the
    z-rotation dragged by g (``rotations.z_axis`` gives its axis in closed form)."""
    qz = z_rotation_quaternion(theta)
    qz = np.broadcast_to(qz, np.broadcast_shapes(q_g.shape, qz.shape))
    return quat_multiply(quat_multiply(q_g, qz), quat_conjugate(np.broadcast_to(q_g, qz.shape)))


def relative_rotation_angle(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """SO(3) angle of p^-1 q, batched."""
    return rotation_angle(quat_multiply(quat_conjugate(p), q))


def euler_zyz_angles(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ZYZ Euler angles (alpha, beta, gamma) of quaternion(s) ``q``, with
    U = exp(-i alpha sz/2) exp(-i beta sy/2) exp(-i gamma sz/2) exactly: alpha, gamma =
    s +- t from the half-sum s = atan2(z, w) and half-difference t = atan2(-x, y), not
    reduced mod 2 pi, so they name q itself and not -q (at beta = 0 or pi the free one of
    s, t cancels from the product)."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    half_sum, half_diff = np.arctan2(z, w), np.arctan2(-x, y)
    beta = 2.0 * np.arctan2(np.hypot(x, y), np.hypot(w, z))
    return half_sum + half_diff, beta, half_sum - half_diff


def rotation_irrep(two_j: int, q: np.ndarray) -> np.ndarray:
    """(..., 2j+1, 2j+1) dense spin-j representation exp(-i alpha Jz) exp(-i beta Jy)
    exp(-i gamma Jz) of quaternion(s) ``q`` from ``euler_zyz_angles``: the SU(2)
    representation, D(-q) = (-1)^(2j) D(q), O(d^3) per rotation."""
    alpha, beta, gamma = euler_zyz_angles(q)
    m = spins.m_values(two_j)
    left = np.exp(-1j * alpha[..., None] * m)
    right = np.exp(-1j * gamma[..., None] * m)
    return left[..., :, None] * spins.rotation_y_irrep(two_j, beta) * right[..., None, :]


# Choi operators follow the trace-preservation convention Tr_out[C] = I_in, laid out as
# (input (x) output): C[(i,a),(j,b)] = <a| N(|i><j|) |b> for a channel N.
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-10
CHOI_POSITIVITY_TOL = 1e-9
TRACE_PRESERVATION_TOL = 1e-9


def is_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def _min_eigenvalue(a: np.ndarray, labels: np.ndarray | None = None) -> float:
    """Smallest eigenvalue of the Hermitian part of ``a``.  With a block label per index,
    and every entry between different labels an exact zero, it is taken block by block
    (blocks of one size in one stacked ``eigvalsh``); otherwise from the dense matrix."""
    h = 0.5 * (a + a.conj().T)
    if labels is None or np.any(a[labels[:, None] != labels[None, :]]):
        return float(np.linalg.eigvalsh(h)[0])
    _, block, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    lowest = math.inf
    for size in np.unique(sizes):
        idx = np.stack([np.flatnonzero(block == b) for b in np.flatnonzero(sizes == size)])
        lowest = min(lowest, float(np.linalg.eigvalsh(h[idx[:, :, None], idx[:, None, :]]).min()))
    return lowest


def is_positive_semidefinite(a: np.ndarray, tol: float = POSITIVITY_TOL,
                             labels: np.ndarray | None = None) -> bool:
    return is_hermitian(a, tol) and _min_eigenvalue(a, labels) >= -tol


@dataclass(frozen=True)
class ChoiOperator:
    """Choi matrix of a channel with Tr_out[C] = I_in."""

    matrix: np.ndarray
    dim_in: int
    dim_out: int

    def __post_init__(self):
        expected = self.dim_in * self.dim_out
        if self.matrix.shape != (expected, expected):
            raise ValueError("Choi matrix shape inconsistent with dims")

    def reshaped(self) -> np.ndarray:
        return self.matrix.reshape(self.dim_in, self.dim_out, self.dim_in, self.dim_out)

    def trace_out_output(self) -> np.ndarray:
        return np.einsum("iaja->ij", self.reshaped())

    def is_completely_positive(self, tol: float = CHOI_POSITIVITY_TOL,
                               labels: np.ndarray | None = None) -> bool:
        """``labels``: a block label per index, as in ``_min_eigenvalue``."""
        return is_positive_semidefinite(self.matrix, tol, labels)

    def is_trace_preserving(self, tol: float = TRACE_PRESERVATION_TOL) -> bool:
        return bool(np.max(np.abs(self.trace_out_output() - np.eye(self.dim_in))) <= tol)

    def validate(self, cp_tol: float = CHOI_POSITIVITY_TOL,
                 tp_tol: float = TRACE_PRESERVATION_TOL, labels: np.ndarray | None = None) -> None:
        if not self.is_completely_positive(cp_tol, labels):
            raise ValueError("Choi operator not CP "
                             f"(min eig {_min_eigenvalue(self.matrix, labels):.3e})")
        if not self.is_trace_preserving(tp_tol):
            resid = np.max(np.abs(self.trace_out_output() - np.eye(self.dim_in)))
            raise ValueError(f"Choi operator not TP (residual {resid:.3e})")


def choi_from_kraus(kraus, dim_in: int, dim_out: int) -> ChoiOperator:
    vecs = np.stack(kraus).transpose(0, 2, 1).reshape(len(kraus), -1)  # (i, a) = K[a, i]
    return ChoiOperator(matrix=vecs.T @ vecs.conj(), dim_in=dim_in, dim_out=dim_out)


def kraus_from_choi(choi: ChoiOperator, tol: float = 1e-12) -> list[np.ndarray]:
    """Kraus operators from the Choi eigendecomposition (Stinespring form)."""
    vals, vecs = np.linalg.eigh(0.5 * (choi.matrix + choi.matrix.conj().T))
    return [np.sqrt(lam) * v.reshape(choi.dim_in, choi.dim_out).T
            for lam, v in zip(vals, vecs.T) if lam > tol]


def channel_choi(channel: KrausChannel) -> ChoiOperator:
    return choi_from_kraus(channel.kraus, channel.dim_in, channel.dim_out)


def apply_channel(channel: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """sum_k K rho K^dag over the channel's Kraus operators."""
    return sum(k @ rho @ k.conj().T for k in channel.kraus)


def stinespring_channel(unitary: np.ndarray, dim_keep: int) -> KrausChannel:
    """Apply ``unitary``, then trace out the leading factor: the input space factors
    as (traced (x) kept), with the kept factor of dimension ``dim_keep`` last."""
    total = unitary.shape[0]
    u = unitary.reshape(total // dim_keep, dim_keep, total)
    return KrausChannel(kraus=tuple(u), dim_in=total, dim_out=dim_keep)


def gate_matrix(gate: heisenberg.HeisenbergGate) -> np.ndarray:
    """The dense gate, column by column from ``apply`` on the identity."""
    return gate.apply(np.eye(gate.dim_total, dtype=complex)).T


def gate_channel(gate: heisenberg.HeisenbergGate) -> KrausChannel:
    """Interact, then trace out the memory: Kraus form of the gate's learning channel."""
    return stinespring_channel(gate_matrix(gate), dim(gate.two_k))


def identity_choi(d: int) -> ChoiOperator:
    phi = maximally_entangled(d)
    return ChoiOperator(matrix=d * np.outer(phi, phi.conj()), dim_in=d, dim_out=d)


def apply_choi(choi: ChoiOperator, rho: np.ndarray) -> np.ndarray:
    """Channel action N(rho) = Tr_in[(rho^T (x) I) C]."""
    if rho.shape != (choi.dim_in, choi.dim_in):
        raise ValueError(f"state dimension {rho.shape} does not match dim_in={choi.dim_in}")
    return np.einsum("ij,iajb->ab", rho, choi.reshaped())


def coupled_basis_vectors(two_j1: int, two_j2: int, two_J: int) -> np.ndarray:
    """(2J+1, d1*d2) array of total-spin basis vectors |J,M> (M descending)."""
    vecs = np.zeros((dim(two_J), dim(two_j1), dim(two_j2)))
    for iJ, two_M in enumerate(two_m_values(two_J)):
        for i1, two_m1 in enumerate(two_m_values(two_j1)):
            two_m2 = two_M - two_m1
            if abs(two_m2) <= two_j2:
                vecs[iJ, i1, (two_j2 - two_m2) // 2] = spins.clebsch_gordan(
                    two_j1, two_m1, two_j2, two_m2, two_J, two_M)
    return vecs.reshape(dim(two_J), -1)


def coupling_sectors_by_racah(two_j: int, two_k: int):
    """``heisenberg._coupling_sectors`` by a Racah sum per (pair, t): the product
    pairs grouped by total M, the coefficients of each sector's table computed
    on the spot."""
    dk = dim(two_k)
    sectors = {}
    for i1, tm in enumerate(two_m_values(two_j)):
        for i2, tmu in enumerate(two_m_values(two_k)):
            sectors.setdefault(tm + tmu, []).append((i1 * dk + i2, tm, tmu))
    out = []
    for two_M, entries in sectors.items():
        idx = np.array([e[0] for e in entries])
        two_ts = [t for t in range(abs(two_j - two_k), two_j + two_k + 2, 2)
                  if abs(two_M) <= t]
        g = np.array([[spins.clebsch_gordan(two_j, tm, two_k, tmu, tt, two_M)
                       for (_, tm, tmu) in entries] for tt in two_ts])
        out.append((idx, np.array(two_ts), g))
    return tuple(out)


def clebsch_gordan_by_lgamma(two_j1: int, two_m1: int, two_j2: int, two_m2: int,
                             two_J: int, two_M: int) -> float:
    """``spins.clebsch_gordan`` with one ``math.lgamma`` per factorial, after the same checks
    (``spins.clebsch_gordan`` up to the log-factorial table)."""
    for two_j, two_m in ((two_j1, two_m1), (two_j2, two_m2), (two_J, two_M)):
        spins.check_valid_m(two_j, two_m)
    if two_m1 + two_m2 != two_M:
        raise spins.InvalidQuantumNumbersError("selection rule m1 + m2 = M violated")
    if not (abs(two_j1 - two_j2) <= two_J <= two_j1 + two_j2):
        raise spins.InvalidQuantumNumbersError("triangle inequality violated")
    if (two_j1 + two_j2 + two_J) % 2 != 0:
        raise spins.InvalidQuantumNumbersError("j1 + j2 + J must be an integer")

    def f(two_n: int) -> float:
        if two_n % 2 != 0:
            raise spins.InvalidQuantumNumbersError("half-integer factorial argument")
        return math.lgamma(two_n // 2 + 1)

    log_pref = 0.5 * (
        math.log(two_J + 1.0)
        + f(two_j1 + two_j2 - two_J) + f(two_j1 - two_j2 + two_J)
        + f(-two_j1 + two_j2 + two_J) - f(two_j1 + two_j2 + two_J + 2)
        + f(two_J + two_M) + f(two_J - two_M)
        + f(two_j1 - two_m1) + f(two_j1 + two_m1)
        + f(two_j2 - two_m2) + f(two_j2 + two_m2)
    )
    two_kmin = max(0, two_j2 - two_J - two_m1, two_j1 + two_m2 - two_J)
    two_kmax = min(two_j1 + two_j2 - two_J, two_j1 - two_m1, two_j2 + two_m2)
    if two_kmax < two_kmin:
        return 0.0
    terms = []
    for two_k in range(two_kmin, two_kmax + 2, 2):
        log_den = (
            f(two_k) + f(two_j1 + two_j2 - two_J - two_k)
            + f(two_j1 - two_m1 - two_k) + f(two_j2 + two_m2 - two_k)
            + f(two_J - two_j2 + two_m1 + two_k) + f(two_J - two_j1 - two_m2 + two_k)
        )
        sign = -1.0 if (two_k // 2) % 2 else 1.0
        terms.append(sign * math.exp(log_pref - log_den))
    return math.fsum(terms)


def per_input_fidelity_by_point(two_j: int, theta: float, polar: float,
                                azimuth: float = 0.0) -> float:
    """``heisenberg.per_input_fidelity`` at one target state: the product state
    |j,j> (x) psi by ``np.kron``, one ``apply``, and the contraction with the target
    V psi as a matrix-vector product."""
    gate = heisenberg.heisenberg_unitary(two_j, 1, theta)
    psi = np.array([math.cos(polar / 2.0),
                    np.exp(1j * azimuth) * math.sin(polar / 2.0)], dtype=complex)
    probe = np.zeros(dim(two_j), dtype=complex)
    probe[0] = 1.0
    target = np.diag(np.exp(-0.5j * theta * np.array([1.0, -1.0]))) @ psi
    out = gate.apply(np.kron(probe, psi)).reshape(dim(two_j), 2)
    return float(np.sum(np.abs(out @ target.conj()) ** 2))


def worst_case_by_point(two_j: int, theta: float) -> tuple[float, float]:
    """``heisenberg.worst_case_fidelity`` with every value, on the 65-point grid and in
    the golden-section search, from ``per_input_fidelity_by_point``."""
    grid = np.linspace(0.0, math.pi, 65)
    vals = [per_input_fidelity_by_point(two_j, theta, a) for a in grid]
    i = int(np.argmin(vals))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    x, fx = heisenberg._golden_minimize(lambda a: per_input_fidelity_by_point(two_j, theta, a),
                                        lo, hi)
    if vals[i] < fx:
        x, fx = grid[i], vals[i]
    return float(fx), float(x)


def tp_residuals(params: optimal.CovariantChoiParams, two_j: int) -> tuple[float, float]:
    """Residuals of the two trace-preservation constraints (second is the
    degenerate one-block form when two_j == 1)."""
    optimal._check_beta(params, two_j)
    j = two_j / 2.0
    t_plus, t_minus = (float(params.m_matrix[i, i].real) for i in (0, 1))
    r1 = (2 * j + 3) / (2 * j + 2) * params.alpha + (2 * j + 1) / (2 * j + 2) * t_plus - 1.0
    if two_j == 1:
        r2 = (2 * j + 1) / (2 * j) * t_minus - 1.0
    else:
        r2 = (2 * j - 1) / (2 * j) * params.beta + (2 * j + 1) / (2 * j) * t_minus - 1.0
    return float(r1), float(r2)


def validate_params(params: optimal.CovariantChoiParams, two_j: int, tol: float = 1e-9) -> None:
    r1, r2 = tp_residuals(params, two_j)
    if abs(r1) > tol or abs(r2) > tol:
        raise ValueError(f"trace-preservation constraints violated: {r1:.2e}, {r2:.2e}")
    if params.alpha < -tol or (params.beta is not None and params.beta < -tol):
        raise ValueError("block weights must be non-negative")
    lam = np.linalg.eigvalsh(params.m_matrix)[0]  # M is Hermitian by construction
    if lam < -tol:
        raise ValueError(f"M is not positive semidefinite (min eig {lam:.2e})")


def _raw_total_family(two_j: int, two_k_route: int, two_t: int) -> np.ndarray:
    """Vectors |T,M> built by coupling (probe, in) -> K_route, then with out.

    Returns a (2T+1, (2j+1)*4) array over total M descending; components are
    laid out on (probe, out, in).  A row has at most four nonzero components,
    each one product <K|probe, in> <T|K, out>, scattered into place.
    """
    inner = spins._pair_coupling_table(two_j, 1, two_k_route)       # (probe, in)
    outer = spins._pair_coupling_table(two_k_route, 1, two_t)       # (K, out)
    fam = np.zeros((dim(two_t), dim(two_j), 2, 2))
    k, out = np.nonzero(outer)
    t = (two_t - two_k_route + 2 * k - 1 + 2 * out) // 2  # M_T = M_K + m_out
    for i in (0, 1):
        # the one probe index p with m_p + m_in = M_K, where it exists
        p = (two_j - two_k_route + 2 * k + 1 - 2 * i) // 2
        ok = (p >= 0) & (p <= two_j)
        t_ok, k_ok, out_ok, p_ok = t[ok], k[ok], out[ok], p[ok]
        fam[t_ok, p_ok, out_ok, i] = outer[k_ok, out_ok] * inner[p_ok, i]
    return fam.reshape(dim(two_t), -1)


@lru_cache(maxsize=None)
def _coupled_basis(two_j: int) -> dict:
    """Total-spin families on (probe, out, in), coupling (probe, in) first.

    The spin-j multiplicity pair ("plus" via K = j+1/2, "minus" via
    K = j-1/2) is kept real; in it the block trace over the output qubit is
    diagonal, which is what makes the two trace-preservation constraints
    block-local.  The stretched/shrunk families ("top", "bottom") enter the
    Choi operator only through their projectors, so their global phases do
    not matter.
    """
    return {
        "top": _raw_total_family(two_j, two_j + 1, two_j + 2),
        "plus": _raw_total_family(two_j, two_j + 1, two_j),
        "minus": _raw_total_family(two_j, two_j - 1, two_j),
        "bottom": _raw_total_family(two_j, two_j - 1, two_j - 2) if two_j >= 2 else None,
    }


def _conjugation_operator(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """e^{i pi Jy} (x) I (x) sy on (probe, out, in) as (index, phase).

    The operator is a signed permutation: row r holds its one entry,
    phase[r], in column index[r].  Since d^j_{m'm}(pi) = (-1)^(j-m)
    delta_{m',-m}, e^{i pi Jy} sends probe row p to column 2j - p with sign
    (-1)^p, and sy sends qubit row q to column 1 - q with phase -i, +i.
    """
    p, o, q = np.indices((dim(two_j), 2, 2)).reshape(3, -1)
    index = ((two_j - p) * 2 + o) * 2 + (1 - q)
    phase = np.where(p % 2 == 0, 1.0, -1.0) * np.where(q == 0, -1j, 1j)
    return index, phase


def _test_vector(two_j: int, two_m: int, theta: float) -> np.ndarray:
    """|j,-m> (x) (I (x) -i sy)(V_theta (x) I)|Phi+>, laid out on (probe, out, in)."""
    vec = np.zeros((dim(two_j), 2, 2), dtype=complex)
    vec[spins.basis_index(two_j, -two_m), 0, 1] = cmath.exp(-0.5j * theta) / math.sqrt(2.0)
    vec[spins.basis_index(two_j, -two_m), 1, 0] = -cmath.exp(0.5j * theta) / math.sqrt(2.0)
    return vec.reshape(-1)


def decomposition_overlaps(two_j: int, two_m: int, theta: float) -> np.ndarray:
    """Expansion of |j,-m> (x) |Phi*_theta> in the route basis: (a, b, q+, q-).

    Oracle counterpart of coupling_decomposition.  The stretched/shrunk
    families of ``_coupled_basis`` have no phase convention of their
    own, so their global phases are fixed once, at (m = j, theta = 1.1) for a
    and (m = j - 1, theta = 1.1) for b; elsewhere (a, b) must then match
    coupling_decomposition.  (q+, q-) are the complex conjugates of its
    (c_plus, c_minus), which are expressed in the conjugate multiplicity basis.
    """
    basis = _coupled_basis(two_j)

    def ov(key, two_t, tm, th):
        fam = basis[key]
        if fam is None or abs(tm) > two_t:
            return 0.0 + 0.0j
        return np.vdot(fam[(two_t + tm) // 2], _test_vector(two_j, tm, th))  # row of M = -m

    top = coupling_decomposition(two_j, two_j, 1.1).a / ov("top", two_j + 2, two_j, 1.1)
    bottom = (coupling_decomposition(two_j, two_j - 2, 1.1).b
              / ov("bottom", two_j - 2, two_j - 2, 1.1) if two_j >= 2 else 0.0)
    return np.array([
        top * ov("top", two_j + 2, two_m, theta),
        bottom * ov("bottom", two_j - 2, two_m, theta),
        ov("plus", two_j, two_m, theta),
        ov("minus", two_j, two_m, theta),
    ])


def covariant_choi_build(params: optimal.CovariantChoiParams, two_j: int) -> ChoiOperator:
    """Dense Choi operator of the covariant channel with the given blocks.

    Oracle for ``optimal.case_choi_channel``, the Heisenberg gate at the angle
    f_m, which never forms this matrix.  Returns it in the standard (input = probe (x) qubit, output = qubit)
    layout with Tr_out = I_in; raises if the parameters violate CP or TP.
    The families are conjugated and reordered by indexing before the block
    products, so entries between different total M stay exact zeros, and the CP
    check takes the eigenvalues block by block: index ((p, in), out) has total
    M label p + in - out, at most four indices a label.
    """
    validate_params(params, two_j)
    dp = dim(two_j)
    d_total = dp * 4
    index, phase = _conjugation_operator(two_j)
    # reorder slots (probe, out, in) -> ((probe, in), out)
    to_choi = np.arange(d_total).reshape(dp, 2, 2).transpose(0, 2, 1).reshape(-1)
    index, phase = index[to_choi], phase[to_choi]
    fam = {name: None if f is None else f[:, index] * phase
           for name, f in _coupled_basis(two_j).items()}

    c_mat = np.zeros((d_total, d_total), dtype=complex)
    c_mat += params.alpha * fam["top"].T @ fam["top"].conj()
    if fam["bottom"] is not None and params.beta:
        c_mat += params.beta * fam["bottom"].T @ fam["bottom"].conj()
    # M is expressed in the conjugate multiplicity convention used by the
    # block coefficients; on the real route basis its entries conjugate.
    # Fidelities are invariant.
    m_build = np.conj(params.m_matrix)
    pair = (fam["plus"], fam["minus"])
    for r in range(2):
        for s in range(2):
            if m_build[r, s] != 0.0:
                c_mat += m_build[r, s] * pair[r].T @ pair[s].conj()

    choi = ChoiOperator(matrix=c_mat, dim_in=dp * 2, dim_out=2)
    p, q_in, out = np.indices((dp, 2, 2)).reshape(3, -1)
    choi.validate(labels=p + q_in - out)
    return choi


def case1_entanglement_fidelity(two_j: int, two_m: int, theta: float) -> float:
    """Closed form of the case-1 fidelity, (|A| + |B|)^2 / (2j+1)^2, as ``_regimes`` takes it
    at m = j; |x + iy| is hypot(x, y), as for complex(x, y)."""
    spins.check_valid_m(two_j, two_m)
    spins._check_theta(theta)
    j, m, c, s = two_j / 2.0, two_m / 2.0, math.cos(theta / 2.0), math.sin(theta / 2.0)
    return (abs(c * (j + 1.0) + s * m * 1j) + abs(c * j - s * m * 1j)) ** 2 / (2 * j + 1) ** 2


def brute_force_optimum(two_j: int, two_m: int, theta: float,
                        grid_resolution: int = 64) -> float:
    """Grid-plus-refinement maximization of the covariant fidelity.

    Searches the trace-preservation polytope in the block diagonal
    coordinates (t+, t-) with the rank-one off-diagonal phase optimized
    analytically; deterministic by construction.
    """
    if grid_resolution < 16:
        raise ValueError("grid_resolution must be at least 16")
    coeff = coupling_decomposition(two_j, two_m, theta)
    a2 = abs(coeff.a) ** 2
    b2 = abs(coeff.b) ** 2
    cp = abs(coeff.c_plus)
    cm = abs(coeff.c_minus)
    t_plus_max = optimal._t_plus_max(two_j)
    t_minus_max = optimal._t_minus_pinned(two_j)

    def fe(tp: float, tm: float) -> float:
        beta = (two_j - (two_j + 1.0) * tm) / (two_j - 1.0) if two_j >= 2 else 0.0
        shrunk = beta * b2
        return 0.5 * (optimal._alpha_from_t_plus(two_j, tp) * a2 + shrunk
                      + (math.sqrt(tp) * cp + math.sqrt(tm) * cm) ** 2)

    if two_j == 1:  # no shrunk block: t- is pinned
        grid = np.linspace(0.0, t_plus_max, grid_resolution)
        vals = [fe(t, t_minus_max) for t in grid]
        i = int(np.argmax(vals))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        x, fx = heisenberg._golden_minimize(lambda t: -fe(t, t_minus_max), lo, hi, tol=1e-12)
        return max(-fx, vals[i])

    tps = np.linspace(0.0, t_plus_max, grid_resolution)
    tms = np.linspace(0.0, t_minus_max, grid_resolution)
    vals = np.array([[fe(tp, tm) for tm in tms] for tp in tps])
    ip, im = np.unravel_index(np.argmax(vals), vals.shape)
    tp, tm = tps[ip], tms[im]
    best = vals[ip, im]
    span_p = tps[1] - tps[0]
    span_m = tms[1] - tms[0]
    for _ in range(6):
        tp, neg = heisenberg._golden_minimize(
            lambda t: -fe(t, tm), max(tp - span_p, 0.0), min(tp + span_p, t_plus_max), tol=1e-13)
        tm, neg = heisenberg._golden_minimize(
            lambda t: -fe(tp, t), max(tm - span_m, 0.0), min(tm + span_m, t_minus_max), tol=1e-13)
        best = max(best, -neg)
        span_p *= 0.5
        span_m *= 0.5
    return float(best)


def mo_fopt_formula(two_j: int, theta: float, theta_prime: float) -> float:
    """Average MO fidelity at probe m = j, seed n = j, for the given theta', as
    ``_mo_regimes`` takes it at the optimal theta'."""
    j = spins._check_nonzero_j(two_j)
    spins._check_theta(theta)
    tp = spins._check_theta(theta_prime, "theta_prime")
    return ((4.0 * j + 4.0 + (2.0 * j + 1.0) * math.cos(theta - tp)) / (3.0 * (2.0 * j + 3.0))
            + ((2.0 * j + 1.0) * (math.cos(theta) + math.cos(tp)) + math.cos(theta + tp) + 1.0)
            / (3.0 * (j + 1.0) * (2.0 * j + 3.0)))


def cos_beta_quantiles_by_bisection(two_j: int, two_m: int, xi_two_n: int,
                                    u: np.ndarray) -> np.ndarray:
    """cos(beta) at CDF levels ``u`` of the POVM polar law, by 55 bisection steps on the
    library's Chebyshev CDF from [-1, 1] (final width 2^-54 is below half an ulp of 1)."""
    from numpy.polynomial.chebyshev import chebval

    _, cdf, _, _ = spins._cos_beta_law(two_j, two_m, xi_two_n)
    level = u * chebval(1.0, cdf)
    lo, hi = np.full(len(level), -1.0), np.ones(len(level))
    for _ in range(55):
        mid = 0.5 * (lo + hi)
        below = chebval(mid, cdf) < level
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def unot_channel() -> KrausChannel:
    """Optimal 2-to-1 universal NOT, exact via its Pauli transfer form.

    Trace preserving on the triplet (symmetric) subspace only; used as the
    conditional branch after projecting there.
    """
    x, y, z = (2 * s for s in spins.spin_operators(1))
    pauli = {"i": np.eye(2, dtype=complex), "x": x, "y": y, "z": z}
    labels = ["i", "x", "y", "z"]
    basis = [np.kron(pauli[p], pauli[q]) for p in labels for q in labels]

    def act(rho: np.ndarray) -> np.ndarray:
        r = np.array([np.trace(b @ rho) for b in basis]).reshape(4, 4)
        out = 0.375 * (r[0, 0] + (r[1, 1] + r[2, 2] + r[3, 3]) / 3.0) * pauli["i"]
        for k, p in enumerate(("x", "y", "z"), start=1):
            out = out - 0.125 * (r[0, k] + r[k, 0]) * pauli[p]
        return out

    units = np.eye(16, dtype=complex).reshape(4, 4, 4, 4)  # units[i, j] = |i><j|
    mat = np.array([[act(units[i, jj]) for jj in range(4)] for i in range(4)])
    choi = ChoiOperator(matrix=mat.transpose(0, 2, 1, 3).reshape(8, 8), dim_in=4, dim_out=2)
    return KrausChannel(kraus=tuple(kraus_from_choi(choi)), dim_in=4, dim_out=2)


def unot_mixture_channel(alpha: float, theta: float) -> KrausChannel:
    """j = 1/2 optimal strategy: two-outcome block measurement, then either the
    optimized spin-spin gate ("yes") or the 2-to-1 universal NOT ("no")."""
    m_yes, m_no = optimal._unot_instrument(alpha)
    gate = heisenberg.heisenberg_unitary(1, 1, theta)
    kraus = list(stinespring_channel(gate_matrix(gate) @ m_yes, 2).kraus)
    if alpha > 0.0:
        kraus.extend(k @ m_no for k in unot_channel().kraus)
    return KrausChannel(kraus=tuple(kraus), dim_in=4, dim_out=2)


def bell_basis() -> np.ndarray:
    """Columns |Phi+>, i(sx(x)I)|Phi+>, i(sy(x)I)|Phi+>, i(sz(x)I)|Phi+>."""
    phi = maximally_entangled(2)
    eye = np.eye(2, dtype=complex)
    cols = [phi] + [2j * np.kron(s, eye) @ phi for s in spins.spin_operators(1)]
    return np.stack(cols, axis=1)


def unital_bell_reality_check(choi: ChoiOperator, tol: float = 1e-9) -> bool:
    """True when the qubit channel's Choi matrix is real in the Bell basis,
    which holds exactly for unital channels."""
    if choi.dim_in != 2 or choi.dim_out != 2:
        raise ValueError("expects a qubit-to-qubit Choi operator")
    b = bell_basis()
    in_bell = b.conj().T @ choi.matrix @ b
    return bool(np.max(np.abs(in_bell.imag)) <= tol)


def step_kernel(two_j: int, theta: float, kind: str = "exact", factor: float | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tridiagonal kernel (down, stay, up) over m in descending order.

    ``down[i]`` moves weight from m_i to m_i - 1, ``up[i]`` to m_i + 1; the
    diagonal is fixed by column stochasticity.  The kinds ``exact`` and
    ``leading`` are those of the ``spinlearn.memory`` docstring.  ``factor``
    replaces the factor 1 - cos f(theta) of the ``exact`` kernel (1 - cos f_t
    for a re-tuned angle f_t).  Needs two_j >= 1: a spin-0 memory has no
    direction to lose.
    """
    j = _check_nonzero_j(two_j)
    m = two_m_values(two_j) / 2.0
    if kind == "exact":
        if factor is None:
            factor = 1.0 - math.cos(heisenberg.f_angle(two_j, theta))
        down = (j + m) * (1.0 + j - m) / (1.0 + 2.0 * j) ** 2 * factor
        up = (j - m) * (1.0 + j + m) / (1.0 + 2.0 * j) ** 2 * factor
    elif kind == "leading":
        s = (1.0 - math.cos(theta)) / (2.0 * j)
        down = (j - m + 1.0) * s
        up = (j - m) * s
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")
    down = np.where(m > -j, down, 0.0)
    up = np.where(m < j, up, 0.0)
    stay = 1.0 - down - up
    return down, stay, up


def complementary_step(two_j: int, theta: float, dist: MemoryDistribution,
                       kind: str = "exact", factor: float | None = None) -> MemoryDistribution:
    """One recycling step of the memory populations through ``step_kernel``."""
    if dist.two_j != two_j:
        raise ValueError("distribution spin does not match")
    down, stay, up = step_kernel(two_j, theta, kind, factor)
    w = dist.weights
    out = stay * w
    out[1:] += (down * w)[:-1]    # m decreases: moves one slot later
    out[:-1] += (up * w)[1:]
    return MemoryDistribution(two_j=two_j, weights=out)


def stinespring_complementary_populations(two_j: int, theta: float,
                                          dist: MemoryDistribution) -> MemoryDistribution:
    """The step by the dense route: trace the gate against a maximally mixed target."""
    u = gate_matrix(heisenberg.heisenberg_unitary(two_j, 1, theta))
    d = dim(two_j)
    rho = np.kron(np.diag(dist.weights).astype(complex), 0.5 * np.eye(2))
    out = u @ rho @ u.conj().T
    reduced = np.trace(out.reshape(d, 2, d, 2), axis1=1, axis2=3)
    return MemoryDistribution(two_j=two_j, weights=np.diag(reduced).real.copy())


def recycling_trajectories(two_j: int, theta: float, n_uses: int, n: int,
                           rng: np.random.Generator) -> np.ndarray:
    """(n, n_uses) fidelity samples of the physical recycling process, one row
    per quantum trajectory: no kernel and no moment enters.

    A trajectory draws a Haar g and starts from U_g|j,j>.  At each use it draws
    a Haar qubit psi, runs the gate on memory (x) psi, scores
    sum_m |<V_(theta,g) psi|out_m>|^2 over the memory outcomes m, then measures
    the output qubit in the computational basis and keeps the renormalized
    memory branch; averaged over outcomes, that is the memory's partial trace.
    """
    d = dim(two_j)
    gate = heisenberg.heisenberg_unitary(two_j, 1, theta)
    q_g = rotations.haar_quaternions(rng, n)
    state = spins.rotated_basis_states_batch(two_j, q_g, two_j)
    rows = np.arange(n)
    out = np.empty((n, n_uses))
    for t in range(n_uses):
        psi = sample_pure_states(rng, n, 2)
        joint = gate.apply(np.einsum("np,nk->npk", state, psi).reshape(n, -1)).reshape(n, d, 2)
        out[:, t] = _conditional_fidelity_channel_output(joint, _target_states(q_g, theta, psi))
        down = rng.random(n) >= np.sum(np.abs(joint[:, :, 0]) ** 2, axis=1)
        state = joint[rows, :, down.astype(int)]
        state /= np.linalg.norm(state, axis=1, keepdims=True)
    return out


def tricomi_weights_by_double_sum(two_j: int, theta: float, n: int) -> np.ndarray:
    """The alternating-sum weights of ``tricomi_distribution``, each numerator
    sum_i (-1)^(i-k) C(i, k) T(i) formed term by term in integers, top weight
    first; the same ValueError naming n where a weight overflows a float."""
    p, r = float(1.0 - math.cos(theta)).as_integer_ratio()
    r *= two_j
    t_terms = [math.perm(n, i) * p**i * r ** (n - i) for i in range(n + 1)]
    weights = np.zeros(dim(two_j))
    for k in reversed(range(min(n, two_j) + 1)):
        acc = sum((-1) ** (i - k) * math.comb(i, k) * t_terms[i] for i in range(k, n + 1))
        try:
            weights[k] = acc / r**n
        except OverflowError:
            raise ValueError(f"n={n}: the alternating-sum weights overflow a float") from None
    return weights


def thermal_fidelity_by_weights(two_j: int, theta: float, gamma: float) -> float:
    """``thermal_fidelity`` from the moments of m summed over the 2j+1 Gibbs weights."""
    weights = thermal_state(two_j, gamma).weights
    m = two_m_values(two_j) / 2.0
    return float(_fidelity_from_moments(heisenberg.entanglement_fidelity_coefficients(two_j, theta),
                                        weights @ m, weights @ (m * m)))


def uses_before_by_scan(two_j: int, theta: float, fails, level: float, cap: int
                        ) -> tuple[int, bool]:
    """``memory._uses_before`` by a scan of every use from s = 0, 4,096 uses per array,
    that stops only at a failing use, at the cap, or once (B + C) rho^s < |F_inf - level|
    (rho = max(|r1|, |r2|), or |r1| at 2j = 1): O(steps) where the library's search is
    O(log cap).  No scan is needed where F is non-increasing and F_inf passes."""
    schedule = _fixed_schedule(two_j, theta)
    f_inf = schedule(math.inf)
    c = _rate(two_j, heisenberg.f_angle(two_j, theta))
    r1, r2 = 1.0 - 2.0 * c, 1.0 - 6.0 * c
    if r1 >= 0.0 and (two_j == 1 or r2 >= 0.0) and not fails(f_inf, level):
        return cap, True
    tail = abs(schedule(0) - f_inf)
    rho = abs(r1) if two_j == 1 else max(abs(r1), abs(r2))
    for start in range(0, cap, 4096):
        s = np.arange(start, min(start + 4096, cap))
        hit = np.flatnonzero(fails(schedule(s), level))
        if hit.size:
            return start + int(hit[0]), False
        if c == 0.0 or (rho < 1.0 and tail * rho ** int(s[-1]) < abs(f_inf - level)):
            break
    return cap, True


def band_fidelities(bands, probe: np.ndarray, psi: np.ndarray, target: np.ndarray) -> np.ndarray:
    """sum_i |<target| (G (probe (x) psi))_i>|^2 from the ``qubit_bands`` of the gate G
    on complex probe states: output row i is (t0 s0 d0_i + t1 s1 d1_i) p_i
    + t0 s1 up_i p_(i-1) + t1 s0 lo_i p_(i+1), with t = conj(target), s = psi and p = probe."""
    d0, d1, up, lo = bands
    t0, t1 = target.conj().T[:, :, None]
    s0, s1 = psi.T[:, :, None]
    amp = (t0 * s0 * d0 + t1 * s1 * d1) * probe
    amp[:, 1:] += t0 * s1 * up[1:] * probe[:, :-1]
    amp[:, :-1] += t1 * s0 * lo[:-1] * probe[:, 1:]
    return np.sum(np.abs(amp) ** 2, axis=1)


@record
class ExactTarget(Record):
    """Oracle strategy that applies the target gate itself (fidelity 1)."""

    two_k: int = 1


def _exact_target_samples(strategy: ExactTarget, theta: float, rng: np.random.Generator,
                          n: int):
    dk = dim(strategy.two_k)
    for q, psi in montecarlo._draws(rng, n, None, dk, montecarlo._JOINT_FLOATS * dk * dk):
        out = _target_states(q, theta, psi)
        yield np.abs(np.einsum("ni,ni->n", out, out.conj())) ** 2


def exact_target_fidelity(strategy: ExactTarget, theta: float, n_samples: int,
                          seed) -> FidelityEstimate:
    """``mc_average_fidelity`` of ``ExactTarget``: |<V psi|V psi>|^2 on the library's
    blocks of draws and target states V_(theta,g) psi, seeded the same way."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    return FidelityEstimate.from_blocks(_exact_target_samples(strategy, theta, rng, n_samples))


def per_rotation_fidelity(strategy, theta: float, g_quaternion, n_samples: int,
                          seed) -> FidelityEstimate:
    """State-averaged fidelity at one fixed training rotation (covariance probe);
    ``g_quaternion`` must be one finite unit quaternion (w, x, y, z), norm within 1e-12 of 1."""
    spins._check_count("n_samples", n_samples, 1)
    spins._check_theta(theta)
    q = np.asarray(g_quaternion, dtype=float)
    if q.shape != (4,) or not np.all(np.isfinite(q)) or abs(np.linalg.norm(q) - 1.0) > 1e-12:
        raise ValueError(f"g_quaternion must be a finite unit quaternion of shape (4,), "
                         f"got {g_quaternion!r}")
    rng = np.random.default_rng(seed)
    return FidelityEstimate.from_blocks(montecarlo._strategy_samples(strategy, theta, rng,
                                                                     n_samples, q_g=q))
