"""Finite-dimensional angular momentum algebra.

Half-integer spins are carried everywhere as ``two_j = 2j`` integers so the
special values j = 1/2, 1 dispatch exactly.  The |j,m> basis is ordered with
m descending, m = j, j-1, ..., -j, and Clebsch-Gordan coefficients follow the
Condon-Shortley phase convention.  Rotated states are read off unit quaternions with
no Euler angle: ``rotated_basis_states_batch`` is the SU(2) representation itself.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache

from ._numpy import np
from ._record import Record, record
from .rotations import _alpha_phase_and_moduli


class InvalidQuantumNumbersError(ValueError):
    """Raised when spin/magnetic quantum numbers violate their constraints."""


def _is_integer(x) -> bool:  # Python or numpy; int is tested first, 7x cheaper than the ABC
    return isinstance(x, int) or isinstance(x, numbers.Integral)


def check_two_j(two_j: int) -> int:
    if not _is_integer(two_j) or two_j < 0:
        raise InvalidQuantumNumbersError(f"two_j must be a non-negative integer, got {two_j!r}")
    return int(two_j)


def _check_nonzero_j(two_j: int) -> float:
    """j for a ``two_j`` >= 1; a spin-0 memory carries no direction to learn or lose."""
    if check_two_j(two_j) == 0:
        raise InvalidQuantumNumbersError(f"two_j={two_j}: a spin-0 memory carries no direction")
    return two_j / 2.0


def _check_target_spin(two_k: int) -> float:
    """k for a target ``two_k`` >= 1; a spin-0 target has no rotation to learn."""
    if not _is_integer(two_k):
        raise InvalidQuantumNumbersError(f"two_k must be an integer, got {two_k!r}")
    if two_k < 1:
        raise InvalidQuantumNumbersError("target must be at least a qubit (two_k >= 1)")
    return two_k / 2.0


def _check_count(name: str, value: int, low: int) -> None:
    if not _is_integer(value) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_theta(theta: float, name: str = "theta") -> float:
    if not math.isfinite(theta):
        raise ValueError(f"{name} must be finite, got {theta!r}")
    return theta


def dim(two_j: int) -> int:
    return check_two_j(two_j) + 1


def two_m_values(two_j: int) -> np.ndarray:
    """Magnetic numbers 2m in basis order (descending from two_j to -two_j)."""
    return np.arange(check_two_j(two_j), -two_j - 1, -2)


def m_values(two_j: int) -> np.ndarray:
    return two_m_values(two_j) / 2.0


def basis_index(two_j: int, two_m: int) -> int:
    check_valid_m(two_j, two_m)
    return (two_j - two_m) // 2


def check_valid_m(two_j: int, two_m: int) -> None:
    check_two_j(two_j)
    if abs(two_m) > two_j or (two_j - two_m) % 2 != 0:
        raise InvalidQuantumNumbersError(f"two_m={two_m} invalid for two_j={two_j}")


def spin_operators(two_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin matrices (Jx, Jy, Jz) in the descending-m basis.

    Jz is diagonal and J+- are built from the ladder formula
    sqrt(j(j+1) - m(m+-1)).
    """
    d = dim(two_j)
    m = m_values(two_j)
    j = two_j / 2.0
    jz = np.diag(m).astype(complex)
    # J+ |j,m> = sqrt(j(j+1)-m(m+1)) |j,m+1>; row index m+1 sits one step up.
    ladder = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    jplus = np.zeros((d, d), dtype=complex)
    jplus[np.arange(d - 1), np.arange(1, d)] = ladder
    jminus = jplus.conj().T
    jx = 0.5 * (jplus + jminus)
    jy = -0.5j * (jplus - jminus)
    return jx, jy, jz


@lru_cache(maxsize=None)
def _jy_eigensystem(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    _, jy, _ = spin_operators(two_j)
    vals, vecs = np.linalg.eigh(jy)
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return vals, vecs


def rotation_y_irrep(two_j: int, beta) -> np.ndarray:
    """exp(-i*beta*Jy) via the spectral decomposition of Jy; batched over beta."""
    vals, vecs = _jy_eigensystem(two_j)
    beta = np.asarray(beta, dtype=float)
    phases = np.exp(-1j * beta[..., None] * vals)
    return np.einsum("ik,...k,jk->...ij", vecs, phases, vecs.conj())


@lru_cache(maxsize=None)
def _cos_beta_law(two_j: int, two_m: int, xi_two_n: int) -> tuple[np.ndarray, ...]:
    """(density, cdf, nodes, levels): Chebyshev series in x = cos(beta) of the density
    |d^j_{xi m}|^2 and of its exact integral from -1, and the CDF at 4j + 9 evenly
    spaced nodes (made non-decreasing), the bracket table of ``mo._cos_beta_quantiles``.

    In x the density is a polynomial of degree 2j: its Chebyshev coefficients are the
    cosine-series coefficients in beta, the autocorrelation of the amplitude's
    Jy-eigenbasis weights (frequency = eigenvalue difference)."""
    from numpy.polynomial import chebyshev

    _, vecs = _jy_eigensystem(two_j)
    weights = vecs[basis_index(two_j, xi_two_n)] * vecs[basis_index(two_j, two_m)].conj()
    lags = np.correlate(weights, weights, "full")[two_j:].real  # frequencies 0..2j
    density = np.concatenate([lags[:1], 2.0 * lags[1:]])
    cdf = chebyshev.chebint(density, lbnd=-1.0)
    nodes = np.linspace(-1.0, 1.0, 2 * two_j + 9)
    levels = np.maximum.accumulate(chebyshev.chebval(nodes, cdf))
    for table in (density, cdf, nodes, levels):
        table.setflags(write=False)
    return density, cdf, nodes, levels


def wigner_d_omega_columns(two_j: int, quaternions: np.ndarray, two_m
                           ) -> tuple[np.ndarray, np.ndarray]:
    """(omega, r): omega = e^(i alpha) read off the quaternions with no Euler angle (1 where
    beta = 0 or pi: r is one-hot there, up to rounding in rows m != j, so alpha is a
    convention) and the real Wigner-d columns r[:, i] = d^j_(j-i, m)(beta), so U_g|j,m> is
    e^(i phi) omega^i r[:, i] at index i; ``two_m`` scalar or per sample, else
    InvalidQuantumNumbersError."""
    omega, cos_half, sin_half = _alpha_phase_and_moduli(quaternions)
    return omega, _real_columns(two_j, two_m, cos_half, sin_half)


def _real_columns(two_j: int, two_m, cos_half: np.ndarray, sin_half: np.ndarray) -> np.ndarray:
    """The columns r of ``wigner_d_omega_columns`` from the two quaternion moduli |(w, z)|
    and |(x, y)|, whose ratio is tan(beta/2).  Rows with m = j take the binomial column in
    log space (``_coherent_columns``, O(d), exact at beta = 0 and pi, never overflows; bit
    for bit the scalar call), the others the column of exp(-i beta Jy), beta = 2 atan2,
    from the Jy eigenbasis, one BLAS matmul, O(d^2) per row."""
    check_two_j(two_j)
    two_m_arr = np.asarray(two_m)
    if (two_m_arr.dtype.kind not in "iu" or np.any(np.abs(two_m_arr) > two_j)
            or np.any((two_j - two_m_arr) % 2)):
        raise InvalidQuantumNumbersError(f"two_m={two_m!r} invalid for two_j={two_j}")
    top = np.broadcast_to(two_m_arr == two_j, cos_half.shape)
    if top.all():
        return _coherent_columns(two_j, cos_half, sin_half)
    # the other rows: one matmul, a lone row twice (BLAS gemv rounds unlike gemm)
    rest = np.flatnonzero(~top)
    rows = np.repeat(rest, 2) if len(rest) == 1 else rest
    beta = 2.0 * np.arctan2(sin_half[rows], cos_half[rows])
    vals, vecs = _jy_eigensystem(two_j)
    rotated = np.exp(-1j * np.multiply.outer(beta, vals))
    rotated *= vecs.conj()[(two_j - np.broadcast_to(two_m_arr, top.shape)[rows]) // 2]
    out = np.empty(top.shape + (two_j + 1,))
    out[top] = _coherent_columns(two_j, cos_half[top], sin_half[top])
    out[rest] = (rotated @ vecs.T)[:len(rest)].real
    return out


def _coherent_columns(two_j: int, cos_half: np.ndarray, sin_half: np.ndarray) -> np.ndarray:
    """sqrt(C(2j, k)) cos^(2j-k) sin^k of beta/2 as C^(1/2) b^(2j) (s/b)^k in log space, b the
    larger of the two (reversed where it is the sine): exact near the peak, one array; the
    unnormalized cosine and sine are the moduli |(w, z)| and |(x, y)| of the quaternions."""
    norm = np.hypot(cos_half, sin_half)
    k = np.arange(two_j + 1)  # j - m'
    with np.errstate(divide="ignore", invalid="ignore"):
        log_big = np.log(np.maximum(cos_half, sin_half) / norm)
        ratio = np.log(np.minimum(cos_half, sin_half) / norm) - log_big
        log_amp = np.multiply.outer(ratio, k)
    log_amp += _log_sqrt_binomials(two_j)
    log_amp += two_j * log_big[:, None]
    out = np.exp(log_amp, out=log_amp)
    out[ratio == -np.inf] = k == 0  # beta = 0 or pi
    flip = sin_half > cos_half
    out[flip] = out[flip, ::-1]
    return out


def rotated_basis_states_batch(two_j: int, quaternions: np.ndarray, two_m) -> np.ndarray:
    """(n, 2j+1) states U_g|j,m> of the SU(2) representation (-q gives (-1)^(2j) times q's):
    e^(-i (s (j+m-i) + t (j-m-i))) r_i at index i, s = atan2(z, w) and t = atan2(-x, y), r the
    columns of ``wigner_d_omega_columns``; integer multipliers, no angle reduced mod 2 pi, and
    at beta = 0 (pi), where t (s) is arbitrary, r is one-hot where its multiplier is 0."""
    w, x, y, z = np.moveaxis(np.asarray(quaternions, dtype=float), -1, 0)
    column = _real_columns(two_j, two_m, np.hypot(w, z), np.hypot(x, y))
    two_m = np.asarray(two_m)[..., None]
    up = (two_j + two_m) // 2 - np.arange(two_j + 1)  # j + m - i; j - m - i = up - 2m
    phase = np.arctan2(z, w)[:, None] * up + np.arctan2(-x, y)[:, None] * (up - two_m)
    return np.exp(-1j * phase) * column


@lru_cache(maxsize=None)
def _log_sqrt_binomials(two_j: int) -> np.ndarray:
    """log sqrt(C(2j, k)), k = 0..2j, each the log of the exact integer C(2j, k), stepped
    as C(2j, k + 1) = C(2j, k) (2j - k) / (k + 1): a difference of log-gammas near 2.0e3
    carries their rounding (5e-14 at 2j = 400), and ``math.comb`` per k takes 80 s at
    2j = 2e4."""
    comb, logs = 1, []
    for k in range(two_j + 1):
        logs.append(0.5 * math.log(comb))
        comb = comb * (two_j - k) // (k + 1)
    out = np.array(logs)
    out.setflags(write=False)
    return out


def clebsch_gordan(two_j1: int, two_m1: int, two_j2: int, two_m2: int,
                   two_J: int, two_M: int) -> float:
    """Condon-Shortley Clebsch-Gordan coefficient <j1 m1; j2 m2 | J M>.

    All arguments are twice the physical value.  Raises
    InvalidQuantumNumbersError when the quantum numbers violate the triangle
    inequality, the selection rule M = m1 + m2, or parity; vanishing but
    allowed coefficients return 0.0.  The log-factorials carry lgamma's rounding,
    which grows with the spins: against the closed form of a j (x) 1/2 coupling the
    error is 2.1e-15 at 2j = 8, 1.7e-14 at 32, 1.1e-13 at 128 and 4.9e-13 at 400.
    """
    for two_j, two_m in ((two_j1, two_m1), (two_j2, two_m2), (two_J, two_M)):
        check_valid_m(two_j, two_m)
    if two_m1 + two_m2 != two_M:
        raise InvalidQuantumNumbersError("selection rule m1 + m2 = M violated")
    if not (abs(two_j1 - two_j2) <= two_J <= two_j1 + two_j2):
        raise InvalidQuantumNumbersError("triangle inequality violated")
    if (two_j1 + two_j2 + two_J) % 2 != 0:
        raise InvalidQuantumNumbersError("j1 + j2 + J must be an integer")

    # Racah's closed form with log-factorial accumulation.
    def f(two_n: int) -> float:
        if two_n % 2 != 0:
            raise InvalidQuantumNumbersError("half-integer factorial argument")
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


@lru_cache(maxsize=None)
def _pair_coupling_table(two_j1: int, two_j2: int, two_J: int) -> np.ndarray:
    """(d1, d2) table of <j1 m1; j2 m2 | J, m1 + m2> over the product basis,
    0 where |m1 + m2| > J; Racah's sum with Python-int arguments."""
    table = np.zeros((dim(two_j1), dim(two_j2)))
    for i1 in range(two_j1 + 1):
        for i2 in range(two_j2 + 1):
            two_m1, two_m2 = two_j1 - 2 * i1, two_j2 - 2 * i2
            if abs(two_m1 + two_m2) <= two_J:
                table[i1, i2] = clebsch_gordan(two_j1, two_m1, two_j2, two_m2, two_J,
                                               two_m1 + two_m2)
    table.setflags(write=False)
    return table


@record
class CouplingCoeffs(Record):
    """Coefficients of |j,-m> (x) |Phi*_theta> on the four covariant blocks."""

    a: complex
    b: complex
    c_plus: complex
    c_minus: complex


def coupling_decomposition(two_j: int, two_m: int, theta: float) -> CouplingCoeffs:
    """Block coefficients (a, b, c+, c-) for probe index m and angle theta.

    The j-1 amplitude ``b`` is identically 0 for two_j == 1, where that block
    does not exist.  A spin-0 memory (two_j == 0) and a non-finite theta are
    rejected.
    """
    check_valid_m(two_j, two_m)
    j = _check_nonzero_j(two_j)
    _check_theta(theta)
    m = two_m / 2.0
    s = math.sin(theta / 2.0)
    c = math.cos(theta / 2.0)
    a = -1j * s * math.sqrt((j + 1 + m) * (j + 1 - m) / ((j + 1) * (2 * j + 1)))
    if two_j >= 2:
        b = 1j * s * math.sqrt((j + m) * (j - m) / (j * (2 * j + 1)))
    else:
        b = 0.0
    c_plus = -c * math.sqrt((j + 1) / (2 * j + 1)) - 1j * s * m / math.sqrt((j + 1) * (2 * j + 1))
    c_minus = c * math.sqrt(j / (2 * j + 1)) - 1j * s * m / math.sqrt(j * (2 * j + 1))
    return CouplingCoeffs(a=a, b=b, c_plus=c_plus, c_minus=c_minus)
