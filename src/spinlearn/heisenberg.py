"""Isotropic spin-spin interaction gates and their gate-learning fidelities.

The memory spin j and the target spin k interact through the rotationally
invariant coupling J.K; the gate is diagonal on total-spin blocks, which
makes its action cheap at any j.  For a qubit target the interaction angle
is the optimised function f(theta); for larger targets the angle is theta
itself (the large-j heuristic), reduced to [-pi, pi]: theta - 2 pi gives
the same target up to a phase, and theta and 2 pi - theta, a rotation and
its inverse, then give the same fidelity.

The gate acts sector by sector of total M: contract the amplitudes with the
sector's Clebsch-Gordan table g, multiply by the block phases, contract with
g again.  For a qubit target every sector but the two stretched ones is a
contiguous pair of product indices, so all of them run at once as
arithmetic on two strided slices, in the same two stages and with the same
g and phases, which gives the per-sector loop's results bit for bit.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import spins
from ._numpy import np
from ._record import Record, record
from .channels import average_from_entanglement
from .spins import (_check_nonzero_j, _check_target_spin, _check_theta, check_two_j,
                    check_valid_m, clebsch_gordan, dim, two_m_values)


def f_angle(two_j: int, theta: float) -> float:
    """Optimal interaction angle for a qubit target.

    Branch-safe two-argument-arctangent form of
    arccot[cot(theta) + 1/((2j+1) sin(theta))] + s(theta), continuous on
    (0, 2pi) and equal to 0 at theta = 0.
    """
    check_two_j(two_j)
    _check_theta(theta)
    n = two_j + 1  # 2j + 1
    ang = math.atan2(n * math.sin(theta), n * math.cos(theta) + 1.0)
    return ang % (2.0 * math.pi)


def _f_angle_from_moments(two_j: int, sin_t: float, cos_t: float, mean_m: float,
                          mean_m2: float) -> float:
    """The angle f maximizing the qubit-target fidelity from a memory with these moments of
    m, given sin theta and cos theta, for arguments the caller has already checked.  That
    fidelity is P + Q cos f + R sin f, so f = atan2(R, Q) = atan2((2j+1)<m> sin theta,
    j(j+1)(1 + cos theta) - <m^2>(1 - cos theta)): f(theta) at m = j (up to 2 pi), 0 (the
    identity gate) at m = 0."""
    j = two_j / 2.0
    return math.atan2((two_j + 1.0) * mean_m * sin_t,
                      j * (j + 1.0) * (1.0 + cos_t) - mean_m2 * (1.0 - cos_t))


def interaction_time(two_j: int, theta: float, coupling_alpha: float,
                     hbar: float = 1.0) -> float:
    """Evolution time t = f(theta) / ((2j+1) alpha hbar) realizing the gate; a
    coupling or hbar that is not positive and finite raises a ValueError naming it."""
    for name, value in (("coupling_alpha", coupling_alpha), ("hbar", hbar)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return f_angle(two_j, theta) / ((two_j + 1) * coupling_alpha * hbar)


@lru_cache(maxsize=None)
def _coupling_sectors(two_j: int, two_k: int):
    """Per total-M sectors of the (j, k) product basis.

    Each sector is (pair_indices, two_t_list, G) with G[t, pair] the
    Clebsch-Gordan coefficient <j m; k mu | t M>, read off the pair tables.
    Sectors run over M descending, pairs over m descending.
    """
    check_two_j(two_j)
    check_two_j(two_k)
    all_ts = range(abs(two_j - two_k), two_j + two_k + 1, 2)
    tables = {tt: spins._pair_coupling_table(two_j, two_k, tt) for tt in all_ts}
    out = []
    for s in range(two_j + two_k + 1):  # two_M = two_j + two_k - 2s
        i1 = np.arange(max(0, s - two_k), min(two_j, s) + 1)
        two_ts = [tt for tt in all_ts if abs(two_j + two_k - 2 * s) <= tt]
        g = np.array([tables[tt][i1, s - i1] for tt in two_ts])
        out.append((i1 * dim(two_k) + s - i1, np.array(two_ts), g))
    return tuple(out)


def _block_phases(two_j: int, two_k: int, two_ts: np.ndarray, angle: float) -> np.ndarray:
    # eigenvalue of 2 J.K on the total-spin-t block
    tt = two_ts / 2.0
    j = two_j / 2.0
    k = two_k / 2.0
    eig = tt * (tt + 1.0) - j * (j + 1.0) - k * (k + 1.0)
    return np.exp(-1j * angle * eig / (two_j + 1.0))


_PAIR_BLOCK_ELEMENTS = 1 << 15  # per block buffer of the qubit-target gate


def _apply_sectors(out: np.ndarray, two_j: int, two_k: int, angle: float, sectors) -> None:
    """Rotate ``out`` in place, one total-M sector at a time: contract the
    sector's amplitudes with its Clebsch-Gordan table g, multiply by the
    block phases, and contract with g again."""
    for idx, two_ts, g in sectors:
        phases = _block_phases(two_j, two_k, two_ts, angle)
        amps = out[..., idx]
        w = np.einsum("...p,tp->...t", amps, g) * phases
        out[..., idx] = np.einsum("...t,tp->...p", w, g)


@lru_cache(maxsize=None)
def _qubit_pair_tables(two_j: int) -> np.ndarray:
    """g[t, p] of the 2j two-pair sectors of a qubit target, stacked as (2, 2, 2j)."""
    sectors = _coupling_sectors(two_j, 1)[1:-1]
    g = np.array([s[2] for s in sectors]).transpose(1, 2, 0).copy()
    g.setflags(write=False)
    return g


def _apply_qubit_sectors(out: np.ndarray, two_j: int, angle: float) -> None:
    """``_apply_sectors`` for a qubit target, with the middle sectors as slices.

    Sector M = j - i + 1/2 (0 < i <= 2j) is the contiguous pair (2i-1, 2i)
    of the product index, so all of them are two strided slices.  Each keeps
    the loop's two-stage arithmetic, (a0 g[t,0] + a1 g[t,1]) phase_t and
    then w0 g[0,p] + w1 g[1,p], so the result has the loop's bits; a
    precombined 2x2 unitary would round differently.  Rows go in blocks of
    about ``_PAIR_BLOCK_ELEMENTS`` slice elements through three buffers
    allocated once per call, so the extra memory is bounded whatever the
    batch; a single vector is one block.
    """
    sectors = _coupling_sectors(two_j, 1)
    _apply_sectors(out, two_j, 1, angle, (sectors[0], sectors[-1]))
    if two_j == 0:
        return
    g = _qubit_pair_tables(two_j)
    phases = _block_phases(two_j, 1, sectors[1][1], angle)
    rows = out.reshape(-1, out.shape[-1])
    step = max(1, min(len(rows), _PAIR_BLOCK_ELEMENTS // two_j))
    buffers = np.empty((3, step, two_j), dtype=complex)
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        acc, w0, w1 = buffers[:, :len(block)]
        a0, a1 = block[:, 1:-1:2], block[:, 2:-1:2]
        # the phase products write to a separate buffer, because numpy rounds
        # an in-place complex product of one element differently
        np.multiply(a0, g[0, 0], out=acc)
        acc += np.multiply(a1, g[0, 1], out=w0)
        np.multiply(acc, phases[0], out=w0)
        np.multiply(a0, g[1, 0], out=acc)
        acc += np.multiply(a1, g[1, 1], out=w1)
        np.multiply(acc, phases[1], out=w1)
        np.multiply(w0, g[0, 0], out=a0)
        a0 += np.multiply(w1, g[1, 0], out=acc)
        np.multiply(w0, g[0, 1], out=a1)
        a1 += np.multiply(w1, g[1, 1], out=acc)


@record
class HeisenbergGate(Record):
    """Unitary exp[-i * angle * 2 J.K / (2j+1)] on the (j (x) k) space."""

    two_j: int
    two_k: int
    theta: float
    angle: float  # resolved interaction angle (f(theta) for a qubit target)

    @property
    def dim_total(self) -> int:
        return dim(self.two_j) * dim(self.two_k)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Apply the gate to vectors with the product index on the last axis.

        A qubit target takes the slice form ``_apply_qubit_sectors``, a fixed
        number of numpy calls per block of rows at any j; larger targets
        loop over the total-M sectors in ``_apply_sectors``.  Both contract
        with g, apply the phases and contract with g again, in that order:
        folding the stages into one 2x2 unitary per sector would change the
        rounding, and with it the polar angle ``worst_case_fidelity``'s
        search returns.
        """
        vec = np.asarray(vec)
        if vec.shape[-1:] != (self.dim_total,):
            raise ValueError(f"vectors must have last axis dim_total={self.dim_total} "
                             f"(2j={self.two_j}, 2k={self.two_k}), got shape {vec.shape}")
        out = np.array(vec, dtype=complex, order="C")
        if self.two_k == 1:
            _apply_qubit_sectors(out, self.two_j, self.angle)
        else:
            _apply_sectors(out, self.two_j, self.two_k, self.angle,
                           _coupling_sectors(self.two_j, self.two_k))
        return out

    def qubit_bands(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(d0, d1, up, lo), the four bands of the qubit-target gate G (it conserves
        total M): with product index 2i + k (m = j - i; k = 0 up, 1 down), d0[i] =
        G[2i, 2i], d1[i] = G[2i+1, 2i+1], up[i] = G[2i, 2i-1], lo[i] = G[2i+1, 2i+2],
        read off ``apply`` on two comb vectors (ones at the even or the odd indices)."""
        if self.two_k != 1:
            raise ValueError(f"bands are defined for a qubit target, got two_k={self.two_k}")
        even, odd = self.apply(np.arange(self.dim_total) % 2 == np.arange(2)[:, None])
        return even[0::2], odd[1::2], odd[0::2], even[1::2]


def heisenberg_unitary(two_j: int, two_k: int, theta: float,
                       f_override: float | None = None) -> HeisenbergGate:
    check_two_j(two_j)
    _check_target_spin(two_k)
    _check_theta(theta)
    if f_override is not None:
        angle = float(_check_theta(f_override, "f_override"))
    elif two_k == 1:
        angle = f_angle(two_j, theta)
    else:
        angle = math.remainder(theta, 2.0 * math.pi)
    return HeisenbergGate(two_j=two_j, two_k=two_k, theta=float(theta), angle=angle)


def entanglement_fidelity_coefficients(two_j: int, theta: float, f_override: float | None = None
                                       ) -> tuple[float, float, float]:
    """(a0, a1, a2): the entanglement fidelity from memory |j,m>_g is a0 + a1 m + a2 m^2.

    The gate keeps |j,m>|up>, |j,m>|down> with amplitudes u+- = A +- B m, where
    A = (e (j+1) + j)/(2j+1), B = (e - 1)/(2j+1), e = exp(-i f), and the fidelity
    is (|u+|^2 + |u-|^2 + 2 Re[exp(i theta) u+ conj(u-)])/4.
    """
    check_two_j(two_j)
    _check_theta(theta)
    f = f_angle(two_j, theta) if f_override is None else _check_theta(f_override, "f_override")
    return _coefficients(two_j, math.sin(theta), math.cos(theta), f)


def _coefficients(two_j: int, sin_t: float, cos_t: float, f: float) -> tuple[float, float, float]:
    """``entanglement_fidelity_coefficients`` given sin theta and cos theta, for arguments the
    caller has already checked."""
    j = two_j / 2.0
    n = two_j + 1.0
    abs_a_sq = ((j + 1.0) ** 2 + j * j + 2.0 * j * (j + 1.0) * math.cos(f)) / (n * n)
    return (0.5 * abs_a_sq * (1.0 + cos_t), sin_t * math.sin(f) / n,
            (1.0 - math.cos(f)) * (1.0 - cos_t) / (n * n))


def entanglement_fidelity_given_m(two_j: int, two_m: int, theta: float,
                                  f_override: float | None = None) -> float:
    """Exact entanglement fidelity of the gate with memory state |j,m>_g: the
    quadratic of ``entanglement_fidelity_coefficients`` evaluated at m."""
    check_valid_m(two_j, two_m)
    a0, a1, a2 = entanglement_fidelity_coefficients(two_j, theta, f_override)
    m = two_m / 2.0
    return a0 + a1 * m + a2 * m * m


def heisenberg_average_fidelity(two_j: int, theta: float,
                                f_override: float | None = None) -> float:
    """Average fidelity of the gate with the aligned coherent memory |j,j>."""
    return average_from_entanglement(
        entanglement_fidelity_given_m(two_j, two_j, theta, f_override), 2)


def per_input_fidelity(two_j: int, theta: float, polar: float, azimuth: float = 0.0) -> float:
    """Exact fidelity for one target state at polar/azimuth angles from the axis.

    The memory holds the coherent state |j,j> along z, the rotation axis; the
    target state is cos(polar/2)|up> + exp(i azimuth) sin(polar/2)|down>.  By
    covariance, any other axis gives the same value at the same relative angles.
    """
    gate = heisenberg_unitary(two_j, 1, theta)
    _check_theta(polar, "polar")
    _check_theta(azimuth, "azimuth")
    psi = np.array([math.cos(polar / 2.0),
                    np.exp(1j * azimuth) * math.sin(polar / 2.0)], dtype=complex)
    probe = np.zeros(dim(two_j), dtype=complex)
    probe[0] = 1.0
    target = np.diag(np.exp(-0.5j * theta * np.array([1.0, -1.0]))) @ psi
    out = gate.apply(np.kron(probe, psi)).reshape(dim(two_j), 2)
    return float(np.sum(np.abs(out @ target.conj()) ** 2))


def _golden_minimize(fun, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    x = 0.5 * (a + b)
    return x, fun(x)


def worst_case_fidelity(two_j: int, theta: float) -> tuple[float, float]:
    """Minimum per-input fidelity and the minimizing polar angle.

    The per-input fidelity does not depend on the azimuth, so this is a
    golden-section search over the polar angle on a coarse-grid bracket.
    """
    _check_theta(theta)
    grid = np.linspace(0.0, math.pi, 65)
    vals = [per_input_fidelity(two_j, theta, a) for a in grid]
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    x, fx = _golden_minimize(lambda a: per_input_fidelity(two_j, theta, a), lo, hi)
    if vals[i] < fx:
        x, fx = grid[i], vals[i]
    return float(fx), float(x)


def spin_k_entanglement_fidelity_exact(two_j: int, two_k: int, theta: float) -> float:
    """Entanglement fidelity of the spin-k gate on the maximally entangled state.

    The gate conserves total M, so only the diagonal amplitudes
    <j j; k mu|U|j j; k mu> = sum_T <j j; k mu|T, j+mu>^2 exp(-i a eps_T/(2j+1))
    enter: F_e = |sum_mu exp(i theta mu) <j j; k mu|U|j j; k mu>|^2 / (2k+1)^2,
    with a the gate's angle and eps_T the eigenvalue of 2 J.K on block T.
    """
    check_two_j(two_j)
    _check_target_spin(two_k)
    angle = heisenberg_unitary(two_j, two_k, theta).angle
    two_ts = np.arange(abs(two_j - two_k), two_j + two_k + 1, 2)
    total = 0j
    for two_mu in two_m_values(two_k):
        block = two_ts[two_ts >= abs(two_j + two_mu)]
        cg2 = np.array([clebsch_gordan(two_j, two_j, two_k, two_mu, tt, two_j + two_mu) ** 2
                        for tt in block])
        total += np.exp(0.5j * theta * two_mu) * (cg2 @ _block_phases(two_j, two_k, block, angle))
    return float(abs(total) ** 2) / dim(two_k) ** 2


def spin_k_fidelity(two_j: int, two_k: int, theta: float, mode: str = "exact") -> float:
    """Average fidelity of the Heisenberg gate on a spin-k target, exact or leading order: a
    heuristic, not the optimum.  Over 2j <= 40, 2k <= 8, theta in pi/24, ..., pi the exact one is
    under ``mo.spin_k_mo_quadrature`` at 1,372 of 7,680 points, worst -0.102 at (18, 8, pi)."""
    k = _check_target_spin(two_k)
    _check_theta(theta)
    if mode == "exact":
        fe = min(spin_k_entanglement_fidelity_exact(two_j, two_k, theta), 1.0)
        return average_from_entanglement(fe, dim(two_k))
    if mode == "asymptotic":
        return 1.0 - k * (2.0 * k + 1.0) * (1.0 - math.cos(theta)) / (3.0 * _check_nonzero_j(two_j))
    raise ValueError(f"unknown mode {mode!r}")


def spin_k_worst_case_asymptotic(two_j: int, two_k: int, theta: float) -> float:
    """Leading-order worst-case fidelity; the constant c(k) is defined for integer k."""
    _check_target_spin(two_k)
    _check_theta(theta)
    if two_k % 2 != 0:
        raise ValueError("worst-case constant is only defined for integer k")
    k = two_k // 2
    c = 0.0 if k % 2 == 0 else 0.25
    j = _check_nonzero_j(two_j)
    return 1.0 - (k * (k + 1.0) + c) * (1.0 - math.cos(theta)) / j
