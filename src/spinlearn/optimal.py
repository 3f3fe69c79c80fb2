"""Optimal quantum strategies: closed forms, regime dispatch and the channels realizing them.

The learning channel's Choi operator lives on (probe-in (x) out (x) qubit-in);
after absorbing the conjugate representations it block-diagonalizes over the
total spin, leaving two scalars (alpha, beta) on the stretched/shrunk blocks
and a 2x2 matrix M on the doubly-degenerate spin-j block.  ``case_fidelity``
gives the stationary points in those coordinates and is the test reference of the
closed forms.  One grid evaluator per (spin, problem), ``_regimes``, dispatches them over
a list of angles in one loop of scalar ``math``, for the CLI sweeps and, on a one-angle
grid, for the scalar calls; the dense Choi operator is built only by the test oracle
``covariant_choi_build``.

The case-1 channel is the spin-spin gate: for probe index m it is the Heisenberg
gate at the angle f_m of ``heisenberg._f_angle_from_moments`` with the probe traced
out, so ``case_choi_channel`` reads its Kraus operators off the gate; ``unot_mixture_channel``
builds the j = 1/2 case-2 optimum, a measurement and then the gate or the universal NOT.
"""

from __future__ import annotations

import cmath
import math

from . import heisenberg, spins
from ._numpy import np
from ._record import Record, record
from .channels import KrausChannel
from .spins import CouplingCoeffs, check_valid_m, coupling_decomposition, dim
from .strategies import (
    CaseChoiStrategy,
    DiscreteXYZ,
    HeisenbergStrategy,
    StrategyDescriptor,
    UNotMixture,
)

class CaseNotApplicableError(ValueError):
    """Raised when a stationary case does not exist for the given spin/angle."""


@record
class CovariantChoiParams(Record):
    """Block coordinates (alpha, beta, M) of a covariant learning channel.

    ``beta`` is None for two_j == 1, where the spin j-1 block does not exist
    and the second trace-preservation constraint degenerates.
    """

    alpha: float
    beta: float | None
    m_matrix: np.ndarray


def _check_beta(params: CovariantChoiParams, two_j: int) -> None:
    if two_j >= 2 and params.beta is None:
        raise ValueError(f"beta is None, but two_j={two_j} has a spin j-1 block")


@record
class RegimeReport(Record):
    problem: int
    regime: str
    optimal_two_m: int
    fidelity: float
    strategy: StrategyDescriptor


_TWO_PI = 2.0 * math.pi


def _check_regime_args(two_j: int, problem: int) -> None:
    """The checks a regime evaluator makes once, before any theta."""
    if problem not in (1, 2):
        raise ValueError("problem must be 1 or 2")
    spins._check_nonzero_j(two_j)


def _regime_fidelities(fidelities: list[float]) -> list[float]:
    """Optimal average fidelities, which no strategy pushes below 1/3 or above 1."""
    for fidelity in fidelities:
        if not 1.0 / 3.0 - 1e-12 <= fidelity <= 1.0 + 1e-12:
            raise ValueError(f"fidelity {fidelity} outside [1/3, 1]")
    return fidelities


def covariant_fidelity(params: CovariantChoiParams, two_j: int, two_m: int,
                       theta: float) -> float:
    """Entanglement fidelity (alpha |a|^2 + beta |b|^2 + <c|M|c>) / 2."""
    check_valid_m(two_j, two_m)
    _check_beta(params, two_j)
    coeff = coupling_decomposition(two_j, two_m, theta)
    c_vec = np.array([coeff.c_plus, coeff.c_minus])
    val = params.alpha * abs(coeff.a) ** 2
    if params.beta is not None:
        val += params.beta * abs(coeff.b) ** 2
    val += float(np.real(c_vec.conj() @ params.m_matrix @ c_vec))
    return 0.5 * val


def _rank_one_m(t_plus: float, t_minus: float, coeff: CouplingCoeffs) -> np.ndarray:
    """Rank-one M with the given diagonal and the fidelity-maximizing phase."""
    cross = np.conj(coeff.c_plus) * coeff.c_minus
    eta = cmath.phase(cross) if abs(cross) > 0 else 0.0
    v = np.array([math.sqrt(max(t_plus, 0.0)),
                  math.sqrt(max(t_minus, 0.0)) * cmath.exp(1j * eta)])
    return np.outer(v, v.conj())


def _t_minus_pinned(two_j: int) -> float:
    return two_j / (two_j + 1.0)  # 2j / (2j+1)


def _t_plus_max(two_j: int) -> float:
    return (two_j + 2.0) / (two_j + 1.0)  # (2j+2) / (2j+1)


def _alpha_from_t_plus(two_j: int, t_plus: float) -> float:
    return ((two_j + 2.0) - (two_j + 1.0) * t_plus) / (two_j + 3.0)


def case_fidelity(case: int, two_j: int, two_m: int, theta: float
                  ) -> tuple[float, CovariantChoiParams]:
    """Stationary-point entanglement fidelity and parameters for one Lagrange case.

    Case 1: alpha = beta = 0, rank-one M saturating both constraints.
    Case 2: beta = 0, the shrunk-block weight rides on the stretched block.
    Case 3: alpha, beta at their maxima, M = 0 (needs two_j >= 2).
    The alpha = 0 mirror of case 2 is never optimal and has no case here;
    the test oracle ``brute_force_optimum`` searches the whole family.
    """
    check_valid_m(two_j, two_m)
    coeff = coupling_decomposition(two_j, two_m, theta)
    j = two_j / 2.0
    if case == 1:
        m = _rank_one_m(_t_plus_max(two_j), _t_minus_pinned(two_j), coeff)
        params = CovariantChoiParams(alpha=0.0, beta=None if two_j == 1 else 0.0, m_matrix=m)
    elif case == 2:
        d2 = (2 * j + 1) / (2 * j + 3) * abs(coeff.a) ** 2 - abs(coeff.c_plus) ** 2
        if d2 <= 1e-14:
            raise CaseNotApplicableError("case 2 stationary point does not exist here")
        v_plus = math.sqrt(_t_minus_pinned(two_j)) * abs(coeff.c_plus * coeff.c_minus) / d2
        t_plus = v_plus**2
        alpha = _alpha_from_t_plus(two_j, t_plus)
        if alpha < -1e-12:
            raise CaseNotApplicableError("case 2 weight alpha is negative here")
        m = _rank_one_m(t_plus, _t_minus_pinned(two_j), coeff)
        params = CovariantChoiParams(alpha=max(alpha, 0.0),
                                     beta=None if two_j == 1 else 0.0, m_matrix=m)
    elif case == 3:
        if two_j < 2:
            raise CaseNotApplicableError("case 3 requires a spin j-1 block")
        params = CovariantChoiParams(alpha=(2 * j + 2) / (2 * j + 3),
                                     beta=2 * j / (2 * j - 1),
                                     m_matrix=np.zeros((2, 2), dtype=complex))
    else:
        raise ValueError(f"unknown case {case}")
    return covariant_fidelity(params, two_j, two_m, theta), params


def case2_alpha(theta: float) -> float:
    """Weight of the stretched block in the j = 1/2 case-2 mixture, defined in the
    window |theta - pi| <= DELTA_HALF (theta taken mod 2 pi) where that mixture is optimal."""
    spins._check_theta(theta)
    if abs(float(theta) % (2.0 * math.pi) - math.pi) > DELTA_HALF:
        raise ValueError(f"theta={theta!r} lies outside the j = 1/2 case-2 window "
                         f"|theta - pi| <= {DELTA_HALF!r}")
    c = math.cos(theta)
    return (1.0 + 8.0 * c + 9.0 * c * c) / (3.0 * (1.0 + 2.0 * c) ** 2)


# The case-2 measurement weight alpha(theta) vanishes there (the case-1/case-2
# fidelities merge tangentially, so the weight is the transversal root):
# 9c^2 + 8c + 1 = 0 with c = cos(theta), whose root near pi is c = -(4 + sqrt 7)/9.
DELTA_HALF = math.acos((4.0 + math.sqrt(7.0)) / 9.0)
# Case 1 and case 3 meet where (1 + sqrt(1 + 3c^2))^2 = 5.4 (1 - c^2),
# c = cos(theta/2), which gives cos(pi - theta) = (1 + 5 sqrt 51)/49.
DELTA_ONE = math.acos((1.0 + 5.0 * math.sqrt(51.0)) / 49.0)


def _j1_flip_fidelity(theta: float) -> float:
    """1/3 + (2/5) sin^2(theta/2), the j = 1 measure-and-flip average fidelity: the quantum
    optimum of problem 2 within DELTA_ONE of pi, the classical one within arccos(11/19)."""
    return 1.0 / 3.0 + 0.4 * math.sin(theta / 2.0) ** 2


def _regimes(two_j: int, problem: int, thetas) -> tuple[list[str], list[int], list[float]]:
    """(regimes, optimal 2m, average fidelities) of the quantum optimum at this spin, one
    per angle of ``thetas``: (2j, problem) are checked once, each theta is checked finite
    and reduced mod 2 pi.  In the j = 1/2 window case 2 gives (7 + 14x - 3x^2) / (18(1 + 2x)),
    x = cos(theta), here in y = 1 + 2x, which rounds less; in the j = 1 window case 3 gives
    ``_j1_flip_fidelity``; elsewhere case 1."""
    _check_regime_args(two_j, problem)
    window = DELTA_HALF if two_j == 1 else DELTA_ONE if two_j == 2 and problem == 2 else -1.0
    j = two_j / 2.0
    j_plus_1, norm = j + 1.0, (2 * j + 1) ** 2
    check_theta, cos, sin = spins._check_theta, math.cos, math.sin
    regimes, two_ms, fidelities = [], [], []
    for theta in thetas:
        theta = float(check_theta(theta)) % _TWO_PI
        if abs(theta - math.pi) > window:  # always, at a window of -1: case 1 at m = j
            c, s = cos(theta / 2.0), sin(theta / 2.0)
            fe = (abs(c * j_plus_1 + s * j * 1j) + abs(c * j - s * j * 1j)) ** 2 / norm
            regime, two_m, fidelity = "case1", two_j, (2 * fe + 1.0) / 3.0
        elif two_j == 1:
            y = 1.0 + 2.0 * cos(theta)
            regime, two_m, fidelity = "case2_mixture", 1, 17.0 / 36.0 - (y + 1.0 / y) / 24.0
        else:
            regime, two_m, fidelity = "j1_anomalous_problem2", 0, _j1_flip_fidelity(theta)
        regimes.append(regime)
        two_ms.append(two_m)
        fidelities.append(fidelity)
    return regimes, two_ms, _regime_fidelities(fidelities)


def optimal_fidelity(two_j: int, theta: float, problem: int = 2) -> RegimeReport:
    """Optimal average fidelity with a quantum memory, with regime dispatch.

    Problem 1 fixes the probe to the aligned coherent state; problem 2 also
    optimizes the probe.  They differ only for j = 1 near theta = pi.  Needs
    two_j >= 1 and a finite theta.
    """
    (regime,), (two_m,), (fidelity,) = _regimes(two_j, problem, (theta,))
    if regime == "case2_mixture":
        strategy = UNotMixture(alpha=case2_alpha(float(theta) % _TWO_PI))
    elif regime == "j1_anomalous_problem2":
        strategy = DiscreteXYZ()
    else:
        strategy = HeisenbergStrategy(two_j=two_j)
    return RegimeReport(problem=problem, regime=regime, optimal_two_m=two_m,
                        fidelity=fidelity, strategy=strategy)


def optimal_average_fidelity(two_j: int, theta: float, problem: int = 2) -> float:
    return _regimes(two_j, problem, (theta,))[2][0]


# ---------------------------------------------------------------------------
# Explicit strategy channels for j = 1/2 and j = 1
# ---------------------------------------------------------------------------

def _unot_instrument(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(m_yes, m_no) of the j = 1/2 block measurement on (probe (x) qubit): the
    singlet always answers "yes", the triplet "no" with probability 4 alpha/3."""
    if not 0.0 <= alpha <= 2.0 / 3.0 + 1e-12:
        raise ValueError(f"alpha must lie in [0, 2/3], got {alpha!r}")
    singlet = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    p0 = np.outer(singlet, singlet.conj())
    p1 = np.eye(4, dtype=complex) - p0
    return math.sqrt(max(1.0 - 4.0 * alpha / 3.0, 0.0)) * p1 + p0, math.sqrt(4.0 * alpha / 3.0) * p1


def unot_mixture_channel(alpha: float, theta: float) -> KrausChannel:
    """Kraus form of the j = 1/2 universal-NOT mixture: on "yes" K_p = (<p| (x) I) G m_yes for
    the gate G at theta, read off one ``apply``; on "no" the 2-to-1 universal NOT, the integral
    int dn 3 |-n><-n| <nn|.|nn>, as sqrt(1/2) |-n><nn| m_no at the axes n = +-z, +-x, +-y (axis
    i ^ 1 the antipode of axis i): that is exact, as the integrand has degree 3 in n and the
    octahedron is a spherical 3-design (the mean of its six axes is exact to degree 3)."""
    m_yes, m_no = _unot_instrument(alpha)
    g = heisenberg.heisenberg_unitary(1, 1, theta).apply(m_yes.T).T
    r = math.sqrt(0.5)
    axes = np.array([[1.0, 0.0], [0.0, 1.0], [r, r], [r, -r], [r, 1j * r], [r, -1j * r]])
    no = [r * np.outer(axes[i ^ 1], np.kron(n, n).conj()) @ m_no for i, n in enumerate(axes)]
    return KrausChannel(kraus=(*g.reshape(2, 2, 4), *no), dim_in=4, dim_out=2)


def discrete_xyz_projectors() -> list[tuple[np.ndarray, np.ndarray]]:
    """(axis, state) pairs for the three-outcome spin-1 measurement.

    Each state is the zero-eigenvalue eigenstate of the spin component along
    the paired Cartesian axis; the conditional operation is a pi rotation
    about that axis.
    """
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    x_state = np.array([inv_sqrt2, 0.0, -inv_sqrt2], dtype=complex)
    y_state = np.array([inv_sqrt2, 0.0, inv_sqrt2], dtype=complex)
    z_state = np.array([0.0, 1.0, 0.0], dtype=complex)
    return [
        (np.array([1.0, 0.0, 0.0]), x_state),
        (np.array([0.0, 1.0, 0.0]), y_state),
        (np.array([0.0, 0.0, 1.0]), z_state),
    ]


def discrete_xyz_channel() -> KrausChannel:
    """Kraus form of the three-outcome measure-and-flip strategy (j = 1)."""
    kraus = []
    for axis, state in discrete_xyz_projectors():
        flip = -1j * np.array([[axis[2], axis[0] - 1j * axis[1]],  # -i n.sigma
                               [axis[0] + 1j * axis[1], -axis[2]]])
        bra = np.kron(state.conj()[None, :], np.eye(2, dtype=complex))
        kraus.append(flip @ bra)
    return KrausChannel(kraus=tuple(kraus), dim_in=6, dim_out=2)


def case_choi_channel(strategy: CaseChoiStrategy) -> KrausChannel:
    """Kraus form of the case-1 covariant channel for probe index m: the Heisenberg gate G
    at the angle f_m, then a trace over the probe, so K_p = (<p| (x) I) G, the rows
    (p, out) of G read off one ``apply`` on the identity.  Cases 2 and 3 are not built
    here: they raise a ValueError naming ``case``."""
    if strategy.case != 1:
        raise ValueError(f"case must be 1 (the gate channel), got {strategy.case!r}")
    two_j, two_m, theta = strategy.two_j, strategy.two_m, strategy.theta
    check_valid_m(two_j, two_m)
    spins._check_nonzero_j(two_j)
    m = two_m / 2.0
    spins._check_theta(theta)
    angle = heisenberg._f_angle_from_moments(two_j, math.sin(theta), math.cos(theta), m, m * m)
    gate = heisenberg.HeisenbergGate(two_j=two_j, two_k=1, theta=float(theta), angle=angle)
    g = gate.apply(np.eye(gate.dim_total, dtype=complex)).T
    return KrausChannel(kraus=tuple(g.reshape(dim(two_j), 2, -1)), dim_in=gate.dim_total,
                        dim_out=2)
