"""Optimal quantum strategies from the covariant-channel parameterization.

The learning channel's Choi operator lives on (probe-in (x) out (x) qubit-in);
after absorbing the conjugate representations it block-diagonalizes over the
total spin, leaving two scalars (alpha, beta) on the stretched/shrunk blocks
and a 2x2 matrix M on the doubly-degenerate spin-j block.  Everything here is
written in those coordinates.

The total-spin families are an orthonormal basis in which the Choi operator
is alpha on the top family, beta on the bottom one and M on the plus/minus
pair, so its spectrum and Kraus operators are read off the families without
forming the Choi matrix: the Kraus operators are the family rows, mapped back
to the channel layout by the signed permutation e^{i pi Jy} (x) I (x) sy and
weighted by the square roots of alpha, beta and the eigenvalues of M.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from . import spins
from ._numpy import np
from .channels import KrausChannel, average_from_entanglement
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


@dataclass(frozen=True)
class CovariantChoiParams:
    """Block coordinates (alpha, beta, M) of a covariant learning channel.

    ``beta`` is None for two_j == 1, where the spin j-1 block does not exist
    and the second trace-preservation constraint degenerates.
    """

    alpha: float
    beta: float | None
    m_matrix: np.ndarray

    def m_diag(self) -> tuple[float, float]:
        return float(self.m_matrix[0, 0].real), float(self.m_matrix[1, 1].real)


def _check_beta(params: CovariantChoiParams, two_j: int) -> None:
    if two_j >= 2 and params.beta is None:
        raise ValueError(f"beta is None, but two_j={two_j} has a spin j-1 block")


def tp_residuals(params: CovariantChoiParams, two_j: int) -> tuple[float, float]:
    """Residuals of the two trace-preservation constraints (second is the
    degenerate one-block form when two_j == 1)."""
    _check_beta(params, two_j)
    j = two_j / 2.0
    t_plus, t_minus = params.m_diag()
    r1 = (2 * j + 3) / (2 * j + 2) * params.alpha + (2 * j + 1) / (2 * j + 2) * t_plus - 1.0
    if two_j == 1:
        r2 = (2 * j + 1) / (2 * j) * t_minus - 1.0
    else:
        r2 = (2 * j - 1) / (2 * j) * params.beta + (2 * j + 1) / (2 * j) * t_minus - 1.0
    return float(r1), float(r2)


def validate_params(params: CovariantChoiParams, two_j: int, tol: float = 1e-9) -> None:
    r1, r2 = tp_residuals(params, two_j)
    if abs(r1) > tol or abs(r2) > tol:
        raise ValueError(f"trace-preservation constraints violated: {r1:.2e}, {r2:.2e}")
    if params.alpha < -tol or (params.beta is not None and params.beta < -tol):
        raise ValueError("block weights must be non-negative")
    lam = np.linalg.eigvalsh(params.m_matrix)[0]  # M is Hermitian by construction
    if lam < -tol:
        raise ValueError(f"M is not positive semidefinite (min eig {lam:.2e})")


@dataclass(frozen=True)
class RegimeReport:
    problem: int
    regime: str
    optimal_two_m: int
    fidelity: float
    strategy: StrategyDescriptor


def _regime_args(two_j: int, theta: float, problem: int) -> float:
    """theta reduced to [0, 2pi) after the arguments of a regime dispatcher are checked."""
    if problem not in (1, 2):
        raise ValueError("problem must be 1 or 2")
    spins._check_nonzero_j(two_j)
    spins._check_theta(theta)
    return float(theta) % (2.0 * math.pi)


def _regime_fidelity(fidelity: float) -> float:
    """An optimal average fidelity, which no strategy pushes below 1/3 or above 1."""
    if not (1.0 / 3.0 - 1e-12 <= fidelity <= 1.0 + 1e-12):
        raise ValueError(f"fidelity {fidelity} outside [1/3, 1]")
    return fidelity


# ---------------------------------------------------------------------------
# Coupled basis on (probe, out, in)
# ---------------------------------------------------------------------------

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
    out = {
        "top": _raw_total_family(two_j, two_j + 1, two_j + 2),
        "plus": _raw_total_family(two_j, two_j + 1, two_j),
        "minus": _raw_total_family(two_j, two_j - 1, two_j),
        "bottom": _raw_total_family(two_j, two_j - 1, two_j - 2) if two_j >= 2 else None,
    }
    for fam in out.values():
        if fam is not None:
            fam.setflags(write=False)
    return out


@lru_cache(maxsize=None)
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
    index.setflags(write=False)
    phase.setflags(write=False)
    return index, phase


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


def case1_entanglement_fidelity(two_j: int, two_m: int, theta: float) -> float:
    """Closed form of the case-1 fidelity, (|A| + |B|)^2 / (2j+1)^2."""
    check_valid_m(two_j, two_m)
    return _case1_fidelity(two_j, two_m, spins._check_theta(theta))


def _case1_fidelity(two_j: int, two_m: int, theta: float) -> float:
    """``case1_entanglement_fidelity`` for arguments the caller has already checked."""
    j = two_j / 2.0
    m = two_m / 2.0
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    a_mag = abs(complex(c * (j + 1.0), s * m))
    b_mag = abs(complex(c * j, -s * m))
    return (a_mag + b_mag) ** 2 / (2 * j + 1) ** 2


def case2_alpha(theta: float) -> float:
    """Weight of the stretched block in the j = 1/2 case-2 mixture, defined in the
    window |theta - pi| <= delta_half() (theta taken mod 2 pi) where that mixture is optimal."""
    spins._check_theta(theta)
    if abs(float(theta) % (2.0 * math.pi) - math.pi) > _DELTA_HALF:
        raise ValueError(f"theta={theta!r} lies outside the j = 1/2 case-2 window "
                         f"|theta - pi| <= {_DELTA_HALF!r}")
    c = math.cos(theta)
    return (1.0 + 8.0 * c + 9.0 * c * c) / (3.0 * (1.0 + 2.0 * c) ** 2)


# The case-2 measurement weight alpha(theta) vanishes there (the case-1/case-2
# fidelities merge tangentially, so the weight is the transversal root):
# 9c^2 + 8c + 1 = 0 with c = cos(theta), whose root near pi is c = -(4 + sqrt 7)/9.
_DELTA_HALF = math.acos((4.0 + math.sqrt(7.0)) / 9.0)
# Case 1 and case 3 meet where (1 + sqrt(1 + 3c^2))^2 = 5.4 (1 - c^2),
# c = cos(theta/2), which gives cos(pi - theta) = (1 + 5 sqrt 51)/49.
_DELTA_ONE = math.acos((1.0 + 5.0 * math.sqrt(51.0)) / 49.0)


def delta_half() -> float:
    """Distance |theta - pi| where the j=1/2 strategy transition occurs."""
    return _DELTA_HALF


def delta_one() -> float:
    """Distance |theta - pi| where case 3 overtakes case 1 for j = 1."""
    return _DELTA_ONE


def _j1_flip_fidelity(theta: float) -> float:
    """1/3 + (2/5) sin^2(theta/2), the j = 1 measure-and-flip average fidelity: the quantum
    optimum of problem 2 within delta_one() of pi, the classical one within arccos(11/19)."""
    return 1.0 / 3.0 + 0.4 * math.sin(theta / 2.0) ** 2


def _optimal_regime(two_j: int, theta: float, problem: int) -> tuple[str, int, float]:
    """(regime, optimal 2m, average fidelity) of the quantum optimum, in closed form.  In the
    j = 1/2 window case 2 gives (7 + 14x - 3x^2) / (18(1 + 2x)), x = cos(theta), here written
    in y = 1 + 2x, which rounds less; in the j = 1 window case 3 gives ``_j1_flip_fidelity``."""
    theta = _regime_args(two_j, theta, problem)
    dist = abs(theta - math.pi)
    if two_j == 1 and dist <= _DELTA_HALF:
        y = 1.0 + 2.0 * math.cos(theta)
        return "case2_mixture", 1, _regime_fidelity(17.0 / 36.0 - (y + 1.0 / y) / 24.0)
    if two_j == 2 and problem == 2 and dist <= _DELTA_ONE:
        return "j1_anomalous_problem2", 0, _regime_fidelity(_j1_flip_fidelity(theta))
    fe = _case1_fidelity(two_j, two_j, theta)
    return "case1", two_j, _regime_fidelity(average_from_entanglement(fe, 2))


def optimal_fidelity(two_j: int, theta: float, problem: int = 2) -> RegimeReport:
    """Optimal average fidelity with a quantum memory, with regime dispatch.

    Problem 1 fixes the probe to the aligned coherent state; problem 2 also
    optimizes the probe.  They differ only for j = 1 near theta = pi.  Needs
    two_j >= 1 and a finite theta.
    """
    regime, two_m, fidelity = _optimal_regime(two_j, theta, problem)
    if regime == "case2_mixture":
        strategy = UNotMixture(alpha=case2_alpha(float(theta) % (2.0 * math.pi)))
    elif regime == "j1_anomalous_problem2":
        strategy = DiscreteXYZ()
    else:
        strategy = HeisenbergStrategy(two_j=two_j)
    return RegimeReport(problem=problem, regime=regime, optimal_two_m=two_m,
                        fidelity=fidelity, strategy=strategy)


def optimal_average_fidelity(two_j: int, theta: float, problem: int = 2) -> float:
    return _optimal_regime(two_j, theta, problem)[2]


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
    """Kraus form of a stationary case's covariant channel, straight from the families.

    The Choi operator is sum_r v_r v_r^dag over sqrt(alpha) x the top rows,
    sqrt(beta) x the bottom rows and sqrt(mu_i) x the u_i-combination of the
    plus and minus rows, for each eigenpair (mu_i, u_i) of M (conjugated, as
    in the block coefficients), and a row v on (probe, out, in) is the Kraus
    operator K[out, (probe, in)].  Weights of at most 1e-12 are dropped, as a
    Kraus form read off the Choi spectrum drops eigenvalues (the test oracle
    ``kraus_from_choi``); ``validate_params`` is the CP/TP check.
    """
    two_j = strategy.two_j
    _, params = case_fidelity(strategy.case, two_j, strategy.two_m, strategy.theta)
    validate_params(params, two_j)
    fam = _coupled_basis(two_j)
    mu, u = np.linalg.eigh(np.conj(params.m_matrix))
    rows = [math.sqrt(w) * f for w, f in ((params.alpha, fam["top"]),
                                          (params.beta or 0.0, fam["bottom"])) if w > 1e-12]
    rows += [math.sqrt(w) * (v[0] * fam["plus"] + v[1] * fam["minus"])
             for w, v in zip(mu, u.T) if w > 1e-12]
    index, phase = _conjugation_operator(two_j)
    dp = dim(two_j)
    kraus = (np.concatenate(rows)[:, index] * phase).reshape(-1, dp, 2, 2)
    return KrausChannel(kraus=tuple(kraus.transpose(0, 2, 1, 3).reshape(-1, 2, 2 * dp)),
                        dim_in=2 * dp, dim_out=2)
