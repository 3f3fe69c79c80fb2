"""Time-extended behavior of the quantum memory: recycling, thermal noise.

Repeated use of the memory degrades it through the complementary channel of
the memory-target gate, which acts as a tridiagonal Markov kernel on the
magnetic populations.  Three kernels are provided:

* ``expanded`` - the closed-form coefficients with the interaction-angle
  factor expanded to first order in 1/(2j) (primary route);
* ``exact``    - the same structure with the exact factor 1 - cos f(theta),
  identical to tracing the gate against a maximally mixed target (and equal
  to ``expanded`` at theta = pi);
* ``leading``  - the large-j linearization, which the alternating-sum
  distribution solves exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
import numpy as np

from . import heisenberg, mo, optimal
from .channels import average_from_entanglement
from .spins import InvalidQuantumNumbersError, check_two_j, check_valid_m, dim, two_m_values

KERNEL_KINDS = ("expanded", "exact", "leading")


@dataclass(frozen=True)
class MemoryDistribution:
    """Probability weights over the magnetic index m (descending order)."""

    two_j: int
    weights: np.ndarray

    def __post_init__(self):
        if self.weights.shape != (dim(self.two_j),):
            raise ValueError("weight vector has wrong length")

    def validate(self, tol: float = 1e-10) -> None:
        if np.min(self.weights) < -1e-12:
            raise ValueError(f"negative weight {np.min(self.weights):.3e}")
        if abs(float(np.sum(self.weights)) - 1.0) > tol:
            raise ValueError("weights do not sum to 1")

    def weight_at(self, two_m: int) -> float:
        check_valid_m(self.two_j, two_m)
        return float(self.weights[(self.two_j - two_m) // 2])

    def total_variation(self, other: "MemoryDistribution") -> float:
        return 0.5 * float(np.sum(np.abs(self.weights - other.weights)))


def point_mass(two_j: int, two_m: int) -> MemoryDistribution:
    check_valid_m(two_j, two_m)
    w = np.zeros(dim(two_j))
    w[(two_j - two_m) // 2] = 1.0
    return MemoryDistribution(two_j=two_j, weights=w)


def step_kernel(two_j: int, theta: float, kind: str = "expanded"
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tridiagonal kernel (down, stay, up) over m in descending order.

    ``down[i]`` moves weight from m_i to m_i - 1, ``up[i]`` to m_i + 1; the
    diagonal is fixed by column stochasticity.  Needs two_j >= 1: a spin-0
    memory has no direction to lose.
    """
    if check_two_j(two_j) == 0:
        raise InvalidQuantumNumbersError(f"two_j={two_j}: a recycling kernel needs two_j >= 1")
    j = two_j / 2.0
    m = two_m_values(two_j) / 2.0
    if kind == "expanded":
        factor = 1.0 - math.cos(theta) - math.sin(theta) ** 2 / (2.0 * j)
        down = (j + m) * (1.0 + j - m) / (1.0 + 2.0 * j) ** 2 * factor
        up = (j - m) * (1.0 + j + m) / (1.0 + 2.0 * j) ** 2 * factor
    elif kind == "exact":
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
                       kind: str = "expanded") -> MemoryDistribution:
    """One recycling step of the memory populations."""
    if dist.two_j != two_j:
        raise ValueError("distribution spin does not match")
    down, stay, up = step_kernel(two_j, theta, kind)
    w = dist.weights
    out = stay * w
    out[1:] += (down * w)[:-1]    # m decreases: moves one slot later
    out[:-1] += (up * w)[1:]
    return MemoryDistribution(two_j=two_j, weights=out)


def stinespring_complementary_populations(two_j: int, theta: float,
                                          dist: MemoryDistribution) -> MemoryDistribution:
    """Oracle route: trace the dense gate against a maximally mixed target."""
    gate = heisenberg.heisenberg_unitary(two_j, 1, theta)
    u = gate.matrix()
    d = dim(two_j)
    rho = np.kron(np.diag(dist.weights).astype(complex), 0.5 * np.eye(2))
    out = u @ rho @ u.conj().T
    reduced = np.trace(out.reshape(d, 2, d, 2), axis1=1, axis2=3)
    return MemoryDistribution(two_j=two_j, weights=np.diag(reduced).real.copy())


def fidelity_given_m(two_j: int, two_m: int, theta: float,
                     f_override: float | None = None) -> float:
    """Exact average fidelity of the strategy run from memory state |j,m>_g."""
    fe = heisenberg.entanglement_fidelity_given_m(two_j, two_m, theta, f_override)
    return average_from_entanglement(fe, 2)


def fidelity_given_m_asymptote(two_j: int, two_m: int, theta: float) -> float:
    j = two_j / 2.0
    m = two_m / 2.0
    return 1.0 - (1.0 + 2.0 * j - 2.0 * m) * (1.0 - math.cos(theta)) / (3.0 * j)


def _fidelity_vector(two_j: int, theta: float, f_override: float | None = None) -> np.ndarray:
    """fidelity_given_m over all m at once (descending order)."""
    angle = heisenberg.f_angle(two_j, theta) if f_override is None else f_override
    j = two_j / 2.0
    m = two_m_values(two_j) / 2.0
    n = two_j + 1.0
    e = np.exp(-1j * angle)
    u_plus = (e * (j + m + 1.0) + (j - m)) / n
    u_minus = (e * (j - m + 1.0) + (j + m)) / n
    cross = np.exp(1j * theta) * u_plus * np.conj(u_minus)
    fe = 0.25 * (np.abs(u_plus) ** 2 + np.abs(u_minus) ** 2 + 2.0 * cross.real)
    return average_from_entanglement(fe, 2)


def _mean_fidelity(two_j: int, theta: float, dist: MemoryDistribution,
                   f_override: float | None = None) -> float:
    return float(dist.weights @ _fidelity_vector(two_j, theta, f_override))


def recycled_fidelity(two_j: int, theta: float, n_uses: int,
                      kind: str = "expanded", reoptimize_f: bool = False) -> np.ndarray:
    """Average fidelity of uses 1..n_uses with the memory recycled in between.

    ``reoptimize_f`` re-tunes the interaction angle for the current mixed
    memory at every step (excluded from the headline results; the fixed
    schedule is asymptotically as good).
    """
    if n_uses < 1:
        raise ValueError("n_uses must be positive")
    dist = point_mass(two_j, two_j)
    out = np.empty(n_uses)
    if not reoptimize_f:
        fvec = _fidelity_vector(two_j, theta)
        for t in range(n_uses):
            out[t] = float(dist.weights @ fvec)
            dist = complementary_step(two_j, theta, dist, kind)
        return out
    for t in range(n_uses):
        f_t = _reoptimized_angle(two_j, theta, dist)
        out[t] = _mean_fidelity(two_j, theta, dist, f_t)
        dist = _step_with_angle(two_j, f_t, dist)
    return out


def _step_with_angle(two_j: int, angle: float, dist: MemoryDistribution) -> MemoryDistribution:
    j = two_j / 2.0
    m = two_m_values(two_j) / 2.0
    factor = 1.0 - math.cos(angle)
    down = np.where(m > -j, (j + m) * (1.0 + j - m) / (1.0 + 2.0 * j) ** 2 * factor, 0.0)
    up = np.where(m < j, (j - m) * (1.0 + j + m) / (1.0 + 2.0 * j) ** 2 * factor, 0.0)
    w = dist.weights
    out = (1.0 - down - up) * w
    out[1:] += (down * w)[:-1]
    out[:-1] += (up * w)[1:]
    return MemoryDistribution(two_j=two_j, weights=out)


def _reoptimized_angle(two_j: int, theta: float, dist: MemoryDistribution) -> float:
    base = heisenberg.f_angle(two_j, theta)
    lo, hi = base - 0.5, base + 0.5
    x, _ = heisenberg._golden_minimize(
        lambda f: -_mean_fidelity(two_j, theta, dist, f), lo, hi, tol=1e-9)
    return x


@dataclass(frozen=True)
class PersistenceReport:
    steps: int
    asymptote: float
    capped: bool


def persistence(two_j: int, theta: float, t_max: int | None = None) -> PersistenceReport:
    """Number of memory uses for which the recycled fidelity beats the
    classical benchmark (strict inequality), plus the j/(1-cos theta) asymptote.

    At theta = 0 (mod 2pi) the memory never degrades: the asymptote is inf and
    the default cap is 100 uses."""
    benchmark = mo.mo_average_fidelity(two_j, theta)
    one_minus_cos = 1.0 - math.cos(theta)
    if one_minus_cos > 0.0:
        asymptote = (two_j / 2.0) / one_minus_cos
        default_cap = max(int(4 * asymptote) + 10, 100)
    else:
        asymptote, default_cap = math.inf, 100
    cap = t_max if t_max is not None else default_cap
    dist = point_mass(two_j, two_j)
    fvec = _fidelity_vector(two_j, theta)
    steps = 0
    for t in range(1, cap + 1):
        if float(dist.weights @ fvec) <= benchmark:
            return PersistenceReport(steps=t - 1, asymptote=asymptote, capped=False)
        steps = t
        dist = complementary_step(two_j, theta, dist)
    return PersistenceReport(steps=steps, asymptote=asymptote, capped=True)


def longevity(two_j: int, theta: float, threshold: float,
              t_max: int | None = None) -> int:
    """Largest number of uses with fidelity still at or above ``threshold``."""
    if not (1.0 / 3.0 < threshold < 1.0):
        raise ValueError("threshold must lie in (1/3, 1)")
    j = two_j / 2.0
    cap = t_max if t_max is not None else int(40 * j * j / max(1.0 - math.cos(theta), 1e-6)) + 10
    dist = point_mass(two_j, two_j)
    fvec = _fidelity_vector(two_j, theta)
    steps = 0
    for t in range(1, cap + 1):
        if float(dist.weights @ fvec) < threshold:
            return t - 1
        steps = t
        dist = complementary_step(two_j, theta, dist)
    return steps


def tricomi_distribution(two_j: int, theta: float, n: int) -> MemoryDistribution:
    """Alternating-sum closed form of the recycled population distribution.

    Evaluated in exact rational arithmetic (the sum is catastrophically
    ill-conditioned in floating point once n exceeds 2j/(1-cos theta)); it is
    the exact n-step distribution of the ``leading`` kernel.
    """
    check_two_j(two_j)
    if n < 0:
        raise ValueError("n must be non-negative")
    if theta == 0.0 or n == 0:
        return point_mass(two_j, two_j)
    inv_q = Fraction(float(1.0 - math.cos(theta))) / Fraction(two_j)  # 1/q
    # shared inner terms T(i) = C(n, i) i! / q^i
    t_terms = []
    binom = 1
    fact = 1
    power = Fraction(1)
    for i in range(n + 1):
        if i > 0:
            binom = binom * (n - i + 1) // i
            fact *= i
            power *= inv_q
        t_terms.append(binom * fact * power)
    weights = np.zeros(dim(two_j))
    for k in range(min(n, two_j) + 1):  # k = j - m
        acc = Fraction(0)
        binom_ik = 1  # C(i, k) built up incrementally from i = k
        for i in range(k, n + 1):
            if i > k:
                binom_ik = binom_ik * i // (i - k)
            term = binom_ik * t_terms[i]
            acc += term if (i - k) % 2 == 0 else -term
        weights[k] = float(acc)
    return MemoryDistribution(two_j=two_j, weights=weights)


def tricomi_geometric_asymptote(two_j: int, theta: float, n: int, two_m: int) -> float:
    """Large-j geometric form of the recycled population weights."""
    check_valid_m(two_j, two_m)
    x = n * (1.0 - math.cos(theta))
    ratio = x / (x + two_j)
    k = (two_j - two_m) // 2
    return (two_j / (x + two_j)) * ratio**k


def thermal_state(two_j: int, gamma: float) -> MemoryDistribution:
    """Gibbs weights exp(2 gamma m), normalized; gamma -> inf gives m = j."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    m = two_m_values(two_j) / 2.0
    j = two_j / 2.0
    # stable form: relative to the maximal weight
    w = np.exp(2.0 * gamma * (m - j))
    return MemoryDistribution(two_j=two_j, weights=w / np.sum(w))


def thermal_fidelity(two_j: int, theta: float, gamma: float) -> float:
    """Exact average fidelity of the zero-temperature strategy on a thermal probe."""
    return _mean_fidelity(two_j, theta, thermal_state(two_j, gamma))


def thermal_fidelity_asymptote(two_j: int, theta: float, gamma: float) -> float:
    j = two_j / 2.0
    return 1.0 - (1.0 - math.cos(theta)) / (3.0 * j * math.tanh(gamma))


def thermal_advantage_threshold(two_j: int, theta: float) -> float:
    """Temperature parameter gamma* where the thermal strategy meets the
    classical benchmark; tends to (1/2) ln 3 for large spins."""
    benchmark = mo.mo_average_fidelity(two_j, theta)

    def gap(gamma: float) -> float:
        return thermal_fidelity(two_j, theta, gamma) - benchmark

    return optimal._bisect(gap, 1e-3, 8.0, tol=1e-10)
