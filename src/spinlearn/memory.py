"""Time-extended behavior of the quantum memory: recycling, thermal noise.

Repeated use of the memory degrades it through the complementary channel of
the memory-target gate, which acts as a tridiagonal Markov kernel on the
magnetic populations.  There are two such kernels:

* ``exact``   - rates with the factor 1 - cos f of the interaction angle f,
  identical to tracing the gate against a maximally mixed target;
* ``leading`` - the large-j linearization, which the alternating-sum
  distribution solves exactly.

The kernels themselves, and the dense-gate route and the quantum-trajectory
sampler they are checked against, live with the tests, in
``tests/oracles.py``.  The recycling routines iterate no kernel.  They use the
moment closure: the fidelity from |j,m> is quadratic in m, and the first two
moments of m close under the ``exact`` kernel, so each use costs O(1) at any
j.  Both schedules take the same factor: f = f(theta) on the fixed schedule, the re-tuned
angle f_t on the reoptimized one (it maximizes a sinusoid in closed form).  The fixed
schedule's evaluator takes an array of uses, or one in ``math``: ``persistence``,
``longevity`` and ``spinlearn recycle`` never execute numpy.
(The ``leading`` kernel truncates at m = -j, so its moments do not close;
the alternating sum gives its n-step distribution, as signed weights: exact
integers from a three-term recurrence, O(n) steps with O(1) integers alive.)
The thermal moments of m are closed forms too, O(1) at any j, so the
advantage threshold bisects on an O(1) function.
"""

from __future__ import annotations

import math
import operator

from . import heisenberg, mo
from ._numpy import np
from ._record import Record, record
from .channels import average_from_entanglement
from .spins import _check_count, _check_nonzero_j, _check_theta, check_valid_m, dim, two_m_values

@record
class SignedWeights(Record):
    """Real weights over the magnetic index m (descending order), of either sign:
    the alternating-sum populations are negative where they leave the regime
    in which they approximate the recycled memory."""

    two_j: int
    weights: np.ndarray

    def __post_init__(self):
        if self.weights.shape != (dim(self.two_j),):
            raise ValueError("weight vector has wrong length")


@record
class MemoryDistribution(SignedWeights):
    """Probability weights over the magnetic index m (descending order)."""

    def validate(self, tol: float = 1e-10) -> None:
        if np.min(self.weights) < -1e-12:
            raise ValueError(f"negative weight {np.min(self.weights):.3e}")
        if abs(float(np.sum(self.weights)) - 1.0) > tol:
            raise ValueError("weights do not sum to 1")


def point_mass(two_j: int, two_m: int) -> MemoryDistribution:
    check_valid_m(two_j, two_m)
    w = np.zeros(dim(two_j))
    w[(two_j - two_m) // 2] = 1.0
    return MemoryDistribution(two_j=two_j, weights=w)


def _rate(two_j: int, angle: float) -> float:
    """c = (1 - cos f)/(2j+1)^2 of the kernel for interaction angle f, in [0, 2/(2j+1)^2]."""
    return (1.0 - math.cos(angle)) / (two_j + 1.0) ** 2


def _fidelity_from_moments(coefficients: tuple[float, float, float], mean_m, mean_m2):
    """Average fidelity from a memory with these moments of m, for the gate's
    ``entanglement_fidelity_coefficients`` (a0, a1, a2)."""
    a0, a1, a2 = coefficients
    return average_from_entanglement(a0 + a1 * mean_m + a2 * mean_m2, 2)


def _fixed_schedule(two_j: int, theta: float):
    """F(s), the average fidelity after s uses on the fixed schedule, for an int, ``math.inf``
    or an array of s: each use multiplies <m> by r1 = 1 - 2c and <m^2> - j(j+1)/3 by
    r2 = 1 - 6c (c = ``_rate``), and c, (a0, a1, a2) and j(j+1)/3 are computed once."""
    j = _check_nonzero_j(two_j)
    c = _rate(two_j, heisenberg.f_angle(two_j, theta))
    a0, a1, a2 = heisenberg.entanglement_fidelity_coefficients(two_j, theta)
    r1, r2, m2_inf = 1.0 - 2.0 * c, 1.0 - 6.0 * c, two_j * (two_j + 2.0) / 12.0

    def fidelity(steps):  # at 2j = 1, m^2 = 1/4 in every state (and r2 reaches -2)
        mean_m2 = m2_inf + (j * j - m2_inf) * r2 ** steps if two_j > 1 else j * j
        # average_from_entanglement(fe, 2), bit for bit, without a call per use
        return (2 * (a0 + a1 * (j * r1 ** steps) + a2 * mean_m2) + 1.0) / 3.0
    return fidelity


def fidelity_given_m_asymptote(two_j: int, two_m: int, theta: float) -> float:
    j = _check_nonzero_j(two_j)
    check_valid_m(two_j, two_m)
    _check_theta(theta)
    m = two_m / 2.0
    return 1.0 - (1.0 + 2.0 * j - 2.0 * m) * (1.0 - math.cos(theta)) / (3.0 * j)


def recycled_fidelity(two_j: int, theta: float, n_uses: int,
                      reoptimize_f: bool = False) -> np.ndarray:
    """Average fidelity of uses 1..n_uses with the memory recycled in between.

    ``reoptimize_f`` re-tunes the interaction angle for the current mixed
    memory at every step (excluded from the headline results; the fixed
    schedule is asymptotically as good).  The fidelity of a use is
    P + Q cos f + R sin f in the angle f, so the re-tuned angle is atan2(R, Q), which
    ``heisenberg._f_angle_from_moments`` reads off <m> and <m^2>: f(theta) at the pure
    state.  The angle is greedy, best for the
    current use only: from 2j = 2 on the reoptimized schedule is never worse
    than the fixed one, but at 2j = 1 a greedy angle can leave a worse memory
    behind, and a later use falls below the fixed schedule's (by 1.9e-3 at
    theta = 2.139 rad, use 4).
    """
    _check_theta(theta)
    _check_count("n_uses", n_uses, 1)
    if not reoptimize_f:
        return _fixed_schedule(two_j, theta)(np.arange(n_uses))
    out = np.empty(n_uses)
    j = _check_nonzero_j(two_j)
    mean_m, mean_m2, m2_inf = j, j * j, two_j * (two_j + 2.0) / 12.0
    sin_t, cos_t = math.sin(theta), math.cos(theta)  # once a call, not once a use
    for t in range(n_uses):
        f_t = heisenberg._f_angle_from_moments(two_j, sin_t, cos_t, mean_m, mean_m2)
        out[t] = _fidelity_from_moments(heisenberg._coefficients(two_j, sin_t, cos_t, f_t),
                                        mean_m, mean_m2)
        c = _rate(two_j, f_t)  # one use of the fixed schedule's moment steps, at angle f_t
        mean_m *= 1.0 - 2.0 * c
        if two_j > 1:
            mean_m2 = m2_inf + (mean_m2 - m2_inf) * (1.0 - 6.0 * c)
    return out


def _uses_before(two_j: int, theta: float, fails, level: float, cap: int) -> tuple[int, bool]:
    """Uses of the fixed schedule before the first whose fidelity F has
    ``fails(F, level)``, looking at most ``cap`` uses ahead, and whether none failed.

    F after s uses is F_inf + B r1^s + C r2^s with r1 = 1 - 2c >= 0, r2 = 1 - 6c and
    B, C >= 0; at 2j = 1, m^2 = 1/4 in every state, so C = 0.  Where r2 >= 0 too (at 2j = 1,
    or 6c <= 1) F is non-increasing in s: nothing fails unless F_inf does, and then some s
    below 2^63 does (r^s underflows there for every float r < 1).  Doubling s from 1 brackets
    it and an integer bisection returns a failing use after a passing one (a crossing of this
    evaluator, where pow's rounding swaps uses whose F agree to an ulp): O(log s) calls.
    r2 < 0 only at 2j = 2 with c > 1/6, where rho = max(r1, -r2) <= 2/3: a scan from s = 0
    stops once (B + C) rho^s < |F_inf - level|.
    """
    schedule = _fixed_schedule(two_j, theta)
    f_inf = schedule(math.inf)
    c = _rate(two_j, heisenberg.f_angle(two_j, theta))
    r1, r2 = 1.0 - 2.0 * c, 1.0 - 6.0 * c
    if two_j == 1 or r2 >= 0.0:
        if not fails(f_inf, level):
            return cap, True
        lo, hi = 0, cap  # the uses before lo pass, and use hi fails or is the cap
        while lo < hi:
            mid = min((lo + hi) // 2, 2 * lo + 1)  # doubling first: s stays below 2^64
            if fails(schedule(mid), level):
                hi = mid
            else:
                lo = mid + 1
        return hi, hi == cap
    tail, rho = abs(schedule(0) - f_inf), max(r1, -r2)
    for s in range(cap):
        if fails(schedule(s), level):
            return s, False
        if tail * rho ** s < abs(f_inf - level):
            break
    return cap, True


@record
class PersistenceReport(Record):
    steps: int
    asymptote: float
    capped: bool


def persistence(two_j: int, theta: float, t_max: int | None = None) -> PersistenceReport:
    """Number of memory uses for which the recycled fidelity beats the
    classical benchmark (strict inequality), plus the j/(1-cos theta) asymptote.

    At theta = 0 (mod 2pi) the memory never degrades: the asymptote is inf and
    the default cap is 100 uses."""
    _check_theta(theta)
    benchmark = mo.mo_average_fidelity(two_j, theta)
    one_minus_cos = 1.0 - math.cos(theta)
    if one_minus_cos > 0.0:
        asymptote = (two_j / 2.0) / one_minus_cos
        default_cap = max(int(4 * asymptote) + 10, 100)
    else:
        asymptote, default_cap = math.inf, 100
    cap = default_cap if t_max is None else _check_count("t_max", t_max, 0)
    steps, capped = _uses_before(two_j, theta, operator.le, benchmark, cap)
    return PersistenceReport(steps=steps, asymptote=asymptote, capped=capped)


def longevity(two_j: int, theta: float, threshold: float,
              t_max: int | None = None) -> int:
    """Largest number of uses with fidelity still at or above ``threshold``."""
    _check_theta(theta)
    if not (1.0 / 3.0 < threshold < 1.0):
        raise ValueError("threshold must lie in (1/3, 1)")
    cap = (int(10 * two_j**2 / max(1.0 - math.cos(theta), 1e-6)) + 10 if t_max is None
           else _check_count("t_max", t_max, 0))
    return _uses_before(two_j, theta, operator.lt, threshold, cap)[0]


def tricomi_distribution(two_j: int, theta: float, n: int) -> SignedWeights:
    """Alternating-sum closed form of the recycled population distribution.

    Evaluated in exact integer arithmetic (the sum is catastrophically
    ill-conditioned in floating point once n exceeds 2j/(1-cos theta)): with
    x = (1 - cos theta)/(2j) = p/r exactly, every term is put over r^n and each
    weight is one correctly rounded integer quotient.  The weights are the
    coefficients of Q(y) = P(y - 1), with P(z) = sum_i n!/(n-i)! (xz)^i.  As
    n x z P - x z^2 P' = P - 1, the numerators W_k = r^n [y^k] Q obey the recurrence
    p(k+1) W_(k+1) = ((2k-n)p - r) W_k + (n-k+1) p W_(k-1) + [k=0] r^(n+1), from
    W_0 = r^n P(-1): O(n) exact integer steps (every division is exact), with
    O(1) integers alive.  It is the exact n-step distribution of the ``leading``
    kernel, whose weights turn negative where it stops approximating the memory:
    hence ``SignedWeights``.
    """
    _check_nonzero_j(two_j)
    _check_theta(theta)
    n = _check_count("n", n, 0)
    p, r = float(1.0 - math.cos(theta)).as_integer_ratio()
    if p == 0 or n == 0:
        return point_mass(two_j, two_j)
    r *= int(two_j)
    denominator = w = term = r**n
    for i in range(n):  # term = n!/(n-i)! (-p)^i r^(n-i), times (i - n) p / r per step
        term = term * (i - n) * p // r
        w += term
    weights, w_prev = np.zeros(dim(two_j)), 0
    for k in range(min(n, two_j) + 1):
        try:
            weights[k] = w / denominator
        except OverflowError:
            raise ValueError(f"n={n}: the alternating-sum weights overflow a float") from None
        w, w_prev = (((2 * k - n) * p - r) * w + (n - k + 1) * p * w_prev
                     + (r * denominator if k == 0 else 0)) // (p * (k + 1)), w
    return SignedWeights(two_j=two_j, weights=weights)


def tricomi_geometric_asymptote(two_j: int, theta: float, n: int, two_m: int) -> float:
    """Large-j geometric form of the recycled population weights."""
    _check_nonzero_j(two_j)
    _check_theta(theta)
    check_valid_m(two_j, two_m)
    _check_count("n", n, 0)
    x = n * (1.0 - math.cos(theta))
    ratio = x / (x + two_j)
    k = (two_j - two_m) // 2
    return (two_j / (x + two_j)) * ratio**k


def _check_gamma(gamma: float) -> None:
    if not gamma > 0:  # NaN fails too
        raise ValueError(f"gamma must be positive, got {gamma!r}")


def thermal_state(two_j: int, gamma: float) -> MemoryDistribution:
    """Gibbs weights exp(2 gamma m), normalized; gamma = inf gives m = j."""
    _check_nonzero_j(two_j)
    _check_gamma(gamma)
    if gamma == math.inf:
        return point_mass(two_j, two_j)
    m = two_m_values(two_j) / 2.0
    j = two_j / 2.0
    # stable form: relative to the maximal weight
    w = np.exp(2.0 * gamma * (m - j))
    return MemoryDistribution(two_j=two_j, weights=w / np.sum(w))


# coth x - 1/x = sum_k c_k x^(2k-1), c_k = 2^(2k) B_(2k) / (2k)! with the Bernoulli
# numbers B; these twelve terms reach double precision for x < 1/2
_COTH_SERIES = (1 / 3, -1 / 45, 2 / 945, -1 / 4725, 2 / 93555, -1382 / 638512875,
                4 / 18243225, -3617 / 162820783125, 87734 / 38979295480125,
                -349222 / 1531329465290625, 310732 / 13447856940643125,
                -472728182 / 201919571963756521875)


def _coth_without_pole(x: float) -> tuple[float, float]:
    """coth x - 1/x and its derivative 1/x^2 - csch^2 x, for 0 <= x < 1/2."""
    x2 = x * x
    value = slope = 0.0
    for k in reversed(range(len(_COTH_SERIES))):
        value = value * x2 + _COTH_SERIES[k]
        slope = slope * x2 + (2 * k + 1) * _COTH_SERIES[k]
    return value * x, slope


def _thermal_moments(two_j: int, gamma: float) -> tuple[float, float]:
    """<m> and <m^2> of the Gibbs weights exp(2 gamma m), in O(1).

    With N = 2j + 1, <m> = [N coth(N gamma) - coth gamma]/2, and Var m is its
    derivative in 2 gamma, [csch^2 gamma - N^2 csch^2(N gamma)]/4.  Below
    N gamma = 1/2 the two terms cancel, so there the poles 1/gamma and 1/gamma^2
    drop out analytically and the rest is summed as a series.
    """
    n = two_j + 1
    if n * gamma < 0.5:
        rest_n, slope_n = _coth_without_pole(n * gamma)
        rest_1, slope_1 = _coth_without_pole(gamma)
        mean_m = 0.5 * (n * rest_n - rest_1)
        var = 0.25 * (n * n * slope_n - slope_1)
    else:
        # coth x = 1 + 2y and csch^2 x = 4y(1 + y), y = 1/(e^(2x) - 1): 0 at gamma = inf
        x = math.exp(-2.0 * gamma) / -math.expm1(-2.0 * gamma)
        y = math.exp(-2.0 * n * gamma) / -math.expm1(-2.0 * n * gamma)
        mean_m = two_j / 2.0 - (x - n * y)
        var = x * (1.0 + x) - n * n * y * (1.0 + y)
    return mean_m, var + mean_m * mean_m


def thermal_fidelity(two_j: int, theta: float, gamma: float) -> float:
    """Exact average fidelity of the zero-temperature strategy on a thermal probe."""
    _check_nonzero_j(two_j)
    _check_theta(theta)
    _check_gamma(gamma)
    return float(_fidelity_from_moments(heisenberg.entanglement_fidelity_coefficients(two_j, theta),
                                        *_thermal_moments(two_j, gamma)))


def thermal_fidelity_asymptote(two_j: int, theta: float, gamma: float) -> float:
    j = _check_nonzero_j(two_j)
    _check_theta(theta)
    _check_gamma(gamma)
    return 1.0 - (1.0 - math.cos(theta)) / (3.0 * j * math.tanh(gamma))


def thermal_advantage_threshold(two_j: int, theta: float, problem: int = 2) -> float:
    """Temperature parameter gamma* where the thermal strategy meets the
    classical benchmark of the given problem; tends to (1/2) ln 3 for large spins.

    ``math.inf`` means no finite gamma gives a strict advantage (theta = 0; theta = pi
    at 2j = 1, and at 2j = 2 in problem 2): not even the aligned memory beats it.
    """
    _check_theta(theta)
    benchmark = mo.mo_average_fidelity(two_j, theta, problem)
    coefficients = heisenberg.entanglement_fidelity_coefficients(two_j, theta)

    def gap(gamma: float) -> float:  # thermal_fidelity, bit for bit, without its set-up
        return _fidelity_from_moments(coefficients, *_thermal_moments(two_j, gamma)) - benchmark

    hi = 8.0
    while gap(hi) <= 0.0:
        if hi > 1e3:  # exp(-2 gamma) underflows from gamma ~ 373 on: the aligned state
            return math.inf
        hi *= 2.0
    return _bisect(gap, 1e-3, hi, tol=1e-10)


def _bisect(fun, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    flo = fun(lo)
    fhi = fun(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("bisection endpoints do not bracket a root")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = fun(mid)
        if fmid == 0.0 or hi - lo < tol:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)
