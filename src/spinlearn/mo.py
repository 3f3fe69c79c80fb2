"""Classical-memory (measure-and-operate) benchmark strategies.

The optimal classical strategy measures the probe with a covariant
coherent-state POVM and applies a conditional rotation about the estimated
axis.  Its entanglement fidelity reduces to three angular-momentum overlap
terms weighted by trigonometric factors of the target angle theta and the
conditional angle theta'.  As in ``optimal``, one grid evaluator per (spin, problem),
``_mo_regimes``, dispatches the optimum over a list of angles, taking each angle's trig
once, for the CLI sweeps and, on a one-angle grid, for the scalar calls.
"""

from __future__ import annotations

import math

from . import rotations, spins
from ._numpy import np
from ._record import Record, record
from .channels import FidelityEstimate, _blocks, average_from_entanglement
from .optimal import _TWO_PI, _check_regime_args, _j1_flip_fidelity, _regime_fidelities
from .spins import check_valid_m, clebsch_gordan


@record
class MOParams(Record):
    """Probe index m, measurement seed index n, and conditional angle theta'."""

    two_m: int
    xi_two_n: int
    theta_prime: float


def gamma_weights(theta: float, theta_prime: float) -> tuple[float, float, float]:
    """Trigonometric weights of the rank-0, 1, 2 overlap terms."""
    spins._check_theta(theta)
    spins._check_theta(theta_prime, "theta_prime")
    ch, sh = math.cos(theta / 2.0), math.sin(theta / 2.0)
    cp, sp = math.cos(theta_prime / 2.0), math.sin(theta_prime / 2.0)
    g0 = (cp * ch) ** 2 + (sp * sh) ** 2 / 3.0
    g1 = (2.0 / 3.0) * cp * ch * sp * sh
    g2 = (2.0 / 15.0) * (sp * sh) ** 2
    return g0, g1, g2


def _pair_overlap(two_j: int, two_m: int, two_l: int) -> float:
    """<j m; j -m | l 0> with the (j (x) j) pair coupled to total spin l."""
    return clebsch_gordan(two_j, two_m, two_j, -two_m, two_l, 0)


def mo_element_fidelity(two_j: int, two_m: int, xi_two_n: int, theta: float,
                        theta_prime: float) -> float:
    """Entanglement fidelity of the covariant MO strategy with the given knobs.

    The rank-2 term exists only for two_j >= 2; for a seed equal to the probe
    index the result reduces to the closed squared-overlap forms.
    """
    check_valid_m(two_j, two_m)
    check_valid_m(two_j, xi_two_n)
    spins._check_theta(theta)
    g0, g1, g2 = gamma_weights(theta, theta_prime)
    sign = -1.0 if ((xi_two_n - two_m) // 2) % 2 else 1.0
    total = 0.0
    for two_l, g in ((0, g0), (2, g1), (4, g2)):
        if two_l > 2 * two_j:
            continue
        total += g * _pair_overlap(two_j, xi_two_n, two_l) * _pair_overlap(two_j, two_m, two_l)
    return (two_j + 1.0) * sign * total


def optimal_theta_prime(two_j: int, theta: float) -> float:
    """Conditional rotation angle maximizing the covariant MO fidelity at m = j: the theta'
    that ``_mo_regimes`` computes at theta mod 2 pi, in the branch-safe form of
    arccot[cot(theta) + (2cos(theta)+2j+1)/((2j^2+3j) sin(theta))] + s(theta)."""
    return _mo_regimes(two_j, 1, (theta,))[3][0]


# With theta' at its optimum, the covariant and aligned-orbital fidelities
# cross where 19x^2 - 8x - 11 = 0, x = cos(theta), at x = -11/19.
J1_MO_THRESHOLD = math.acos(11.0 / 19.0)


def _mo_regimes(two_j: int, problem: int, thetas
                ) -> tuple[list[str], list[int], list[float], list[float]]:
    """(regimes, probe 2m, average fidelities, theta') of the classical-memory optimum at
    this spin, one per angle of ``thetas``: (2j, problem) are checked once, each theta is
    checked finite and reduced mod 2 pi."""
    _check_regime_args(two_j, problem)
    threshold = J1_MO_THRESHOLD if two_j == 2 and problem == 2 else -1.0  # -1: no window
    j = two_j / 2.0
    k, twice_j = 2.0 * j * j + 3.0 * j, 2.0 * j
    four_j_plus_4, twice_j_plus_1 = 4.0 * j + 4.0, 2.0 * j + 1.0
    norm_0, norm_1 = 3.0 * (2.0 * j + 3.0), 3.0 * (j + 1.0) * (2.0 * j + 3.0)
    check_theta, cos, sin, atan2 = spins._check_theta, math.cos, math.sin, math.atan2
    regimes, two_ms, fidelities, theta_primes = [], [], [], []
    for theta in thetas:
        theta = float(check_theta(theta)) % _TWO_PI
        if abs(theta - math.pi) > threshold:  # optimal_theta_prime, then the m = n = j fidelity
            c = cos(theta)
            tp = atan2(k * sin(theta), k * c + 2.0 * c + twice_j + 1.0) % _TWO_PI
            regime, two_m, fidelity = "mo_covariant", two_j, (
                (four_j_plus_4 + twice_j_plus_1 * cos(theta - tp)) / norm_0
                + (twice_j_plus_1 * (c + cos(tp)) + cos(theta + tp) + 1.0) / norm_1)
        else:
            regime, two_m, fidelity, tp = "mo_j1_anomalous", 0, _j1_flip_fidelity(theta), math.pi
        regimes.append(regime)
        two_ms.append(two_m)
        fidelities.append(fidelity)
        theta_primes.append(tp)
    return regimes, two_ms, _regime_fidelities(fidelities), theta_primes


def mo_average_fidelity(two_j: int, theta: float, problem: int = 2) -> float:
    return _mo_regimes(two_j, problem, (theta,))[2][0]


def _povm_outcome_offsets(two_j: int, two_m: int, xi_two_n: int, n_samples: int,
                          rng: np.random.Generator) -> np.ndarray:
    """(n, 3) axes n_h of the outcome rotations h relative to the true g, drawn
    from the POVM density: n_h = (sin(beta) cos(alpha), sin(beta) sin(alpha), cos(beta)).

    The density |<xi| U_h |j,m>|^2 against Haar measure depends on h only
    through its polar Euler angle beta, so the axial angles alpha and gamma
    are uniform and beta follows |d^j_{xi m}(beta)|^2 sin(beta).  For
    m = xi = j that law is cos^2(beta/2) = W^(1/(2j+1)) for uniform W;
    otherwise W goes through the exact inverse CDF of cos(beta) (see
    ``_cos_beta_quantiles``).  Three uniform draws per sample (gamma only keeps
    the stream), no rejection: O(n) time at m = xi = j, O(n*j) otherwise.
    """
    alpha = rng.uniform(0.0, 2.0 * math.pi, n_samples)
    rng.uniform(0.0, 2.0 * math.pi, n_samples)  # gamma
    u = rng.uniform(0.0, 1.0, n_samples)
    if two_m == xi_two_n == two_j:
        cos_beta = 2.0 * u ** (1.0 / (two_j + 1.0)) - 1.0
    else:
        cos_beta = _cos_beta_quantiles(two_j, two_m, xi_two_n, u)
    sin_beta = np.sqrt((1.0 - cos_beta) * (1.0 + cos_beta))
    return np.stack([sin_beta * np.cos(alpha), sin_beta * np.sin(alpha), cos_beta], axis=1)


def _cos_beta_quantiles(two_j: int, two_m: int, xi_two_n: int, u: np.ndarray) -> np.ndarray:
    """cos(beta) at CDF levels ``u`` of the density |d^j_{xi m}(beta)|^2 sin(beta).

    Each level starts from linear interpolation in the CDF table of
    ``spins._cos_beta_law`` (built once per (2j, 2m, 2n)), inside the bracket of its two
    nodes, and takes safeguarded Newton steps on the exact CDF, whose derivative is the
    density series: a step that leaves the bracket is a bisection, and every evaluation
    narrows the bracket.  A level stops once its step is
    within 2 ulp of 1 or its CDF residual is below the series' rounding, 4 eps sum |c_k|:
    about four passes of the two series, where bisection needs 55.
    """
    from numpy.polynomial.chebyshev import chebval

    density, cdf, nodes, levels = spins._cos_beta_law(two_j, two_m, xi_two_n)
    floor = 4.0 * np.finfo(float).eps * np.abs(cdf).sum()
    level = u * levels[-1]
    i = np.clip(np.searchsorted(levels, level), 1, len(nodes) - 1)
    lo, hi = nodes[i - 1], nodes[i]
    x = np.interp(level, levels, nodes)
    out = np.empty_like(x)
    active = np.arange(len(x))
    for _ in range(55):  # a bisection's worth of passes; every level stops within ~10
        f = chebval(x, cdf) - level[active]
        below = f < 0.0
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - f / chebval(x, density)
        new = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        out[active] = new
        going = (np.abs(new - x) > 2.0 * np.finfo(float).eps) & (np.abs(f) > floor)
        active, x, lo, hi = active[going], new[going], lo[going], hi[going]
        if not len(active):
            break
    return out


def mo_fidelity_samples(two_j: int, two_m: int, xi_two_n: int, theta: float,
                        theta_prime: float, two_k: int, rng: np.random.Generator, n: int,
                        q_g: np.ndarray | None = None):
    """Per-sample entanglement fidelity of the measure-and-operate process, as an
    iterator of per-block arrays over the blocks of ``channels._blocks``.

    Each block draws its training rotations g Haar-uniformly (unless ``q_g``, one
    quaternion, is given) and then its measurement outcomes g.h from the covariant POVM
    density, and scores the conditional rotation by theta' about the estimated axis
    R_g n_h against the target rotation by theta about n_g = R_g z on a spin-k target
    (``_mo_scores``): nothing n-long is built.  The arguments are checked before the
    iterator is returned, so before any sample is drawn.  No closed-form overlap
    enters; this is the independent check on mo_element_fidelity.
    """
    spins._check_target_spin(two_k)
    spins._check_theta(theta)
    spins._check_theta(theta_prime, "theta_prime")
    spins._check_count("n_samples", n, 1)
    check_valid_m(two_j, two_m)
    check_valid_m(two_j, xi_two_n)

    def blocks():
        for rows in _blocks(n, 64):  # rotated axes, crosses and angles: ~64 float64s a sample
            size = rows.stop - rows.start
            q = (rotations.haar_quaternions(rng, size) if q_g is None
                 else np.broadcast_to(q_g, (size, 4)))
            n_h = _povm_outcome_offsets(two_j, two_m, xi_two_n, size, rng)
            yield _mo_scores(q, n_h, theta, theta_prime, two_k)
    return blocks()


def _mo_scores(q_g: np.ndarray, n_h: np.ndarray, theta: float, theta_prime: float,
               two_k: int) -> np.ndarray:
    """|tr(V'^dag V)|^2 / (2k+1)^2 for V' the rotation by theta' about R_g n_h and V the
    rotation by theta about n_g = R_g z: the squared rotation character of their relative
    angle tau, V'^-1 V = cos(theta'/2) cos(theta/2) + sin(theta'/2) sin(theta/2)
    n_ghat.n_g + i(...).sigma, read off the two axes."""
    cc = math.cos(theta_prime / 2.0) * math.cos(theta / 2.0)
    ss = math.sin(theta_prime / 2.0) * math.sin(theta / 2.0)
    dot = np.einsum("ni,ni->n", rotations.rotate_vectors(q_g, n_h), rotations.z_axis(q_g))
    tau = 2.0 * np.arccos(np.clip(np.abs(cc + ss * dot), 0.0, 1.0))
    return _character_ratio(two_k, tau) ** 2


def _average_estimate(fe_blocks, two_k: int) -> FidelityEstimate:
    """Average-fidelity estimate (d F_e + 1)/(d + 1) from entanglement-fidelity blocks."""
    fe = FidelityEstimate.from_blocks(fe_blocks)
    d = two_k + 1
    return FidelityEstimate(value=min(average_from_entanglement(fe.value, d), 1.0),
                            std_error=d / (d + 1.0) * fe.std_error, n_samples=fe.n_samples)


def mo_mc_oracle(two_j: int, params: MOParams, theta: float, n_samples: int,
                 rng) -> FidelityEstimate:
    """Monte-Carlo estimate of the covariant MO average fidelity (qubit target)."""
    fe = mo_fidelity_samples(two_j, params.two_m, params.xi_two_n, theta, params.theta_prime,
                             1, np.random.default_rng(rng), n_samples)
    return _average_estimate(fe, 1)


def _character_ratio(two_k: int, tau: np.ndarray) -> np.ndarray:
    """sin((2k+1) tau/2) / ((2k+1) sin(tau/2)) with the tau -> 0 limit handled."""
    d = two_k + 1.0
    half = tau / 2.0
    s = np.sin(half)
    small = np.abs(s) < 1e-8
    safe = np.where(small, 1.0, s)
    out = np.sin(d * half) / (d * safe)
    return np.where(small, np.cos(d * half) / np.cos(half), out)


def spin_k_mo_asymptote(two_j: int, two_k: int, theta: float) -> float:
    """Leading-order MO average fidelity for a spin-k target."""
    j = spins._check_nonzero_j(two_j)
    k = spins._check_target_spin(two_k)
    spins._check_theta(theta)
    return 1.0 - 2.0 * k * (2.0 * k + 1.0) * (1.0 - math.cos(theta)) / (3.0 * j)


def spin_k_mo_fidelity(two_j: int, two_k: int, theta: float, n_samples: int,
                       rng) -> tuple[FidelityEstimate, float]:
    """Monte-Carlo spin-k MO fidelity and the leading-order asymptote.

    Strategy: coherent-state POVM on the memory (m = n = j), then rotate the
    spin-k target by theta about the estimated axis.
    """
    fe = mo_fidelity_samples(two_j, two_j, two_j, theta, theta, two_k,
                             np.random.default_rng(rng), n_samples)
    return _average_estimate(fe, two_k), spin_k_mo_asymptote(two_j, two_k, theta)


def spin_k_mo_quadrature(two_j: int, two_k: int, theta: float) -> float:
    """Exact spin-k MO average fidelity, independent of the Monte-Carlo sampler.

    With u = sin^2(beta/2) of the estimate offset the outcome density is
    (2j+1)(1-u)^(2j) (the azimuth drops out) and cos(tau/2) = +-(1 - 2 sin^2(theta/2) u),
    so the squared character, even in cos(tau/2), is a polynomial of degree 4k in u.
    The (2k+1)-node Gauss-Jacobi rule of that density is exact for it: its nodes and
    weights come from the eigenpairs of the Jacobi matrix of the shifted Jacobi
    polynomials P^(2j, 0)(2u - 1) (Golub-Welsch).  Needs 2j >= 1 and a target 2k >= 1.
    """
    spins._check_nonzero_j(two_j)
    spins._check_target_spin(two_k)
    spins._check_theta(theta)
    n = np.arange(2 * two_k + 1.0)  # recurrence of the monic P^(2j, 0)(2u - 1)
    s = 2.0 * n + two_j
    diag = (2.0 * n * (n + two_j + 1.0) + two_j) / (s * (s + 2.0))
    off = n[1:] * (n[1:] + two_j) / (s[1:] * np.sqrt(s[1:] ** 2 - 1.0))
    u, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    cos_tau_half = np.abs(1.0 - 2.0 * math.sin(theta / 2.0) ** 2 * u)
    tau = 2.0 * np.arccos(np.clip(cos_tau_half, 0.0, 1.0))
    fe = vecs[0] ** 2 @ _character_ratio(two_k, tau) ** 2
    return average_from_entanglement(float(fe), two_k + 1)
