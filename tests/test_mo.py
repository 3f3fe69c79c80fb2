import math

import numpy as np
import pytest

import oracles
from oracles import (
    apply_channel,
    channel_choi,
    choi_from_kraus,
    identity_choi,
    mo_fopt_formula,
    quat_multiply,
    unital_bell_reality_check,
)
from spinlearn import channels, mo, spins
from spinlearn.channels import average_from_entanglement
from spinlearn.memory import _bisect
from spinlearn.optimal import _j1_flip_fidelity
from spinlearn.mo import (
    MOParams,
    J1_MO_THRESHOLD,
    _povm_outcome_offsets,
    gamma_weights,
    mo_average_fidelity,
    mo_element_fidelity,
    mo_fidelity_samples,
    mo_mc_oracle,
    mo_optimal_fidelity,
    optimal_theta_prime,
    spin_k_mo_asymptote,
    spin_k_mo_fidelity,
    spin_k_mo_quadrature,
)
from spinlearn.rotations import haar_quaternions
from spinlearn.spins import InvalidQuantumNumbersError


def _overlap_form_element(two_j, two_m, theta, theta_prime):
    # squared-overlap closed form for seed = probe index (signed rank-1 weight)
    j, m = two_j / 2, two_m / 2
    g0, g1, g2 = gamma_weights(theta, theta_prime)
    total = g0 / (2 * j + 1) + g1 * 3 * m**2 / (j * (j + 1) * (2 * j + 1))
    if two_j >= 2:
        total += g2 * 5 * (j * j + j - 3 * m * m) ** 2 / (
            j * (j + 1) * (2 * j - 1) * (2 * j + 1) * (2 * j + 3))
    return (2 * j + 1) * total


def test_element_identity_angle():
    for two_j, two_m in ((1, 1), (4, 2), (6, 6)):
        assert mo_element_fidelity(two_j, two_m, two_m, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_element_j1_anomalous_value():
    fe = mo_element_fidelity(2, 0, 0, math.pi, math.pi)
    assert fe == pytest.approx(0.6, abs=1e-12)
    assert average_from_entanglement(fe, 2) == pytest.approx(11 / 15, abs=1e-12)


def test_element_matches_squared_overlap_form(rng):
    for _ in range(20):
        two_j = int(rng.integers(1, 7))
        two_m = int(rng.choice(spins.two_m_values(two_j)))
        theta = float(rng.uniform(0, 2 * math.pi))
        theta_prime = float(rng.uniform(0, 2 * math.pi))
        assert mo_element_fidelity(two_j, two_m, two_m, theta, theta_prime) == pytest.approx(
            _overlap_form_element(two_j, two_m, theta, theta_prime), abs=1e-12)


def test_element_invalid_indices():
    with pytest.raises(InvalidQuantumNumbersError):
        mo_element_fidelity(2, 4, 0, 1.0, 1.0)
    with pytest.raises(InvalidQuantumNumbersError):
        mo_element_fidelity(2, 0, 3, 1.0, 1.0)


def test_theta_prime_endpoints_and_limit():
    assert optimal_theta_prime(4, 0.0) == 0.0
    for two_j in (1, 2, 8):
        assert optimal_theta_prime(two_j, math.pi) == pytest.approx(math.pi, abs=1e-12)
    assert abs(optimal_theta_prime(2000, 1.2) - 1.2) < 2e-3


def test_theta_prime_stationarity():
    eps = 1e-6
    for two_j in (1, 2, 5, 12):
        for theta in (0.6, 1.7, 2.8, 4.1):
            tp = optimal_theta_prime(two_j, theta)
            up = mo_element_fidelity(two_j, two_j, two_j, theta, tp + eps)
            dn = mo_element_fidelity(two_j, two_j, two_j, theta, tp - eps)
            assert abs(up - dn) / (2 * eps) < 1e-6


def test_gamma_positive_at_optimal_angle():
    # rank-1 weight is non-negative at theta', so the closed form is attained
    for two_j in (1, 3, 8):
        for theta in (0.5, 1.5, 2.5, math.pi, 4.0, 5.5):
            _, g1, _ = gamma_weights(theta, optimal_theta_prime(two_j, theta))
            assert g1 >= -1e-12


def test_mo_optimal_headline_values():
    assert mo_average_fidelity(3, math.pi) == pytest.approx(29 / 45, abs=1e-12)
    assert mo_average_fidelity(1, math.pi) == pytest.approx(5 / 9, abs=1e-12)
    rep = mo_optimal_fidelity(2, math.pi, problem=2)
    assert rep.fidelity == pytest.approx(11 / 15, abs=1e-12)
    assert rep.optimal_two_m == 0
    rep1 = mo_optimal_fidelity(2, math.pi, problem=1)
    assert rep1.fidelity == pytest.approx(
        mo_fopt_formula(2, math.pi, optimal_theta_prime(2, math.pi)), abs=1e-12)
    assert rep1.fidelity == pytest.approx(0.6, abs=1e-12)


def test_mo_identity_angle_collapses_to_one():
    for two_j in (1, 3, 4, 9):
        assert mo_average_fidelity(two_j, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_j1_threshold_value():
    assert abs(J1_MO_THRESHOLD - 0.303 * math.pi) < 0.005 * math.pi

    # the arccosine against a bisection of the crossing it replaced
    def gap(th):
        return mo_fopt_formula(2, th, optimal_theta_prime(2, th)) - _j1_flip_fidelity(th)

    root = _bisect(gap, 1.8, math.pi - 1e-12, tol=1e-15)
    assert abs(math.pi - root - J1_MO_THRESHOLD) < 1e-12


def test_mo_formula_equals_element_route():
    for two_j in range(1, 41):
        for theta in np.linspace(0.0, 2 * math.pi, 50, endpoint=False):
            tp = optimal_theta_prime(two_j, float(theta))
            fe = mo_element_fidelity(two_j, two_j, two_j, float(theta), tp)
            assert mo_fopt_formula(two_j, float(theta), tp) == pytest.approx(
                average_from_entanglement(fe, 2), abs=1e-10)


def test_mc_oracle_headline_examples():
    est = mo_mc_oracle(3, MOParams(3, 3, math.pi), math.pi, 100000, 7)
    assert est.n_sigma(29 / 45) < 4.0
    est = mo_mc_oracle(2, MOParams(0, 0, math.pi), math.pi, 100000, 8)
    assert est.n_sigma(11 / 15) < 4.0
    est = mo_mc_oracle(4, MOParams(4, 4, 0.0), 0.0, 200, 9)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.std_error < 1e-12


def test_mc_oracle_agrees_with_closed_form_on_random_configs(rng):
    for _ in range(30):
        two_j = int(rng.integers(1, 6))
        two_m = int(rng.choice(spins.two_m_values(two_j)))
        two_n = int(rng.choice(spins.two_m_values(two_j)))
        theta = float(rng.uniform(0.2, 2 * math.pi - 0.2))
        theta_prime = float(rng.uniform(0.0, 2 * math.pi))
        closed = average_from_entanglement(
            mo_element_fidelity(two_j, two_m, two_n, theta, theta_prime), 2)
        est = mo_mc_oracle(two_j, MOParams(two_m, two_n, theta_prime), theta,
                           20000, int(rng.integers(0, 2**31)))
        assert est.n_sigma(closed) < 4.0


def test_povm_normalization_by_monte_carlo():
    # resolution of the identity: mean of (2j+1) U|xi><xi|U^dag over Haar
    two_j = 3
    n = 60000
    rng = np.random.default_rng(12)
    q = haar_quaternions(rng, n)
    states = spins.rotated_basis_states_batch(two_j, q, 1)  # seed |3/2, 1/2>
    acc = (two_j + 1) * np.einsum("ni,nj->ij", states, states.conj()) / n
    d = spins.dim(two_j)
    scale = 4.0 * (two_j + 1) / math.sqrt(n)
    assert np.max(np.abs(acc - np.eye(d))) < scale


def test_coherent_povm_outcome_sampler_matches_density():
    # the polar offset angle must follow (2j+1) cos^(4j)(b/2) sin(b)/2
    two_j = 5
    rng = np.random.default_rng(4)
    n = 200000
    n_h = _povm_outcome_offsets(two_j, two_j, two_j, n, rng)
    assert n_h.shape == (n, 3)
    x = 0.5 * (1.0 + n_h[:, 2])  # cos^2(beta/2), with cos(beta) = n_h,z
    # x should be Beta-distributed with density (2j+1) x^(2j)
    mean = x.mean()
    expected = (two_j + 1.0) / (two_j + 2.0)
    se = x.std(ddof=1) / math.sqrt(n)
    assert abs(mean - expected) < 4 * se


def test_spin_k_mo_trivial_and_ratios():
    est, asym = spin_k_mo_fidelity(400, 2, 0.0, 100, 3)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert asym == 1.0
    est, asym = spin_k_mo_fidelity(400, 2, math.pi, 100000, 5)
    ratio = 200 * (1 - est.value) / (1 - math.cos(math.pi))
    assert abs(ratio - 2 * 1 * 3 / 3) < 0.15 * 2
    with pytest.raises(ValueError):
        spin_k_mo_fidelity(400, 0, 1.0, 100, 0)


def test_spin_k_mo_against_quadrature():
    est, _ = spin_k_mo_fidelity(8, 2, math.pi, 100000, 21)
    assert est.n_sigma(spin_k_mo_quadrature(8, 2, math.pi)) < 4.0


def _spin_k_mo_by_moments(two_j, two_k, theta):
    """The spin-k MO average fidelity at 50 digits: the squared character, a polynomial
    in u = sin^2(beta/2) through cos(tau/2) = 1 - 2 sin^2(theta/2) u, integrated term by
    term against the outcome density (2j+1)(1-u)^(2j), whose moments are
    E[u^(p+1)] = E[u^p] (p+1)/(2j+p+2)."""
    import mpmath
    from numpy.polynomial import polynomial as P

    with mpmath.workdps(50):
        c = np.array([mpmath.mpf(1), -2 * mpmath.sin(mpmath.mpf(theta) / 2) ** 2])
        prev, cur = np.array([mpmath.mpf(1)]), 2 * c  # Chebyshev U_0, U_1 of cos(tau/2)
        for _ in range(two_k - 1):
            prev, cur = cur, P.polysub(P.polymul(2 * c, cur), prev)
        fe, moment = mpmath.mpf(0), mpmath.mpf(1)
        for p, coef in enumerate(P.polymul(cur, cur) / (two_k + 1) ** 2):
            fe += coef * moment
            moment *= mpmath.mpf(p + 1) / (two_j + p + 2)
        return float(((two_k + 1) * fe + 1) / (two_k + 2))


def test_spin_k_mo_quadrature_matches_the_exact_moment_sum():
    # the 20,001-point trapezoid it replaced was off by +2.6e-8 at (8, 2, pi) and by
    # +2.57e-5 at (400, 2, pi)
    worst = 0.0
    for two_j in (1, 2, 3, 8, 20, 100, 400):
        for two_k in (1, 2, 3, 4, 8):
            for theta in (0.0, 0.3, 1.0, math.pi / 2, 2.5, math.pi, 4.0, 5.9):
                worst = max(worst, abs(spin_k_mo_quadrature(two_j, two_k, theta)
                                       - _spin_k_mo_by_moments(two_j, two_k, theta)))
    assert worst < 1e-13


def test_spin_k_mo_quadrature_at_the_verify_point():
    assert abs(spin_k_mo_quadrature(8, 2, math.pi) - 37 / 65) <= 4 * math.ulp(37 / 65)


@pytest.mark.parametrize("two_j, theta", [(3, math.pi), (8, 2.0), (40, 1.0)])
def test_mo_oracle_equals_spin_k_mo_at_qubit_target(two_j, theta):
    # one sampler: the qubit oracle at m = n = j, theta' = theta is spin-k MO at 2k = 1
    est = mo_mc_oracle(two_j, MOParams(two_j, two_j, theta), theta, 5000, 17)
    est_k, _ = spin_k_mo_fidelity(two_j, 1, theta, 5000, 17)
    assert est.value == est_k.value
    assert est.std_error == est_k.std_error


def test_character_ratio_at_qubit_target_is_cos_half_angle():
    from spinlearn.mo import _character_ratio

    tau = np.concatenate([np.linspace(0.0, 2 * math.pi, 1001), [1e-9, 2 * math.pi - 1e-9]])
    np.testing.assert_allclose(_character_ratio(1, tau) ** 2, np.cos(tau / 2) ** 2,
                               rtol=0, atol=1e-15)


def test_mo_fidelity_samples_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidQuantumNumbersError):
        mo_fidelity_samples(4, 3, 4, 1.0, 1.0, 1, rng, 10)
    with pytest.raises(InvalidQuantumNumbersError):
        mo_fidelity_samples(4, 4, 6, 1.0, 1.0, 1, rng, 10)
    with pytest.raises(ValueError, match="n_samples"):
        mo_fidelity_samples(4, 4, 4, 1.0, 1.0, 1, rng, 0)
    with pytest.raises(ValueError, match="two_k"):
        mo_fidelity_samples(4, 4, 4, 1.0, 1.0, 0, rng, 10)
    fe = np.concatenate(list(mo_fidelity_samples(4, 2, 0, 1.0, 0.5, 3, rng, 100)))
    assert fe.shape == (100,) and np.all((fe >= 0.0) & (fe <= 1.0 + 1e-12))


@pytest.mark.parametrize("problem", [1, 2])
def test_spin_zero_memory_rejected_by_benchmark(problem):
    # a spin-0 memory carries no direction: no benchmark to compare with
    with pytest.raises(InvalidQuantumNumbersError, match="two_j=0"):
        mo_optimal_fidelity(0, math.pi, problem)
    with pytest.raises(InvalidQuantumNumbersError, match="two_j=0"):
        mo_average_fidelity(0, 1.0, problem)
    with pytest.raises(InvalidQuantumNumbersError, match="two_j=0"):
        spin_k_mo_asymptote(0, 2, 1.0)


def test_spin_k_mo_error_twice_quantum():
    from spinlearn.heisenberg import spin_k_fidelity

    est, _ = spin_k_mo_fidelity(400, 2, math.pi, 100000, 6)
    err_q = 1 - spin_k_fidelity(400, 2, math.pi, "exact")
    assert 1.8 <= (1 - est.value) / err_q <= 2.2


def _random_unitary(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * np.exp(1j * np.angle(np.diag(r)))


def _random_channel(rng):
    # random CP-TP channel from a Haar-ish isometry with a 2-dim environment
    z = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    q, _ = np.linalg.qr(z)
    kraus = [q[0:2, :], q[2:4, :]]
    return channels.KrausChannel(kraus=tuple(kraus), dim_in=2, dim_out=2)


def test_unitality_iff_bell_real(rng):
    # convex mixtures of unitaries are unital and real in the Bell basis
    for _ in range(100):
        k = int(rng.integers(2, 6))
        weights = rng.dirichlet(np.ones(k))
        kraus = [math.sqrt(w) * _random_unitary(rng) for w in weights]
        choi = choi_from_kraus(kraus, 2, 2)
        assert unital_bell_reality_check(choi)
    # both directions on generic channels: realness tracks unitality exactly
    seen_nonunital = 0
    for _ in range(100):
        ch = _random_channel(rng)
        choi = channel_choi(ch)
        identity_out = apply_channel(ch, np.eye(2, dtype=complex))
        unital = bool(np.max(np.abs(identity_out - np.eye(2))) < 1e-9)
        assert unital_bell_reality_check(choi) == unital
        seen_nonunital += not unital
    assert seen_nonunital > 50


def test_amplitude_damping_not_bell_real():
    eta = 0.3
    k0 = np.array([[1, 0], [0, math.sqrt(1 - eta)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(eta)], [0, 0]], dtype=complex)
    assert not unital_bell_reality_check(choi_from_kraus([k0, k1], 2, 2))
    with pytest.raises(ValueError):
        unital_bell_reality_check(identity_choi(3))


def test_anomalous_strategy_dominates_inside_window_only():
    th_in = math.pi - 0.2
    th_out = math.pi - 0.4 * math.pi
    tp_in = optimal_theta_prime(2, th_in)
    assert _j1_flip_fidelity(th_in) > mo_fopt_formula(2, th_in, tp_in)
    tp_out = optimal_theta_prime(2, th_out)
    assert _j1_flip_fidelity(th_out) < mo_fopt_formula(2, th_out, tp_out)
    # leading-order MO error: 2k(2k+1)(1-cos)/3j = 0.02 at j=200, k=1
    assert spin_k_mo_asymptote(400, 2, math.pi) == pytest.approx(0.98, abs=1e-12)


@pytest.mark.parametrize("two_j, two_m, xi_two_n", [(3, 1, -1), (4, 0, 0), (20, 18, 20),
                                                    (40, 40, 40)])
def test_povm_polar_angle_law_matches_quadrature(two_j, two_m, xi_two_n):
    # beta must follow |d^j_{xi m}(beta)|^2 sin(beta); compare the first two
    # moments of cos(beta) with Gauss-Legendre quadrature in cos(beta)
    n = 40000
    n_h = _povm_outcome_offsets(two_j, two_m, xi_two_n, n, np.random.default_rng(1301))
    assert np.max(np.abs(np.linalg.norm(n_h, axis=1) - 1.0)) < 1e-15
    nodes, weights = np.polynomial.legendre.leggauss(64)  # exact to degree 127
    amp = spins.rotation_y_irrep(two_j, np.arccos(nodes))[
        :, spins.basis_index(two_j, xi_two_n), spins.basis_index(two_j, two_m)]
    density = weights * np.abs(amp) ** 2
    assert density.sum() == pytest.approx(2.0 / (two_j + 1), rel=1e-12)
    for power in (1, 2):
        sample = n_h[:, 2] ** power  # cos(beta)
        expected = np.sum(density * nodes**power) / density.sum()
        assert abs(sample.mean() - expected) < 4.0 * sample.std(ddof=1) / math.sqrt(n)


@pytest.mark.parametrize("fixed_g", [False, True])
@pytest.mark.parametrize("two_j, two_m, xi_two_n, two_k", [(3, 3, 3, 1), (4, 2, 0, 1),
                                                           (8, 8, 8, 2)])
def test_axis_scores_match_the_quaternion_route(fixed_g, two_j, two_m, xi_two_n, two_k):
    # cos(tau/2) from n_g . (R_g n_h), against the Hamilton products of the two
    # conjugated z-rotations and their relative angle, on the same draws (Haar g,
    # or a per_rotation_fidelity q_g); h is rebuilt from its axis, which gamma
    # does not enter
    n, theta, theta_prime = 3000, 2.0, 1.3  # one block: rotations, then POVM outcomes
    q = np.array([0.3, 0.1, -0.5, 0.8]) / np.linalg.norm([0.3, 0.1, -0.5, 0.8])
    fe, = mo_fidelity_samples(two_j, two_m, xi_two_n, theta, theta_prime, two_k,
                              np.random.default_rng(23), n, q_g=q if fixed_g else None)
    rng = np.random.default_rng(23)
    q_g = np.broadcast_to(q, (n, 4)) if fixed_g else haar_quaternions(rng, n)
    n_h = _povm_outcome_offsets(two_j, two_m, xi_two_n, n, rng)
    a = np.arctan2(n_h[:, 1], n_h[:, 0])
    b = np.arctan2(np.hypot(n_h[:, 0], n_h[:, 1]), n_h[:, 2])
    zero = np.zeros(n)
    q_h = quat_multiply(np.stack([np.cos(a / 2), zero, zero, np.sin(a / 2)], axis=1),
                        np.stack([np.cos(b / 2), zero, np.sin(b / 2), zero], axis=1))
    tau = oracles.relative_rotation_angle(
        oracles.conjugated_z_rotation(quat_multiply(q_g, q_h), theta_prime),
        oracles.conjugated_z_rotation(q_g, theta))
    assert np.max(np.abs(fe - mo._character_ratio(two_k, tau) ** 2)) < 1e-14


@pytest.mark.parametrize("two_j, two_m, xi_two_n", [(40, 38, 36), (8, 4, 2), (3, 1, -1)])
def test_newton_quantiles_match_the_bisection(two_j, two_m, xi_two_n):
    # safeguarded Newton against the 55-step bisection it replaced, on the same Chebyshev
    # CDF: to 1e-15, except where the density is too small for the rounded CDF to fix
    # cos(beta) that well (up to 2e-13 at these points, e.g. density 5e-5 at 0.899 for
    # (40, 38, 36)); there both are roots of the rounded CDF and may differ by
    # its rounding, 4 eps sum |c_k|, over the density
    from numpy.polynomial.chebyshev import chebval

    u = np.sort(np.random.default_rng(31).uniform(0.0, 1.0, 20000))
    x = mo._cos_beta_quantiles(two_j, two_m, xi_two_n, u)
    reference = oracles.cos_beta_quantiles_by_bisection(two_j, two_m, xi_two_n, u)
    density, cdf, _, _ = spins._cos_beta_law(two_j, two_m, xi_two_n)
    with np.errstate(divide="ignore"):
        rounding = (4.0 * np.finfo(float).eps * np.abs(cdf).sum()
                    / np.abs(chebval(reference, density)))
    assert np.all(np.abs(x - reference) <= 1e-15 + rounding)
    assert np.mean(np.abs(x - reference) <= 1e-15) > 0.98
    assert np.all(np.diff(x) >= 0.0) and np.all(np.abs(x) <= 1.0)


def test_mo_oracle_memory_is_bounded():
    import tracemalloc

    tracemalloc.start()
    try:
        est = mo_mc_oracle(40, MOParams(38, 36, 1.0), math.pi, 5000, 1302)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20
    closed = average_from_entanglement(mo_element_fidelity(40, 38, 36, math.pi, 1.0), 2)
    assert est.n_sigma(closed) < 4.0


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [mo_average_fidelity, mo_optimal_fidelity])
def test_non_finite_theta_is_named(call, theta):
    # at the parent these raised "fidelity nan outside [1/3, 1]", naming no argument
    with pytest.raises(ValueError, match="^theta must be finite"):
        call(4, theta)


def test_non_finite_theta_is_rejected_before_sampling():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="^theta must be finite"):
        spin_k_mo_fidelity(8, 2, math.nan, 10, rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


@pytest.mark.parametrize("theta", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda theta: gamma_weights(theta, 1.0),
    lambda theta: optimal_theta_prime(4, theta),
    lambda theta: mo_fopt_formula(4, theta, 1.0),
    lambda theta: mo_average_fidelity(2, theta, 2),
], ids=["gamma_weights", "optimal_theta_prime", "mo_fopt_formula", "anomalous"])
def test_formula_helpers_name_a_non_finite_theta(call, theta):
    # at the parent these returned nan or raised a bare "math domain error"; the j = 1
    # anomalous fidelity is read through the regime evaluator, which checks theta first
    with pytest.raises(ValueError, match="^theta must be finite"):
        call(theta)


@pytest.mark.parametrize("call", [
    lambda: optimal_theta_prime(-1, 2.0),
    lambda: mo_fopt_formula(-3, 1.0, 1.0),
], ids=["optimal_theta_prime", "mo_fopt_formula"])
def test_formula_helpers_name_a_negative_spin(call):
    # at the parent these returned 4.28 and raised a bare ZeroDivisionError
    with pytest.raises(InvalidQuantumNumbersError, match="^two_j must"):
        call()


def test_regime_dispatch_checks_its_arguments_once(monkeypatch):
    # a one-angle grid of _mo_regimes checks 2j once, through _check_regime_args, and
    # theta once
    calls = []
    for name in ("check_two_j", "_check_theta"):
        original = getattr(spins, name)
        monkeypatch.setattr(spins, name,
                            lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    mo_average_fidelity(5, 2.0)
    assert sorted(calls) == ["_check_theta", "check_two_j"]


@pytest.mark.parametrize("theta_prime", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda tp: gamma_weights(1.0, tp),
    lambda tp: mo_fopt_formula(4, 1.0, tp),
    lambda tp: mo_element_fidelity(4, 4, 4, 1.0, tp),
    lambda tp: mo_mc_oracle(4, MOParams(4, 4, tp), 1.0, 10, 0),
], ids=["gamma_weights", "mo_fopt_formula", "mo_element_fidelity", "mo_mc_oracle"])
def test_non_finite_theta_prime_is_named(call, theta_prime):
    # at the parent these returned nan or raised a bare "math domain error"
    with pytest.raises(ValueError, match="^theta_prime must be finite"):
        call(theta_prime)


@pytest.mark.parametrize("call", [
    lambda: optimal_theta_prime(0, 1.0),
    lambda: mo_fopt_formula(0, 1.0, 1.0),
], ids=["optimal_theta_prime", "mo_fopt_formula"])
def test_formula_helpers_reject_a_spin_zero_memory(call):
    # at the parent these returned 0.0 and 0.7405
    with pytest.raises(InvalidQuantumNumbersError, match="two_j=0"):
        call()


@pytest.mark.parametrize("kwargs, message", [
    ({"two_k": 0}, "two_k"), ({"two_j": 0}, "two_j=0"), ({"theta": math.nan}, "^theta must be"),
    ({"two_j": -1}, "^two_j must be"),
])
def test_spin_k_mo_quadrature_names_its_bad_argument(kwargs, message):
    # unchecked, 2k = 0 returned 1.0000000020833, a fidelity above 1, 2j = 0
    # returned 0.4796 and 2j = -1 returned nan
    args = {"two_j": 4, "two_k": 1, "theta": 1.0, **kwargs}
    with pytest.raises(ValueError, match=message):
        mo.spin_k_mo_quadrature(**args)


def test_non_finite_theta_prime_is_rejected_before_sampling():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="^theta_prime must be finite"):
        mo_fidelity_samples(4, 4, 4, 1.0, math.nan, 1, rng, 10)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
