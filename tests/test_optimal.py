import math

import mpmath
import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from oracles import (
    _conjugation_operator,
    apply_channel,
    apply_choi,
    brute_force_optimum,
    channel_choi,
    choi_from_kraus,
    covariant_choi_build,
    kraus_from_choi,
    rotation_irrep,
    tp_residuals,
    unot_channel,
    unot_mixture_channel,
    validate_params,
)
from spinlearn import channels, mo, optimal, spins
from spinlearn.channels import KrausChannel, average_from_entanglement, entanglement_fidelity
from spinlearn.memory import _bisect
from spinlearn.optimal import (
    CaseNotApplicableError,
    CovariantChoiParams,
    case1_entanglement_fidelity,
    case2_alpha,
    case_choi_channel,
    case_fidelity,
    covariant_fidelity,
    delta_half,
    delta_one,
    discrete_xyz_channel,
    discrete_xyz_projectors,
    optimal_average_fidelity,
    optimal_fidelity,
)
from spinlearn.montecarlo import mc_average_fidelity
from spinlearn.rotations import haar_quaternions, su2_from_quaternion
from spinlearn.strategies import CaseChoiStrategy, DiscreteXYZ, HeisenbergStrategy, UNotMixture


def _random_valid_params(rng, two_j):
    t_plus = rng.uniform(0.0, (two_j + 2) / (two_j + 1))
    alpha = ((two_j + 2) - (two_j + 1) * t_plus) / (two_j + 3)
    if two_j >= 2:
        t_minus = rng.uniform(0.0, two_j / (two_j + 1))
        beta = (two_j - (two_j + 1) * t_minus) / (two_j - 1)
    else:
        t_minus = two_j / (two_j + 1)
        beta = None
    v = np.array([math.sqrt(t_plus),
                  math.sqrt(t_minus) * np.exp(1j * rng.uniform(0, 2 * math.pi))])
    return CovariantChoiParams(alpha=alpha, beta=beta, m_matrix=np.outer(v, v.conj()))


def test_tp_residuals_zero_for_cases():
    for case, two_j, two_m, theta in [(1, 4, 4, 1.3), (2, 1, 1, math.pi), (3, 6, 0, 2.9)]:
        _, params = case_fidelity(case, two_j, two_m, theta)
        r1, r2 = tp_residuals(params, two_j)
        assert abs(r1) < 1e-12 and abs(r2) < 1e-12


def test_choi_build_rejects_broken_constraints():
    with pytest.raises(ValueError):
        covariant_choi_build(
            CovariantChoiParams(alpha=1.0, beta=0.0, m_matrix=np.eye(2, dtype=complex)), 4)


@pytest.mark.parametrize("two_j", [1, 2, 3, 4, 6])
def test_choi_build_cp_tp_and_fidelity_consistency(two_j, rng):
    for _ in range(4):
        params = _random_valid_params(rng, two_j)
        choi = covariant_choi_build(params, two_j)  # validates CP and TP
        theta = rng.uniform(0.0, 2 * math.pi)
        two_m = int(rng.choice(spins.two_m_values(two_j)))
        fe = covariant_fidelity(params, two_j, two_m, theta)
        ch = KrausChannel(kraus=tuple(kraus_from_choi(choi)),
                          dim_in=choi.dim_in, dim_out=2)
        probe = np.zeros(spins.dim(two_j), dtype=complex)
        probe[spins.basis_index(two_j, two_m)] = 1.0
        v = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
        assert fe == pytest.approx(entanglement_fidelity(ch, probe, v).value, abs=1e-9)


def _case_points():
    """One (case, two_j, two_m, theta) per case where it exists, 2j in {1, 2, 3, 8, 32}."""
    for two_j in (1, 2, 3, 8, 32):
        yield 1, two_j, two_j, 2.2
        yield 2, two_j, two_j % 2, 2.9
        if two_j >= 2:
            yield 3, two_j, two_j % 2, 2.2


@pytest.mark.parametrize("case, two_j, two_m, theta", list(_case_points()))
def test_case_choi_splits_into_total_m_blocks(case, two_j, two_m, theta):
    # a covariant Choi operator is block diagonal over total M, blocks at most 4 x 4;
    # rounding noise in the conjugation would join them into one dense component
    _, params = case_fidelity(case, two_j, two_m, theta)
    choi = covariant_choi_build(params, two_j)
    _, labels = connected_components(choi.matrix != 0, directed=False)
    assert np.bincount(labels).max() <= 4


@pytest.mark.parametrize("case, two_j, two_m, theta", list(_case_points()))
def test_case_choi_kraus_round_trip(case, two_j, two_m, theta):
    _, params = case_fidelity(case, two_j, two_m, theta)
    choi = covariant_choi_build(params, two_j)
    back = choi_from_kraus(kraus_from_choi(choi), choi.dim_in, choi.dim_out)
    assert np.max(np.abs(back.matrix - choi.matrix)) < 1e-12


def _round_trip_points():
    """(case, two_j, two_m, theta): cases 1-3 wherever they exist, 2j in
    {1, 2, 3, 8, 32, 64, 128}, m in {j, 0 or 1/2, -j}, theta in {0.5, 1.5, 2.9, pi}."""
    for two_j in (1, 2, 3, 8, 32, 64, 128):
        for two_m in sorted({two_j, two_j % 2, -two_j}, reverse=True):
            for theta in (0.5, 1.5, 2.9, math.pi):
                for case in (1, 2, 3):
                    try:
                        case_fidelity(case, two_j, two_m, theta)
                    except CaseNotApplicableError:
                        continue
                    yield case, two_j, two_m, theta


def _gate_route_error(two_j, two_m, theta):
    """Largest entry of the case-1 channel's Choi matrix minus the dense oracle's."""
    _, params = case_fidelity(1, two_j, two_m, theta)
    channel = case_choi_channel(CaseChoiStrategy(1, two_j, two_m, theta))
    assert len(channel.kraus) == two_j + 1
    back = choi_from_kraus(channel.kraus, channel.dim_in, channel.dim_out)
    return np.max(np.abs(back.matrix - covariant_choi_build(params, two_j).matrix))


@pytest.mark.parametrize("case, two_j, two_m, theta", list(_round_trip_points()))
def test_case_choi_channel_kraus_equal_the_dense_choi_oracle(case, two_j, two_m, theta):
    # case 1 is the gate at f_m, which shares only the Clebsch-Gordan tables with the
    # oracle's families; Racah's sum rounds more as 2j grows (test_spins), and over every
    # m at these angles the routes differ by 1.3e-13 at 2j = 64 and 2.9e-13 at 2j = 128.
    # Cases 2 and 3 have no library channel: their Kraus operators come from the oracle
    if case != 1:
        with pytest.raises(ValueError, match="^case must be 1"):
            case_choi_channel(CaseChoiStrategy(case, two_j, two_m, theta))
        return
    assert _gate_route_error(two_j, two_m, theta) < (1e-13 if two_j <= 32 else 1e-12)


@pytest.mark.parametrize("two_j", [1, 2, 3, 4, 5, 8, 9, 32])
def test_case_choi_channel_is_the_gate_at_f_m_on_an_angle_grid(two_j):
    # every m and 37 angles in [0, 2 pi], at m = 0 the identity gate
    assert max(_gate_route_error(two_j, int(two_m), float(theta))
               for two_m in spins.two_m_values(two_j)
               for theta in np.linspace(0.0, 2.0 * math.pi, 37)) < 1e-13


@pytest.mark.parametrize("two_j", range(13))
def test_conjugation_operator_is_the_exact_signed_permutation(two_j):
    index, phase = _conjugation_operator(two_j)
    d_total = 4 * spins.dim(two_j)
    op = np.zeros((d_total, d_total), dtype=complex)
    op[np.arange(d_total), index] = phase
    sigma_y = np.array([[0, -1j], [1j, 0]])
    ry = spins.rotation_y_irrep(two_j, math.pi).conj().T  # e^{+i pi Jy}
    assert np.max(np.abs(op - np.kron(np.kron(ry, np.eye(2)), sigma_y))) < 1e-13
    assert np.array_equal(np.sort(index), np.arange(d_total))
    nonzero = op != 0
    assert (nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all()
    assert np.array_equal(np.abs(op[nonzero]), np.ones(d_total))


def test_spin_zero_memory_rejected_by_cases():
    for case in (1, 2, 3):
        with pytest.raises(spins.InvalidQuantumNumbersError, match="two_j=0"):
            case_fidelity(case, 0, 0, 1.0)
    with pytest.raises(spins.InvalidQuantumNumbersError, match="two_j=0"):
        case_choi_channel(CaseChoiStrategy(1, 0, 0, math.pi))


def test_missing_beta_is_named():
    _, params = case_fidelity(1, 4, 4, 1.3)
    no_beta = CovariantChoiParams(alpha=params.alpha, beta=None, m_matrix=params.m_matrix)
    for call in (tp_residuals, validate_params, covariant_choi_build):
        with pytest.raises(ValueError, match="beta"):
            call(no_beta, 4)
    with pytest.raises(ValueError, match="beta"):  # it dropped the j-1 term
        covariant_fidelity(no_beta, 4, 0, 2.2)
    # at 2j = 1 there is no spin j-1 block, and beta None is the convention
    _, params = case_fidelity(1, 1, 1, 1.3)
    assert params.beta is None
    validate_params(params, 1)


def test_non_psd_m_is_rejected():
    _, params = case_fidelity(3, 4, 0, 1.3)
    bad = CovariantChoiParams(alpha=params.alpha, beta=params.beta,
                              m_matrix=np.array([[0.0, 1e-3], [1e-3, 0.0]], dtype=complex))
    with pytest.raises(ValueError, match="positive semidefinite"):
        validate_params(bad, 4)


def test_choi_build_covariance(rng):
    _, params = case_fidelity(1, 4, 4, 2.1)
    choi = covariant_choi_build(params, 4)
    rho = np.random.default_rng(1).standard_normal((10, 10))
    rho = rho @ rho.T + 0j
    rho /= np.trace(rho)
    for _ in range(20):
        g = haar_quaternions(rng, 1)[0]
        u_out = su2_from_quaternion(g)
        u_in = np.kron(rotation_irrep(4, g), u_out)
        lhs = apply_choi(choi, u_in @ rho @ u_in.conj().T)
        rhs = u_out @ apply_choi(choi, rho) @ u_out.conj().T
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_case1_values():
    fe, _ = case_fidelity(1, 4, 4, math.pi)
    assert fe == pytest.approx(0.64, abs=1e-12)
    assert average_from_entanglement(fe, 2) == pytest.approx(0.76, abs=1e-12)
    # identity angle is learnable exactly
    fe0, _ = case_fidelity(1, 4, 4, 0.0)
    assert fe0 == pytest.approx(1.0, abs=1e-12)


def test_case1_closed_form_matches_block_optimum():
    for two_j in (1, 2, 3, 8, 40):
        j = two_j / 2
        for theta in np.linspace(0.0, 2 * math.pi, 17, endpoint=False):
            cuno = (1 + math.sqrt(1 + math.cos(theta / 2) ** 2 * (2 * j + 1) / j**2)
                    + math.cos(theta / 2) ** 2 * (2 * j + 1) / (2 * j**2)) \
                / (2 * (1 + 1 / (2 * j)) ** 2)
            assert case1_entanglement_fidelity(two_j, two_j, float(theta)) == pytest.approx(
                cuno, abs=1e-12)


def test_case2_j_half():
    fe, params = case_fidelity(2, 1, 1, math.pi)
    assert fe == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert params.alpha == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert average_from_entanglement(fe, 2) == pytest.approx(5.0 / 9.0, abs=1e-12)
    # independent closed form on the anomalous window
    for theta in (2.6, 2.9, math.pi, 3.5):
        fe, _ = case_fidelity(2, 1, 1, theta)
        closed = (1 - math.cos(theta)) / 8 * (1 - 1 / (3 * (1 + 2 * math.cos(theta))))
        assert fe == pytest.approx(closed, abs=1e-12)


def test_case3_values():
    fe, params = case_fidelity(3, 2, 0, math.pi)
    assert fe == pytest.approx(3.0 / 5.0, abs=1e-12)
    assert average_from_entanglement(fe, 2) == pytest.approx(11.0 / 15.0, abs=1e-12)
    assert params.alpha == pytest.approx(4.0 / 5.0)
    assert params.beta == pytest.approx(2.0)
    # independent m-dependent closed form
    for two_j, two_m, theta in ((4, 2, 2.8), (6, 0, 2.0)):
        j, m = two_j / 2, two_m / 2
        fe, _ = case_fidelity(3, two_j, two_m, theta)
        closed = math.sin(theta / 2) ** 2 * (
            ((j + 1) ** 2 - m**2) / ((2 * j + 1) * (2 * j + 3))
            + (j**2 - m**2) / ((2 * j + 1) * (2 * j - 1)))
        assert fe == pytest.approx(closed, abs=1e-12)


def test_case_applicability_errors():
    with pytest.raises(CaseNotApplicableError):
        case_fidelity(3, 1, 1, 2.0)
    with pytest.raises(CaseNotApplicableError):
        case_fidelity(2, 1, 1, 0.5)  # far from pi: no stationary point
    for case in (4, 5):  # the alpha = 0 mirror of case 2 is never optimal and has no case
        with pytest.raises(ValueError, match=f"^unknown case {case}$"):
            case_fidelity(case, 4, 2, 3.0)


def test_delta_thresholds():
    assert abs(delta_half() - math.acos((4 + math.sqrt(7)) / 9)) < 1e-15
    assert abs(delta_one() - 0.23 * math.pi) < 0.005 * math.pi

    # the arccosines against bisections of the gaps they replaced
    def alpha_numerator(th):
        return 9.0 * math.cos(th) ** 2 + 8.0 * math.cos(th) + 1.0

    def case1_minus_case3(th):
        return case1_entanglement_fidelity(2, 2, th) - case_fidelity(3, 2, 0, th)[0]

    assert abs(math.pi - _bisect(alpha_numerator, 2.0, 2.8, tol=1e-15) - delta_half()) < 1e-12
    assert abs(math.pi - _bisect(case1_minus_case3, 2.0, math.pi - 1e-12, tol=1e-15)
               - delta_one()) < 1e-12


def test_optimal_fidelity_headline_values():
    assert optimal_average_fidelity(3, math.pi) == pytest.approx(17 / 24, abs=1e-12)
    report = optimal_fidelity(2, math.pi, problem=2)
    assert report.fidelity == pytest.approx(11 / 15, abs=1e-12)
    assert report.optimal_two_m == 0
    assert isinstance(report.strategy, DiscreteXYZ)
    for two_j in (1, 2, 3, 10):
        assert optimal_average_fidelity(two_j, 0.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("problem", [1, 2])
def test_spin_zero_memory_rejected(problem):
    # a spin-0 memory carries no direction (the case-1 formula gave 1/3 < F_MO = 5/9)
    with pytest.raises(spins.InvalidQuantumNumbersError, match="two_j=0"):
        optimal_fidelity(0, math.pi, problem)
    with pytest.raises(spins.InvalidQuantumNumbersError, match="two_j=0"):
        optimal_average_fidelity(0, 1.0, problem)


def test_optimal_fidelity_regimes():
    # j = 1, problem 1 never leaves the stretched-probe branch
    rep = optimal_fidelity(2, math.pi, problem=1)
    assert rep.regime == "case1"
    assert rep.fidelity == pytest.approx(
        average_from_entanglement(case1_entanglement_fidelity(2, 2, math.pi), 2))
    # j = 1/2 switches to the mixture inside the window
    rep = optimal_fidelity(1, math.pi, problem=1)
    assert rep.regime == "case2_mixture"
    assert isinstance(rep.strategy, UNotMixture)
    assert rep.strategy.alpha == pytest.approx(2 / 3)
    rep = optimal_fidelity(1, 0.5, problem=2)
    assert rep.regime == "case1"
    assert isinstance(rep.strategy, HeisenbergStrategy)
    # outside the window for j = 1 problem 2
    rep = optimal_fidelity(2, math.pi - delta_one() - 0.01, problem=2)
    assert rep.regime == "case1"


def test_optimal_monotone_in_theta():
    for two_j in (3, 4, 10):
        grid = np.linspace(0.0, math.pi, 100)
        vals = [optimal_average_fidelity(two_j, float(t)) for t in grid]
        assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))


def test_quantum_beats_classical():
    rng = np.random.default_rng(8)
    for _ in range(40):
        two_j = int(rng.integers(1, 11))
        theta = float(rng.uniform(0.05, 2 * math.pi - 0.05))
        fq = optimal_average_fidelity(two_j, theta)
        fm = mo.mo_average_fidelity(two_j, theta)
        anomaly = (two_j == 2 and abs(theta - math.pi) <= mo.j1_mo_threshold())
        j_half_pi = (two_j == 1 and abs(theta - math.pi) < 1e-9)
        if anomaly or j_half_pi:
            assert fq >= fm - 1e-9
        else:
            assert fq > fm + 1e-9


def test_j_half_gap_near_transition_is_tiny_but_nonnegative():
    # the quantum/classical gap for j = 1/2 inside the mixture window is too
    # small to read off a plot; record that it is non-negative and below 1e-2
    for theta in (0.9 * math.pi, 0.85 * math.pi, 0.95 * math.pi):
        gap = optimal_average_fidelity(1, theta) - mo.mo_average_fidelity(1, theta)
        assert -1e-12 <= gap < 1e-2


def test_equality_points():
    assert optimal_average_fidelity(1, math.pi) == pytest.approx(
        mo.mo_average_fidelity(1, math.pi), abs=1e-10)
    assert optimal_average_fidelity(2, math.pi, 2) == pytest.approx(
        mo.mo_average_fidelity(2, math.pi, 2), abs=1e-10)
    # inside the j=1 anomalous window the two coincide identically
    th = math.pi - 0.1
    assert optimal_average_fidelity(2, th, 2) == pytest.approx(
        mo.mo_average_fidelity(2, th, 2), abs=1e-12)


def _window(delta):
    """At least 2,001 angles over |theta - pi| <= delta: both edges (or the float next to an
    edge inside the window), pi itself, and angles on both sides of pi."""
    edges = [math.pi - delta, math.pi + delta]
    thetas = np.linspace(*edges, 2001).tolist() + [math.pi]
    thetas += [t for e in edges for t in (e, float(np.nextafter(e, math.pi)))]
    return [t for t in thetas if abs(t - math.pi) <= delta]


def _case2_exact(theta):
    x = mpmath.cos(mpmath.mpf(theta))
    return (7 + 14 * x - 3 * x * x) / (18 * (1 + 2 * x))


def _flip_exact(theta):
    return mpmath.mpf(1) / 3 + mpmath.mpf(2) / 5 * mpmath.sin(mpmath.mpf(theta) / 2) ** 2


@pytest.mark.parametrize("two_j, case, two_m, delta, regime, exact", [
    (1, 2, 1, delta_half(), "case2_mixture", _case2_exact),
    (2, 3, 0, delta_one(), "j1_anomalous_problem2", _flip_exact),
], ids=["j_half_case2", "j1_case3"])
def test_window_closed_forms_match_the_choi_route(two_j, case, two_m, delta, regime, exact):
    # the dispatcher's closed forms against the covariant Choi route they replaced, and
    # against a 40-digit value of the same fidelity
    thetas = _window(delta)
    assert len(thetas) >= 2001
    assert min(thetas) < math.pi < max(thetas)
    with mpmath.workdps(40):
        for theta in thetas:
            report = optimal_fidelity(two_j, theta, problem=2)
            assert report.regime == regime
            f = report.fidelity
            fe, params = case_fidelity(case, two_j, two_m, theta)
            assert abs(f - average_from_entanglement(fe, 2)) <= 4 * math.ulp(f), theta
            assert abs(mpmath.mpf(f) - exact(theta)) <= 2 * math.ulp(f), theta
            if case == 2:
                assert params.alpha == pytest.approx(case2_alpha(theta), abs=1e-12)


@pytest.mark.parametrize("problem", [1, 2])
def test_quantum_is_never_below_classical(problem):
    # no tolerance: inside the j = 1 problem-2 window both optima are the one flip value
    # (through the Choi route 255 of these angles at 2j = 2, problem 2 read -1.1e-16)
    thetas = np.linspace(0.0, 2 * math.pi, 4001, endpoint=False).tolist() + [math.pi]
    for two_j in (1, 2, 3, 4, 5, 8):
        for theta in thetas:
            gap = (optimal_average_fidelity(two_j, theta, problem)
                   - mo.mo_average_fidelity(two_j, theta, problem))
            assert gap >= 0.0, (two_j, theta)
            if two_j == 2 and problem == 2 and abs(theta - math.pi) <= delta_one():
                assert gap == 0.0, theta


def test_brute_force_agrees_with_dispatch():
    assert brute_force_optimum(4, 4, math.pi / 2) == pytest.approx(
        case1_entanglement_fidelity(4, 4, math.pi / 2), abs=1e-6)
    assert brute_force_optimum(1, 1, math.pi) == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert brute_force_optimum(2, 0, math.pi) == pytest.approx(3.0 / 5.0, abs=1e-6)
    with pytest.raises(ValueError):
        brute_force_optimum(2, 2, 1.0, grid_resolution=8)


def test_brute_force_dominates_every_case(rng):
    for _ in range(50):
        two_j = int(rng.integers(1, 9))
        two_m = int(rng.choice(spins.two_m_values(two_j)))
        theta = float(rng.uniform(0.0, 2 * math.pi))
        best = brute_force_optimum(two_j, two_m, theta, grid_resolution=48)
        for case in (1, 2, 3):
            try:
                fe, _ = case_fidelity(case, two_j, two_m, theta)
            except CaseNotApplicableError:
                continue
            assert best >= fe - 1e-9
    # and matches the regime winner at the optimal probe
    for two_j, theta in ((4, 2.2), (3, math.pi), (1, math.pi), (2, math.pi)):
        fe_best = max(brute_force_optimum(two_j, int(tm), theta)
                      for tm in spins.two_m_values(two_j))
        fe_opt = channels.entanglement_from_average(
            optimal_average_fidelity(two_j, theta), 2)
        assert fe_best == pytest.approx(fe_opt, abs=1e-6)


# --- explicit strategy channels --------------------------------------------

def test_unot_channel_bloch_shrinking(rng):
    ch = unot_channel()
    paulis = [np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]], dtype=complex)]
    for _ in range(20):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z /= np.linalg.norm(z)
        rho = np.outer(z, z.conj())
        r = np.array([np.trace(p @ rho).real for p in paulis])
        out = apply_channel(ch, np.kron(rho, 0.5 * np.eye(2)))
        r_out = np.array([np.trace(p @ out).real for p in paulis]) / np.trace(out).real
        assert np.allclose(r_out, -r / 3.0, atol=1e-10)


def test_unot_channel_against_haar_integral_oracle(rng):
    # brute-force the defining coherent-state integral by Monte Carlo
    ch = unot_channel()
    n = 100000
    u = su2_from_quaternion(haar_quaternions(np.random.default_rng(17), n))
    chi = u[:, :, 0]
    flip = u[:, :, 1]
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    z /= np.linalg.norm(z)
    rho = np.outer(z, z.conj())
    pair = np.einsum("ni,nj->nij", chi, chi).reshape(n, 4)
    w = 3.0 * np.real(np.einsum("ni,ij,nj->n", pair.conj(), rho, pair))
    mc = np.einsum("n,ni,nj->ij", w, flip, flip.conj()) / n
    exact = apply_channel(ch, rho)
    assert np.max(np.abs(mc - exact)) < 0.02


def test_unot_trace_preserving_on_triplet():
    tr = channel_choi(unot_channel()).trace_out_output()
    singlet = np.zeros(4, dtype=complex)
    singlet[1] = 1 / math.sqrt(2)
    singlet[2] = -1 / math.sqrt(2)
    p_sym = np.eye(4) - np.outer(singlet, singlet.conj())
    assert np.max(np.abs(tr - p_sym)) < 1e-12


def test_unot_mixture_channel_is_tp():
    for alpha, theta in ((0.0, 2.0), (0.4, 2.8), (2 / 3, math.pi)):
        ch = unot_mixture_channel(alpha, theta)
        total = sum(k.conj().T @ k for k in ch.kraus)
        assert np.max(np.abs(total - np.eye(4))) < 1e-10
    with pytest.raises(ValueError):
        unot_mixture_channel(0.9, 1.0)


def test_unot_mixture_fidelity_closed_form():
    # exact channel evaluation reproduces the case-2 optimum at theta = pi
    ch = unot_mixture_channel(2 / 3, math.pi)
    probe = np.array([1.0, 0.0], dtype=complex)
    v = np.diag([-1j, 1j])
    fe = entanglement_fidelity(ch, probe, v).value
    assert fe == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_discrete_xyz_completeness_and_channel():
    projectors = discrete_xyz_projectors()
    total = sum(np.outer(s, s.conj()) for _, s in projectors)
    assert np.max(np.abs(total - np.eye(3))) < 1e-15
    ch = discrete_xyz_channel()
    tot = sum(k.conj().T @ k for k in ch.kraus)
    assert np.max(np.abs(tot - np.eye(6))) < 1e-12
    for kraus, (axis, state) in zip(ch.kraus, projectors):  # the pi rotation -i n.sigma
        flip = -2j * sum(a * s for a, s in zip(axis, spins.spin_operators(1)))
        assert np.array_equal(kraus, flip @ np.kron(state.conj()[None, :], np.eye(2)))
    # the discrete strategy is not covariant pointwise: only its Haar average
    # reproduces the anomalous closed form (checked by the Monte-Carlo oracle);
    # at the aligned rotation the z outcome fires with certainty
    probe = np.array([0.0, 1.0, 0.0], dtype=complex)  # |1,0>
    v = np.diag([-1j, 1j])
    fe = entanglement_fidelity(ch, probe, v).value
    assert fe == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("theta", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    optimal_average_fidelity,
    optimal_fidelity,
    lambda two_j, theta: case_fidelity(1, two_j, two_j, theta),
    lambda two_j, theta: case_choi_channel(CaseChoiStrategy(1, two_j, two_j, theta)),
], ids=["average", "report", "case_fidelity", "case_choi_channel"])
def test_non_finite_theta_is_named(call, theta):
    # at the parent the fidelities raised "fidelity nan outside [1/3, 1]", naming
    # no argument; case 1 at theta = nan returned nan, and its channel the
    # 5-Kraus channel of the zero cross phase
    with pytest.raises(ValueError, match="^theta must be finite"):
        call(4, theta)


@pytest.mark.parametrize("theta", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda theta: case1_entanglement_fidelity(4, 4, theta),
    case2_alpha,
], ids=["case1", "case2_alpha"])
def test_formula_helpers_name_a_non_finite_theta(call, theta):
    # at the parent these returned nan
    with pytest.raises(ValueError, match="^theta must be finite"):
        call(theta)


@pytest.mark.parametrize("alpha", [0.9, -0.1, math.nan])
def test_unot_instrument_names_alpha_outside_its_range(alpha):
    # at the parent the Monte-Carlo sampler took these silently (0.642 at 0.9,
    # 0.536 at -0.1)
    for call in (lambda: unot_mixture_channel(alpha, 1.0),
                 lambda: mc_average_fidelity(UNotMixture(alpha=alpha), 1.0, 100, seed=0)):
        with pytest.raises(ValueError, match="^alpha must lie in"):
            call()


@pytest.mark.parametrize("two_j, two_m", [(3, 7), (-1, -1), (3, 2), (0, 2), (2, -4)])
def test_case1_formula_names_invalid_quantum_numbers(two_j, two_m):
    # unchecked, (3, 7) returned 1.497, a fidelity above 1, and (-1, -1) raised a
    # bare ZeroDivisionError
    with pytest.raises(spins.InvalidQuantumNumbersError, match="two_"):
        case1_entanglement_fidelity(two_j, two_m, 1.0)


@pytest.mark.parametrize("theta", [2 * math.pi / 3, 0.0, 1.3, math.pi - delta_half() - 1e-9,
                                   math.pi + delta_half() + 1e-9,
                                   3 * math.pi - delta_half() - 1e-9])
def test_case2_alpha_names_theta_outside_its_window(theta):
    # unchecked, 2 pi / 3 returned -1.27e30 and the window's edges a negative weight
    with pytest.raises(ValueError, match="^theta=.* outside the j = 1/2 case-2 window"):
        case2_alpha(theta)


def test_case2_alpha_takes_every_angle_the_dispatcher_sends():
    # every theta the j = 1/2 dispatcher reads as the mixture, its edges included,
    # gives a weight in [0, 2/3]
    edges = [math.pi - delta_half(), math.pi + delta_half()]
    for theta in [math.pi, 2.9, 3 * math.pi] + edges + [np.nextafter(t, math.pi) for t in edges]:
        report = optimal_fidelity(1, theta)
        assert report.regime == "case2_mixture"
        assert 0.0 <= report.strategy.alpha <= 2 / 3
        assert report.strategy.alpha == case2_alpha(theta)


# SHA-256 of "<F_quantum.hex()> <F_MO.hex()>\n" over the grid below, made with
# optimal_average_fidelity and mo_average_fidelity before the regime evaluators existed
_PARENT_REGIME_DIGEST = "13c1f28e68a6bfca87333face63d1bf09eea158ca4e0af2b91b5ee7825fc387f"


def test_regime_evaluators_keep_the_parent_floats():
    # every bit of both optima, not only the 12 printed digits: 2j in 1..100, 400, 20000,
    # 4,000 angles over [0, 2 pi) plus pi, the three window edges either side of pi, 7.5
    # and -1.0, both problems (817,836 points)
    import hashlib

    thetas = [2.0 * math.pi * k / 4000 for k in range(4000)]
    for delta in (delta_half(), delta_one(), mo.j1_mo_threshold()):
        thetas += [math.pi - delta, math.pi + delta]
    thetas += [math.pi, 7.5, -1.0]
    digest = hashlib.sha256()
    for problem in (1, 2):
        for two_j in [*range(1, 101), 400, 20000]:
            quantum = optimal._regime_at(two_j, problem)
            classical = mo._mo_regime_at(two_j, problem)
            digest.update("".join(f"{quantum(t)[2].hex()} {classical(t)[2].hex()}\n"
                                  for t in thetas).encode())
    assert digest.hexdigest() == _PARENT_REGIME_DIGEST


@pytest.mark.parametrize("two_j, theta, problem, error, message", [
    (0, 1.0, 2, spins.InvalidQuantumNumbersError, "^two_j=0: a spin-0 memory"),
    (2.5, 1.0, 2, spins.InvalidQuantumNumbersError, "^two_j must be a non-negative integer"),
    (4, 1.0, 3, ValueError, "^problem must be 1 or 2$"),
    (4, math.nan, 2, ValueError, "^theta must be finite, got nan$"),
    (4, -math.inf, 1, ValueError, "^theta must be finite, got -inf$"),
], ids=["spin_0", "non_integer", "problem_3", "nan", "inf"])
@pytest.mark.parametrize("scalar, evaluator", [
    (optimal_average_fidelity, optimal._regime_at),
    (mo.mo_average_fidelity, mo._mo_regime_at),
], ids=["quantum", "classical"])
def test_regime_evaluators_raise_as_the_scalar_calls(two_j, theta, problem, error, message,
                                                     scalar, evaluator):
    # two_j and problem are checked when the evaluator is made, theta at each call
    with pytest.raises(error, match=message) as from_scalar:
        scalar(two_j, theta, problem)
    with pytest.raises(error, match=message) as from_evaluator:
        regime = evaluator(two_j, problem)
        assert math.isfinite(theta) is False  # only a bad theta gets this far
        regime(theta)
    assert type(from_evaluator.value) is type(from_scalar.value)
