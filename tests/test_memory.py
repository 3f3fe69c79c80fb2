import math
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import (
    complementary_step,
    gate_channel,
    recycling_trajectories,
    step_kernel,
    stinespring_complementary_populations,
    thermal_fidelity_by_weights,
    tricomi_weights_by_double_sum,
    uses_before_by_scan,
)
from spinlearn import heisenberg, memory, optimal
from spinlearn.channels import average_from_entanglement, entanglement_fidelity
from spinlearn.heisenberg import _golden_minimize, f_angle, heisenberg_unitary
from spinlearn.memory import (
    MemoryDistribution,
    SignedWeights,
    fidelity_given_m_asymptote,
    longevity,
    persistence,
    point_mass,
    recycled_fidelity,
    thermal_advantage_threshold,
    thermal_fidelity,
    thermal_fidelity_asymptote,
    thermal_state,
    tricomi_distribution,
    tricomi_geometric_asymptote,
)
from spinlearn.mo import mo_average_fidelity
from spinlearn.spins import InvalidQuantumNumbersError, dim


@given(st.integers(min_value=1, max_value=30),
       st.floats(min_value=0.0, max_value=2 * math.pi - 1e-9))
def test_kernel_column_stochastic(two_j, theta):
    # the exact kernel is a genuine stochastic kernel at every 2j >= 1
    down, stay, up = step_kernel(two_j, theta)
    assert np.all(down >= -1e-15) and np.all(up >= -1e-15)
    assert np.all(stay >= -1e-12) and np.all(stay <= 1.0 + 1e-15)
    assert np.allclose(down + stay + up, 1.0, atol=1e-14)


def test_step_theta_zero_is_identity():
    d = point_mass(8, 4)
    out = complementary_step(8, 0.0, d)
    assert 0.5 * np.abs(d.weights - out.weights).sum() < 1e-15


def test_step_point_mass_explicit_coefficients():
    # one step from the aligned state at j = 2, theta = pi
    two_j = 4
    out = complementary_step(two_j, math.pi, point_mass(two_j, 4))
    j, m = 2.0, 2.0
    expected_down = (j + m) * (1 + j - m) / (1 + 2 * j) ** 2 * 2.0
    assert out.weights[1] == pytest.approx(expected_down, abs=1e-14)  # 2m = 2
    assert out.weights[0] == pytest.approx(1.0 - expected_down, abs=1e-14)  # 2m = 4
    out.validate()


def test_exact_kernel_equals_stinespring_over_fifty_steps_at_pi():
    # 50 recycling steps at j = 100
    two_j = 200
    a = point_mass(two_j, two_j)
    b = point_mass(two_j, two_j)
    for _ in range(50):
        a = complementary_step(two_j, math.pi, a)
        b = stinespring_complementary_populations(two_j, math.pi, b)
    assert 0.5 * np.abs(a.weights - b.weights).sum() < 1e-8


def test_exact_kernel_equals_stinespring_any_angle():
    for two_j, theta in ((16, 2.0), (9, 1.1), (30, 4.4)):
        a = point_mass(two_j, two_j)
        b = point_mass(two_j, two_j)
        for _ in range(4):
            a = complementary_step(two_j, theta, a, "exact")
            b = stinespring_complementary_populations(two_j, theta, b)
        assert 0.5 * np.abs(a.weights - b.weights).sum() < 1e-12


@pytest.mark.parametrize("two_j,theta", [(1, 1.0), (2, 2.0), (3, 0.7), (4, 1.0)])
def test_recycled_fidelity_matches_quantum_trajectories(two_j, theta, rng):
    # the physical process, sampled: against the first-order factor
    # (1 - cos theta)(1 - (1 + cos theta)/2j) these points read |z| of 6 to 28,
    # and 2j = 1 at cos theta > 0 was rejected
    samples = recycling_trajectories(two_j, theta, 10, 20000, rng)
    std_error = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
    z = (samples.mean(axis=0) - recycled_fidelity(two_j, theta, 10)) / std_error
    assert np.all(np.abs(z) < 4.0), z


def test_unknown_kernel_kind():
    with pytest.raises(ValueError):
        step_kernel(4, 1.0, "bogus")


# --- alternating-sum distribution ------------------------------------------

def test_tricomi_point_mass_at_zero_steps():
    d = tricomi_distribution(12, 1.7, 0)
    assert d.weights[0] == 1.0  # 2m = 12


@pytest.mark.parametrize("two_j,theta,n", [(200, math.pi, 20), (200, math.pi, 90),
                                           (400, math.pi, 150), (100, 2.0, 60)])
def test_tricomi_matches_leading_chain(two_j, theta, n):
    tri = tricomi_distribution(two_j, theta, n)
    ch = point_mass(two_j, two_j)
    for _ in range(n):
        ch = complementary_step(two_j, theta, ch, "leading")
    assert 0.5 * np.abs(tri.weights - ch.weights).sum() < 1e-8


def _leading_chain_exact(two_j, theta, n):
    """Rational-arithmetic evolution of the linearized kernel (test oracle).

    The linearized recursion lives on an unbounded level lattice; the lattice
    is extended to k <= n so no boundary is ever hit.
    """
    s = Fraction(float(1.0 - math.cos(theta))) / Fraction(two_j)
    size = n + 2
    weights = [Fraction(0)] * size
    weights[0] = Fraction(1)
    for _ in range(n):
        new = [Fraction(0)] * size
        for k, w in enumerate(weights):
            if w == 0:
                continue
            down = s * (k + 1)
            up = s * k
            new[k] += w * (1 - down - up)
            if k + 1 < size:
                new[k + 1] += w * down
            if k > 0:
                new[k - 1] += w * up
        weights = new
    return weights


@pytest.mark.parametrize("two_j,theta,n", [(20, math.pi, 35), (7, 2.0, 30), (40, 1.0, 40)])
def test_tricomi_is_exact_solution_of_linearized_chain(two_j, theta, n):
    # outside the float-stable regime the identity still holds in exact
    # arithmetic (the closed form tracks the unbounded linearized chain), and
    # both round the same rational to the nearest float
    tri = tricomi_distribution(two_j, theta, n)
    oracle = _leading_chain_exact(two_j, theta, n)
    for k in range(dim(two_j)):
        assert tri.weights[k] == float(oracle[k])


def test_tricomi_geometric_asymptote_top_weights():
    two_j, theta, n = 400, math.pi, 100
    tri = tricomi_distribution(two_j, theta, n)
    for k in range(5):
        two_m = two_j - 2 * k
        got = tri.weights[k]
        asym = tricomi_geometric_asymptote(two_j, theta, n, two_m)
        assert abs(got - asym) < 0.05 * asym


def test_tricomi_negative_steps_rejected():
    with pytest.raises(ValueError):
        tricomi_distribution(4, 1.0, -1)


@pytest.mark.parametrize("two_j,theta,n", [(400, math.pi, 200), (20, math.pi, 15), (1, math.pi, 149),
                                           (40, 1.0, 40), (7, 2.0, 30), (100, 2.0, 60),
                                           (3, 0.3, 50), (12, 1.7, 1), (9, 5.5, 4),
                                           (300, math.pi, 300), (2, math.pi, 100),
                                           (50, 0.7, 80), (13, 5.9, 40)])
def test_tricomi_taylor_shift_equals_double_sum(two_j, theta, n):
    # the coefficients of the Taylor shift P(y - 1), from the recurrence: the same
    # integers, so the same correctly rounded weights, bit for bit (n = 2j, n >> 2j
    # and angles where 1 - cos theta has an odd numerator included)
    tri = tricomi_distribution(two_j, theta, n)
    assert np.array_equal(tri.weights, tricomi_weights_by_double_sum(two_j, theta, n))


def test_tricomi_keeps_no_list_of_numerators():
    # each numerator has about n log2(r) bits: a list of all n + 1 of them peaked at 6 MB
    tricomi_distribution(4, math.pi, 3)
    tracemalloc.start()
    try:
        tricomi_distribution(2000, math.pi, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


@pytest.mark.parametrize("two_j,theta,first_n", [(20, math.pi, 278), (7, 2.0, 238),
                                                 (1, math.pi, 150)])
def test_tricomi_overflow_starts_at_the_same_n_as_the_double_sum(two_j, theta, first_n):
    for sums in (tricomi_weights_by_double_sum, tricomi_distribution):
        sums(two_j, theta, first_n - 1)
        with pytest.raises(ValueError, match=f"n={first_n}"):
            sums(two_j, theta, first_n)


def test_tricomi_weights_are_signed_not_a_distribution():
    # the lowest weight at (20, pi, 15) is -0.0562: no probability distribution
    tri = tricomi_distribution(20, math.pi, 15)
    assert isinstance(tri, SignedWeights) and not isinstance(tri, MemoryDistribution)
    assert tri.weights.min() < -0.05


# --- per-state fidelity and recycling ---------------------------------------

def fidelity_given_m(two_j, two_m, theta):
    """The average fidelity of the gate run from memory state |j,m>_g."""
    fe = heisenberg.entanglement_fidelity_given_m(two_j, two_m, theta)
    return average_from_entanglement(fe, 2)


def test_fidelity_given_m_aligned_equals_optimum():
    for two_j, theta in ((6, 2.0), (20, math.pi)):
        assert fidelity_given_m(two_j, two_j, theta) == pytest.approx(
            optimal.optimal_average_fidelity(two_j, theta, problem=1), abs=1e-12)


def test_fidelity_given_m_theta_zero():
    for two_m in (6, 0, -6):
        assert fidelity_given_m(6, two_m, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_given_m_matches_generic_channel_route():
    for two_j, two_m, theta in ((4, 0, 2.2), (5, -3, 1.1), (3, 1, math.pi)):
        gate = heisenberg_unitary(two_j, 1, theta)
        probe = np.zeros(dim(two_j), dtype=complex)
        probe[(two_j - two_m) // 2] = 1.0
        v = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
        fe = entanglement_fidelity(gate_channel(gate), probe, v).value
        assert fidelity_given_m(two_j, two_m, theta) == pytest.approx(
            average_from_entanglement(fe, 2), abs=1e-12)


def test_fidelity_given_m_asymptote():
    two_j, two_m = 200, 180  # j=100, m=90
    exact = fidelity_given_m(two_j, two_m, math.pi)
    asym = fidelity_given_m_asymptote(two_j, two_m, math.pi)
    assert abs((1 - exact) - (1 - asym)) < 0.1 * (1 - asym)


def test_recycled_first_use_is_optimal_and_monotone():
    seq = recycled_fidelity(100, 2.4, 40)
    assert seq[0] == pytest.approx(optimal.optimal_average_fidelity(100, 2.4), abs=1e-12)
    assert np.all(np.diff(seq) <= 1e-14)


def test_recycled_leading_order_error():
    # 50th use at j = 100: error term matches the leading-order form within 2%
    seq = recycled_fidelity(200, math.pi, 50)
    t = 50
    j = 100.0
    lead = (1 - math.cos(math.pi)) / (3 * j) * ((t - 1) * (1 - math.cos(math.pi)) + j) / j
    assert abs((1 - seq[-1]) - lead) < 0.02 * lead


def test_recycled_reoptimized_schedule_never_worse():
    # both schedules run the kernel with factor 1 - cos f; the largest
    # fixed-minus-reoptimized gap over this grid is 1.3e-15
    for two_j in range(2, 41):
        for theta in np.linspace(0.0, 2 * math.pi, 41):
            base = recycled_fidelity(two_j, float(theta), 200)
            reopt = recycled_fidelity(two_j, float(theta), 200, reoptimize_f=True)
            assert np.all(reopt >= base - 1e-12), (two_j, theta)


def test_reoptimized_recycling_keeps_the_parent_floats():
    # sin(theta) and cos(theta) are evaluated once a call, not once a use, and every bit
    # stays: the digest is the SHA-256 of the float.hex of each sequence over 9 spins x
    # 28 angles x 3 lengths (756 sequences), made when they were evaluated at each use
    import hashlib

    digest = hashlib.sha256()
    for two_j in (1, 2, 3, 5, 8, 20, 101, 400, 20000):
        for theta in [2.0 * math.pi * k / 27 for k in range(27)] + [math.pi]:
            for n_uses in (1, 7, 50):
                seq = recycled_fidelity(two_j, theta, n_uses, reoptimize_f=True)
                digest.update(" ".join(float(f).hex() for f in seq).encode() + b"\n")
    assert digest.hexdigest() == ("d703fae265fc9849eeacde46fc5fc1bd"
                                  "ceb74ad175a2834ca0250eb856269c10")


def test_spin_half_reoptimized_second_use_never_worse():
    # the first use leaves the same memory on both schedules, so the greedy
    # angle of use 2 cannot lose; later uses can (the recycled_fidelity docstring)
    for theta in np.linspace(0.0, 2 * math.pi, 41):
        base = recycled_fidelity(1, float(theta), 2)
        reopt = recycled_fidelity(1, float(theta), 2, reoptimize_f=True)
        assert reopt[1] >= base[1] - 1e-12, theta
    gap = recycled_fidelity(1, 2.139, 4) - recycled_fidelity(1, 2.139, 4, reoptimize_f=True)
    assert gap[3] > 1.9e-3


def test_reoptimized_angle_leaves_the_pure_state_window():
    # at small spins the best angle for the mixed memory is far from f(theta):
    # 0.449 against 1.446 rad here (a search confined to f(theta) +- 0.5 finds 0.6353)
    assert recycled_fidelity(7, math.pi / 2, 200, reoptimize_f=True)[-1] == pytest.approx(
        0.678629509671, abs=1e-9)


@pytest.mark.parametrize("two_j", [200, 400, 800])
def test_persistence_crosses_at_half_j(two_j):
    rep = persistence(two_j, math.pi)
    assert rep.steps == two_j // 4  # t = j/2
    assert not rep.capped


@pytest.mark.parametrize("two_j", [100, 200, 400, 800])
@pytest.mark.parametrize("theta", [math.pi / 2, math.pi])
def test_persistence_close_to_asymptote(two_j, theta):
    rep = persistence(two_j, theta)
    assert abs(rep.steps - rep.asymptote) <= 2.0


def test_persistence_capped_for_tiny_angles():
    rep = persistence(40, 1e-3, t_max=50)
    assert rep.capped and rep.steps == 50


def test_longevity_edges_and_scaling():
    f1 = recycled_fidelity(60, math.pi, 1)[0]
    assert longevity(60, math.pi, f1 - 1e-12) >= 1
    assert longevity(60, math.pi, min(f1 + 1e-6, 0.999)) == 0
    with pytest.raises(ValueError):
        longevity(60, math.pi, 0.2)
    ls = [longevity(two_j, math.pi, 0.9) for two_j in (100, 200, 400)]
    assert 3.0 < ls[1] / ls[0] < 5.0
    assert 3.0 < ls[2] / ls[1] < 5.0


# --- thermal robustness ------------------------------------------------------

def test_thermal_state_weights():
    w = thermal_state(4, 10.0)
    assert w.weights[0] > 1.0 - 1e-8  # 2m = 4
    w = thermal_state(2, 0.5)
    expect = np.exp([1.0, 0.0, -1.0])
    expect /= expect.sum()
    assert np.allclose(w.weights, expect, atol=1e-12)
    for gamma in (0.1, 1.0, 5.0):
        assert float(np.sum(thermal_state(9, gamma).weights)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        thermal_state(4, 0.0)


def test_thermal_fidelity_limits():
    two_j = 12
    assert thermal_fidelity(two_j, 0.0, 0.7) == pytest.approx(1.0, abs=1e-12)
    assert thermal_fidelity(two_j, 2.0, 40.0) == pytest.approx(
        optimal.optimal_average_fidelity(two_j, 2.0), abs=1e-10)


def test_thermal_fidelity_asymptote():
    two_j = 400
    got = thermal_fidelity(two_j, math.pi, 1.0)
    asym = thermal_fidelity_asymptote(two_j, math.pi, 1.0)
    assert abs((1 - got) - (1 - asym)) < 0.05 * (1 - asym)


def test_thermal_monotone_in_gamma():
    vals = [thermal_fidelity(60, 2.0, g) for g in (0.2, 0.5, 1.0, 2.0, 4.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_thermal_threshold_near_half_log3():
    for theta in (math.pi, math.pi / 2):
        gamma_star = thermal_advantage_threshold(1000, theta)
        assert 0.52 <= gamma_star <= 0.58
    gamma_star = thermal_advantage_threshold(1000, math.pi)
    above = thermal_fidelity(1000, math.pi, gamma_star + 0.1)
    assert above > mo_average_fidelity(1000, math.pi) + 1e-9


@pytest.mark.parametrize("two_j", [*range(1, 61), 1000, 20000])
def test_thermal_closed_form_equals_weight_sum(two_j):
    # both branches, and both sides of the switch at N gamma = 1/2 (N = 2j + 1),
    # where the plain coth/csch differences cancel worst
    edge = 0.5 / (two_j + 1)
    gammas = [*np.geomspace(1e-5, 400.0, 23), edge * (1 - 1e-9), edge, edge * (1 + 1e-9),
              math.inf]
    for theta in np.linspace(0.0, 2 * math.pi, 16, endpoint=False):
        for gamma in gammas:
            assert abs(thermal_fidelity(two_j, theta, gamma)
                       - thermal_fidelity_by_weights(two_j, theta, gamma)) <= 1e-13


@pytest.mark.parametrize("two_j,theta,gamma_star", [
    (1, math.pi, math.inf), (2, math.pi, math.inf), (3, math.pi, 0.8065270050052604),
    (20, math.pi, 0.5891923653710438), (200, math.pi, 0.5534535368456672),
    (1000, math.pi, 0.5501387012700907), (20000, math.pi, 0.549347809080278),
    (1, math.pi / 2, 0.7213641138592174), (2, math.pi / 2, 0.7230805236444975),
    (3, math.pi / 2, 0.6998399438287122), (20, math.pi / 2, 0.5839079270342882),
    (200, math.pi / 2, 0.5530251331822692), (1000, math.pi / 2, 0.5500548962659777),
    (20000, math.pi / 2, 0.5493436412343105)])
def test_thermal_threshold_unchanged_by_the_closed_form(two_j, theta, gamma_star):
    # gamma* of the bisection over the 2j+1 Gibbs weights
    assert thermal_advantage_threshold(two_j, theta) == pytest.approx(gamma_star, abs=1e-12)


def test_distribution_validation():
    with pytest.raises(ValueError):
        MemoryDistribution(two_j=2, weights=np.array([0.5, 0.5])).validate()
    bad = MemoryDistribution(two_j=2, weights=np.array([0.7, 0.4, -0.1]))
    with pytest.raises(ValueError):
        bad.validate()


@pytest.mark.parametrize("theta", [0.0, 2 * math.pi])
def test_persistence_at_zero_angle_has_infinite_asymptote(theta):
    rep = persistence(10, theta)
    assert rep.asymptote == math.inf
    assert rep.steps == persistence(10, theta, t_max=100).steps
    assert 0 <= rep.steps <= 100


@pytest.mark.parametrize("theta", [0.0, 2 * math.pi, 2.0, math.pi, 4.5, 1.0, 0.3, 5.5, 1.5])
def test_spin_half_recycling_where_rates_are_non_negative(theta):
    # 1 - cos f >= 0 at every angle, cos theta > 0 included (where the first-order
    # factor (1 - cos theta)(1 - (1 + cos theta)/2j) had negative rates at 2j = 1)
    seq = recycled_fidelity(1, theta, 50)
    assert np.all((seq >= 1.0 / 3.0 - 1e-12) & (seq <= 1.0 + 1e-12))
    assert np.all(np.diff(seq) <= 1e-12)  # recycling never helps
    np.testing.assert_allclose(seq, _chain_fidelities(1, theta, 50), rtol=0, atol=1e-12)
    rep = persistence(1, theta, t_max=50)
    assert (rep.steps, rep.capped) == _chain_uses_before(
        seq, np.less_equal, mo_average_fidelity(1, theta))
    assert longevity(1, theta, 0.9, t_max=50) == _chain_uses_before(seq, np.less, 0.9)[0]


def test_spin_half_recycling_never_increases_at_any_angle():
    for theta in np.linspace(0.0, 2 * math.pi, 4001):
        seq = recycled_fidelity(1, float(theta), 200)
        assert np.all((seq >= 1.0 / 3.0 - 1e-12) & (seq <= 1.0 + 1e-12)), theta
        assert np.all(np.diff(seq) <= 1e-12), theta


@pytest.mark.parametrize("theta,threshold", [(math.pi, 0.49), (2.5, 0.462)])
def test_spin_half_scan_stops_once_the_tail_cannot_cross(monkeypatch, theta, threshold):
    # at 2j = 1 the m^2 moment is constant, so rho = |1 - 2c|; with |1 - 6c| in
    # rho the scan went through all 2,442 chunks of 10^7 uses
    calls = []
    fixed = memory._fixed_schedule

    def counted(*args):  # counts evaluations of the schedule, one per chunk after F_inf and F_0
        schedule = fixed(*args)
        return lambda steps: calls.append(steps) or schedule(steps)
    monkeypatch.setattr(memory, "_fixed_schedule", counted)
    assert longevity(1, theta, threshold, t_max=10**7) == 10**7
    assert len(calls) <= 4



_FAR_CROSSING = """
import numpy as np
from spinlearn import memory, mo
rep = memory.persistence(20000, 1e-3)
f = memory._fixed_schedule(20000, 1e-3)(np.array([rep.steps - 1, rep.steps]))
print(rep.capped, bool(f[0] > mo.mo_average_fidelity(20000, 1e-3) >= f[1]), rep.steps)
"""


def test_persistence_finds_a_far_crossing_quickly():
    # about 2e10 uses ahead under a cap of 8e10: a scan of 4,096 uses per array did not
    # return within 20 s; a search over the non-increasing F takes a few passes
    out = subprocess.run([sys.executable, "-c", _FAR_CROSSING], capture_output=True, text=True,
                         check=True, timeout=10).stdout.split()
    assert out[:2] == ["False", "True"]
    assert 10**10 < int(out[2]) < 4 * 10**10



def test_search_takes_caps_beyond_int64():
    # persistence's default cap here is 9e19 uses; the search looks at most 2^63 - 1 ahead
    rep = persistence(20000, 3e-8)
    assert (rep.steps, rep.capped) == (0, False) and 4 * rep.asymptote > 2**63
    level = mo_average_fidelity(200, math.pi)
    assert memory._uses_before(200, math.pi, np.less_equal, level, 2**70) == (50, False)
    assert memory._uses_before(200, math.pi, np.less, 0.4, 2**70) == (2**70, True)

@pytest.mark.parametrize("two_j", [1, 2, 3, 4, 6, 8, 16, 32, 64, 128, 256, 400])
def test_search_equals_the_chunked_scan(monkeypatch, two_j):
    # every angle of the grid, for persistence and two longevity thresholds; the capped
    # longevity rows (t_max) keep the scan short where the crossing is far
    def runs():
        for theta in np.linspace(0.0, 2 * math.pi, 64, endpoint=False):
            rep = persistence(two_j, float(theta))
            yield rep.steps, rep.capped
            yield longevity(two_j, float(theta), 0.9, t_max=10**6)
            yield longevity(two_j, float(theta), 0.99, t_max=10**6)
    got = list(runs())
    monkeypatch.setattr(memory, "_uses_before", uses_before_by_scan)
    assert got == list(runs())


def _threshold_by_thermal_fidelity(two_j, theta):
    """``thermal_advantage_threshold`` with a ``thermal_fidelity`` call at every step."""
    benchmark = mo_average_fidelity(two_j, theta)

    def gap(gamma):
        return thermal_fidelity(two_j, theta, gamma) - benchmark

    hi = 8.0
    while gap(hi) <= 0.0:
        if hi > 1e3:
            return math.inf
        hi *= 2.0
    return memory._bisect(gap, 1e-3, hi, tol=1e-10)


@pytest.mark.parametrize("two_j", [20, 200, 2000, 20000])
@pytest.mark.parametrize("theta", [math.pi, 2.0, 0.3])
def test_thermal_threshold_with_coefficients_once_is_bit_identical(two_j, theta):
    assert thermal_advantage_threshold(two_j, theta) == _threshold_by_thermal_fidelity(two_j,
                                                                                        theta)

def test_spin_zero_memory_rejected_by_kernel():
    with pytest.raises(InvalidQuantumNumbersError, match="two_j"):
        step_kernel(0, math.pi)
    with pytest.raises(InvalidQuantumNumbersError, match="two_j"):
        recycled_fidelity(0, math.pi, 3)


@pytest.mark.parametrize("call", [
    lambda: recycled_fidelity(0, 1.0, 3, reoptimize_f=True),
    lambda: tricomi_distribution(0, 1.0, 3),
    lambda: tricomi_geometric_asymptote(0, 0.0, 3, 0),
    lambda: fidelity_given_m_asymptote(0, 0, 1.0),
    lambda: thermal_fidelity_asymptote(0, 1.0, 0.5),
    lambda: thermal_state(0, 0.5),
    lambda: thermal_fidelity(0, 1.0, 0.5),
], ids=["reoptimized", "tricomi", "tricomi_asymptote", "given_m_asymptote", "thermal_asymptote",
        "thermal_state", "thermal_fidelity"])
def test_spin_zero_memory_rejected_by_every_schedule_and_asymptote(call):
    # the reoptimized schedule accepts what the fixed one does; the 1/j forms divide by j
    with pytest.raises(InvalidQuantumNumbersError, match="two_j=0"):
        call()


@pytest.mark.parametrize("two_j,theta", [(1, math.pi), (2, math.pi), (3, 0.0), (20, 0.0),
                                         (1000, 0.0)])
def test_thermal_threshold_reports_no_advantage(two_j, theta):
    # not even the aligned (zero-temperature) memory beats the benchmark here
    assert thermal_fidelity(two_j, theta, 50.0) <= mo_average_fidelity(two_j, theta)
    assert thermal_advantage_threshold(two_j, theta) == math.inf


@pytest.mark.parametrize("theta_pi,gamma_star", [(1.0, 1.0923219), (0.9, 1.0030071),
                                                  (0.75, 0.8053719)])
def test_thermal_threshold_meets_the_benchmark_of_its_problem(theta_pi, gamma_star):
    # the problem-1 benchmark at 2j = 2 lies below the problem-2 one near pi: against
    # the problem-2 benchmark these read inf, inf and 1.4693105
    theta = theta_pi * math.pi
    got = thermal_advantage_threshold(2, theta, problem=1)
    assert got == pytest.approx(gamma_star, abs=1e-7)
    fm = mo_average_fidelity(2, theta, 1)
    assert thermal_fidelity(2, theta, 0.99 * got) < fm < thermal_fidelity(2, theta, 1.01 * got)


def test_thermal_threshold_beyond_gamma_eight():
    # 2j = 1 just below the angle where the aligned memory stops beating the
    # benchmark: the threshold lies past the initial bracket [1e-3, 8]
    theta = 2.50423643
    gamma_star = thermal_advantage_threshold(1, theta)
    assert 8.0 < gamma_star < math.inf
    fm = mo_average_fidelity(1, theta)
    assert thermal_fidelity(1, theta, 0.99 * gamma_star) < fm
    assert thermal_fidelity(1, theta, 1.01 * gamma_star) > fm


@pytest.mark.parametrize("two_j,n", [(20, 300), (40, 400), (400, 800)])
def test_tricomi_overflow_is_a_domain_error(two_j, n):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"n={n}"):
        tricomi_distribution(two_j, math.pi, n)
    # the overflowing top weight is met before the long sums at small k
    assert time.perf_counter() - start < 3.0


# --- moment closure against the population chain (test oracle) --------------

def _fidelity_vector(two_j, theta, f=None):
    """Per-m average fidelity from the gate amplitudes u+- (m descending)."""
    angle = f_angle(two_j, theta) if f is None else f
    j = two_j / 2.0
    m = np.arange(two_j, -two_j - 1, -2) / 2.0
    e = np.exp(-1j * angle)
    u_plus = (e * (j + m + 1.0) + (j - m)) / (two_j + 1.0)
    u_minus = (e * (j - m + 1.0) + (j + m)) / (two_j + 1.0)
    cross = np.exp(1j * theta) * u_plus * np.conj(u_minus)
    fe = 0.25 * (np.abs(u_plus) ** 2 + np.abs(u_minus) ** 2 + 2.0 * cross.real)
    return (2.0 * fe + 1.0) / 3.0


def _best_angle(fun):
    """Maximize a function of the angle over the whole circle: the best point of
    a 64-point grid over [0, 2pi), refined by golden search within one grid step."""
    grid = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    step = grid[1]
    best = grid[int(np.argmax([fun(f) for f in grid]))]
    f, loss = _golden_minimize(lambda f: -fun(f), best - step, best + step, tol=1e-9)
    return f, -loss


def _chain_fidelities(two_j, theta, n_uses, reoptimize=False):
    """Recycled fidelity by pushing the populations through the ``exact`` kernel,
    with the factor 1 - cos f_t of the re-tuned angle when ``reoptimize``."""
    w = point_mass(two_j, two_j).weights
    fvec = _fidelity_vector(two_j, theta)
    out = np.empty(n_uses)
    for t in range(n_uses):
        factor = None
        if reoptimize:
            f_t, out[t] = _best_angle(lambda f: w @ _fidelity_vector(two_j, theta, f))
            factor = 1.0 - math.cos(f_t)
        else:
            out[t] = w @ fvec
        w = complementary_step(two_j, theta, MemoryDistribution(two_j, w), factor=factor).weights
    return out


def _chain_uses_before(seq, fails, level):
    hit = np.flatnonzero(fails(seq, level))
    return (int(hit[0]), False) if hit.size else (len(seq), True)


spins_upto_200 = st.integers(min_value=1, max_value=200)
angles = st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True)


@given(spins_upto_200, angles)
def test_fidelity_given_m_equals_amplitude_form(two_j, theta):
    got = [fidelity_given_m(two_j, two_m, theta) for two_m in range(two_j, -two_j - 1, -2)]
    np.testing.assert_allclose(got, _fidelity_vector(two_j, theta), rtol=0, atol=1e-14)


@given(spins_upto_200, angles, st.integers(min_value=1, max_value=60))
def test_recycled_fidelity_equals_chain(two_j, theta, n_uses):
    np.testing.assert_allclose(recycled_fidelity(two_j, theta, n_uses),
                               _chain_fidelities(two_j, theta, n_uses), rtol=1e-12, atol=1e-12)


@given(spins_upto_200, angles, st.integers(min_value=1, max_value=12))
def test_reoptimized_schedule_equals_chain(two_j, theta, n_uses):
    # the golden search stops at 1e-9 in f, so the schedules agree to 1e-8
    np.testing.assert_allclose(recycled_fidelity(two_j, theta, n_uses, reoptimize_f=True),
                               _chain_fidelities(two_j, theta, n_uses, reoptimize=True),
                               rtol=0, atol=1e-8)


@given(spins_upto_200, angles, st.integers(min_value=0, max_value=120),
       st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
def test_persistence_and_longevity_equal_chain(two_j, theta, t_max, frac):
    seq = _chain_fidelities(two_j, theta, max(t_max, 1))[:t_max]
    benchmark = mo_average_fidelity(two_j, theta)
    threshold = float(seq.min() + frac * np.ptp(seq)) if t_max else 0.5
    assume(1.0 / 3.0 < threshold < 1.0)
    assume(np.all(np.abs(seq - benchmark) > 1e-10) and np.all(np.abs(seq - threshold) > 1e-10))
    rep = persistence(two_j, theta, t_max=t_max)
    assert (rep.steps, rep.capped) == _chain_uses_before(seq, np.less_equal, benchmark)
    assert longevity(two_j, theta, threshold, t_max=t_max) == \
        _chain_uses_before(seq, np.less, threshold)[0]


def test_longevity_scan_beyond_first_chunk_equals_chain():
    # default cap 8070 uses: the scan goes past its first chunk of 4096
    two_j, theta = 6, 0.3
    cap = longevity(two_j, theta, 0.9)
    seq = _chain_fidelities(two_j, theta, cap)
    assert cap > 4096 and _chain_uses_before(seq, np.less, 0.9) == (cap, True)
    threshold = 0.5 * (seq[5000] + seq[5001])
    assert longevity(two_j, theta, threshold) == _chain_uses_before(seq, np.less, threshold)[0]


def test_longevity_never_crossing_returns_cap_quickly():
    start = time.perf_counter()
    assert longevity(10, 0.0, 0.9) == 1_000_000_010  # idle kernel: the fidelity is constant
    assert longevity(400, 0.5, 0.9) == int(10 * 400**2 / (1.0 - math.cos(0.5))) + 10
    assert time.perf_counter() - start < 1.0


def test_longevity_above_the_asymptote_evaluates_no_array_of_uses(monkeypatch):
    # r1, r2 >= 0 and F_inf above the threshold: no use can fail, so no chunk is scanned
    arrays, schedule = [], memory._fixed_schedule

    def counting(two_j, theta):
        fidelity = schedule(two_j, theta)

        def counted(steps):
            if isinstance(steps, np.ndarray):
                arrays.append(steps.size)
            return fidelity(steps)
        return counted
    monkeypatch.setattr(memory, "_fixed_schedule", counting)
    assert longevity(20000, math.pi, 0.5) == 2_000_000_010
    assert arrays == []


@given(spins_upto_200, angles, st.floats(min_value=0.01, max_value=20.0))
def test_thermal_fidelity_is_weights_times_fidelity_given_m(two_j, theta, gamma):
    weights = thermal_state(two_j, gamma).weights
    per_m = [fidelity_given_m(two_j, two_m, theta) for two_m in range(two_j, -two_j - 1, -2)]
    assert thermal_fidelity(two_j, theta, gamma) == pytest.approx(float(weights @ per_m), abs=1e-12)


def test_thermal_state_at_infinite_gamma_is_the_aligned_point_mass():
    # 2 gamma (m - j) was inf * 0 = nan at m = j
    assert np.array_equal(thermal_state(4, math.inf).weights, point_mass(4, 4).weights)
    assert thermal_fidelity(4, 1.0, math.inf) == fidelity_given_m(4, 4, 1.0)
    assert thermal_fidelity_asymptote(400, 1.0, math.inf) == pytest.approx(
        fidelity_given_m_asymptote(400, 400, 1.0), abs=1e-15)


@pytest.mark.parametrize("gamma", [math.nan, 0.0, -1.0])
def test_non_positive_or_nan_gamma_rejected(gamma):
    # the asymptote raised ZeroDivisionError at 0 and returned 1.1006 at -1
    for call in (lambda: thermal_state(4, gamma), lambda: thermal_fidelity(4, 1.0, gamma),
                 lambda: thermal_fidelity_asymptote(4, 1.0, gamma)):
        with pytest.raises(ValueError, match="gamma"):
            call()


@pytest.mark.parametrize("call,name", [
    (lambda: recycled_fidelity(4, math.nan, 3), "theta"),
    (lambda: recycled_fidelity(4, math.inf, 3, reoptimize_f=True), "theta"),
    (lambda: recycled_fidelity(4, 1.0, 2.5), "n_uses"),
    (lambda: thermal_fidelity(4, math.nan, 0.5), "theta"),
    (lambda: fidelity_given_m(4, 4, math.nan), "theta"),
    (lambda: fidelity_given_m_asymptote(4, 4, -math.inf), "theta"),
    (lambda: persistence(4, math.nan), "theta"),
    (lambda: persistence(4, math.pi, t_max=2.5), "t_max"),
    (lambda: longevity(4, math.inf, 0.9), "theta"),
    (lambda: longevity(4, math.pi, 0.9, t_max=-1), "t_max"),
    (lambda: tricomi_distribution(4, 1.0, 2.5), "n"),
    (lambda: tricomi_distribution(4, math.nan, 3), "theta"),
    (lambda: tricomi_geometric_asymptote(4, math.nan, 3, 4), "theta"),
    (lambda: tricomi_geometric_asymptote(6, math.pi, -3, 6), "n"),
    (lambda: tricomi_geometric_asymptote(3, 1.0, -1, 3), "n"),
    (lambda: tricomi_geometric_asymptote(3, 1.0, 2.5, 3), "n"),
    (lambda: thermal_fidelity_asymptote(4, math.nan, 0.5), "theta"),
    (lambda: thermal_advantage_threshold(4, math.nan), "theta"),
], ids=["recycled_nan", "reoptimized_inf", "n_uses_float", "thermal_nan", "given_m_nan",
        "given_m_asymptote_inf", "persistence_nan", "t_max_float", "longevity_inf",
        "t_max_negative", "tricomi_n_float", "tricomi_nan", "tricomi_asymptote_nan",
        "tricomi_asymptote_n_pole", "tricomi_asymptote_n_negative",
        "tricomi_asymptote_n_float", "thermal_asymptote_nan", "threshold_nan"])
def test_bad_angle_or_count_is_named(call, name):
    # at the parent these returned nan, a wrong number of uses, or raised an
    # error naming no argument (TypeError, "math domain error", ZeroDivisionError)
    with pytest.raises(ValueError, match=rf"^{name} must"):
        call()


def test_numpy_integer_counts_are_accepted():
    assert np.array_equal(recycled_fidelity(4, 1.0, np.int64(3)), recycled_fidelity(4, 1.0, 3))
    assert persistence(4, math.pi, t_max=np.int32(5)) == persistence(4, math.pi, t_max=5)


@pytest.mark.parametrize("two_m", [5, -7, 2])
def test_given_m_asymptote_rejects_an_invalid_two_m(two_m):
    # at the parent 2m = 5 returned 1.102 and 2m = -7 returned -0.124
    with pytest.raises(InvalidQuantumNumbersError, match=f"two_m={two_m}"):
        fidelity_given_m_asymptote(3, two_m, 1.0)
