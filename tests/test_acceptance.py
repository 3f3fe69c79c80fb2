"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Each test prints a PASS line on success (visible with pytest -rA/-s); the
assertions fail loudly otherwise.  Time budgets are asserted where stated.
"""

import math
import time

import numpy as np

import oracles
from spinlearn import channels, memory, mo, optimal, spins
from spinlearn.heisenberg import heisenberg_average_fidelity, spin_k_fidelity
from spinlearn.montecarlo import mc_average_fidelity
from spinlearn.strategies import HeisenbergStrategy, MOStrategy

SEED = 20240810


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_headline_benchmark_gap():
    start = time.monotonic()
    fq = optimal.optimal_average_fidelity(3, math.pi)
    fm = mo.mo_average_fidelity(3, math.pi)
    assert abs(fq - 0.70833) < 1e-5
    assert abs(fm - 0.64444) < 1e-5
    est_q = mc_average_fidelity(HeisenbergStrategy(two_j=3), math.pi, 100000, seed=SEED)
    assert est_q.n_sigma(fq) < 4.0
    tp = mo.optimal_theta_prime(3, math.pi)
    est_m = mc_average_fidelity(MOStrategy(two_j=3, two_m=3, xi_two_n=3, theta_prime=tp),
                                math.pi, 100000, seed=SEED + 1)
    assert est_m.n_sigma(fm) < 4.0
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(1, f"F_q={fq:.5f}, F_MO={fm:.5f}; MC at {est_q.n_sigma(fq):.2f} and "
               f"{est_m.n_sigma(fm):.2f} sigma ({elapsed:.1f}s)")


def test_criterion_2_realization_equivalence():
    start = time.monotonic()
    worst = 0.0
    for two_j in range(1, 41):
        for theta in np.linspace(0.0, 2 * math.pi, 50, endpoint=False):
            fe = oracles.case1_entanglement_fidelity(two_j, two_j, float(theta))
            gap = abs(heisenberg_average_fidelity(two_j, float(theta))
                      - channels.average_from_entanglement(fe, 2))
            worst = max(worst, gap)
    assert worst < 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(2, f"max |F_Hei - F_case1| = {worst:.2e} over 40 spins x 50 angles ({elapsed:.1f}s)")


def test_criterion_3_asymptotic_rates():
    two_j = 2000
    j = 1000.0
    for theta in (math.pi / 2, math.pi):
        rq = j * (1 - optimal.optimal_average_fidelity(two_j, theta)) / (1 - math.cos(theta))
        rm = j * (1 - mo.mo_average_fidelity(two_j, theta)) / (1 - math.cos(theta))
        assert 0.32 <= rq <= 0.35
        assert 0.63 <= rm <= 0.70
    _report(3, "error rates at j=1000 inside [0.32,0.35] (quantum) and [0.63,0.70] (MO)")


def test_criterion_4_regime_transitions():
    closed = math.acos((4 + math.sqrt(7)) / 9)
    assert abs(optimal.DELTA_HALF - closed) < 1e-9
    assert abs(optimal.DELTA_ONE - 0.23 * math.pi) < 0.005 * math.pi
    assert abs(mo.J1_MO_THRESHOLD - 0.303 * math.pi) < 0.005 * math.pi
    _report(4, f"delta_1/2={optimal.DELTA_HALF/math.pi:.6f}pi, "
               f"delta_1={optimal.DELTA_ONE/math.pi:.4f}pi, "
               f"mo threshold={mo.J1_MO_THRESHOLD/math.pi:.4f}pi")


def test_criterion_5_zero_advantage_points():
    fq = optimal.optimal_average_fidelity(2, math.pi, problem=2)
    fm = mo.mo_average_fidelity(2, math.pi, problem=2)
    assert abs(fq - 11 / 15) < 1e-10 and abs(fm - 11 / 15) < 1e-10
    fq_half = optimal.optimal_average_fidelity(1, math.pi)
    fm_half = mo.mo_average_fidelity(1, math.pi)
    assert abs(fq_half - 5 / 9) < 1e-10 and abs(fm_half - 5 / 9) < 1e-10
    _report(5, "j=1 and j=1/2 zero-advantage points equal 11/15 and 5/9")


def test_criterion_6_persistence():
    start = time.monotonic()
    steps = {}
    for two_j in (200, 400, 800):
        rep = memory.persistence(two_j, math.pi)
        steps[two_j // 2] = rep.steps
        assert rep.steps == two_j // 4
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(6, f"crossings at t = {steps} = j/2 exactly ({elapsed:.1f}s)")


def test_criterion_7_thermal_threshold():
    gamma_star = memory.thermal_advantage_threshold(1000, math.pi)
    assert 0.52 <= gamma_star <= 0.58
    _report(7, f"gamma* = {gamma_star:.4f} (1/2 ln 3 = {0.5 * math.log(3):.4f})")


def test_criterion_8_spin_k_scaling():
    two_j = 400
    j = 200.0
    details = []
    for two_k, theta in ((2, math.pi), (3, math.pi), (3, math.pi / 2)):
        k = two_k / 2.0
        f_exact = spin_k_fidelity(two_j, two_k, theta, "exact")
        target = k * (2 * k + 1) * (1 - math.cos(theta)) / (3 * j)
        assert abs((1 - f_exact) - target) < 0.1 * target
        est, _ = mo.spin_k_mo_fidelity(two_j, two_k, theta, 100000, SEED + two_k)
        ratio = (1 - est.value) / (1 - f_exact)
        assert 1.8 <= ratio <= 2.2
        details.append(f"k={k}: ratio={ratio:.3f}")
    _report(8, "; ".join(details))


def test_criterion_9_property_suites():
    start = time.monotonic()
    rng = np.random.default_rng(SEED)

    # commutators and Casimir
    for two_j in (1, 2, 5, 11, 20):
        jx, jy, jz = spins.spin_operators(two_j)
        assert np.max(np.abs(jx @ jy - jy @ jx - 1j * jz)) < 1e-10
        jj = two_j / 2 * (two_j / 2 + 1)
        assert np.max(np.abs(jx @ jx + jy @ jy + jz @ jz - jj * np.eye(two_j + 1))) < 1e-10

    # Clebsch-Gordan orthogonality both ways for j1, j2 <= 4
    for two_j1 in range(1, 9):
        for two_j2 in range(1, 9):
            blocks = [oracles.coupled_basis_vectors(two_j1, two_j2, two_J)
                      for two_J in range(abs(two_j1 - two_j2), two_j1 + two_j2 + 2, 2)]
            u = np.vstack(blocks)
            d = (two_j1 + 1) * (two_j2 + 1)
            assert np.max(np.abs(u @ u.T - np.eye(d))) < 1e-10

    # Choi CP/TP for each constructed strategy channel
    for case, two_j, two_m, theta in ((1, 3, 3, 2.0), (2, 1, 1, math.pi), (3, 4, 0, 2.9)):
        _, params = optimal.case_fidelity(case, two_j, two_m, theta)
        oracles.covariant_choi_build(params, two_j).validate()
    oracles.channel_choi(oracles.unot_mixture_channel(0.5, 2.8)).validate()
    oracles.channel_choi(optimal.discrete_xyz_channel()).validate()
    from spinlearn.heisenberg import heisenberg_unitary

    oracles.channel_choi(oracles.gate_channel(heisenberg_unitary(4, 1, 1.7))).validate()

    # kernel stochasticity (the exact kernel is stochastic at every 2j >= 1)
    for _ in range(20):
        two_j = int(rng.integers(2, 40))
        theta = float(rng.uniform(0.0, 2 * math.pi))
        down, stay, up = oracles.step_kernel(two_j, theta)
        assert np.all(down >= -1e-15) and np.all(up >= -1e-15) and np.all(stay >= -1e-12)
        assert np.allclose(down + stay + up, 1.0, atol=1e-13)

    # alternating-sum distribution vs the chain it solves
    for two_j, theta, n in ((200, math.pi, 60), (100, 2.0, 40)):
        tri = memory.tricomi_distribution(two_j, theta, n)
        ch = memory.point_mass(two_j, two_j)
        for _ in range(n):
            ch = oracles.complementary_step(two_j, theta, ch, "leading")
        assert 0.5 * np.abs(tri.weights - ch.weights).sum() < 1e-8

    # unitality <-> Bell-basis reality
    for _ in range(60):
        z = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        q, _ = np.linalg.qr(z)
        ch = channels.KrausChannel(kraus=(q[:2], q[2:]), dim_in=2, dim_out=2)
        identity_out = oracles.apply_channel(ch, np.eye(2, dtype=complex))
        unital = np.max(np.abs(identity_out - np.eye(2))) < 1e-9
        assert oracles.unital_bell_reality_check(oracles.channel_choi(ch)) == bool(unital)

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(9, f"property suites green under fixed seed ({elapsed:.1f}s)")
