import math
import tracemalloc

import numpy as np
import pytest

import oracles
from spinlearn import channels, heisenberg, memory, mo, montecarlo, optimal, rotations, spins
from spinlearn.channels import average_from_entanglement, entanglement_fidelity
from oracles import per_rotation_fidelity
from spinlearn.montecarlo import mc_average_fidelity
from spinlearn.rotations import haar_quaternions
from spinlearn.strategies import (
    CaseChoiStrategy,
    DiscreteXYZ,
    HeisenbergStrategy,
    MOStrategy,
    ThermalWrapped,
    UNotMixture,
)

N = 100000
_FIXED_Q = np.array([0.3, 0.1, -0.5, 0.8]) / np.linalg.norm([0.3, 0.1, -0.5, 0.8])


def test_exact_target_is_one_with_zero_variance():
    est = oracles.exact_target_fidelity(oracles.ExactTarget(), 1.3, 2000, seed=0)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.std_error < 1e-12
    est = oracles.exact_target_fidelity(oracles.ExactTarget(two_k=3), 2.1, 500, seed=0)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_headline_quantum_value():
    est = mc_average_fidelity(HeisenbergStrategy(two_j=3), math.pi, N, seed=101)
    assert est.n_sigma(17 / 24) < 4.0


def test_headline_classical_value():
    tp = mo.optimal_theta_prime(3, math.pi)
    est = mc_average_fidelity(MOStrategy(two_j=3, two_m=3, xi_two_n=3, theta_prime=tp),
                              math.pi, N, seed=102)
    assert est.n_sigma(29 / 45) < 4.0


@pytest.mark.parametrize("two_j", [8, 20])
@pytest.mark.parametrize("kind", ["heisenberg", "mo"])
def test_half_turn_strategies_match_their_closed_forms(kind, two_j):
    # the quantum optimum and the MO benchmark at theta = pi, at spins above the
    # headline j = 3/2; n and the seeds were fixed before the first run
    if kind == "heisenberg":
        strategy, seed = HeisenbergStrategy(two_j=two_j), 300 + two_j
        expect = optimal.optimal_average_fidelity(two_j, math.pi)
    else:
        tp = mo.optimal_theta_prime(two_j, math.pi)
        strategy = MOStrategy(two_j=two_j, two_m=two_j, xi_two_n=two_j, theta_prime=tp)
        seed, expect = 400 + two_j, mo.mo_average_fidelity(two_j, math.pi)
    est = mc_average_fidelity(strategy, math.pi, 50000, seed=seed)
    assert est.std_error > 0.0
    assert est.n_sigma(expect) < 4.0


def test_unot_mixture_values():
    est = mc_average_fidelity(UNotMixture(alpha=2 / 3), math.pi, N, seed=103)
    assert est.n_sigma(5 / 9) < 4.0
    # the universal NOT is six exact Kraus operators, not a Haar axis sampled with the
    # weight 3 |<nn|.>|^2, whose standard error here was 1.3e-3
    assert est.std_error < 5e-4
    # alpha = 0 reduces to the plain interaction gate
    a = mc_average_fidelity(UNotMixture(alpha=0.0), 2.2, 50000, seed=104)
    b = oracles.case1_entanglement_fidelity(1, 1, 2.2)
    assert a.n_sigma(average_from_entanglement(b, 2)) < 4.0


def test_discrete_xyz_values():
    est = mc_average_fidelity(DiscreteXYZ(), math.pi, N, seed=105)
    assert est.n_sigma(11 / 15) < 4.0
    est = mc_average_fidelity(DiscreteXYZ(), math.pi / 2, N, seed=106)
    assert est.n_sigma(8 / 15) < 4.0


def test_thermal_wrapped_matches_exact_sum():
    gamma = 0.8
    expect = memory.thermal_fidelity(6, 2.5, gamma)
    est = mc_average_fidelity(ThermalWrapped(inner=HeisenbergStrategy(two_j=6), gamma=gamma),
                              2.5, N, seed=107)
    assert est.n_sigma(expect) < 4.0


def test_case_choi_strategies_match_covariant_fidelity():
    fe, _ = optimal.case_fidelity(1, 4, 4, math.pi)
    est = mc_average_fidelity(CaseChoiStrategy(1, 4, 4, math.pi), math.pi, 50000, seed=201)
    assert est.n_sigma(average_from_entanglement(fe, 2)) < 4.0
    with pytest.raises(ValueError, match="different angle"):
        mc_average_fidelity(CaseChoiStrategy(1, 4, 4, 1.0), 2.0, 100, seed=0)
    # cases 2 and 3 have no library channel: their Kraus operators come from the dense
    # Choi oracle, and their exact entanglement fidelity is case_fidelity's
    for case, two_j, two_m, theta in [(2, 1, 1, 2.9), (3, 4, 0, 2.8)]:
        fe, params = optimal.case_fidelity(case, two_j, two_m, theta)
        choi = oracles.covariant_choi_build(params, two_j)
        channel = channels.KrausChannel(kraus=tuple(oracles.kraus_from_choi(choi)),
                                        dim_in=choi.dim_in, dim_out=2)
        probe = np.zeros(spins.dim(two_j), dtype=complex)
        probe[spins.basis_index(two_j, two_m)] = 1.0
        v = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
        assert abs(entanglement_fidelity(channel, probe, v).value - fe) < 1e-12


@pytest.mark.parametrize("case", [2, 3])
def test_case_choi_strategy_other_than_case_1_is_named(case):
    # at the parent cases 2 and 3 built Kraus families from the covariant Choi blocks;
    # now the error comes before any Clebsch-Gordan table is built
    strategy = CaseChoiStrategy(case, 77, 77, 2.8)
    before = spins._pair_coupling_table.cache_info().misses
    with pytest.raises(ValueError, match="^case must be 1"):
        mc_average_fidelity(strategy, 2.8, 100, seed=0)
    assert spins._pair_coupling_table.cache_info().misses == before


def test_fidelity_reduction_relation_on_random_points(rng):
    """MC average equals the affine map of the exact entanglement fidelity.

    This validates the average-vs-entanglement fidelity relation numerically
    for the covariant channel strategies, rather than assuming it.
    """
    checked = 0
    for _ in range(20):
        two_j = int(rng.integers(1, 6))
        theta = float(rng.uniform(0.1, 2 * math.pi - 0.1))
        gate_fe = oracles.case1_entanglement_fidelity(two_j, two_j, theta)
        est = mc_average_fidelity(HeisenbergStrategy(two_j=two_j), theta, N,
                                  seed=int(rng.integers(0, 2**31)))
        assert est.n_sigma(average_from_entanglement(gate_fe, 2)) < 4.0
        checked += 1
    assert checked == 20


def test_fidelity_reduction_for_mixture_channel():
    # exact entanglement fidelity of the explicit channel vs the MC average
    theta = 2.9
    c = math.cos(theta)  # the j = 1/2 mixture weight, optimal in this window
    alpha = (1.0 + 8.0 * c + 9.0 * c * c) / (3.0 * (1.0 + 2.0 * c) ** 2)
    ch = oracles.unot_mixture_channel(alpha, theta)
    probe = np.array([1.0, 0.0], dtype=complex)
    v = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    fe = entanglement_fidelity(ch, probe, v).value
    est = mc_average_fidelity(UNotMixture(alpha=alpha), theta, N, seed=9)
    assert est.n_sigma(average_from_entanglement(fe, 2)) < 4.0


def test_spin_k_strategy_matches_exact():
    from spinlearn.heisenberg import spin_k_fidelity

    est = mc_average_fidelity(HeisenbergStrategy(two_j=8, two_k=3), 2.0, 50000, seed=11)
    assert est.n_sigma(spin_k_fidelity(8, 3, 2.0, "exact")) < 4.0


def test_covariance_of_per_rotation_fidelity(rng):
    expect = 17 / 24
    for _ in range(4):
        g = haar_quaternions(rng, 1)[0]
        est = per_rotation_fidelity(HeisenbergStrategy(two_j=3), math.pi, g, 50000, seed=13)
        assert est.n_sigma(expect) < 4.0


@pytest.mark.parametrize("two_j, two_m, xi_two_n, theta", [(3, 3, 3, math.pi),
                                                            (4, 2, 0, 2.0)])
def test_covariance_of_per_rotation_mo_fidelity(rng, two_j, two_m, xi_two_n, theta):
    # the MO strategy is covariant: at any fixed training rotation it attains
    # the Haar-averaged closed form
    tp = mo.optimal_theta_prime(two_j, theta)
    strategy = MOStrategy(two_j=two_j, two_m=two_m, xi_two_n=xi_two_n, theta_prime=tp)
    expect = average_from_entanglement(
        mo.mo_element_fidelity(two_j, two_m, xi_two_n, theta, tp), 2)
    for _ in range(3):
        g = haar_quaternions(rng, 1)[0]
        est = per_rotation_fidelity(strategy, theta, g, 50000, seed=14)
        assert est.n_sigma(expect) < 4.0


def test_unit_norm_enforced():
    # per_rotation_fidelity is the one entry point that takes a caller's quaternion;
    # without this check [0.5, 0.5, 0, 0] gave 0.293 where the covariant value is
    # 17/24, and [1, 1, 0, 0] gave 1.0
    strategy = HeisenbergStrategy(two_j=3)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    for q in ([0.5, 0.5, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [1.0 + 2e-12, 0.0, 0.0, 0.0],
              [math.nan, 0.0, 0.0, 0.0], [math.inf, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
              [[1.0, 0.0, 0.0, 0.0]]):
        with pytest.raises(ValueError, match="^g_quaternion must be a finite unit quaternion"):
            per_rotation_fidelity(strategy, math.pi, q, 100, seed=rng)
    assert rng.bit_generator.state == state  # checked before any sample is drawn
    near = per_rotation_fidelity(strategy, math.pi, [1.0 + 5e-13, 0.0, 0.0, 0.0], 100, seed=0)
    assert near == per_rotation_fidelity(strategy, math.pi, [1.0, 0.0, 0.0, 0.0], 100, seed=0)


def test_same_seed_gives_identical_estimate():
    strategy = HeisenbergStrategy(two_j=3)
    a = mc_average_fidelity(strategy, 2.0, 4096, seed=42)
    assert a == mc_average_fidelity(strategy, 2.0, 4096, seed=42)
    assert a.n_samples == 4096
    g = [math.cos(0.4), 0.0, math.sin(0.4), 0.0]
    b = per_rotation_fidelity(strategy, 2.0, g, 4096, seed=42)
    assert b == per_rotation_fidelity(strategy, 2.0, g, 4096, seed=42)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n_samples"):
            mc_average_fidelity(strategy, 2.0, n, seed=0)


@pytest.mark.parametrize("n_samples", [2.5, "10", 0])
@pytest.mark.parametrize("call", [
    lambda n: mc_average_fidelity(HeisenbergStrategy(two_j=3), 2.0, n, seed=0),
    lambda n: mc_average_fidelity(MOStrategy(3, 3, 3, 2.0), 2.0, n, seed=0),
    lambda n: per_rotation_fidelity(HeisenbergStrategy(two_j=3), 2.0, _FIXED_Q, n, seed=0),
    lambda n: mo.mo_mc_oracle(3, mo.MOParams(two_m=3, xi_two_n=3, theta_prime=2.0), 2.0, n, 0),
    lambda n: mo.spin_k_mo_fidelity(4, 2, 2.0, n, 0),
], ids=["mc_average", "mc_average_mo", "per_rotation", "mo_mc_oracle", "spin_k_mo"])
def test_a_bad_sample_count_is_named(call, n_samples):
    # at the parent 2.5 raised numpy's bare "'float' object cannot be interpreted as an
    # integer", and "10" in mc_average_fidelity "'<' not supported"
    with pytest.raises(ValueError, match=rf"^n_samples must be an integer >= 1, got {n_samples!r}"):
        call(n_samples)


@pytest.mark.parametrize("strategy", [
    HeisenbergStrategy(two_j=100),
    ThermalWrapped(HeisenbergStrategy(two_j=100), 0.5),
    CaseChoiStrategy(case=1, two_j=32, two_m=32, theta=math.pi),
    UNotMixture(alpha=2.0 / 3.0),
    DiscreteXYZ(),
    MOStrategy(two_j=3, two_m=3, xi_two_n=3, theta_prime=2.0),
    MOStrategy(two_j=8, two_m=4, xi_two_n=2, theta_prime=1.0),
], ids=["heisenberg", "thermal", "kraus", "unot", "xyz", "mo", "mo_inverse_cdf"])
def test_oracle_memory_does_not_grow_with_n(strategy):
    # every sampler draws, scores and folds one block of channels._blocks at a time, so
    # from n = 2e4 to 8e4 nothing grows (drawing every input first grew the peak by
    # 80-120 bytes a sample, 5-7 MiB here; whole-batch arrays by 130-600 MiB)
    def peak_mib(n):
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            mc_average_fidelity(strategy, math.pi, n, seed=0)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    peak_mib(10)  # fill the gate and Choi caches first
    assert peak_mib(80000) - peak_mib(20000) < 1.0


def _draw_block(strategy, rng, size, q_fixed):
    """One block's draws in the samplers' fixed order: training rotations (or ``q_fixed``
    broadcast), target states, then the thermal 2m; for MO the training rotations and
    then the POVM outcome axes."""
    q = haar_quaternions(rng, size) if q_fixed is None else np.broadcast_to(q_fixed, (size, 4))
    if isinstance(strategy, MOStrategy):
        return q, mo._povm_outcome_offsets(strategy.two_j, strategy.two_m, strategy.xi_two_n,
                                           size, rng)
    inner = strategy.inner if isinstance(strategy, ThermalWrapped) else strategy
    psi = montecarlo.sample_pure_states(rng, size, spins.dim(getattr(inner, "two_k", 1)))
    if isinstance(strategy, ThermalWrapped):
        weights = memory.thermal_state(inner.two_j, strategy.gamma).weights
        index = rng.choice(spins.dim(inner.two_j), size=size, p=weights)
        return q, psi, spins.two_m_values(inner.two_j)[index]
    return q, psi


def _block_scorer(strategy, theta):
    """The library's scorer of one block of ``_draw_block``'s draws."""
    if isinstance(strategy, MOStrategy):
        return lambda q, n_h: (2.0 * mo._mo_scores(q, n_h, theta, strategy.theta_prime, 1)
                               + 1.0) / 3.0
    if isinstance(strategy, (CaseChoiStrategy, DiscreteXYZ, UNotMixture)):
        if isinstance(strategy, CaseChoiStrategy):
            two_j, two_m = strategy.two_j, strategy.two_m
            channel = optimal.case_choi_channel(strategy)
        elif isinstance(strategy, DiscreteXYZ):
            two_j, two_m, channel = 2, 0, optimal.discrete_xyz_channel()
        else:
            two_j, two_m, channel = 1, 1, optimal.unot_mixture_channel(strategy.alpha, theta)
        return lambda q, psi: montecarlo._channel_samples(
            two_j, two_m, q, psi, theta, lambda joint: montecarlo._kraus_outputs(channel, joint))
    inner = strategy.inner if isinstance(strategy, ThermalWrapped) else strategy
    two_j, two_k = inner.two_j, inner.two_k
    gate = heisenberg.heisenberg_unitary(two_j, two_k, theta)
    if two_k == 1:
        tables = montecarlo._band_tables(gate.qubit_bands())
        return lambda q, psi, two_m=two_j: montecarlo._channel_samples(two_j, two_m, q, psi,
                                                                       theta, tables=tables)
    shape = (spins.dim(two_j), spins.dim(two_k))
    return lambda q, psi: montecarlo._channel_samples(
        two_j, two_j, q, psi, theta, lambda joint: gate.apply(joint).reshape(-1, *shape))


def _check_sample_blocks(strategy, theta, n, width, tile, q_fixed):
    # the samplers draw block by block, so their streams depend on the partition; what
    # must not is the scoring: each block is the scorer on that block's own draws, made
    # in the fixed order, and scoring all the draws in one call gives the same bits
    blocks = channels._blocks(n, width, tile)
    rng = np.random.default_rng(5)
    draws = [_draw_block(strategy, rng, b.stop - b.start, q_fixed) for b in blocks]
    score = _block_scorer(strategy, theta)
    expected = [score(*block) for block in draws]
    sampled = list(montecarlo._strategy_samples(strategy, theta, np.random.default_rng(5), n,
                                                q_g=q_fixed))
    assert len(sampled) == len(blocks)
    assert all(np.array_equal(a, b) for a, b in zip(sampled, expected))
    whole = [np.concatenate(parts) for parts in zip(*draws)]
    if q_fixed is not None:
        whole[0] = np.broadcast_to(q_fixed, (n, 4))
    assert np.array_equal(np.concatenate(expected), score(*whole))


@pytest.mark.parametrize("fixed_g", [False, True])
@pytest.mark.parametrize("budget", [1, 1000, 20000])
@pytest.mark.parametrize("strategy, theta, width, tile", [
    (HeisenbergStrategy(two_j=20), 1.1, 106, 64),
    (HeisenbergStrategy(two_j=10, two_k=2), 0.7, 528, 1),
    (ThermalWrapped(HeisenbergStrategy(two_j=30), 0.5), math.pi, 126, 64),
    (CaseChoiStrategy(case=1, two_j=8, two_m=8, theta=math.pi), math.pi, 288, 1),
    (DiscreteXYZ(), 1.0, 96, 1),
    (UNotMixture(alpha=2.0 / 3.0), math.pi, 64, 1),
    (MOStrategy(two_j=3, two_m=3, xi_two_n=3, theta_prime=2.0), 1.3, 64, 1),
    (MOStrategy(two_j=8, two_m=4, xi_two_n=2, theta_prime=1.0), 2.0, 64, 1),
], ids=["heisenberg", "spin_k", "thermal", "case_choi", "xyz", "unot",
        "mo", "mo_inverse_cdf"])
def test_sample_blocks_leave_samples_bit_identical(monkeypatch, strategy, theta, width, tile,
                                                    budget, fixed_g):
    # ``width`` float64s a row: 16 per joint amplitude (16 dp dk), 2 dp + 64 on the band
    # path, 64 per MO score.  A budget of 1 gives 2-row blocks (the
    # last absorbs the lone row of n = 251), 1000 and 20000 give 16-209-row blocks, or
    # one block at 64 floats and 20000; band blocks are whole 64-row tiles: one at 1 and
    # 1000, three at 20000.  Every block comes from channels._blocks, so none is a lone row.
    monkeypatch.setattr(channels, "_BLOCK_FLOATS", budget)
    _check_sample_blocks(strategy, theta, 251, width, tile, _FIXED_Q if fixed_g else None)


def test_default_sample_blocks_leave_samples_bit_identical():
    # 2j = 400: band blocks of 2^18 / 866 rounded up to 320 rows (5 tiles), n not a multiple
    _check_sample_blocks(HeisenbergStrategy(two_j=400), math.pi, 3000, 2 * 401 + 64,
                         montecarlo._TILE, None)


def _joint_vector_reference(monkeypatch):
    """Route the qubit-target Heisenberg sampler through the joint vectors of the exact
    probe states U_g|j,m> and ``HeisenbergGate.apply``, on the same random inputs."""
    def joint_vectors(two_j, two_m, q_g, psi, theta, channel=None, tables=None):
        assert tables is not None and channel is None
        gate = heisenberg.heisenberg_unitary(two_j, 1, theta)
        probe = spins.rotated_basis_states_batch(two_j, q_g, two_m)
        joint = np.einsum("np,nk->npk", probe, psi).reshape(len(probe), -1)
        return montecarlo._conditional_fidelity_channel_output(
            gate.apply(joint).reshape(len(joint), -1, 2),
            montecarlo._target_states(q_g, theta, psi))

    monkeypatch.setattr(montecarlo, "_channel_samples", joint_vectors)


@pytest.mark.parametrize("two_j", [1, 2, 3, 20, 101, 400])
@pytest.mark.parametrize("path", ["heisenberg", "thermal", "fixed_g", "f_override"])
def test_band_scores_match_joint_vector_scores(monkeypatch, two_j, path):
    inner = HeisenbergStrategy(two_j=two_j)
    strategy = ThermalWrapped(inner, 0.5) if path == "thermal" else inner
    if path == "f_override":  # both routes build their gate at the angle 0.9, not at f(theta)
        monkeypatch.setattr(heisenberg, "f_angle", lambda two_j, theta: 0.9)
    n, q_g = 300, _FIXED_Q if path == "fixed_g" else None  # the per_rotation_fidelity path
    for theta in (0.4, math.pi, 4.0):
        def samples():
            return np.concatenate(list(montecarlo._strategy_samples(
                strategy, theta, np.random.default_rng(8), n, q_g=q_g)))
        bands = samples()
        with monkeypatch.context() as patched:
            _joint_vector_reference(patched)
            joint = samples()
        assert np.max(np.abs(bands - joint)) < 1e-14


def test_heisenberg_qubit_blocks_score_bands_without_gate_passes(monkeypatch):
    # one gate pass on the two comb vectors, then one band score per block of
    # _BLOCK_FLOATS / (2 dp + 64) rows rounded up to whole tiles: 2j = 20 gives
    # 1000 / 106, so blocks of one 64-row tile
    vectors, blocks = [], []
    apply, score = heisenberg.HeisenbergGate.apply, montecarlo._band_scores
    monkeypatch.setattr(heisenberg.HeisenbergGate, "apply",
                        lambda self, vec: vectors.append(len(vec)) or apply(self, vec))
    monkeypatch.setattr(montecarlo, "_band_scores",
                        lambda tables, column, *rest: blocks.append(len(column))
                        or score(tables, column, *rest))
    monkeypatch.setattr(channels, "_BLOCK_FLOATS", 1000)
    mc_average_fidelity(HeisenbergStrategy(two_j=20), 1.0, 251, seed=0)
    assert vectors == [2]
    assert blocks == [64] * 3 + [59]


@pytest.mark.parametrize("fixed_g", [False, True])
def test_axis_target_states_match_the_quaternion_route(fixed_g):
    # V_(theta,g) psi from the axis n_g, against the two Hamilton products of
    # conjugated_z_rotation, on Haar draws and at a per_rotation_fidelity q_g
    rng = np.random.default_rng(17)
    n = 2000
    q_g = (np.broadcast_to(_FIXED_Q, (n, 4)).copy() if fixed_g
           else rotations.haar_quaternions(rng, n))
    psi = montecarlo.sample_pure_states(rng, n, 2)
    for theta in (0.4, math.pi, 4.0):
        v = oracles.su2_from_quaternion(oracles.conjugated_z_rotation(q_g, theta))
        expected = np.einsum("nij,nj->ni", v, psi)
        assert np.max(np.abs(montecarlo._target_states(q_g, theta, psi) - expected)) < 1e-14


@pytest.mark.parametrize("two_k", [2, 3, 4])
def test_spin_k_target_states_match_the_dense_irrep(two_k):
    # Omega d(beta) R_z(theta) d(beta)^T Omega^-1 psi against D(g) R_z(theta) D(g)^dag psi
    # of the dense oracle irrep, on Haar draws and at beta = 0 and pi
    rng = np.random.default_rng(20)
    q_g = np.concatenate([[[1.0, 0.0, 0.0, 0.0], [0.0, 0.6, 0.8, 0.0], _FIXED_Q],
                          rotations.haar_quaternions(rng, 200)])
    psi = montecarlo.sample_pure_states(rng, len(q_g), two_k + 1)
    u = oracles.rotation_irrep(two_k, q_g)
    for theta in (0.4, math.pi, 4.0):
        v = u * np.exp(-1j * theta * spins.m_values(two_k)) @ u.conj().transpose(0, 2, 1)
        expected = np.einsum("nij,nj->ni", v, psi)
        assert np.max(np.abs(montecarlo._target_states(q_g, theta, psi) - expected)) < 1e-13


@pytest.mark.parametrize("two_j", [1, 2, 20, 101])
@pytest.mark.parametrize("path", ["heisenberg", "thermal", "fixed_g"])
def test_band_scores_match_the_complex_band_oracle(two_j, path):
    # c^dag M c from the real columns, against the old per-index complex sum over
    # the probe states U_g|j,m> (direct phases times the same columns)
    rng = np.random.default_rng(18)
    n = 300
    q_g = (np.broadcast_to(_FIXED_Q, (n, 4)).copy() if path == "fixed_g"
           else rotations.haar_quaternions(rng, n))
    two_m = (rng.choice(spins.two_m_values(two_j), n) if path == "thermal" else two_j)
    psi = montecarlo.sample_pure_states(rng, n, 2)
    bands = heisenberg.heisenberg_unitary(two_j, 1, 2.0).qubit_bands()
    target = montecarlo._target_states(q_g, 2.0, psi)
    omega, column = spins.wigner_d_omega_columns(two_j, q_g, two_m)
    scores = montecarlo._band_scores(montecarlo._band_tables(bands), column, omega, psi,
                                     target)
    probe = spins.rotated_basis_states_batch(two_j, q_g, two_m)
    assert np.max(np.abs(scores - oracles.band_fidelities(bands, probe, psi, target))) < 1e-14


@pytest.mark.parametrize("two_j", [101, 400])
def test_band_scores_match_exact_phases(two_j):
    # the same random inputs scored in 40-digit arithmetic: exact Euler phases
    # e^(i alpha i), exact target; the real Wigner-d columns and the gate's bands
    # stay the double-precision ones (a column is O(j eps) off in itself).  A
    # cumulative product of unit phases drifts past this bound.
    import mpmath

    n, theta = 12, 1.0
    samples, = montecarlo._strategy_samples(HeisenbergStrategy(two_j=two_j), theta,
                                            np.random.default_rng(19), n)  # one block
    rng = np.random.default_rng(19)
    q_g = rotations.haar_quaternions(rng, n)
    psi = montecarlo.sample_pure_states(rng, n, 2)
    _, columns = spins.wigner_d_omega_columns(two_j, q_g, two_j)
    d0, d1, up, lo = (np.asarray(b).tolist()
                      for b in heisenberg.heisenberg_unitary(two_j, 1, theta).qubit_bands())
    with mpmath.workdps(40):
        c, s = mpmath.cos(mpmath.mpf(theta) / 2), mpmath.sin(mpmath.mpf(theta) / 2)
        for q, (s0, s1), column, expected in zip(q_g.tolist(), psi.tolist(), columns.tolist(),
                                                 samples):
            w, x, y, z = (mpmath.mpf(v) for v in q)
            omega = mpmath.expj(mpmath.atan2(z, w) + mpmath.atan2(-x, y))
            probe = [column[i] * omega ** i for i in range(two_j + 1)]
            nx, ny, nz = 2 * (x * z + w * y), 2 * (y * z - w * x), 1 - 2 * (x * x + y * y)
            s0, s1 = mpmath.mpc(s0), mpmath.mpc(s1)
            t0 = mpmath.conj(c * s0 - 1j * s * (nz * s0 + (nx - 1j * ny) * s1))
            t1 = mpmath.conj(c * s1 - 1j * s * ((nx + 1j * ny) * s0 - nz * s1))
            total = 0
            for i in range(two_j + 1):
                amp = (t0 * s0 * d0[i] + t1 * s1 * d1[i]) * probe[i]
                if i > 0:
                    amp += t0 * s1 * up[i] * probe[i - 1]
                if i < two_j:
                    amp += t1 * s0 * lo[i] * probe[i + 1]
                total += abs(amp) ** 2
            assert abs(expected - float(total)) < 2e-15


def test_strategy_validation_errors():
    with pytest.raises(ValueError):
        mc_average_fidelity(HeisenbergStrategy(two_j=3), 1.0, 0, seed=0)
    with pytest.raises(TypeError):
        mc_average_fidelity(object(), 1.0, 10, seed=0)
    with pytest.raises(ValueError):
        mc_average_fidelity(ThermalWrapped(inner=DiscreteXYZ(), gamma=1.0), 1.0, 10, seed=0)


@pytest.mark.parametrize("theta", [math.nan, math.inf])
def test_non_finite_theta_is_rejected_before_sampling(monkeypatch, theta):
    # at the parent every sample was drawn first, then "fidelity nan outside [0, 1]"
    monkeypatch.setattr(montecarlo, "_strategy_samples", None)  # any draw would fail
    with pytest.raises(ValueError, match="^theta must be finite"):
        mc_average_fidelity(HeisenbergStrategy(two_j=4), theta, 10, seed=0)
    with pytest.raises(ValueError, match="^theta must be finite"):
        per_rotation_fidelity(HeisenbergStrategy(two_j=4), theta, [1.0, 0, 0, 0], 10, seed=0)
