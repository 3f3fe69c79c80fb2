import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from oracles import (
    ChoiOperator,
    _min_eigenvalue,
    apply_channel,
    apply_choi,
    channel_choi,
    choi_from_kraus,
    gate_channel,
    identity_choi,
    kraus_from_choi,
)
from spinlearn import channels, heisenberg
from spinlearn.channels import (
    FidelityEstimate,
    KrausChannel,
    average_from_entanglement,
    entanglement_fidelity,
)


def _random_state(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = z @ z.conj().T
    return rho / np.trace(rho)


def test_fidelity_estimate_bounds():
    with pytest.raises(ValueError):
        FidelityEstimate(value=1.2)
    with pytest.raises(ValueError):
        FidelityEstimate(value=0.5, std_error=-1.0)
    est = FidelityEstimate.exact(0.25)
    assert est.n_samples == 0 and est.std_error == 0.0


def test_fidelity_estimate_from_samples(rng):
    f = rng.uniform(0.2, 0.9, 1000)
    est = FidelityEstimate.from_blocks([f])
    assert est.n_samples == 1000
    assert est.value == pytest.approx(float(np.mean(f)), abs=1e-15)
    assert est.std_error == pytest.approx(float(np.std(f, ddof=1)) / math.sqrt(1000), rel=1e-12)
    one = FidelityEstimate.from_blocks([f[:1]])
    assert one.value == f[0] and one.std_error == 0.0
    assert FidelityEstimate.from_blocks([np.array([1.0 + 1e-12])]).value == 1.0
    with pytest.raises(ValueError, match="n_samples"):
        FidelityEstimate.from_blocks([np.array([])])


def test_fidelity_estimate_from_blocks_merges_random_splits(rng):
    # the streaming samplers fold (count, mean, M2) block by block: any split of the
    # samples, empty and one-sample blocks included, gives the one-block estimate
    f = rng.uniform(0.2, 0.9, 5000)
    whole = FidelityEstimate.from_blocks([f])
    for _ in range(50):
        cuts = np.sort(rng.integers(0, len(f) + 1, size=rng.integers(1, 40)))
        merged = FidelityEstimate.from_blocks(np.split(f, cuts))
        assert merged.n_samples == whole.n_samples
        assert abs(merged.value - whole.value) <= 1e-15
        assert abs(merged.std_error - whole.std_error) <= 1e-15
    one = FidelityEstimate.from_blocks([f[:0], f[:1]])
    assert one.value == f[0] and one.std_error == 0.0
    assert FidelityEstimate.from_blocks([np.array([1.0 + 1e-12])] * 2).value == 1.0
    with pytest.raises(ValueError, match="n_samples"):
        FidelityEstimate.from_blocks([f[:0]])


def test_apply_choi_identity_and_depolarizing(rng):
    rho = _random_state(rng, 2)
    assert np.allclose(apply_choi(identity_choi(2), rho), rho, atol=1e-12)
    depol = ChoiOperator(matrix=np.kron(np.eye(2), np.eye(2) / 2.0), dim_in=2, dim_out=2)
    depol.validate()
    assert np.allclose(apply_choi(depol, rho), 0.5 * np.eye(2), atol=1e-12)


def test_apply_choi_z_rotation_fixes_poles():
    v = np.diag([np.exp(-0.9j), np.exp(0.9j)])
    choi = choi_from_kraus([v], 2, 2)
    zero = np.zeros((2, 2), dtype=complex)
    zero[0, 0] = 1.0
    assert np.allclose(apply_choi(choi, zero), zero, atol=1e-14)


def test_apply_choi_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_choi(identity_choi(2), np.eye(3))


def _hidden_negative_block_matrix(rng):
    """12 x 12 Hermitian matrix: PSD blocks of sizes 1, 2, 3, 4 and one 2 x 2
    block with eigenvalues (1, -1e-6), its rows and columns randomly permuted."""
    blocks = []
    for size in (1, 2, 3, 4):
        z = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        blocks.append(z @ z.conj().T)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    blocks.append(u @ np.diag([1.0, -1e-6]) @ u.conj().T)
    mat = np.zeros((12, 12), dtype=complex)
    start = 0
    for b in blocks:
        mat[start:start + len(b), start:start + len(b)] = b
        start += len(b)
    perm = rng.permutation(12)
    return mat[np.ix_(perm, perm)]


def test_cp_check_finds_a_negative_eigenvalue_inside_one_block(rng):
    mat = _hidden_negative_block_matrix(rng)
    assert connected_components(mat != 0, directed=False)[0] == 5
    assert not ChoiOperator(matrix=mat, dim_in=6, dim_out=2).is_completely_positive()
    assert np.linalg.eigvalsh(mat)[0] == pytest.approx(-1e-6, abs=1e-12)


def test_block_cp_check_reads_its_labels_or_falls_back_to_dense(rng):
    mat = _hidden_negative_block_matrix(rng)
    labels = connected_components(mat != 0, directed=False)[1]
    assert not ChoiOperator(matrix=mat, dim_in=6, dim_out=2).is_completely_positive(labels=labels)
    assert _min_eigenvalue(mat, labels) == pytest.approx(-1e-6, abs=1e-12)
    # one label per index leaves nonzero entries between labels: the dense check decides
    assert _min_eigenvalue(mat, np.arange(12)) == _min_eigenvalue(mat)


def test_kraus_choi_round_trip(rng):
    gate = heisenberg.heisenberg_unitary(2, 1, 1.3)
    ch = gate_channel(gate)
    choi = channel_choi(ch)
    choi.validate()
    back = KrausChannel(kraus=tuple(kraus_from_choi(choi)), dim_in=6, dim_out=2)
    rho = _random_state(rng, 6)
    assert np.allclose(apply_channel(ch, rho), apply_channel(back, rho), atol=1e-10)
    assert abs(np.trace(apply_channel(ch, rho)) - 1.0) < 1e-10


def test_entanglement_fidelity_exact_gate():
    # channel that applies the target rotation itself (probe discarded)
    theta = 1.1
    v = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    kraus = []
    for i in range(3):
        bra = np.zeros((1, 3))
        bra[0, i] = 1.0
        kraus.append(v @ np.kron(bra, np.eye(2)))
    ch = KrausChannel(kraus=tuple(kraus), dim_in=6, dim_out=2)
    probe = np.array([1.0, 0.0, 0.0], dtype=complex)
    est = entanglement_fidelity(ch, probe, v)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.n_samples == 0


def test_entanglement_fidelity_depolarizing():
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]])]
    kraus = []
    for i in range(2):  # trivial probe register of dimension 2
        bra = np.zeros((1, 2))
        bra[0, i] = 1.0
        for p in paulis:
            kraus.append(0.5 * p @ np.kron(bra, np.eye(2)))
    ch = KrausChannel(kraus=tuple(kraus), dim_in=4, dim_out=2)
    probe = np.array([1.0, 0.0], dtype=complex)
    v = np.diag([np.exp(-0.4j), np.exp(0.4j)])
    est = entanglement_fidelity(ch, probe, v)
    assert est.value == pytest.approx(0.25, abs=1e-12)
    assert average_from_entanglement(est.value, 2) == pytest.approx(0.5, abs=1e-12)


def test_entanglement_fidelity_heisenberg_headline():
    ch = gate_channel(heisenberg.heisenberg_unitary(3, 1, math.pi))
    probe = np.zeros(4, dtype=complex)
    probe[0] = 1.0
    v = np.diag([-1j, 1j])  # z rotation by pi
    est = entanglement_fidelity(ch, probe, v)
    assert est.value == pytest.approx(0.5625, abs=1e-12)
    assert average_from_entanglement(est.value, 2) == pytest.approx(17 / 24, abs=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_average_from_entanglement_affine(fe):
    assert average_from_entanglement(fe, 2) == pytest.approx(1 / 3 + 2 * fe / 3, abs=1e-12)
    assert channels.entanglement_from_average(average_from_entanglement(fe, 5), 5) == pytest.approx(fe, abs=1e-10)


def test_average_from_entanglement_values():
    assert average_from_entanglement(1.0, 2) == 1.0
    assert average_from_entanglement(0.25, 2) == pytest.approx(0.5)
    assert average_from_entanglement(0.5625, 2) == pytest.approx(17 / 24, abs=5e-5)


@pytest.mark.parametrize("row_floats, tile", [(1, 1), (7, 1), (3, 4), (1 << 20, 1), (5, 64)])
def test_blocks_cover_the_samples_without_a_lone_row(monkeypatch, row_floats, tile):
    # contiguous blocks of about budget / row_floats rows in whole tiles (the last may
    # be short), and no block of one row unless n = 1: einsum rounds a one-row batch
    # differently
    monkeypatch.setattr(channels, "_BLOCK_FLOATS", 20)
    step = max(2, math.ceil(math.ceil(20 / row_floats) / tile) * tile)
    for n in range(1, 300):
        blocks = channels._blocks(n, row_floats, tile)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        sizes = [b.stop - b.start for b in blocks]
        assert all(size == step for size in sizes[:-1])
        assert 2 <= sizes[-1] <= step + 1 or n == 1
