import math
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from oracles import (
    axis_angle_quaternion,
    clebsch_gordan_by_lgamma,
    coupled_basis_vectors,
    decomposition_overlaps,
    euler_zyz_angles,
    quat_multiply,
    rotation_irrep,
    su2_from_quaternion,
)
from spinlearn import spins
from spinlearn.rotations import haar_quaternions, z_axis
from spinlearn.spins import (
    InvalidQuantumNumbersError,
    clebsch_gordan,
    coupling_decomposition,
    dim,
    spin_operators,
    two_m_values,
)

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
# quaternions with beta = 0 exactly (first two) and beta = pi exactly (last three)
_POLE_QUATERNIONS = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [math.cos(0.3), 0.0, 0.0, math.sin(0.3)],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [0.0, math.cos(0.2), math.sin(0.2), 0.0],
])


def _coherent_state(two_j: int, q: np.ndarray) -> np.ndarray:
    """U_g|j,j> for one quaternion."""
    return spins.rotated_basis_states_batch(two_j, q[None], two_j)[0]


def _states_irrep(two_j: int, q: np.ndarray) -> np.ndarray:
    """(n, d, d) matrices U_g whose column k is rotated_basis_states_batch at the k-th 2m."""
    q = np.atleast_2d(q)
    return np.stack([spins.rotated_basis_states_batch(two_j, q, two_m)
                     for two_m in two_m_values(two_j)], axis=-1)


def test_pauli_half():
    jx, jy, jz = spin_operators(1)
    assert np.allclose(jz, np.diag([0.5, -0.5]))
    assert np.allclose(jx, 0.5 * np.array([[0, 1], [1, 0]]))
    assert np.allclose(jy, 0.5 * np.array([[0, -1j], [1j, 0]]))


def test_trace_jz_squared_spin2():
    _, _, jz = spin_operators(4)
    assert np.trace(jz @ jz).real == pytest.approx(10.0, abs=1e-12)


@pytest.mark.parametrize("two_j", list(range(1, 21)) + [27, 33, 40])
def test_commutators_and_casimir(two_j):
    jx, jy, jz = spin_operators(two_j)
    j = two_j / 2
    for a, b, c in ((jx, jy, jz), (jy, jz, jx), (jz, jx, jy)):
        assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-10
    casimir = jx @ jx + jy @ jy + jz @ jz
    assert np.max(np.abs(casimir - j * (j + 1) * np.eye(dim(two_j)))) < 1e-10


def test_irrep_identity_and_z_rotation():
    assert np.allclose(_states_irrep(5, IDENTITY)[0], np.eye(6), atol=1e-12)
    u = _states_irrep(1, axis_angle_quaternion([0, 0, 1], 0.8))[0]
    assert np.allclose(u, np.diag([np.exp(-0.4j), np.exp(0.4j)]), atol=1e-12)


def test_irrep_pi_about_y_spin1():
    u = _states_irrep(2, axis_angle_quaternion([0, 1, 0], math.pi))[0]
    out = u[:, 0]  # image of |1,1>
    target = np.zeros(3)
    target[2] = 1.0  # |1,-1>
    assert abs(abs(np.vdot(target, out)) - 1.0) < 1e-12


@pytest.mark.parametrize("two_j", [1, 2, 4])
def test_irrep_matches_matrix_exponential(two_j, rng):
    jx, jy, jz = spin_operators(two_j)
    g = haar_quaternions(rng, 1)[0]
    alpha, beta, gamma = euler_zyz_angles(g)
    oracle = expm(-1j * alpha * jz) @ expm(-1j * beta * jy) @ expm(-1j * gamma * jz)
    assert np.max(np.abs(rotation_irrep(two_j, g) - oracle)) < 1e-12
    assert np.max(np.abs(_states_irrep(two_j, g)[0] - oracle)) < 1e-12


@pytest.mark.parametrize("two_j", [1, 2, 5])
def test_irrep_unitary_and_homomorphic(two_j, rng):
    # the oracle is the SU(2) representation itself: no sign freedom at half-integer j
    d = dim(two_j)
    for _ in range(100):
        g, h = haar_quaternions(rng, 2)
        ug, uh = rotation_irrep(two_j, g), rotation_irrep(two_j, h)
        assert np.max(np.abs(ug.conj().T @ ug - np.eye(d))) < 1e-10
        ugh = rotation_irrep(two_j, quat_multiply(g, h))
        assert np.max(np.abs(ugh - ug @ uh)) < 1e-9


def test_spin_half_states_are_the_su2_columns():
    # U_g|1/2, +-1/2> is the first (second) column of U_g itself, sign included
    q = np.concatenate([_POLE_QUATERNIONS, haar_quaternions(np.random.default_rng(1206), 2000)])
    u = su2_from_quaternion(q)
    for column, two_m in enumerate((1, -1)):
        states = spins.rotated_basis_states_batch(1, q, two_m)
        assert np.max(np.abs(states - u[:, :, column])) < 1e-15


@pytest.mark.parametrize("two_j", [1, 3, 5, 20])
def test_rotated_states_compose_as_su2(two_j):
    # D(g) D(h)|j,m> = D(gh)|j,m> with D read off rotated_basis_states_batch alone
    rng = np.random.default_rng(1207)
    g = np.concatenate([_POLE_QUATERNIONS, haar_quaternions(rng, 200)])
    h = haar_quaternions(rng, len(g))
    ug, gh = _states_irrep(two_j, g), quat_multiply(g, h)
    for two_m in two_m_values(two_j):
        direct = spins.rotated_basis_states_batch(two_j, gh, two_m)
        composed = np.einsum("nij,nj->ni", ug, spins.rotated_basis_states_batch(two_j, h, two_m))
        assert np.max(np.abs(composed - direct)) < 1e-12


def test_haar_schur_integral():
    n = 100000
    rng = np.random.default_rng(5)
    for two_j in (1, 2, 5):
        q = haar_quaternions(rng, n)
        amps = np.abs(spins.rotated_basis_states_batch(two_j, q, two_j)[:, 0]) ** 2
        mean = amps.mean()
        se = amps.std(ddof=1) / math.sqrt(n)
        assert abs(mean - 1.0 / dim(two_j)) < 4 * se


def test_coherent_state_basics():
    v = _coherent_state(4, IDENTITY)
    assert np.allclose(v, np.eye(5)[:, 0], atol=1e-12)
    v = _coherent_state(2, axis_angle_quaternion([0, 1, 0], math.pi))
    assert abs(abs(v[2]) - 1.0) < 1e-12  # |1,-1> up to phase


def test_coherent_overlap_law(rng):
    for _ in range(100):
        two_j = int(rng.integers(1, 9))
        g, h = haar_quaternions(rng, 2)
        ov = abs(np.vdot(_coherent_state(two_j, g), _coherent_state(two_j, h))) ** 2
        # cos^2(phi/2) = (1 + cos phi)/2 for the angle phi between the two axes
        cos_half_sq = (1.0 + np.dot(z_axis(g), z_axis(h))) / 2.0
        assert ov == pytest.approx(cos_half_sq ** two_j, abs=1e-10)


# --- Clebsch-Gordan -------------------------------------------------------

def test_cg_two_qubit_singlet():
    assert clebsch_gordan(1, 1, 1, -1, 0, 0) == pytest.approx(1 / math.sqrt(2), abs=1e-14)
    assert clebsch_gordan(1, -1, 1, 1, 0, 0) == pytest.approx(-1 / math.sqrt(2), abs=1e-14)


def test_cg_vs_total_spin_diagonalization():
    # brute-force oracle: diagonalize J^2 for two qubits and compare projectors
    jx, jy, jz = spin_operators(1)
    ops = [np.kron(a, np.eye(2)) + np.kron(np.eye(2), a) for a in (jx, jy, jz)]
    j2 = sum(o @ o for o in ops)
    singlet_proj_oracle = np.eye(4) - 0.5 * j2  # eigenvalues 0 (singlet), 2 (triplet)
    v = np.array([0.0, clebsch_gordan(1, 1, 1, -1, 0, 0), clebsch_gordan(1, -1, 1, 1, 0, 0), 0.0])
    assert np.max(np.abs(np.outer(v, v) - singlet_proj_oracle)) < 1e-12


def _ladder_oracle_columns(two_j1, two_j2, two_J):
    """Highest-weight + lowering-operator construction of |J,M> columns."""
    d1, d2 = dim(two_j1), dim(two_j2)
    jm1 = spin_operators(two_j1)
    jm2 = spin_operators(two_j2)
    jminus = (np.kron(jm1[0], np.eye(d2)) + np.kron(np.eye(d1), jm2[0])
              - 1j * (np.kron(jm1[1], np.eye(d2)) + np.kron(np.eye(d1), jm2[1])))
    # stretched state for J = j1 + j2; for smaller J build by orthogonality at top M
    cols = {}
    top = np.zeros(d1 * d2, dtype=complex)
    top[0] = 1.0
    if two_J == two_j1 + two_j2:
        vec = top
    else:
        # top-weight vector of the J-block: orthogonal to all higher blocks at M = J
        ms = []
        for i1, tm1 in enumerate(two_m_values(two_j1)):
            for i2, tm2 in enumerate(two_m_values(two_j2)):
                if tm1 + tm2 == two_J:
                    ms.append(i1 * d2 + i2)
        sub = []
        for higher in range(two_J + 2, two_j1 + two_j2 + 2, 2):
            w = _ladder_oracle_columns(two_j1, two_j2, higher)[two_J]
            sub.append(w[ms])
        a = np.array(sub)
        # null space of the higher-block rows restricted to this M sector
        u, s, vt = np.linalg.svd(a)
        vec_sub = vt[-1].conj()
        # Condon-Shortley sign: highest m1 component positive
        if vec_sub[0].real < 0:
            vec_sub = -vec_sub
        vec = np.zeros(d1 * d2, dtype=complex)
        vec[ms] = vec_sub
    two_m = two_J
    cols[two_m] = vec
    j = two_J / 2
    while two_m > -two_J:
        m = two_m / 2
        vec = jminus @ vec / math.sqrt(j * (j + 1) - m * (m - 1))
        two_m -= 2
        cols[two_m] = vec
    return cols


@pytest.mark.parametrize("two_j1,two_j2", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 2), (6, 4), (5, 5), (6, 6)])
def test_cg_stretched_family_matches_ladder_recursion(two_j1, two_j2):
    two_J = two_j1 + two_j2
    cols = _ladder_oracle_columns(two_j1, two_j2, two_J)
    d2 = dim(two_j2)
    for two_M, vec in cols.items():
        for i1, tm1 in enumerate(two_m_values(two_j1)):
            tm2 = two_M - tm1
            if abs(tm2) > two_j2:
                continue
            i2 = (two_j2 - tm2) // 2
            cg = clebsch_gordan(two_j1, tm1, two_j2, tm2, two_J, two_M)
            assert cg == pytest.approx(vec[i1 * d2 + i2].real, abs=1e-10)


@pytest.mark.parametrize("two_j1,two_j2,two_J", [(2, 2, 2), (3, 1, 2), (4, 2, 4), (6, 4, 2)])
def test_cg_lower_blocks_match_ladder_recursion(two_j1, two_j2, two_J):
    cols = _ladder_oracle_columns(two_j1, two_j2, two_J)
    d2 = dim(two_j2)
    for two_M, vec in cols.items():
        for i1, tm1 in enumerate(two_m_values(two_j1)):
            tm2 = two_M - tm1
            if abs(tm2) > two_j2:
                continue
            i2 = (two_j2 - tm2) // 2
            cg = clebsch_gordan(two_j1, tm1, two_j2, tm2, two_J, two_M)
            assert cg == pytest.approx(vec[i1 * d2 + i2].real, abs=1e-9)


@given(st.data())
def test_cg_row_orthonormality(data):
    two_j1 = data.draw(st.integers(min_value=1, max_value=8))
    two_j2 = data.draw(st.integers(min_value=1, max_value=8))
    two_J = data.draw(st.integers(min_value=abs(two_j1 - two_j2), max_value=two_j1 + two_j2))
    if (two_j1 + two_j2 + two_J) % 2:
        two_J += 1
    if two_J > two_j1 + two_j2:
        return
    two_M = data.draw(st.integers(min_value=-two_J, max_value=two_J))
    if (two_J - two_M) % 2:
        two_M -= 1
    if abs(two_M) > two_J:
        return
    total = 0.0
    for tm1 in two_m_values(two_j1):
        tm2 = two_M - tm1
        if abs(tm2) > two_j2:
            continue
        total += clebsch_gordan(two_j1, int(tm1), two_j2, int(tm2), two_J, two_M) ** 2
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("two_j1", range(1, 9))
@pytest.mark.parametrize("two_j2", range(1, 9))
def test_cg_orthogonality_both_ways(two_j1, two_j2):
    # unitarity of the full coupling transform for all j1, j2 <= 4
    d1, d2 = dim(two_j1), dim(two_j2)
    blocks = []
    for two_J in range(abs(two_j1 - two_j2), two_j1 + two_j2 + 2, 2):
        blocks.append(coupled_basis_vectors(two_j1, two_j2, two_J))
    u = np.vstack(blocks)
    assert u.shape == (d1 * d2, d1 * d2)
    assert np.max(np.abs(u @ u.T - np.eye(d1 * d2))) < 1e-10
    assert np.max(np.abs(u.T @ u - np.eye(d1 * d2))) < 1e-10


@pytest.mark.parametrize("two_j1,two_j2", [(1, 1), (2, 1), (5, 1), (4, 2), (3, 4), (40, 1)])
def test_pair_coupling_table_holds_the_coupled_basis_coefficients(two_j1, two_j2):
    # the (d1, d2) table is the |J, m1 + m2> component of each product pair
    for two_J in range(abs(two_j1 - two_j2), two_j1 + two_j2 + 2, 2):
        vecs = coupled_basis_vectors(two_j1, two_j2, two_J).reshape(dim(two_J), dim(two_j1), -1)
        i1, i2 = np.indices((dim(two_j1), dim(two_j2)))
        row = (two_J - two_j1 - two_j2) // 2 + i1 + i2  # index of M = m1 + m2 in |J, M>
        inside = (row >= 0) & (row <= two_J)
        want = np.where(inside, vecs[np.clip(row, 0, two_J), i1, i2], 0.0)
        assert np.array_equal(spins._pair_coupling_table(two_j1, two_j2, two_J), want)


@pytest.mark.parametrize("two_j", [1, 2, 8, 32, 64, 128, 400])
def test_pair_coupling_table_meets_the_spin_half_closed_form(two_j):
    # <j m1; 1/2 m2 | j +- 1/2, M> = +-sqrt((j +- M + 1/2)/(2j+1)) for m2 = +1/2 and
    # sqrt((j -+ M + 1/2)/(2j+1)) for m2 = -1/2: Racah's sum misses it by 2.1e-15 at
    # 2j = 8, 1.7e-14 at 32, 5.3e-14 at 64, 1.1e-13 at 128 and 4.9e-13 at 400
    two_big_m = two_m_values(two_j)[:, None] + np.array([1, -1])
    spin = np.array([1, -1])  # m2 = +1/2, -1/2
    plus = np.sqrt((two_j + 1 + spin * two_big_m) / (2.0 * two_j + 2))
    minus = -spin * np.sqrt((two_j + 1 - spin * two_big_m) / (2.0 * two_j + 2))
    bound = 4e-15 * two_j
    assert np.max(np.abs(spins._pair_coupling_table(two_j, 1, two_j + 1) - plus)) < bound
    assert np.max(np.abs(spins._pair_coupling_table(two_j, 1, two_j - 1) - minus)) < bound


def test_cg_invalid_raises_and_vanishing_returns_zero():
    with pytest.raises(InvalidQuantumNumbersError):
        clebsch_gordan(1, 1, 1, 1, 0, 0)  # M != m1 + m2
    with pytest.raises(InvalidQuantumNumbersError):
        clebsch_gordan(1, 1, 1, -1, 5, 0)  # triangle violated
    with pytest.raises(InvalidQuantumNumbersError):
        clebsch_gordan(1, 1, 2, 0, 2, 1)  # parity: j1+j2+J half-integer
    with pytest.raises(InvalidQuantumNumbersError):
        clebsch_gordan(2, 3, 2, -1, 2, 2)  # |m| > j
    # allowed but vanishing by symmetry
    assert clebsch_gordan(2, 0, 2, 0, 2, 0) == 0.0


# --- coupling decomposition ------------------------------------------------

def _valid_cg_arguments(two_j1s, two_j2s):
    for two_j1 in two_j1s:
        for two_j2 in two_j2s:
            for two_J in range(abs(two_j1 - two_j2), two_j1 + two_j2 + 1, 2):
                for two_m1 in range(-two_j1, two_j1 + 1, 2):
                    for two_m2 in range(-two_j2, two_j2 + 1, 2):
                        if abs(two_m1 + two_m2) <= two_J:
                            yield two_j1, two_m1, two_j2, two_m2, two_J, two_m1 + two_m2


@pytest.mark.parametrize("two_j1s, two_j2s", [(range(13), range(5)), ((100, 400), (1,))],
                         ids=["small", "spin_half"])
def test_cg_table_reads_keep_the_lgamma_bits(two_j1s, two_j2s):
    # log-factorials read from the module table equal one lgamma per factorial, bit for bit
    args = list(_valid_cg_arguments(two_j1s, two_j2s))
    assert len(args) > 1000
    assert [clebsch_gordan(*a) for a in args] == [clebsch_gordan_by_lgamma(*a) for a in args]


def test_cg_rejects_what_the_lgamma_route_rejects():
    # every argument the checks reject (half-integer, negative, out of range, unmatched M)
    # raises the oracle's error type and message, so no table index is ever negative
    rejected = 0
    for two_j1 in range(-2, 4):
        for two_m1 in range(-4, 5):
            for two_j2 in range(-1, 3):
                for two_m2 in range(-3, 4):
                    for two_J in range(-1, 6):
                        for two_M in (two_m1 + two_m2, two_m1 + two_m2 + 2):
                            args = (two_j1, two_m1, two_j2, two_m2, two_J, two_M)
                            try:
                                want = clebsch_gordan_by_lgamma(*args)
                            except InvalidQuantumNumbersError as exc:
                                rejected += 1
                                with pytest.raises(type(exc)) as got:
                                    clebsch_gordan(*args)
                                assert str(got.value) == str(exc)
                            else:
                                assert clebsch_gordan(*args) == want
    assert rejected > 10000


def test_log_factorial_table_holds_lgamma_and_refuses_negative_sizes():
    table = spins._log_factorials(450)
    assert table[:451] == [math.lgamma(k + 1) for k in range(451)]
    size = len(table)
    with pytest.raises(InvalidQuantumNumbersError, match="negative factorial argument -1"):
        spins._log_factorials(-1)
    assert len(spins._log_factorials(3)) == size


def test_log_factorial_table_grows_whole_under_thread_switches(monkeypatch):
    # four threads grow a fresh table at a one-microsecond switch interval: without a lock, a
    # switch between reading the table's length and extending it appended lgamma values at
    # the wrong indices (in 100 of 100 such trials)
    interval = sys.getswitchinterval()
    expected = [math.lgamma(k + 1) for k in range(401)]

    def grow(first):
        for n in range(first, 401, 4):
            spins._log_factorials(n)

    try:
        sys.setswitchinterval(1e-6)
        for _ in range(40):
            monkeypatch.setattr(spins, "_LOG_FACTORIALS", [0.0])
            threads = [threading.Thread(target=grow, args=(first,)) for first in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert spins._LOG_FACTORIALS == expected
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("args", [
    (2_000_000, 2, 2_000_000, -2, 4, 0), (2_000_001, 5, 3, -1, 2_000_000, 4),
    (1, 1, 4_000_000, -4_000_000, 3_999_999, -3_999_999), (20_000_000, 0, 2, 2, 20_000_002, 2),
])
def test_cg_beyond_the_table_keeps_the_lgamma_bits(args):
    # past the table's bound each log-factorial is its own lgamma call: the same floats
    assert (args[0] + args[2] + args[4]) // 2 + 1 >= spins._LOG_FACTORIALS_MAX
    assert clebsch_gordan(*args) == clebsch_gordan_by_lgamma(*args) != 0.0


_LARGE_SPIN_K = """
import math, resource
from spinlearn import heisenberg, spins
value = heisenberg.spin_k_fidelity(20_000_000, 2, math.pi)
print(value, len(spins._LOG_FACTORIALS), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_spin_k_at_large_spin_keeps_the_table_bounded():
    # the table grew to (j1 + j2 + J)/2 + 1 entries and was never freed: 2e7 of them and a
    # 793 MB peak for this call, about 8 GB at 2j = 2e8
    proc = subprocess.run([sys.executable, "-c", _LARGE_SPIN_K], capture_output=True,
                          text=True, check=True, timeout=300)
    value, entries, peak = proc.stdout.split()
    assert 0.0 < float(value) <= 1.0
    assert int(entries) <= spins._LOG_FACTORIALS_MAX
    assert int(peak) / (2**20 if sys.platform == "darwin" else 1024) < 200.0  # bytes or KiB


def test_coupling_theta_zero():
    for two_j, two_m in ((4, 2), (1, 1), (5, -3)):
        j = two_j / 2
        c = coupling_decomposition(two_j, two_m, 0.0)
        assert c.a == 0 and c.b == 0
        assert abs(c.c_plus) ** 2 == pytest.approx((j + 1) / (2 * j + 1), abs=1e-12)
        assert abs(c.c_minus) ** 2 == pytest.approx(j / (2 * j + 1), abs=1e-12)


def test_coupling_stretched_kills_b():
    assert coupling_decomposition(6, 6, 1.7).b == 0


@given(st.integers(min_value=1, max_value=12), st.floats(min_value=0.0, max_value=2 * math.pi - 1e-9))
def test_coupling_normalization(two_j, theta):
    for two_m in (two_j, two_j - 2, -two_j):
        if abs(two_m) > two_j:
            continue
        c = coupling_decomposition(two_j, two_m, theta)
        norm_sq = abs(c.a) ** 2 + abs(c.b) ** 2 + abs(c.c_plus) ** 2 + abs(c.c_minus) ** 2
        assert norm_sq == pytest.approx(1.0, abs=1e-10)


def test_coupling_matches_cg_expansion():
    for two_j, two_m, theta in ((4, 2, math.pi / 2), (3, 1, 1.9), (1, -1, 2.4), (6, 0, 0.6)):
        c = coupling_decomposition(two_j, two_m, theta)
        qa, qb, qp, qm = decomposition_overlaps(two_j, two_m, theta)
        assert abs(qa - c.a) < 1e-10
        assert abs(qb - c.b) < 1e-10
        # (c+, c-) are expressed in the conjugate multiplicity basis
        assert abs(qp - np.conj(c.c_plus)) < 1e-10
        assert abs(qm - np.conj(c.c_minus)) < 1e-10


def test_invalid_m_raises():
    with pytest.raises(InvalidQuantumNumbersError):
        coupling_decomposition(2, 3, 1.0)
    with pytest.raises(InvalidQuantumNumbersError):
        coupling_decomposition(2, 1, 1.0)  # parity


@pytest.mark.parametrize("two_j", [4, np.int64(4), np.uint8(4)])
def test_numpy_integers_are_spins(two_j):
    assert spins.check_two_j(two_j) == 4 and type(spins.check_two_j(two_j)) is int


@pytest.mark.parametrize("two_j", [4.0, np.float64(4.0), "4", None])
def test_non_integer_spin_is_named(two_j):
    with pytest.raises(InvalidQuantumNumbersError, match="^two_j must be a non-negative integer"):
        spins.check_two_j(two_j)


def test_spin_zero_memory_has_no_coupling_decomposition():
    # the j - 1/2 route does not exist at j = 0 (it divided by j)
    with pytest.raises(InvalidQuantumNumbersError, match="two_j=0"):
        coupling_decomposition(0, 0, 1.0)


@pytest.mark.parametrize("two_j", [1, 2, 3, 20, 400])
def test_coherent_column_matches_irrep_batch(two_j):
    # the dense irrep costs O(d^3) per rotation, so few random rotations at 2j = 400
    n_random = 3 if two_j == 400 else 200
    q = np.concatenate([_POLE_QUATERNIONS, haar_quaternions(np.random.default_rng(1201), n_random)])
    states = spins.rotated_basis_states_batch(two_j, q, two_j)
    assert np.all(np.isfinite(states))
    assert np.max(np.abs(states - rotation_irrep(two_j, q)[:, :, 0])) < 1e-12


@pytest.mark.parametrize("two_j", [1, 4, 7, 20])
def test_per_sample_m_matches_irrep_columns(two_j):
    rng = np.random.default_rng(1202)
    q = np.concatenate([_POLE_QUATERNIONS, haar_quaternions(rng, 300)])
    two_ms = rng.choice(two_m_values(two_j), len(q))
    irrep = rotation_irrep(two_j, q)
    states = spins.rotated_basis_states_batch(two_j, q, two_ms)
    expected = irrep[np.arange(len(q)), :, (two_j - two_ms) // 2]
    assert np.max(np.abs(states - expected)) < 1e-12
    lowest = spins.rotated_basis_states_batch(two_j, q, -two_j)  # scalar, not coherent
    assert np.max(np.abs(lowest - irrep[:, :, -1])) < 1e-12


@pytest.mark.parametrize("two_j", [1, 4, 7, 20, 101])
def test_mixed_two_m_rows_take_their_own_path(two_j):
    # rows with m = j take the binomial column: the same bits as the scalar coherent
    # call; the others the Jy-eigenbasis column, a lone one included
    rng = np.random.default_rng(1204)
    q = np.concatenate([_POLE_QUATERNIONS, haar_quaternions(rng, 60)])
    coherent = spins.rotated_basis_states_batch(two_j, q, two_j)
    irrep = rotation_irrep(two_j, q)
    mixed = rng.choice(two_m_values(two_j), len(q))
    mixed[::3] = two_j
    lone = np.full(len(q), two_j)
    lone[7] = two_j - 2
    for two_ms in (mixed, lone, np.full(len(q), two_j)):
        states = spins.rotated_basis_states_batch(two_j, q, two_ms)
        top = two_ms == two_j
        assert np.array_equal(states[top], coherent[top])
        expected = irrep[np.arange(len(q)), :, (two_j - two_ms) // 2]
        assert np.max(np.abs(states[~top] - expected[~top]), initial=0.0) < 1e-12


@pytest.mark.parametrize("two_j", [1, 4, 20, 101])
def test_omega_columns_read_alpha_off_the_quaternion(two_j):
    # omega = (y - ix)(w + iz) / (|(x, y)| |(w, z)|) is e^(i alpha) of the Euler oracle,
    # and 1 on the degenerate rows (beta = 0 or pi, where the columns are one-hot up to
    # rounding); the columns are bit for bit those that rotated_basis_states_batch reads
    # off the same moduli, per-sample m included.  exp(1j * alpha) is itself off by up to
    # 1.2e-15 (alpha, up to 2 pi in size, carries a few ulp of 2 pi), so omega is held to
    # 4e-16 of 40-digit values and to 1.5e-15 of it
    import mpmath
    rng = np.random.default_rng(1205)
    q = np.concatenate([_POLE_QUATERNIONS, haar_quaternions(rng, 2000)])
    two_ms = rng.choice(two_m_values(two_j), len(q))
    two_ms[::2] = two_j
    alpha, _, _ = euler_zyz_angles(q)
    omega, omega_columns = spins.wigner_d_omega_columns(two_j, q, two_ms)
    w, x, y, z = q.T
    columns = spins._real_columns(two_j, two_ms, np.hypot(w, z), np.hypot(x, y))
    assert np.array_equal(omega_columns, columns)
    degenerate = np.minimum(np.hypot(w, z), np.hypot(x, y)) < 1e-15
    assert degenerate.sum() == len(_POLE_QUATERNIONS) and np.all(omega[degenerate] == 1.0)
    assert np.max(np.abs(omega - np.exp(1j * alpha))[~degenerate]) < 1.5e-15
    with mpmath.workdps(40):
        for (w, x, y, z), value in zip(q[~degenerate][:300].tolist(), omega[~degenerate]):
            w, x, y, z = (mpmath.mpf(v) for v in (w, x, y, z))
            exact = (y - 1j * x) * (w + 1j * z) / (mpmath.hypot(x, y) * mpmath.hypot(w, z))
            assert abs(exact - mpmath.mpc(value)) < 4e-16


@pytest.mark.parametrize("two_j", [3, 100, 400])
def test_log_sqrt_binomials_match_forty_digits(two_j):
    # the log-gamma difference it replaced was off by up to 5e-14 at 2j = 400
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 40
        exact = [float(Decimal(math.comb(two_j, k)).ln() / 2) for k in range(two_j + 1)]
    got = spins._log_sqrt_binomials(two_j)
    assert np.all(np.abs(got - exact) <= 4e-16 * np.abs(exact))


@pytest.mark.parametrize("bad", [5, 7, 2, -5])
def test_rotated_basis_states_batch_rejects_invalid_two_m(bad):
    q = haar_quaternions(np.random.default_rng(1203), 4)
    with pytest.raises(InvalidQuantumNumbersError, match="two_m"):
        spins.rotated_basis_states_batch(3, q, bad)
    with pytest.raises(InvalidQuantumNumbersError, match="two_m"):
        spins.rotated_basis_states_batch(3, q, np.array([3, 1, bad, -1]))
