import json
import math
import os

import numpy as np
import pytest
from scipy.linalg import expm

from oracles import (case1_entanglement_fidelity, coupled_basis_vectors, coupling_sectors_by_racah,
                     entanglement_fidelity_given_m, gate_channel, gate_matrix, per_input_fidelity_by_point, su2_from_quaternion,
                     worst_case_by_point)
from spinlearn import heisenberg, mo, optimal, spins
from spinlearn.heisenberg import (
    HeisenbergGate,
    f_angle,
    heisenberg_unitary,
    interaction_time,
    per_input_fidelity,
    spin_k_entanglement_fidelity_exact,
    spin_k_fidelity,
    spin_k_worst_case_asymptotic,
    worst_case_fidelity,
)
from spinlearn.mo import spin_k_mo_asymptote
from spinlearn.rotations import haar_quaternions


def _f_literal(two_j, theta):
    # arccot form with the explicit branch shift, for the grid comparison
    s = math.pi if theta > math.pi else 0.0
    arg = 1.0 / math.tan(theta) + 1.0 / ((two_j + 1) * math.sin(theta))
    return math.atan2(1.0, arg) + s


def test_f_angle_endpoints():
    assert f_angle(6, 0.0) == 0.0
    for two_j in (1, 2, 9, 200):
        assert f_angle(two_j, math.pi) == pytest.approx(math.pi, abs=1e-12)


def test_f_angle_matches_literal_arccot_on_grid():
    for two_j in (1, 3, 10):
        for theta in np.linspace(1e-3, 2 * math.pi - 1e-3, 1000):
            if abs(theta - math.pi) < 1e-9:
                continue
            assert f_angle(two_j, float(theta)) == pytest.approx(
                _f_literal(two_j, float(theta)), abs=1e-10)


def test_f_angle_large_j_close_to_theta():
    two_j = 200
    theta = math.pi / 2
    assert abs(f_angle(two_j, theta) - theta) < 1.0 / (two_j + 1) + 1e-6


def test_f_angle_continuous_across_pi():
    for two_j in (1, 5):
        left = f_angle(two_j, math.pi - 1e-9)
        right = f_angle(two_j, math.pi + 1e-9)
        assert abs(left - right) < 1e-6


def test_gate_identity_at_zero():
    gate = heisenberg_unitary(5, 1, 0.0)
    assert np.allclose(gate_matrix(gate), np.eye(12), atol=1e-12)


def test_gate_unitary_and_isotropic():
    gate = heisenberg_unitary(4, 1, 2.1)
    u = gate_matrix(gate)
    assert np.max(np.abs(u.conj().T @ u - np.eye(10))) < 1e-10
    jp = spins.spin_operators(4)
    jt = spins.spin_operators(1)
    for a, b in zip(jp, jt):
        total = np.kron(a, np.eye(2)) + np.kron(np.eye(5), b)
        assert np.max(np.abs(u @ total - total @ u)) < 1e-10


@pytest.mark.parametrize("two_j", [0, 1, 2, 3, 7, 20, 101, 400])
def test_qubit_slice_path_matches_sector_loop(two_j):
    # the slice form keeps the loop's two-stage arithmetic, so the bits agree
    rng = np.random.default_rng(two_j)
    sectors = heisenberg._coupling_sectors(two_j, 1)
    for theta in (0.0, 0.3, math.pi / 2, math.pi, 2.5, 5.9):
        gate = heisenberg_unitary(two_j, 1, theta)
        for shape in ((), (0,), (1,), (2,), (37,), (1307,)):
            vec = (rng.normal(size=shape + (gate.dim_total,))
                   + 1j * rng.normal(size=shape + (gate.dim_total,)))
            loop = vec.copy()
            heisenberg._apply_sectors(loop, two_j, 1, gate.angle, sectors)
            assert np.array_equal(gate.apply(vec), loop)


@pytest.mark.parametrize("two_j", [*range(1, 13), 33, 100])
def test_qubit_bands_rebuild_the_dense_gate(two_j):
    # the gate conserves total M: its four bands hold every nonzero entry, with the bits
    # of gate_matrix, whose columns come from the same apply
    i = np.arange(two_j + 1)
    gates = [heisenberg_unitary(two_j, 1, theta) for theta in (0.0, 1.0, math.pi, 5.0)]
    for gate in gates + [HeisenbergGate(two_j=two_j, two_k=1, theta=1.0, angle=2.3)]:
        d0, d1, up, lo = gate.qubit_bands()
        dense = np.zeros((gate.dim_total, gate.dim_total), dtype=complex)
        dense[2 * i, 2 * i] = d0
        dense[2 * i + 1, 2 * i + 1] = d1
        dense[2 * i[1:], 2 * i[1:] - 1] = up[1:]
        dense[2 * i[:-1] + 1, 2 * i[:-1] + 2] = lo[:-1]
        assert up[0] == 0 and lo[-1] == 0
        assert np.array_equal(dense, gate_matrix(gate))


def test_qubit_bands_need_a_qubit_target():
    with pytest.raises(ValueError, match="two_k=2"):
        heisenberg_unitary(4, 2, 1.0).qubit_bands()


@pytest.mark.parametrize("two_j", [*range(61), 128, 400])
def test_qubit_sectors_slice_the_coupling_sectors(two_j):
    # the qubit gate's sectors, sliced off the two pair tables, hold the sector loop's entries
    sectors = heisenberg._coupling_sectors(two_j, 1)
    stretched, two_ts, g = heisenberg._qubit_sectors(two_j)
    for sliced, sector in zip(stretched, (sectors[0], sectors[-1])):
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(sliced, sector))
    if two_j == 0:
        assert len(sectors) == 2 and two_ts is None and g is None
        return
    assert g.shape == (2, 2, two_j)
    for i, (idx, sector_ts, sector_g) in enumerate(sectors[1:-1]):
        assert np.array_equal(idx, [2 * i + 1, 2 * i + 2])
        assert np.array_equal(sector_ts, two_ts)
        assert np.array_equal(sector_g, g[:, :, i])


@pytest.mark.parametrize("two_j", [0, 1, 2, 3, 7, 20, 64, 101])
def test_coupling_sectors_read_off_the_pair_tables_equal_the_racah_loop(two_j):
    for two_k in (1, 2, 3, 4):
        got = heisenberg._coupling_sectors(two_j, two_k)
        want = coupling_sectors_by_racah(two_j, two_k)
        assert len(got) == len(want)
        for sector, oracle in zip(got, want):
            assert all(np.array_equal(a, b) for a, b in zip(sector, oracle))


@pytest.mark.parametrize("two_k", [1, 2])
def test_apply_rejects_wrong_vector_length(two_k):
    gate = heisenberg_unitary(4, two_k, 1.0)
    for shape in ((gate.dim_total - 1,), (gate.dim_total + 1,), (gate.dim_total + 2,),
                  (3, gate.dim_total + 1), ()):
        with pytest.raises(ValueError, match=f"dim_total={gate.dim_total}"):
            gate.apply(np.zeros(shape, dtype=complex))


def test_gate_qubit_pair_diagonal_on_total_spin_blocks():
    # two spin-1/2 particles: the gate is diagonal in the singlet/triplet basis
    u = gate_matrix(heisenberg_unitary(1, 1, 2.4))
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    blocks = np.vstack([coupled_basis_vectors(1, 1, 2), singlet[None, :]])
    in_coupled = blocks @ u @ blocks.T
    off = in_coupled - np.diag(np.diag(in_coupled))
    assert np.max(np.abs(off)) < 1e-12
    phases = np.diag(in_coupled)
    assert np.allclose(np.abs(phases), 1.0, atol=1e-12)
    assert np.allclose(phases[:3], phases[0], atol=1e-12)  # triplet degenerate


def test_gate_matches_matrix_exponential():
    two_j = 3
    theta = 1.9
    jp = spins.spin_operators(two_j)
    coupling = sum(np.kron(a, 2.0 * b) for a, b in zip(jp, spins.spin_operators(1)))
    oracle = expm(-1j * f_angle(two_j, theta) * coupling / (two_j + 1))
    assert np.max(np.abs(gate_matrix(heisenberg_unitary(two_j, 1, theta)) - oracle)) < 1e-10


def test_gate_block_structure():
    # U = e^{ih} [e^{-if} P_+ + P_-] on the two total-spin blocks
    two_j, theta = 5, 2.3
    f = f_angle(two_j, theta)
    u = gate_matrix(heisenberg_unitary(two_j, 1, theta))
    pp = coupled_basis_vectors(two_j, 1, two_j + 1)
    pm = coupled_basis_vectors(two_j, 1, two_j - 1)
    proj_p = pp.T @ pp
    proj_m = pm.T @ pm
    target = np.exp(-1j * f) * proj_p + proj_m
    phase = np.trace(u.conj().T @ target) / u.shape[0]
    phase /= abs(phase)
    assert np.max(np.abs(u * phase - target)) < 1e-9


def test_gate_three_term_expansion_j5():
    # action on the aligned probe and half of an entangled pair, against the
    # three-term closed-form coefficients
    two_j, theta = 10, math.pi
    j = two_j / 2
    f = f_angle(two_j, theta)
    gate = heisenberg_unitary(two_j, 1, theta)
    dp = spins.dim(two_j)
    vec = np.zeros((2, dp * 2), dtype=complex)  # reference index leading
    for r in range(2):
        v = np.zeros((dp, 2), dtype=complex)
        v[0, r] = 1.0 / math.sqrt(2.0)
        vec[r] = v.reshape(-1)
    out = gate.apply(vec).reshape(2, dp, 2).transpose(1, 2, 0)  # (probe, target, ref)
    e = np.exp(-1j * f)
    expected = np.zeros_like(out)
    expected[0, 0, 0] = e / math.sqrt(2.0)
    expected[0, 1, 1] = (1.0 + (e - 1.0) / (2 * j + 1)) / math.sqrt(2.0)
    expected[1, 0, 1] = math.sqrt(j) * (e - 1.0) / (2 * j + 1)
    phase = np.vdot(out.reshape(-1), expected.reshape(-1))
    phase /= abs(phase)
    assert np.max(np.abs(out * phase - expected)) < 1e-9


def test_closed_form_fidelity_values():
    assert entanglement_fidelity_given_m(7, 7, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert entanglement_fidelity_given_m(3, 3, math.pi) == pytest.approx(0.5625, abs=1e-12)
    a0, a1, a2 = heisenberg._coefficients(4, math.sin(math.pi), math.cos(math.pi), math.pi / 2)
    assert a0 + 2 * a1 + 4 * a2 < 0.64 - 1e-6  # m = j = 2 at the angle pi / 2, not f(pi)


@pytest.mark.parametrize("two_j", list(range(1, 41)))
def test_closed_form_equals_case1_optimum(two_j):
    for theta in np.linspace(0.0, 2 * math.pi, 50, endpoint=False):
        fh = entanglement_fidelity_given_m(two_j, two_j, float(theta))
        f1 = case1_entanglement_fidelity(two_j, two_j, float(theta))
        assert abs(fh - f1) < 1e-12


def test_f_maximizes_closed_form():
    for two_j in (1, 4, 15):
        for theta in (0.7, 2.0, 2.9, 4.5):
            f = f_angle(two_j, theta)
            eps = 1e-5

            def fidelity(angle, m=two_j / 2):
                a0, a1, a2 = heisenberg._coefficients(two_j, math.sin(theta), math.cos(theta),
                                                      angle)
                return a0 + a1 * m + a2 * m * m
            deriv = (fidelity(f + eps) - fidelity(f - eps)) / (2 * eps)
            assert abs(deriv) < 1e-6


def test_interaction_time():
    assert interaction_time(4, 0.0, 1.0) == 0.0
    assert interaction_time(4, 1.2, 2.0) == pytest.approx(interaction_time(4, 1.2, 1.0) / 2)
    assert interaction_time(20, math.pi, 1.0, hbar=1.0) == pytest.approx(math.pi / 21, abs=1e-12)
    with pytest.raises(ValueError):
        interaction_time(4, 1.0, 0.0)


@pytest.mark.parametrize("name", ["coupling_alpha", "hbar"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_interaction_time_names_a_bad_coupling_or_hbar(name, value):
    # at the parent: nan for a NaN coupling, a bare ZeroDivisionError at hbar = 0,
    # -0.170 at hbar = -1, and an unnamed "coupling constant" message
    args = {"coupling_alpha": 1.0, "hbar": 1.0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got"):
        interaction_time(4, 1.0, **args)


def test_worst_case_approaches_one_at_small_theta():
    val, _ = worst_case_fidelity(8, 1e-4)
    assert val > 1.0 - 1e-6


def test_worst_case_leading_order_and_argmin():
    for two_j in (20, 100, 400):
        val, arg = worst_case_fidelity(two_j, math.pi)
        j = two_j / 2
        assert abs((1.0 - val) - 2.0 / j) < 0.15 * (2.0 / j)
        assert arg == pytest.approx(math.pi, abs=1e-3)


def test_worst_case_below_average():
    for two_j, theta in ((4, 2.0), (10, math.pi)):
        val, _ = worst_case_fidelity(two_j, theta)
        from spinlearn.heisenberg import heisenberg_average_fidelity

        assert val <= heisenberg_average_fidelity(two_j, theta) + 1e-12


def test_per_input_fidelity_rotation_invariant(rng):
    # rotate the axis by g: probe U_g|j,j>, input state V_g psi and target
    # V_g R_z(theta) V_g^dag (V_g psi), with psi at the same angles from the axis; the
    # value at azimuth 0.3 is the library's, which takes azimuth 0
    two_j, theta, polar, azimuth = 6, 2.2, 0.9, 0.3
    gate = heisenberg_unitary(two_j, 1, theta)
    psi0 = np.array([math.cos(polar / 2), np.exp(1j * azimuth) * math.sin(polar / 2)])
    v_theta = np.diag(np.exp(-0.5j * theta * np.array([1.0, -1.0])))
    for _ in range(5):
        g = haar_quaternions(rng, 1)
        probe = spins.rotated_basis_states_batch(two_j, g, two_j)[0]
        vg = su2_from_quaternion(g[0])
        psi = vg @ psi0
        target = vg @ v_theta @ vg.conj().T @ psi
        out = gate.apply(np.kron(probe, psi)).reshape(-1, 2)
        rotated = float(np.sum(np.abs(out @ target.conj()) ** 2))
        assert per_input_fidelity(two_j, theta, polar) == pytest.approx(rotated, abs=1e-10)


@pytest.mark.parametrize("name", ["polar"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_per_input_fidelity_names_a_non_finite_angle(name, value):
    # unchecked, a nan returned nan and an infinite polar angle raised a bare
    # "math domain error"
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        per_input_fidelity(4, 1.3, **{name: value})


@pytest.mark.parametrize("two_j", [1, 2, 3, 8, 21])
def test_per_input_fidelity_independent_of_azimuth(two_j):
    # the library takes azimuth 0; the point oracle puts the target state at any azimuth
    for theta in (0.3, 1.0, math.pi / 2, math.pi, 4.4):
        for polar in (0.0, 0.4, math.pi / 2, 2.5, math.pi):
            ref = per_input_fidelity(two_j, theta, polar)
            for azimuth in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)[1:]:
                got = per_input_fidelity_by_point(two_j, theta, polar, azimuth)
                assert abs(got - ref) <= 1e-9


_BATCH_THETAS = (0.01, 1.0, math.pi / 2, 2.5, math.pi)


@pytest.mark.parametrize("two_j", [0, 1, 2, 3, 4, 8, 20, 50, 100, 400])
def test_batched_per_input_fidelity_keeps_each_point_bits(two_j):
    # one apply on 60 target states gives each state's own one-vector value, bit for bit
    polars = np.linspace(0.0, math.pi, 60)
    for theta in _BATCH_THETAS:
        got = per_input_fidelity(two_j, theta, polars)
        assert got.shape == polars.shape
        assert got.tolist() == [per_input_fidelity_by_point(two_j, theta, p) for p in polars]
    value = per_input_fidelity(two_j, 1.0, np.float64(0.7))
    assert type(value) is float and value == per_input_fidelity_by_point(two_j, 1.0, 0.7)
    assert per_input_fidelity(two_j, 1.0, polars.reshape(6, 10)).shape == (6, 10)


@pytest.mark.parametrize("two_j", [0, 1, 2, 3, 4, 8, 20, 50, 100, 400])
def test_worst_case_fidelity_equals_the_per_point_search(two_j):
    for theta in _BATCH_THETAS:
        assert worst_case_fidelity(two_j, theta) == worst_case_by_point(two_j, theta)


def test_one_non_finite_polar_in_a_batch_is_named():
    with pytest.raises(ValueError, match="^polar must be finite, got nan$"):
        per_input_fidelity(4, 1.3, [0.2, math.nan, 0.4])


@pytest.mark.parametrize("two_j,fidelity", [(20, 0.9136113514209018), (100, 0.9805881875275371),
                                            (400, 0.995037313240676)])
def test_worst_case_fidelity_values_are_unchanged(two_j, fidelity):
    # the search alone fixes the result: bit for bit what it gave with the azimuth assertion
    assert worst_case_fidelity(two_j, math.pi / 2) == (fidelity, 3.1415926324845254)


@pytest.mark.parametrize("two_j", [20, 100, 400])
def test_worst_case_fidelity_equals_benchmark_reference(two_j):
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "reference.json")
    with open(path) as fh:
        ref = json.load(fh)
    key = f"heisenberg.worst_case_fidelity.2j{two_j}"
    assert worst_case_fidelity(two_j, math.pi / 2) == (ref[f"{key}/worst_fidelity"],
                                                       ref[f"{key}/polar"])


def test_asymptotic_average_error_rate():
    two_j = 2000
    for theta in (math.pi, math.pi / 2):
        favg = optimal.optimal_average_fidelity(two_j, theta)
        rate = (two_j / 2) * (1 - favg) / (1 - math.cos(theta))
        assert abs(rate - 1.0 / 3.0) < 0.05 / 3.0


def test_spin_k_exact_trivials():
    assert spin_k_fidelity(8, 2, 0.0, "exact") == pytest.approx(1.0, abs=1e-12)
    # the Clebsch-Gordan weights carry rounding: the identity gate is clipped at 1
    assert spin_k_fidelity(400, 2, 0.0, "exact") == 1.0
    with pytest.raises(ValueError):
        spin_k_fidelity(8, 0, 1.0)
    with pytest.raises(ValueError):
        spin_k_fidelity(8, 2, 1.0, mode="bogus")


@pytest.mark.parametrize("two_k", [0, -2])
def test_spin_zero_or_negative_target_rejected(two_k):
    # the asymptotes returned 0.9425 and 0.8468 at two_k = -2
    for call in (lambda: spin_k_fidelity(4, two_k, 1.0, "asymptotic"),
                 lambda: spin_k_worst_case_asymptotic(4, two_k, 1.0),
                 lambda: spin_k_mo_asymptote(4, two_k, 1.0)):
        with pytest.raises(spins.InvalidQuantumNumbersError, match=r"two_k >= 1"):
            call()


def test_spin_zero_memory_has_no_asymptote():
    # the leading-order forms divide by j; the exact form is defined at j = 0
    with pytest.raises(spins.InvalidQuantumNumbersError, match="two_j=0"):
        spin_k_fidelity(0, 2, 1.0, "asymptotic")
    with pytest.raises(spins.InvalidQuantumNumbersError, match="two_j=0"):
        spin_k_worst_case_asymptotic(0, 2, 1.0)
    assert 0.0 <= spin_k_fidelity(0, 2, 1.0, "exact") <= 1.0


@pytest.mark.parametrize("call", [
    lambda: spin_k_fidelity(-4, 3, 2.0, "exact"),
    lambda: spin_k_entanglement_fidelity_exact(-2, 2, 1.0),
], ids=["spin_k_fidelity", "entanglement_fidelity_exact"])
def test_negative_memory_spin_is_named(call):
    # at the parent these returned 0.2 and 0.0
    with pytest.raises(spins.InvalidQuantumNumbersError, match="^two_j must"):
        call()


@pytest.mark.parametrize("call", [
    lambda: spin_k_fidelity(4, 1.5, 1.0, "exact"),
    lambda: spin_k_fidelity(4, 1.5, 1.0, "asymptotic"),
    lambda: mo.spin_k_mo_quadrature(4, 1.5, 1.0),
    lambda: spin_k_mo_asymptote(4, 1.5, 1.0),
    lambda: mo.spin_k_mo_fidelity(4, 1.5, 1.0, 10, 0),
], ids=["exact", "asymptotic", "mo_quadrature", "mo_asymptote", "mo_fidelity"])
def test_non_integer_target_is_named(call):
    # at the parent the exact form named two_j and the others returned 0.8563, 0.8346,
    # 0.7127 and an estimate
    with pytest.raises(spins.InvalidQuantumNumbersError, match="^two_k must be an integer"):
        call()


@pytest.mark.parametrize("two_k", [0, -1])
def test_spin_k_exact_sum_names_a_bad_target(two_k):
    # at the parent 2k = 0 returned 0.9999999999999987 and 2k = -1 raised an error
    # naming two_j
    with pytest.raises(spins.InvalidQuantumNumbersError, match="two_k"):
        spin_k_entanglement_fidelity_exact(2, two_k, 1.0)


@pytest.mark.parametrize("two_j, two_k, name", [
    (-4, 2, "^two_j must be a non-negative integer"),
    (2.5, 2, "^two_j must be a non-negative integer"),
    (4, -1, r"^target must be at least a qubit \(two_k >= 1\)"),
    (4, 0, r"^target must be at least a qubit \(two_k >= 1\)"),
])
def test_gate_names_a_bad_spin_when_built(two_j, two_k, name):
    # at the parent each call returned a gate, and the first apply raised "two_j must
    # be a non-negative integer, got -1" whichever spin was bad
    with pytest.raises(spins.InvalidQuantumNumbersError, match=name):
        heisenberg_unitary(two_j, two_k, 1.0)


def test_a_bool_spin_builds_the_int_spin_gate():
    # check_two_j accepts True; the gate kept it, and the qubit gate's row buffers raised a
    # bare "TypeError: an integer is required" from np.empty
    gate = heisenberg_unitary(True, 1, 1.0)
    assert type(gate.two_j) is int and gate.two_j == 1
    assert gate == heisenberg_unitary(1, 1, 1.0)
    assert worst_case_fidelity(True, 1.0) == worst_case_fidelity(1, 1.0)


@pytest.mark.parametrize("two_k", [2, 3, 4])
def test_spin_k_fidelity_is_symmetric_about_pi(two_k):
    # 2 pi - theta is the inverse of the rotation by theta, up to a phase, and the gate
    # learns a rotation and its inverse equally well; at the parent the gate's angle was
    # theta itself, and spin_k_fidelity(8, 2, 5.983) read 0.9158 against 0.9907 at
    # 2 pi - 5.983
    for two_j in (1, 2, 3, 8, 40):
        for theta in np.linspace(0.0, 2.0 * math.pi, 37):
            gap = (spin_k_fidelity(two_j, two_k, float(theta))
                   - spin_k_fidelity(two_j, two_k, 2.0 * math.pi - float(theta)))
            assert abs(gap) < 1e-14


@pytest.mark.parametrize("two_k,theta,target", [(2, math.pi, 1.0), (3, math.pi / 2, 2.0)])
def test_spin_k_exact_asymptotic_rate(two_k, theta, target):
    two_j = 400
    f = spin_k_fidelity(two_j, two_k, theta, "exact")
    rate = (two_j / 2) * (1 - f) / (1 - math.cos(theta))
    assert abs(rate - target) < 0.1 * target


def test_spin_k_asymptotic_mode_formula():
    assert spin_k_fidelity(400, 2, math.pi, "asymptotic") == pytest.approx(1 - 3 * 2 / (3 * 200))
    assert spin_k_worst_case_asymptotic(400, 2, math.pi) == pytest.approx(1 - (2 + 0.25) * 2 / 200)
    assert spin_k_worst_case_asymptotic(400, 4, math.pi) == pytest.approx(1 - 6 * 2 / 200)
    with pytest.raises(ValueError):
        spin_k_worst_case_asymptotic(400, 3, math.pi)


@pytest.mark.parametrize("theta", [0.0, 1.3, math.pi, 4.0])
@pytest.mark.parametrize("two_j,two_k", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (4, 2), (7, 5)])
def test_spin_k_qubit_consistency(two_j, two_k, theta):
    # the diagonal-amplitude sum against the applied gate's learning channel
    # (at 2k = 1 the gate's angle is f(theta), not theta)
    fe = spin_k_entanglement_fidelity_exact(two_j, two_k, theta)
    ch = gate_channel(heisenberg_unitary(two_j, two_k, theta))
    probe = np.zeros(spins.dim(two_j), dtype=complex)
    probe[0] = 1.0
    v = np.diag(np.exp(-1j * theta * spins.m_values(two_k)))
    from spinlearn.channels import entanglement_fidelity

    assert fe == pytest.approx(entanglement_fidelity(ch, probe, v).value, abs=1e-11)
    assert spin_k_fidelity(two_j, two_k, theta) <= 1.0


@pytest.mark.parametrize("call", [
    lambda: heisenberg.spin_k_entanglement_fidelity_exact(4, 2, math.nan),
    lambda: heisenberg.entanglement_fidelity_coefficients(4, math.nan),
    lambda: heisenberg.heisenberg_average_fidelity(4, math.inf),
    lambda: heisenberg.f_angle(4, math.nan),
    lambda: heisenberg.heisenberg_unitary(4, 2, -math.inf),
    lambda: heisenberg.spin_k_fidelity(4, 2, math.nan, "exact"),
    lambda: heisenberg.spin_k_fidelity(4, 2, math.nan, "asymptotic"),
    lambda: heisenberg.spin_k_worst_case_asymptotic(4, 2, math.inf),
    lambda: heisenberg.worst_case_fidelity(4, math.nan),
], ids=["entanglement_nan", "coefficients_nan", "average_inf", "f_angle_nan", "unitary_inf",
        "spin_k_exact_nan", "spin_k_asymptotic_nan", "spin_k_worst_inf", "worst_case_nan"])
def test_non_finite_theta_is_named(call):
    # at the parent these returned nan (worst case: (nan, 0.049)) or raised a
    # bare "math domain error"
    with pytest.raises(ValueError, match="^theta must be finite"):
        call()
