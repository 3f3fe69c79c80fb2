"""Monte-Carlo average-fidelity oracle for every learning strategy.

Each strategy is simulated as an explicit physical process (unitary plus
partial trace, or measurement plus conditional operation) on Haar-random
training rotations and Fubini-Study-random target states.  The
measure-and-operate strategy applies a unitary given its sampled outcome, so
each of its samples is scored by the exact state average (2 F_e + 1)/3 of
``mo.mo_fidelity_samples`` and draws no target state.  No closed-form
fidelity enters anywhere, so these estimates independently validate the
analytic results.  The Heisenberg and Kraus samplers draw every random input
first and then run in fixed blocks of samples: their working memory is
O(block) whatever the sample count is.  A qubit-target gate's samples are scored
from its four bands (``HeisenbergGate.qubit_bands``): no joint vector, O(j) each.
"""

from __future__ import annotations

import math
import numpy as np

from . import heisenberg, memory, mo, optimal, rotations, spins
from .channels import FidelityEstimate
from .strategies import (
    CaseChoiStrategy,
    DiscreteXYZ,
    ExactTarget,
    HeisenbergStrategy,
    MOStrategy,
    StrategyDescriptor,
    ThermalWrapped,
    UNotMixture,
)


def sample_pure_states(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """(n, d) complex unit vectors, Fubini-Study uniform."""
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _target_states(q_g: np.ndarray, theta: float, psi: np.ndarray) -> np.ndarray:
    """V_(theta,g) |psi> for each sample, on a qubit or a spin-k target."""
    if psi.shape[1] == 2:
        v = rotations.su2_from_quaternion(rotations.conjugated_z_rotation(q_g, theta))
        return np.einsum("nij,nj->ni", v, psi)
    two_k = psi.shape[1] - 1
    u = spins.rotation_irrep_batch(two_k, q_g)
    vth = np.exp(-1j * theta * spins.m_values(two_k))
    rotated = np.einsum("nij,nj->ni", u.conj().transpose(0, 2, 1), psi)
    return np.einsum("nij,nj->ni", u, vth[None, :] * rotated)


def _conditional_fidelity_channel_output(out: np.ndarray, target: np.ndarray) -> np.ndarray:
    """sum_m |<target| out[m]>|^2 for outputs indexed by a traced register."""
    return np.sum(np.abs(np.einsum("nmi,ni->nm", out, target.conj())) ** 2, axis=1)


_CHUNK_ELEMENTS = 1 << 18  # dp*dk amplitudes per block, cache-sized (1 << 20 ran 1.4x slower)


def _channel_samples(two_j: int, two_m, q_g: np.ndarray, psi: np.ndarray, theta: float,
                     channel=None, bands=None) -> np.ndarray:
    """Per-sample fidelity of ``channel`` (joint vectors (rows, dp*dk) -> outputs
    (rows, r, dk)) on U_g|j,m> (x) psi against V_(theta,g) psi, or of the qubit-target
    gate with the given ``qubit_bands`` (scored from the bands, no joint vector);
    ``two_m`` is a scalar or per sample.  Runs in blocks of about
    _CHUNK_ELEMENTS // (dp*dk) rows, so the working memory is O(block) whatever n
    is, and the samples do not depend on the block size."""
    n, dk = psi.shape
    out = np.empty(n)
    step = max(2, _CHUNK_ELEMENTS // (spins.dim(two_j) * dk))
    # no block has a lone row unless n = 1: einsum rounds a one-row batch differently
    edges = [*range(0, max(n - 1, 1), step), n]
    for start, stop in zip(edges, edges[1:]):
        rows = slice(start, stop)
        probe = spins.rotated_basis_states_batch(
            two_j, q_g[rows], two_m if np.ndim(two_m) == 0 else two_m[rows])
        target = _target_states(q_g[rows], theta, psi[rows])
        if bands is None:
            joint = np.einsum("np,nk->npk", probe, psi[rows]).reshape(len(probe), -1)
            out[rows] = _conditional_fidelity_channel_output(channel(joint), target)
        else:
            out[rows] = _band_fidelities(bands, probe, psi[rows], target)
    return out


def _band_fidelities(bands, probe: np.ndarray, psi: np.ndarray, target: np.ndarray) -> np.ndarray:
    """sum_i |<target| (G (probe (x) psi))_i>|^2 from the ``qubit_bands`` of the gate G:
    output row i is (t0 s0 d0_i + t1 s1 d1_i) p_i + t0 s1 up_i p_(i-1) + t1 s0 lo_i p_(i+1),
    with t = conj(target), s = psi and p = probe."""
    d0, d1, up, lo = bands
    t0, t1 = target.conj().T[:, :, None]
    s0, s1 = psi.T[:, :, None]
    amp = (t0 * s0 * d0 + t1 * s1 * d1) * probe
    amp[:, 1:] += t0 * s1 * up[1:] * probe[:, :-1]
    amp[:, :-1] += t1 * s0 * lo[:-1] * probe[:, 1:]
    return np.sum(np.abs(amp) ** 2, axis=1)


def _heisenberg_samples(strategy: HeisenbergStrategy, theta: float,
                        rng: np.random.Generator, n: int,
                        thermal_gamma: float | None = None,
                        q_g: np.ndarray | None = None) -> np.ndarray:
    two_j, two_k = strategy.two_j, strategy.two_k
    dp, dk = spins.dim(two_j), spins.dim(two_k)
    gate = heisenberg.heisenberg_unitary(two_j, two_k, theta, strategy.f_override)
    if q_g is None:
        q_g = rotations.haar_quaternions(rng, n)
    psi = sample_pure_states(rng, n, dk)
    two_m = two_j
    if thermal_gamma is not None:
        weights = memory.thermal_state(two_j, thermal_gamma).weights
        two_m = spins.two_m_values(two_j)[rng.choice(dp, size=n, p=weights)]
    if two_k == 1:
        return _channel_samples(two_j, two_m, q_g, psi, theta, bands=gate.qubit_bands())
    return _channel_samples(two_j, two_m, q_g, psi, theta,
                            lambda joint: gate.apply(joint).reshape(len(joint), dp, dk))


def _kraus_samples(kraus: np.ndarray, two_j: int, two_m: int, theta: float,
                   rng: np.random.Generator, n: int,
                   q_g: np.ndarray | None = None) -> np.ndarray:
    """Generic measure/operate action from a stacked Kraus family."""
    if q_g is None:
        q_g = rotations.haar_quaternions(rng, n)
    psi = sample_pure_states(rng, n, 2)
    return _channel_samples(two_j, two_m, q_g, psi, theta,
                            lambda joint: np.einsum("rij,nj->nri", kraus, joint))


def _unot_mixture_samples(strategy: UNotMixture, theta: float,
                          rng: np.random.Generator, n: int,
                          q_g: np.ndarray | None = None) -> np.ndarray:
    alpha = strategy.alpha
    m_yes, m_no = optimal._unot_instrument(alpha)
    if q_g is None:
        q_g = rotations.haar_quaternions(rng, n)
    psi = sample_pure_states(rng, n, 2)
    probe = spins.rotated_basis_states_batch(1, q_g, 1)
    joint = np.einsum("np,nk->npk", probe, psi).reshape(n, 4)
    target = _target_states(q_g, theta, psi)
    gate = heisenberg.heisenberg_unitary(1, 1, theta)
    yes = gate.apply(joint @ m_yes.T).reshape(n, 2, 2)
    fid = _conditional_fidelity_channel_output(yes, target)

    if alpha > 0.0:
        # "no" branch: universal NOT evaluated by sampling its defining
        # coherent-state integral (uniform axis, density weight 3|<nn|.>|^2)
        z = joint @ m_no.T
        q_axis = rotations.haar_quaternions(rng, n)
        u_axis = rotations.su2_from_quaternion(q_axis)
        chi = u_axis[:, :, 0]       # U|0>, the random coherent axis state
        chi_flip = u_axis[:, :, 1]  # U|1>, the prepared flipped state
        pair = np.einsum("ni,nj->nij", chi, chi).reshape(n, 4)
        weight = 3.0 * np.abs(np.einsum("ni,ni->n", pair.conj(), z)) ** 2
        fid = fid + weight * np.abs(np.einsum("ni,ni->n", target.conj(), chi_flip)) ** 2
    return fid


def _exact_target_samples(strategy: ExactTarget, theta: float,
                          rng: np.random.Generator, n: int) -> np.ndarray:
    q_g = rotations.haar_quaternions(rng, n)
    psi = sample_pure_states(rng, n, spins.dim(strategy.two_k))
    out = _target_states(q_g, theta, psi)
    return np.abs(np.einsum("ni,ni->n", out, out.conj())) ** 2


def _strategy_samples(strategy: StrategyDescriptor, theta: float,
                      rng: np.random.Generator, n: int,
                      q_g: np.ndarray | None = None) -> np.ndarray:
    if isinstance(strategy, ExactTarget):
        return _exact_target_samples(strategy, theta, rng, n)
    if isinstance(strategy, HeisenbergStrategy):
        return _heisenberg_samples(strategy, theta, rng, n, q_g=q_g)
    if isinstance(strategy, ThermalWrapped):
        if not isinstance(strategy.inner, HeisenbergStrategy):
            raise ValueError("thermal wrapping is defined for the spin-spin gate strategy")
        return _heisenberg_samples(strategy.inner, theta, rng, n,
                                   thermal_gamma=strategy.gamma, q_g=q_g)
    if isinstance(strategy, CaseChoiStrategy):
        if abs((strategy.theta - theta) % (2 * math.pi)) > 1e-12:
            raise ValueError("strategy was built for a different angle")
        channel = optimal.case_choi_channel(strategy)
        kraus = np.stack(channel.kraus)
        return _kraus_samples(kraus, strategy.two_j, strategy.two_m, theta, rng, n, q_g=q_g)
    if isinstance(strategy, DiscreteXYZ):
        kraus = np.stack(optimal.discrete_xyz_channel().kraus)
        return _kraus_samples(kraus, 2, 0, theta, rng, n, q_g=q_g)
    if isinstance(strategy, MOStrategy):
        # the conditional operation is unitary: its exact state average is (2 F_e + 1)/3
        fe = mo.mo_fidelity_samples(strategy.two_j, strategy.two_m, strategy.xi_two_n, theta,
                                    strategy.theta_prime, 1, rng, n, q_g=q_g)
        return (2.0 * fe + 1.0) / 3.0
    if isinstance(strategy, UNotMixture):
        return _unot_mixture_samples(strategy, theta, rng, n, q_g=q_g)
    raise TypeError(f"unknown strategy {strategy!r}")


def mc_average_fidelity(strategy: StrategyDescriptor, theta: float, n_samples: int,
                        seed) -> FidelityEstimate:
    """Monte-Carlo estimate of the Haar- and state-averaged gate fidelity.

    ``seed`` may be an integer or a numpy SeedSequence; the samples are drawn
    from its first spawned child, so a fixed seed is exactly reproducible.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    spins._check_theta(theta)
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.default_rng(seq.spawn(1)[0])
    return FidelityEstimate.from_samples(_strategy_samples(strategy, theta, rng, n_samples))


def per_rotation_fidelity(strategy: StrategyDescriptor, theta: float, g_quaternion,
                          n_samples: int, seed) -> FidelityEstimate:
    """State-averaged fidelity at one fixed training rotation (covariance probe)."""
    spins._check_theta(theta)
    rng = np.random.default_rng(seed)
    q_g = np.broadcast_to(np.asarray(g_quaternion, dtype=float), (n_samples, 4)).copy()
    return FidelityEstimate.from_samples(_strategy_samples(strategy, theta, rng, n_samples,
                                                           q_g=q_g))
