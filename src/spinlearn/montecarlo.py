"""Monte-Carlo average-fidelity oracle for every learning strategy.

Each strategy is simulated as an explicit physical process (unitary plus
partial trace, or measurement plus conditional operation) on Haar-random
training rotations and Fubini-Study-random target states.  The
measure-and-operate strategy applies a unitary given its sampled outcome, so
each of its samples is scored by the exact state average (2 F_e + 1)/3 of
``mo.mo_fidelity_samples`` and draws no target state.  No closed-form
fidelity enters anywhere, so these estimates independently validate the
analytic results.  Every sampler streams: each block of ``channels._blocks``
draws its own random inputs, is scored, and is folded into the running
estimate (``FidelityEstimate.from_blocks``), so its memory is O(block) and
nothing n-long is ever built.  A qubit-target gate's samples are scored
from its four bands (``HeisenbergGate.qubit_bands``) and the probe's real Wigner-d
column (``spins.wigner_d_omega_columns``): no joint vector, O(j) each.  The other
samplers act on joint vectors omega^i r_i (x) psi from the same column (the global phase
e^(i phi) of U_g|j,m> drops out of every score), a Kraus family's operators as one matrix
in _TILE-row BLAS calls; none takes Euler angles.
Three samplers run every strategy: the Heisenberg gate, MO and the Kraus families (the
discrete xyz channel, the case-1 channel ``optimal.case_choi_channel`` reads off the gate
at f_m, and ``optimal.unot_mixture_channel``, whose universal NOT is integrated exactly).
The tests' covariance probe (``oracles.per_rotation_fidelity``) drives the samplers' ``q_g``.
"""

from __future__ import annotations

import math

from . import heisenberg, memory, mo, optimal, rotations, spins
from ._numpy import np
from .channels import FidelityEstimate, KrausChannel, _blocks
from .strategies import (
    CaseChoiStrategy,
    DiscreteXYZ,
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
        # V = cos(theta/2) - i sin(theta/2) n.sigma = [[a, b], [-conj(b), conj(a)]], n = R_g z
        nx, ny, nz = np.moveaxis(rotations.z_axis(q_g), -1, 0)
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        a, b = c - 1j * s * nz, -s * ny - 1j * s * nx
        up, down = psi.T
        return np.stack([a * up + b * down, a.conj() * down - b.conj() * up], axis=1)
    # U_g R_z(theta) U_g^-1 = Omega d(beta) R_z(theta) d(beta)^T Omega^-1, Omega = diag(omega^i):
    # the gamma factor commutes with R_z and drops out, and d(beta) is real
    two_k = psi.shape[1] - 1
    omega, cos_half, sin_half = rotations._alpha_phase_and_moduli(q_g)
    d = spins.rotation_y_irrep(two_k, 2.0 * np.arctan2(sin_half, cos_half)).real
    ramp = omega[:, None] ** np.arange(two_k + 1)
    rotated = np.einsum("nji,nj->ni", d, ramp.conj() * psi)
    rotated *= np.exp(-1j * theta * spins.m_values(two_k))
    return ramp * np.einsum("nij,nj->ni", d, rotated)


def _conditional_fidelity_channel_output(out: np.ndarray, target: np.ndarray) -> np.ndarray:
    """sum_m |<target| out[m]>|^2 for outputs indexed by a traced register."""
    return np.sum(np.abs(np.einsum("nmi,ni->nm", out, target.conj())) ** 2, axis=1)


_TILE = 64  # rows per BLAS call of the band scores: gemm rounds a row by its place in the call
_JOINT_FLOATS = 16  # float64s of scratch per joint amplitude: probe, joint, outputs, overlaps


def _draws(rng: np.random.Generator, n: int, q_g: np.ndarray | None, dk: int,
           row_floats: int, tile: int = 1):
    """Per block of ``channels._blocks(n, row_floats, tile)``: the block's training
    rotations (Haar draws, or the one quaternion ``q_g`` broadcast) and then its
    Fubini-Study target states on dk levels, drawn when the block is reached."""
    for rows in _blocks(n, row_floats, tile):
        size = rows.stop - rows.start
        q = (rotations.haar_quaternions(rng, size) if q_g is None
             else np.broadcast_to(q_g, (size, 4)))
        yield q, sample_pure_states(rng, size, dk)


def _channel_samples(two_j: int, two_m, q_g: np.ndarray, psi: np.ndarray, theta: float,
                     channel=None, tables=None) -> np.ndarray:
    """Per-sample fidelity, for one block, of ``channel`` (joint vectors (rows, dp*dk) ->
    outputs (rows, r, dk)) on U_g|j,m> (x) psi against V_(theta,g) psi, or of the
    qubit-target gate with the given ``_band_tables`` (scored from the bands, no joint
    vector); ``two_m`` is a scalar or per sample.  Every row is scored on its own, and
    band rows in whole _TILE-row tiles, so a split of the rows into blocks of whole tiles
    (none a lone row) leaves every score bit-identical."""
    target = _target_states(q_g, theta, psi)
    omega, column = spins.wigner_d_omega_columns(two_j, q_g, two_m)
    if tables is not None:
        return _band_scores(tables, column, omega, psi, target)
    probe = column * omega[:, None] ** np.arange(column.shape[1])  # e^(i phi) drops out of |.|^2
    joint = np.einsum("np,nk->npk", probe, psi).reshape(len(probe), -1)
    return _conditional_fidelity_channel_output(channel(joint), target)


def _kraus_outputs(channel: KrausChannel, joint: np.ndarray) -> np.ndarray:
    """(rows, r, dim_out) outputs of the r Kraus operators on the joint vectors: one
    (dim_in, r dim_out) matrix on zero-padded _TILE-row tiles, so every BLAS call has one size."""
    rows, width = joint.shape
    tiles = np.zeros((rows + -rows % _TILE, width), dtype=complex)
    tiles[:rows] = joint
    out = tiles.reshape(-1, _TILE, width) @ np.concatenate(channel.kraus).T
    return out.reshape(-1, len(channel.kraus), channel.dim_out)[:rows]


# output row i of the gate reads the probe column at i + shift through the bands d0, d1, up, lo
_BAND_SHIFTS = (0, 0, -1, 1)


def _band_tables(bands) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per lag delta = 0, 1, 2 of the column products r_k r_(k+delta): the band
    pairs (a, b), a <= b, with |shift_a - shift_b| = delta, and the real (d, 2 pairs)
    table of w_ab conj(band_a[i]) band_b[i] at k = i + min(shift_a, shift_b), as
    (Re, -Im) column pairs (w_ab = 1 for a = b, else 2); rows k >= d - delta are 0."""
    d = len(bands[0])
    i = np.arange(d)
    tables = []
    for delta in range(min(3, d)):
        pairs = [(a, b) for a in range(4) for b in range(a, 4)
                 if abs(_BAND_SHIFTS[a] - _BAND_SHIFTS[b]) == delta]
        table = np.zeros((d, len(pairs)), dtype=complex)
        for col, (a, b) in enumerate(pairs):
            k = i + min(_BAND_SHIFTS[a], _BAND_SHIFTS[b])
            ok = (k >= 0) & (k + delta < d)
            table[k[ok], col] = (1 + (a != b)) * bands[a][ok].conj() * bands[b][ok]
        tables.append((*np.array(pairs).T, table.conj().view(float)))  # (Re, -Im) pairs
    return tables


def _band_scores(tables, column: np.ndarray, omega: np.ndarray, psi: np.ndarray,
                 target: np.ndarray) -> np.ndarray:
    """sum_i |<target| (G (probe (x) psi))_i>|^2 for the gate G of ``_band_tables`` and
    probe index i = e^(i phi) omega^i column[i]: c^dag M c with c = (t0 s0, t1 s1,
    t0 s1 conj(omega), t1 s0 omega), t = conj(target), s = psi, M = sum_delta
    (column_k column_(k+delta)) K_delta, each product on zero-padded _TILE-row tiles."""
    (t0, t1), (s0, s1) = target.conj().T, psi.T
    c = np.stack([t0 * s0, t1 * s1, t0 * s1 * omega.conj(), t1 * s0 * omega], axis=1)
    rows, d = column.shape
    flat = column.reshape(-1)
    lagged = np.empty((rows + -rows % _TILE) * d)
    score = np.zeros(rows)
    for delta, (first, second, table) in enumerate(tables):
        # r_k r_(k+delta) along the flattened rows; where that crosses a row, the table is 0
        np.multiply(flat[:flat.size - delta], flat[delta:], out=lagged[:flat.size - delta])
        lagged[flat.size - delta:] = 0.0
        mu = (lagged.reshape(-1, _TILE, d) @ table).reshape(-1, table.shape[1])[:rows]
        pair = np.multiply(c[:, first].conj(), c[:, second], order="C")
        score += np.einsum("ij,ij->i", pair.view(float), mu)  # sum of Re(pair mu)
    return score


def _heisenberg_samples(strategy: HeisenbergStrategy, theta: float,
                        rng: np.random.Generator, n: int,
                        thermal_gamma: float | None = None,
                        q_g: np.ndarray | None = None):
    two_j, two_k = strategy.two_j, strategy.two_k
    dp, dk = spins.dim(two_j), spins.dim(two_k)
    gate = heisenberg.heisenberg_unitary(two_j, two_k, theta)
    if two_k == 1:  # whole tiles; a band row holds 2 dp reals, ~32 complex scalars
        channel, tables = None, _band_tables(gate.qubit_bands())
        draws = _draws(rng, n, q_g, dk, 2 * dp + 64, _TILE)
    else:
        channel, tables = (lambda joint: gate.apply(joint).reshape(len(joint), dp, dk)), None
        draws = _draws(rng, n, q_g, dk, _JOINT_FLOATS * dp * dk)
    weights = (None if thermal_gamma is None
               else memory.thermal_state(two_j, thermal_gamma).weights)
    for q, psi in draws:
        two_m = (two_j if weights is None
                 else spins.two_m_values(two_j)[rng.choice(dp, size=len(q), p=weights)])
        yield _channel_samples(two_j, two_m, q, psi, theta, channel, tables)


def _kraus_samples(channel: KrausChannel, two_j: int, two_m: int, theta: float,
                   rng: np.random.Generator, n: int, q_g: np.ndarray | None = None):
    """Generic measure/operate action of a Kraus channel on U_g|j,m> (x) psi."""
    for q, psi in _draws(rng, n, q_g, 2, _JOINT_FLOATS * spins.dim(two_j) * 2):
        yield _channel_samples(two_j, two_m, q, psi, theta,
                               lambda joint: _kraus_outputs(channel, joint))


def _strategy_samples(strategy: StrategyDescriptor, theta: float,
                      rng: np.random.Generator, n: int, q_g: np.ndarray | None = None):
    """The per-block sample arrays of ``strategy``'s sampler, an iterator that draws each
    block when it is reached; ``q_g`` is one fixed training rotation or None for Haar."""
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
        return _kraus_samples(optimal.case_choi_channel(strategy), strategy.two_j,
                              strategy.two_m, theta, rng, n, q_g=q_g)
    if isinstance(strategy, DiscreteXYZ):
        return _kraus_samples(optimal.discrete_xyz_channel(), 2, 0, theta, rng, n, q_g=q_g)
    if isinstance(strategy, UNotMixture):
        return _kraus_samples(optimal.unot_mixture_channel(strategy.alpha, theta), 1, 1, theta,
                              rng, n, q_g=q_g)
    if isinstance(strategy, MOStrategy):
        # the conditional operation is unitary: its exact state average is (2 F_e + 1)/3
        fe = mo.mo_fidelity_samples(strategy.two_j, strategy.two_m, strategy.xi_two_n, theta,
                                    strategy.theta_prime, 1, rng, n, q_g=q_g)
        return ((2.0 * block + 1.0) / 3.0 for block in fe)
    raise TypeError(f"unknown strategy {strategy!r}")


def mc_average_fidelity(strategy: StrategyDescriptor, theta: float, n_samples: int,
                        seed) -> FidelityEstimate:
    """Monte-Carlo estimate of the Haar- and state-averaged gate fidelity.

    ``seed`` may be an integer or a numpy SeedSequence; the samples are drawn
    from its first spawned child, so a fixed seed is exactly reproducible.
    """
    spins._check_count("n_samples", n_samples, 1)
    spins._check_theta(theta)
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.default_rng(seq.spawn(1)[0])
    return FidelityEstimate.from_blocks(_strategy_samples(strategy, theta, rng, n_samples))

