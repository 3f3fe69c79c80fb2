"""Kraus channels, fidelities and the block rule of the Monte-Carlo samplers.

A channel is the record ``KrausChannel`` of its Kraus operators, each a
(dim_out, dim_in) matrix; the library builds them directly (the case-1 channel
of ``optimal`` reads its own off the Heisenberg gate) and never forms
a Choi matrix.  ``FidelityEstimate`` is the one Monte-Carlo estimator, fed
block by block, and ``_blocks`` the one rule by which every sampler splits its
samples.
"""

from __future__ import annotations

import math

from ._numpy import np
from ._record import Record, record


@record
class FidelityEstimate(Record):
    """A fidelity value with Monte-Carlo error bars; n_samples == 0 is exact."""

    value: float
    std_error: float = 0.0
    n_samples: int = 0

    def __post_init__(self):
        if not -1e-9 <= self.value <= 1.0 + 1e-9:
            raise ValueError(f"fidelity {self.value} outside [0, 1]")
        if self.std_error < 0.0:
            raise ValueError("std_error must be non-negative")

    @classmethod
    def exact(cls, value: float) -> "FidelityEstimate":
        return cls(value=float(value), std_error=0.0, n_samples=0)

    @classmethod
    def from_blocks(cls, blocks) -> "FidelityEstimate":
        """Sample mean (clipped at 1) with the standard error of the mean,
        sqrt(M2 / (n - 1) / n), M2 = sum (f - mean)^2, from samples given block by block:
        each block's (count, mean, M2) is folded into the running one by the pairwise
        update of Chan, Golub & LeVeque (1979), so no block outlives its turn; a single
        sample has zero error."""
        n, mean, m2 = 0, 0.0, 0.0
        for block in blocks:
            k = len(block)
            if k == 0:
                continue
            block_mean = float(np.mean(block))
            delta, total = block_mean - mean, n + k
            mean += delta * (k / total)  # exactly block_mean for the first block
            m2 += float(np.sum((block - block_mean) ** 2)) + delta * delta * (n * k / total)
            n = total
        if n < 1:
            raise ValueError("n_samples must be positive")
        std = math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0
        return cls(value=min(mean, 1.0), std_error=std, n_samples=n)

    def n_sigma(self, reference: float) -> float:
        """|value - reference| in units of the standard error."""
        if self.std_error == 0.0:
            return 0.0 if self.value == reference else float("inf")
        return abs(self.value - reference) / self.std_error


# float64s of scratch per block of Monte-Carlo samples, cache-sized (1 << 20 ran 1.4x slower);
# every sampler draws, scores and folds one block at a time, sized from this one budget, so
# its memory is O(block) whatever n is
_BLOCK_FLOATS = 1 << 18


def _blocks(n: int, row_floats: int, tile: int = 1) -> list[slice]:
    """Slices of n samples, about _BLOCK_FLOATS // row_floats rows each rounded up to whole
    tiles; no block has a lone row unless n = 1: einsum rounds a one-row batch differently."""
    step = max(2, -(-_BLOCK_FLOATS // row_floats // tile) * tile)
    # glibc returns a freed heap top to the OS once it exceeds twice the largest mmapped
    # chunk freed so far, so each block's freed scratch was faulted back in by the next
    # (30k page faults, +50 % time for 2e4 samples at 2j = 400); freeing one untouched
    # budget-sized chunk first lifts that bar above a block's scratch
    np.empty(_BLOCK_FLOATS)
    edges = [*range(0, max(n - 1, 1), step), n]
    return [slice(start, stop) for start, stop in zip(edges, edges[1:])]


def maximally_entangled(d: int) -> np.ndarray:
    """Canonical |Phi+> = sum_i |i,i> / sqrt(d) on a d x d bipartite space."""
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v


@record
class KrausChannel(Record):
    """A channel given by an explicit Kraus decomposition, (dim_out, dim_in) operators."""

    kraus: tuple
    dim_in: int
    dim_out: int


def average_from_entanglement(fe: float, target_dim: int) -> float:
    """Average gate fidelity (d*fe + 1)/(d + 1) from the entanglement fidelity."""
    return (target_dim * fe + 1.0) / (target_dim + 1.0)


def entanglement_from_average(favg: float, target_dim: int) -> float:
    return ((target_dim + 1.0) * favg - 1.0) / target_dim


def entanglement_fidelity(channel: KrausChannel, probe_state: np.ndarray,
                          target_unitary: np.ndarray) -> FidelityEstimate:
    """Exact entanglement fidelity of ``channel`` against ``target_unitary``.

    The channel maps (probe (x) target) to target; the target slot is fed
    half of a canonical maximally entangled pair and the output is compared
    with the gate acting on that half.
    """
    d_t = target_unitary.shape[0]
    d_p = channel.dim_in // d_t
    if channel.dim_in != d_p * d_t or channel.dim_out != d_t:
        raise ValueError("channel dimensions inconsistent with probe/target split")
    if probe_state.shape != (d_p,):
        raise ValueError("probe state has wrong dimension")
    phi = maximally_entangled(d_t)
    psi_in = np.einsum("p,tr->ptr", probe_state, phi.reshape(d_t, d_t)).reshape(-1)
    phi_v = (np.kron(target_unitary, np.eye(d_t)) @ phi)
    fe = 0.0
    psi_mat = psi_in.reshape(d_p * d_t, d_t)
    for k in channel.kraus:
        out = k @ psi_mat  # (d_t, d_t_ref)
        fe += abs(np.vdot(phi_v, out.reshape(-1))) ** 2
    return FidelityEstimate.exact(min(fe, 1.0))
