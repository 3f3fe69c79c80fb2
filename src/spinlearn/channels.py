"""Quantum states and channels: Choi operators, Kraus channels, fidelities.

Choi operators follow the trace-preservation convention Tr_out[C] = I_in
(total trace = dim_in).  The index layout is (input (x) output): the matrix
element C[(i,a),(j,b)] equals <a| N(|i><j|) |b> for a channel N.

Spectra (the CP check, the Kraus form) are plain Hermitian
eigendecompositions: the library forms only small Choi matrices (the
universal NOT's is 8 x 8), and the covariant case channels of ``optimal``
read their Kraus operators off the coupled families instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-10
CHOI_POSITIVITY_TOL = 1e-9
TRACE_PRESERVATION_TOL = 1e-9


def is_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def min_eigenvalue(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (a + a.conj().T))[0])


def is_positive_semidefinite(a: np.ndarray, tol: float = POSITIVITY_TOL) -> bool:
    return is_hermitian(a, tol) and min_eigenvalue(a) >= -tol


@dataclass(frozen=True)
class FidelityEstimate:
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
    def from_samples(cls, samples: np.ndarray) -> "FidelityEstimate":
        """Sample mean (clipped at 1) with the standard error of the mean,
        sqrt(sum (f - mean)^2 / (n - 1) / n); a single sample has zero error."""
        n = len(samples)
        if n < 1:
            raise ValueError("n_samples must be positive")
        mean = float(np.mean(samples))
        m2 = float(np.sum((samples - mean) ** 2))
        std = math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0
        return cls(value=min(mean, 1.0), std_error=std, n_samples=n)

    def n_sigma(self, reference: float) -> float:
        """|value - reference| in units of the standard error."""
        if self.std_error == 0.0:
            return 0.0 if self.value == reference else float("inf")
        return abs(self.value - reference) / self.std_error


# float64s of scratch per block of Monte-Carlo samples, cache-sized (1 << 20 ran 1.4x slower);
# every sampler sizes its blocks from this one budget, so its memory is O(block) whatever n is
_BLOCK_FLOATS = 1 << 18


def _blocks(n: int, row_floats: int, tile: int = 1) -> list[slice]:
    """Slices of n samples, about _BLOCK_FLOATS // row_floats rows each rounded up to whole
    tiles; no block has a lone row unless n = 1: einsum rounds a one-row batch differently."""
    step = max(2, -(-_BLOCK_FLOATS // row_floats // tile) * tile)
    edges = [*range(0, max(n - 1, 1), step), n]
    return [slice(start, stop) for start, stop in zip(edges, edges[1:])]


def maximally_entangled(d: int) -> np.ndarray:
    """Canonical |Phi+> = sum_i |i,i> / sqrt(d) on a d x d bipartite space."""
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v


@dataclass(frozen=True)
class ChoiOperator:
    """Choi matrix of a channel with Tr_out[C] = I_in."""

    matrix: np.ndarray
    dim_in: int
    dim_out: int

    def __post_init__(self):
        expected = self.dim_in * self.dim_out
        if self.matrix.shape != (expected, expected):
            raise ValueError("Choi matrix shape inconsistent with dims")

    def reshaped(self) -> np.ndarray:
        return self.matrix.reshape(self.dim_in, self.dim_out, self.dim_in, self.dim_out)

    def trace_out_output(self) -> np.ndarray:
        return np.einsum("iaja->ij", self.reshaped())

    def is_completely_positive(self, tol: float = CHOI_POSITIVITY_TOL) -> bool:
        return is_positive_semidefinite(self.matrix, tol)

    def is_trace_preserving(self, tol: float = TRACE_PRESERVATION_TOL) -> bool:
        return bool(np.max(np.abs(self.trace_out_output() - np.eye(self.dim_in))) <= tol)

    def validate(self, cp_tol: float = CHOI_POSITIVITY_TOL,
                 tp_tol: float = TRACE_PRESERVATION_TOL) -> None:
        lam = min_eigenvalue(self.matrix)
        if not (is_hermitian(self.matrix, cp_tol) and lam >= -cp_tol):
            raise ValueError(f"Choi operator not CP (min eig {lam:.3e})")
        if not self.is_trace_preserving(tp_tol):
            resid = np.max(np.abs(self.trace_out_output() - np.eye(self.dim_in)))
            raise ValueError(f"Choi operator not TP (residual {resid:.3e})")


def choi_from_kraus(kraus, dim_in: int, dim_out: int) -> ChoiOperator:
    vecs = np.stack(kraus).transpose(0, 2, 1).reshape(len(kraus), -1)  # (i, a) = K[a, i]
    return ChoiOperator(matrix=vecs.T @ vecs.conj(), dim_in=dim_in, dim_out=dim_out)


def kraus_from_choi(choi: ChoiOperator, tol: float = 1e-12) -> list[np.ndarray]:
    """Kraus operators from the Choi eigendecomposition (Stinespring form)."""
    vals, vecs = np.linalg.eigh(0.5 * (choi.matrix + choi.matrix.conj().T))
    ops = []
    for lam, v in zip(vals, vecs.T):
        if lam > tol:
            ops.append(np.sqrt(lam) * v.reshape(choi.dim_in, choi.dim_out).T)
    return ops


@dataclass(frozen=True)
class KrausChannel:
    """A channel given by an explicit Kraus decomposition."""

    kraus: tuple
    dim_in: int
    dim_out: int

    @classmethod
    def from_unitary_with_trace(cls, unitary: np.ndarray, dim_keep: int) -> "KrausChannel":
        """Stinespring channel: apply ``unitary`` then trace out the leading factor.

        The input space factors as (traced (x) kept) with the kept factor of
        dimension ``dim_keep`` last.
        """
        total = unitary.shape[0]
        d_tr = total // dim_keep
        u = unitary.reshape(d_tr, dim_keep, total)
        return cls(kraus=tuple(u[i] for i in range(d_tr)), dim_in=total, dim_out=dim_keep)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros((self.dim_out, self.dim_out), dtype=complex)
        for k in self.kraus:
            out += k @ rho @ k.conj().T
        return out

    def to_choi(self) -> ChoiOperator:
        return choi_from_kraus(self.kraus, self.dim_in, self.dim_out)


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
