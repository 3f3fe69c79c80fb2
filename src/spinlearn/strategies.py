"""Descriptors naming the concrete learning strategies built elsewhere.

These are inert records; the Monte-Carlo oracle and the regime dispatchers
use them to say *which* strategy realizes a fidelity.  ``CaseChoiStrategy``
names the case-1 covariant channel at probe index m, which
``optimal.case_choi_channel`` builds from the Heisenberg gate; its ``case`` must be 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class ExactTarget:
    """Oracle strategy that applies the target gate itself (fidelity 1)."""

    two_k: int = 1


@dataclass(frozen=True)
class HeisenbergStrategy:
    two_j: int
    two_k: int = 1
    f_override: float | None = None


@dataclass(frozen=True)
class CaseChoiStrategy:
    case: int
    two_j: int
    two_m: int
    theta: float


@dataclass(frozen=True)
class MOStrategy:
    two_j: int
    two_m: int
    xi_two_n: int
    theta_prime: float


@dataclass(frozen=True)
class UNotMixture:
    alpha: float


@dataclass(frozen=True)
class DiscreteXYZ:
    pass


@dataclass(frozen=True)
class ThermalWrapped:
    inner: "StrategyDescriptor"
    gamma: float


StrategyDescriptor = Union[
    ExactTarget,
    HeisenbergStrategy,
    CaseChoiStrategy,
    MOStrategy,
    UNotMixture,
    DiscreteXYZ,
    ThermalWrapped,
]
