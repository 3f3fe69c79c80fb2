"""Descriptors naming the concrete learning strategies built elsewhere.

These are inert records that say *which* strategy realizes a fidelity:
``montecarlo.mc_average_fidelity`` samples each of the six, and ``verify``
builds the strategies of its checks from them.  ``CaseChoiStrategy``
names the case-1 covariant channel at probe index m, which
``optimal.case_choi_channel`` builds from the Heisenberg gate; its ``case`` must be 1.
"""

from __future__ import annotations

from ._record import Record, record


@record
class HeisenbergStrategy(Record):
    two_j: int
    two_k: int = 1


@record
class CaseChoiStrategy(Record):
    case: int
    two_j: int
    two_m: int
    theta: float


@record
class MOStrategy(Record):
    two_j: int
    two_m: int
    xi_two_n: int
    theta_prime: float


@record
class UNotMixture(Record):
    alpha: float


@record
class DiscreteXYZ(Record):
    pass


@record
class ThermalWrapped(Record):
    inner: "StrategyDescriptor"
    gamma: float


# The strategy classes, for isinstance checks and annotations (a plain tuple: no typing import)
StrategyDescriptor = (HeisenbergStrategy, CaseChoiStrategy, MOStrategy, UNotMixture,
                      DiscreteXYZ, ThermalWrapped)
