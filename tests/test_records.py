"""The package's frozen records (``spinlearn._record``): equality, hashing, immutability,
repr, construction, validation and copying, for each of the 17 record classes."""

import copy
import pickle

import numpy as np
import pytest

from spinlearn.channels import FidelityEstimate, KrausChannel
from spinlearn.heisenberg import HeisenbergGate
from spinlearn.memory import MemoryDistribution, PersistenceReport, SignedWeights
from spinlearn.mo import MOParams
from spinlearn.optimal import CovariantChoiParams, RegimeReport
from spinlearn.spins import CouplingCoeffs
from spinlearn.strategies import (CaseChoiStrategy, DiscreteXYZ, ExactTarget,
                                  HeisenbergStrategy, MOStrategy, StrategyDescriptor,
                                  ThermalWrapped, UNotMixture)

W3 = np.array([0.5, 0.25, 0.25])
W5 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])

# class, field names in order, a value for each, and other values (None: the class has no
# fields, so every instance is equal)
RECORDS = [
    (ExactTarget, ("two_k",), (1,), (3,)),
    (HeisenbergStrategy, ("two_j", "two_k", "f_override"), (4, 1, None), (4, 1, 0.5)),
    (CaseChoiStrategy, ("case", "two_j", "two_m", "theta"), (1, 4, 4, 1.0), (1, 4, 2, 1.0)),
    (MOStrategy, ("two_j", "two_m", "xi_two_n", "theta_prime"), (4, 4, 0, 0.5), (4, 4, 2, 0.5)),
    (UNotMixture, ("alpha",), (1.0,), (0.5,)),
    (DiscreteXYZ, (), (), None),
    (ThermalWrapped, ("inner", "gamma"), (HeisenbergStrategy(4), 0.5),
     (HeisenbergStrategy(4), 0.7)),
    (FidelityEstimate, ("value", "std_error", "n_samples"), (0.9, 0.01, 100), (0.9, 0.02, 100)),
    (KrausChannel, ("kraus", "dim_in", "dim_out"), (("k0", "k1"), 2, 2), (("k0",), 2, 2)),
    (HeisenbergGate, ("two_j", "two_k", "theta", "angle"), (4, 1, 1.0, 0.5), (4, 1, 1.0, 0.6)),
    (SignedWeights, ("two_j", "weights"), (2, W3), (4, W5)),
    (MemoryDistribution, ("two_j", "weights"), (2, W3), (4, W5)),
    (PersistenceReport, ("steps", "asymptote", "capped"), (10, 9.5, False), (10, 9.5, True)),
    (MOParams, ("two_m", "xi_two_n", "theta_prime"), (4, 0, 0.5), (4, 2, 0.5)),
    (CovariantChoiParams, ("alpha", "beta", "m_matrix"), (0.5, None, ((1, 0), (0, 1))),
     (0.5, 0.1, ((1, 0), (0, 1)))),
    (RegimeReport, ("problem", "regime", "optimal_two_m", "fidelity", "strategy"),
     (2, "case1", 4, 0.9, HeisenbergStrategy(4)), (2, "case1", 4, 0.91, HeisenbergStrategy(4))),
    (CouplingCoeffs, ("a", "b", "c_plus", "c_minus"), (1j, 0j, 0.5 + 0j, 0.5 - 0j),
     (1j, 0j, 0.5 + 0j, -0.5 + 0j)),
]
IDS = [r[0].__name__ for r in RECORDS]
HOLDS_AN_ARRAY = (SignedWeights, MemoryDistribution)
REQUIRED = [r[:2] for r in RECORDS if r[0] not in (ExactTarget, DiscreteXYZ)]  # no default


def test_every_record_class_is_listed():
    assert len(RECORDS) == 17
    assert set(StrategyDescriptor) <= {r[0] for r in RECORDS}


@pytest.mark.parametrize("cls,fields,values,other", RECORDS, ids=IDS)
def test_equality_and_hash(cls, fields, values, other):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    if other is not None:
        assert a != cls(*other) and not a == cls(*other)
    assert a != tuple(values)  # a record equals only a record of its own class
    if cls in HOLDS_AN_ARRAY:  # like a tuple holding an array: unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) and len({a, b}) == 1


def test_records_of_different_classes_are_never_equal():
    assert UNotMixture(1.0) != ExactTarget(1)
    assert SignedWeights(2, W3) != MemoryDistribution(2, W3)
    assert MemoryDistribution(2, W3) != SignedWeights(2, W3)


@pytest.mark.parametrize("cls,fields,values,other", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, values, other):
    record = cls(*values)
    for name in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    for name, value in zip(fields, values):
        assert getattr(record, name) is value


@pytest.mark.parametrize("cls,fields,values,other", RECORDS, ids=IDS)
def test_repr_shows_the_fields(cls, fields, values, other):
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(cls(*values)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls,fields,values,other", RECORDS, ids=IDS)
def test_positional_and_keyword_construction(cls, fields, values, other):
    positional = cls(*values)
    assert repr(cls(**dict(zip(fields, values)))) == repr(positional)
    if fields:
        assert repr(cls(*values[:1], **dict(zip(fields[1:], values[1:])))) == repr(positional)
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*values, bogus=1)
    with pytest.raises(TypeError, match="positional argument"):
        cls(*values, 0)
    if fields:
        with pytest.raises(TypeError, match="multiple values"):
            cls(*values, **{fields[0]: values[0]})


@pytest.mark.parametrize("cls,fields", REQUIRED, ids=[r[0].__name__ for r in REQUIRED])
def test_missing_arguments_are_named(cls, fields):
    with pytest.raises(TypeError, match=f"missing .*'{fields[0]}'"):
        cls()


def test_defaults():
    assert ExactTarget() == ExactTarget(1)
    assert HeisenbergStrategy(6) == HeisenbergStrategy(6, 1, None)
    assert HeisenbergStrategy(6, f_override=0.3) == HeisenbergStrategy(6, 1, 0.3)
    assert FidelityEstimate(0.25) == FidelityEstimate(0.25, 0.0, 0)
    assert FidelityEstimate(0.25, n_samples=7) == FidelityEstimate(0.25, 0.0, 7)


def test_post_init_validation_still_fires():
    for bad in (1.5, -0.1):
        with pytest.raises(ValueError, match="outside"):
            FidelityEstimate(bad)
    with pytest.raises(ValueError, match="std_error"):
        FidelityEstimate(0.5, std_error=-1.0)
    for cls in HOLDS_AN_ARRAY:  # MemoryDistribution inherits the check
        with pytest.raises(ValueError, match="wrong length"):
            cls(2, np.zeros(2))
        with pytest.raises(ValueError, match="wrong length"):
            cls(two_j=4, weights=W3)


@pytest.mark.parametrize("cls,fields,values,other", RECORDS, ids=IDS)
def test_copy_and_pickle_round_trip(cls, fields, values, other):
    record = cls(*values)
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))):
        assert type(twin) is cls and twin is not record
        assert repr(twin) == repr(record)
        if cls not in HOLDS_AN_ARRAY:
            assert twin == record and hash(twin) == hash(record)
        with pytest.raises(AttributeError):
            setattr(twin, fields[0] if fields else "x", 0)
