"""The five records: construction, repr, immutability, equality and hashing.

GordonData, VanishingSpec and PairFunction compare and hash by value;
VOSpec and VOFamily compare and hash by identity.
"""

import pickle
from fractions import Fraction

import pytest

from admissible.fermionic import GordonData
from admissible.polyspaces import VanishingSpec
from admissible.vertexops import PairFunction, PairingTable, VOFamily, VOSpec

GORDON = dict(
    matrix=((2, 2), (2, 4)), boundary=(0, 1), q_step=1, z_weights=(1, 2),
    extra_q_weights=(0, 0),
)
VANISHING = dict(family_sizes=(3, 2), conditions=(((1, 0, 0), (0, 1, 0)),), degree_cap=6)
PAIR = dict(z_power=Fraction(1, 2), coeffs=(Fraction(1), Fraction(-2)), closed_form=(2, 0))

VALUE_RECORDS = [(GordonData, GORDON), (VanishingSpec, VANISHING), (PairFunction, PAIR)]


def _identity_records():
    table = PairingTable({("e", "e"): 2})
    spec = VOSpec.constant({"e": 1})
    return [
        (VOSpec, dict(even={"e": 1}, odd={"e": -1}, zero_mode={"e": 1})),
        (VOFamily, dict(name="r2", table=table, specs=(("gamma1", spec),))),
    ]


ALL_RECORDS = VALUE_RECORDS + _identity_records()
IDS = [cls.__name__ for cls, _ in ALL_RECORDS]


@pytest.mark.parametrize("cls, fields", ALL_RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields):
    by_name = cls(**fields)
    by_position = cls(*fields.values())
    for name, value in fields.items():
        assert getattr(by_name, name) == value
        assert getattr(by_position, name) == value


@pytest.mark.parametrize("cls, fields", ALL_RECORDS, ids=IDS)
def test_repr_lists_every_field(cls, fields):
    inner = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({inner})"


@pytest.mark.parametrize("cls, fields", ALL_RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value
    with pytest.raises(AttributeError):
        record.other = 1


@pytest.mark.parametrize("cls, fields", ALL_RECORDS, ids=IDS)
def test_missing_and_unknown_fields_raise_type_error(cls, fields):
    first = next(iter(fields))
    with pytest.raises(TypeError):
        cls(**{name: v for name, v in fields.items() if name != first})
    with pytest.raises(TypeError):
        cls(**fields, other=1)
    with pytest.raises(TypeError):
        cls(*fields.values(), 1)


@pytest.mark.parametrize("cls, fields", VALUE_RECORDS, ids=IDS[:3])
def test_equal_fields_give_equal_records_with_equal_hashes(cls, fields):
    a, b = cls(**fields), cls(**fields)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != tuple(fields.values())


# VOFamily is left out: its PairingTable compares by identity.
@pytest.mark.parametrize("cls, fields", ALL_RECORDS[:4], ids=IDS[:4])
def test_pickle_round_trip_keeps_the_fields(cls, fields):
    copy = pickle.loads(pickle.dumps(cls(**fields)))
    assert type(copy) is cls
    assert all(getattr(copy, name) == value for name, value in fields.items())


def test_value_records_differ_when_one_field_differs():
    base = GordonData(**GORDON)
    assert base != GordonData(**dict(GORDON, q_step=2))
    assert VanishingSpec(**VANISHING) != VanishingSpec(**dict(VANISHING, degree_cap=5))
    assert PairFunction(**PAIR) != PairFunction(**dict(PAIR, closed_form=None))
    assert len({base, GordonData(**dict(GORDON, boundary=(0, 0)))}) == 2


def test_identity_records_compare_by_identity():
    vec = {"e": 1}
    a, b = VOSpec.constant(vec), VOSpec.constant(vec)
    assert a.even == b.even and a.odd == b.odd and a.zero_mode == b.zero_mode
    assert a != b and a == a
    assert len({a, b, a}) == 2  # each is hashable, by identity
    table = PairingTable({("e", "e"): 2})
    f, g = VOFamily("r2", table, ()), VOFamily("r2", table, ())
    assert f != g and f == f
    assert len({f, g}) == 2


def test_constant_spec_copies_its_vector():
    vec = {"e": 1}
    spec = VOSpec.constant(vec)
    vec["e"] = 5
    assert spec.even == spec.odd == spec.zero_mode == {"e": 1}
    assert spec.even is not spec.odd
