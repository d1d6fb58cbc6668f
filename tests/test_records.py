"""The five records: construction, repr, immutability and identity.

Every record compares and hashes by identity; its fields are compared
through ``_values()``.
"""

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

VO_SPEC = dict(even={"e": 1}, odd={"e": -1}, zero_mode={"e": 1})
VO_FAMILY = dict(
    name="r2", table=PairingTable({("e", "e"): 2}), specs=(("gamma1", VOSpec.constant({"e": 1})),)
)

ALL_RECORDS = [
    (GordonData, GORDON), (VanishingSpec, VANISHING), (PairFunction, PAIR),
    (VOSpec, VO_SPEC), (VOFamily, VO_FAMILY),
]
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


@pytest.mark.parametrize("cls, fields", ALL_RECORDS, ids=IDS)
def test_records_compare_and_hash_by_identity(cls, fields):
    a, b = cls(**fields), cls(**fields)
    assert a._values() == b._values() == tuple(fields.values())
    assert a != b and not a == b
    assert a == a and not a != a
    assert len({a, b, a}) == 2


def test_constant_spec_copies_its_vector():
    vec = {"e": 1}
    spec = VOSpec.constant(vec)
    vec["e"] = 5
    assert spec.even == spec.odd == spec.zero_mode == {"e": 1}
    assert spec.even is not spec.odd
