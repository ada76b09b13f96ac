"""Value semantics of the package's records: equality, hashing, immutability
and repr, which the caches, the partitions and every context check rely on."""

import copy
import pickle
from fractions import Fraction

import pytest

from tateop.cli import Report
from tateop.domain import Ball
from tateop.matrix import OperatorMatrix, build_matrix
from tateop.padic import PrimeParams, Record, TatePoint
from tateop.spectral import SpectrumEntry, UnitCharacter, _conductor_of

from oracles import AngularCharacter, HeightProfile, ScalingDimension, ShellPartition, StepFunction

CTX = PrimeParams(3, 2)
C2 = PrimeParams(2, 1)
BALLS = ShellPartition.full(C2, 2).balls
PART = ShellPartition(C2, BALLS)
C2_BALLS = (
    "(Ball(ctx=PrimeParams(p=2, m=1), v=0, k=2, center=1),"
    " Ball(ctx=PrimeParams(p=2, m=1), v=0, k=2, center=3))"
)
# (class, positional arguments, the same record by keyword, field names, repr).
# The keyword form also exercises the normalization each record applies.
FROZEN = [
    (PrimeParams, (3, 2), {"p": 3, "m": 2}, ("p", "m"), "PrimeParams(p=3, m=2)"),
    (
        TatePoint,
        (Fraction(6, 5), CTX),
        {"value": 6 * Fraction(1, 5), "ctx": CTX, "v": 1},
        ("value", "ctx", "v"),
        "TatePoint(value=Fraction(6, 5), ctx=PrimeParams(p=3, m=2), v=1)",
    ),
    (
        Ball,
        (CTX, 1, 2, 13),
        {"ctx": CTX, "v": 1, "k": 2, "center": 4},
        ("ctx", "v", "k", "center"),
        "Ball(ctx=PrimeParams(p=3, m=2), v=1, k=2, center=4)",
    ),
    (
        ShellPartition,
        (C2, BALLS),
        {"ctx": C2, "balls": list(BALLS)},
        ("ctx", "balls"),
        f"ShellPartition(ctx=PrimeParams(p=2, m=1), balls={C2_BALLS})",
    ),
    (
        StepFunction,
        (PART, (3, 3)),
        {"partition": PART, "values": (Fraction(3), Fraction(3))},
        ("partition", "values"),
        f"StepFunction(partition=ShellPartition(ctx=PrimeParams(p=2, m=1), balls={C2_BALLS}),"
        " values=(Fraction(3, 1), Fraction(3, 1)))",
    ),
    (
        HeightProfile,
        (TatePoint(Fraction(3), C2),),
        {"base": TatePoint(Fraction(3), C2)},
        ("base",),
        "HeightProfile(base=TatePoint(value=Fraction(3, 1), ctx=PrimeParams(p=2, m=1), v=0))",
    ),
    (
        ScalingDimension,
        (0.75, 0.25, -1.5),
        {"delta_plus": 0.75, "delta_minus": 0.25, "mass_squared": -1.5},
        ("delta_plus", "delta_minus", "mass_squared"),
        "ScalingDimension(delta_plus=0.75, delta_minus=0.25, mass_squared=-1.5)",
    ),
    (
        UnitCharacter,
        (5, 2, 7),
        {"p": 5, "n": 2, "a": 27, "eps": 1},
        ("p", "n", "a", "eps"),
        "UnitCharacter(p=5, n=2, a=7, eps=0)",
    ),
    (
        AngularCharacter,
        (4, -1),
        {"m": 4, "l": 3},
        ("m", "l"),
        "AngularCharacter(m=4, l=3)",
    ),
    (
        SpectrumEntry,
        ("radial", 2, Fraction(6), 8),
        {"kind": "radial", "index": 2, "eigenvalue": Fraction(6), "multiplicity": 8},
        ("kind", "index", "eigenvalue", "multiplicity"),
        "SpectrumEntry(kind='radial', index=2, eigenvalue=Fraction(6, 1), multiplicity=8)",
    ),
]


@pytest.mark.parametrize("cls, args, kwargs, fields, text", FROZEN, ids=lambda c: getattr(c, "__name__", ""))
def test_frozen_record_semantics(cls, args, kwargs, fields, text):
    a, b = cls(*args), cls(**kwargs)
    assert a is not b
    assert a == b and not a != b
    values = tuple(getattr(a, f) for f in fields)
    assert values == tuple(getattr(b, f) for f in fields)
    try:
        expected = hash(values)
    except TypeError:
        # A list field makes the field tuple, and so the record, unhashable.
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected
    assert repr(a) == repr(b) == text

    other = type("Other", (cls,), {})(*args)
    assert a != other and other != a
    assert a != values and a.__eq__(values) is NotImplemented

    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == text and a == b

    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and repr(twin) == text


PURE_DATA = (HeightProfile, SpectrumEntry, OperatorMatrix)
MX = build_matrix(1, C2)
ARGUMENTS = [(cls, args, fields) for cls, args, _, fields, _ in FROZEN if cls in PURE_DATA]
ARGUMENTS.append((OperatorMatrix, tuple(getattr(MX, f) for f in MX._fields), MX._fields))


@pytest.mark.parametrize("cls, args, fields", ARGUMENTS, ids=lambda c: getattr(c, "__name__", ""))
def test_pure_data_records_refuse_bad_arguments(cls, args, fields):
    assert repr(cls(*args[:-1], **{fields[-1]: args[-1]})) == repr(cls(*args))
    with pytest.raises(TypeError):  # a missing field
        cls(*args[:-1])
    with pytest.raises(TypeError):  # an extra positional argument
        cls(*args, args[-1])
    with pytest.raises(TypeError):  # an unknown keyword
        cls(*args, extra=0)
    with pytest.raises(TypeError):  # a field given twice
        cls(*args, **{fields[0]: args[0]})


def test_every_record_writes_its_own_init():
    assert "__init__" not in vars(Record)
    records = [row[0] for row in FROZEN] + [OperatorMatrix]
    assert [cls for cls in records if "__init__" not in vars(cls)] == []


def test_operator_matrix_compares_by_identity():
    mx = build_matrix(1, C2)
    twin = OperatorMatrix(mx.ctx, mx.level, mx.units, mx.values, mx.index)
    assert mx == mx and mx != twin
    assert hash(mx) == object.__hash__(mx)
    assert repr(twin) == (
        "OperatorMatrix(ctx=PrimeParams(p=2, m=1),"
        " level=1, units=(1,),"
        " values=(Fraction(0, 1),), index=array([[0]], dtype=uint8))"
    )
    for name in ("ctx", "level", "units", "values", "index", "extra"):
        with pytest.raises(AttributeError):
            setattr(mx, name, 0)
        with pytest.raises(AttributeError):
            delattr(mx, name)
    # The float copy is built from the fields alone: a matrix keeps no other state.
    assert not hasattr(mx, "__dict__")
    for clone in (copy.copy(mx), pickle.loads(pickle.dumps(mx))):
        assert clone != mx and repr(clone) == repr(mx)
        assert clone.as_float().tolist() == mx.as_float().tolist()


def test_cli_report_is_a_plain_mutable_class():
    a = Report({"a": 1}, ("q",), [(1,)])
    assert not isinstance(a, Record)
    assert (a.data, a.columns, a.rows, a.raw_text) == ({"a": 1}, ("q",), [(1,)], None)
    with pytest.raises(AttributeError):
        a.extra = 0
    a.raw_text = "x"
    assert a.raw_text == "x"
    assert a.code == 0
    a.data["all_pass"] = False
    assert a.code == 1


def test_conductor_cache_hits_for_equal_characters():
    first, second = UnitCharacter(7, 3, 14), UnitCharacter(7, 3, 14)
    assert first is not second
    _conductor_of(first)
    before = _conductor_of.cache_info()
    assert _conductor_of(second) == _conductor_of(first) == 2
    after = _conductor_of.cache_info()
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)
