"""Value semantics of the package's records: equality, hashing, immutability
and repr, which the caches, the partitions and every context check rely on."""

import copy
import pickle
from fractions import Fraction

import pytest

from tateop.cli import Report
from tateop.domain import Ball
from tateop.matrix import MatrixReport, OperatorMatrix, build_matrix
from tateop.padic import PrimeParams, Record, TatePoint
from tateop.spectral import (
    AngularCharacter,
    SpectrumEntry,
    UnitCharacter,
    _conductor_of,
)

from oracles import HeightProfile, ScalingDimension, ShellPartition, StepFunction

CTX = PrimeParams(3, 2)
C2 = PrimeParams(2, 1)
BALLS = ShellPartition.full(C2, 2).balls
PART = ShellPartition(C2, BALLS)
C2_BALLS = (
    "(Ball(ctx=PrimeParams(p=2, m=1), v=0, k=2, center=1),"
    " Ball(ctx=PrimeParams(p=2, m=1), v=0, k=2, center=3))"
)
REPORT_FIELDS = (
    "eigenvalues",
    "dimension",
    "symmetric",
    "row_sums_zero",
    "min_eigenvalue",
    "positive_semidefinite",
    "kernel_dimension",
    "multiset_deviation",
    "spectrum_match",
    "eigenfunction_residual",
    "eigenfunctions_ok",
    "failures",
)
REPORT_ARGS = ([0.0], 1, True, True, 0.0, True, 1, 0.0, True, 0.0, True, ())

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
    (
        MatrixReport,
        REPORT_ARGS,
        dict(zip(REPORT_FIELDS, REPORT_ARGS)),
        REPORT_FIELDS,
        "MatrixReport(eigenvalues=[0.0], dimension=1, symmetric=True, row_sums_zero=True,"
        " min_eigenvalue=0.0, positive_semidefinite=True, kernel_dimension=1,"
        " multiset_deviation=0.0, spectrum_match=True, eigenfunction_residual=0.0,"
        " eigenfunctions_ok=True, failures=())",
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


PURE_DATA = (HeightProfile, SpectrumEntry, MatrixReport, OperatorMatrix)
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


def test_only_the_pure_data_records_take_the_base_init():
    records = [row[0] for row in FROZEN] + [OperatorMatrix]
    assert tuple(cls for cls in records if cls.__init__ is Record.__init__) == PURE_DATA


def test_operator_matrix_compares_by_identity():
    mx = build_matrix(1, C2)
    twin = OperatorMatrix(mx.ctx, mx.level, mx.basis, mx.values, mx.index)
    assert mx == mx and mx != twin
    assert hash(mx) == object.__hash__(mx)
    assert repr(twin) == (
        "OperatorMatrix(ctx=PrimeParams(p=2, m=1),"
        " level=1, basis=(Ball(ctx=PrimeParams(p=2, m=1), v=0, k=1, center=1),),"
        " values=(Fraction(0, 1),), index=array([[0]], dtype=uint8))"
    )
    for name in ("ctx", "level", "basis", "values", "index", "extra"):
        with pytest.raises(AttributeError):
            setattr(mx, name, 0)
        with pytest.raises(AttributeError):
            delattr(mx, name)
    # The float copy is built once per matrix and shared.
    assert mx.float_entries is mx.float_entries
    assert mx.float_entries is not twin.float_entries
    for clone in (copy.copy(mx), pickle.loads(pickle.dumps(mx))):
        assert clone != mx and repr(clone) == repr(mx)
        assert clone.float_entries.tolist() == mx.float_entries.tolist()


def test_cli_report_is_a_mutable_record():
    a = Report({"a": 1}, ("q",), [(1,)])
    b = Report(data={"a": 1}, columns=("q",), rows=[(1,)], raw_text=None)
    assert a == b
    assert repr(a) == "Report(data={'a': 1}, columns=('q',), rows=[(1,)], raw_text=None)"
    assert a != type("Other", (Report,), {})({"a": 1}, ("q",), [(1,)])
    with pytest.raises(TypeError):
        hash(a)
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    a.raw_text = "x"
    assert a.raw_text == "x" and a != b
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
