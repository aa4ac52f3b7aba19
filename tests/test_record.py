"""Value semantics of the immutable records (circpeaks.record.Record).

Each of the nine record classes must compare equal only to an instance of
its own class with equal fields, hash like the tuple of its fields, print
as Name(field=value, ...), refuse assignment and deletion, and survive
pickle and copy.deepcopy.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from circpeaks.complex_poset import FaceTable
from circpeaks.exact_algebra import ExactPoly
from circpeaks.hilbert_algebras import GradedDimensions, RationalSeriesForm
from circpeaks.hvector import HVector
from circpeaks.peak_sets import DyckPrefix, PeakSet
from circpeaks.perm_core import Permutation
from circpeaks.record import Record
from circpeaks.verify import CheckResult

# (factory, field values after construction, expected repr)
CASES = {
    "ExactPoly": (
        lambda: ExactPoly((1, 2, 0)),
        ((Fraction(1), Fraction(2)),),
        "ExactPoly(coeffs=(Fraction(1, 1), Fraction(2, 1)))",
    ),
    "Permutation": (
        lambda: Permutation((2, 3, 1)),
        ((2, 3, 1),),
        "Permutation(values=(2, 3, 1))",
    ),
    "PeakSet": (
        lambda: PeakSet(7, (5, 3)),
        (7, (3, 5)),
        "PeakSet(n=7, elements=(3, 5))",
    ),
    "DyckPrefix": (
        lambda: DyckPrefix("UUD"),
        ("UUD",),
        "DyckPrefix(letters='UUD')",
    ),
    "FaceTable": (
        lambda: FaceTable(n=5, f=(1, 3, 2)),
        (5, (1, 3, 2)),
        "FaceTable(n=5, f=(1, 3, 2))",
    ),
    "HVector": (
        lambda: HVector(5, (1, 1, 0)),
        (5, (1, 1, 0)),
        "HVector(n=5, h=(1, 1, 0))",
    ),
    "GradedDimensions": (
        lambda: GradedDimensions(5, "A", (1, 6, 15)),
        (5, "A", (1, 6, 15)),
        "GradedDimensions(n=5, algebra='A', dims=(1, 6, 15))",
    ),
    "RationalSeriesForm": (
        lambda: RationalSeriesForm(ExactPoly((1, 1)), 3),
        (ExactPoly((1, 1)), 3),
        "RationalSeriesForm(numerator=ExactPoly(coeffs=(Fraction(1, 1), "
        "Fraction(1, 1))), denominator_exponent=3)",
    ),
    "CheckResult": (
        lambda: CheckResult("perm", "cp-classes-partition", True, "ok"),
        ("perm", "cp-classes-partition", True, "ok"),
        "CheckResult(suite='perm', name='cp-classes-partition', ok=True, detail='ok')",
    ),
}
NAMES = sorted(CASES)


def test_every_record_class_is_covered():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    assert sorted(c.__name__ for c in subclasses(Record)
                  if c.__module__.startswith("circpeaks.")) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_equality_hash_and_repr(name):
    make, values, text = CASES[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a == b and not a != b
    assert a is not b
    assert hash(a) == hash(b) == hash(values)
    assert repr(a) == text
    assert tuple(getattr(a, f) for f in type(a).__slots__) == values


@pytest.mark.parametrize("name", NAMES)
def test_equal_only_to_the_same_class(name):
    make, values, _ = CASES[name]
    a = make()
    assert a != values
    assert values != a
    assert a != values[0]
    for other in NAMES:
        if other != name:
            assert a != CASES[other][0]()
    look_alike = type("LookAlike", (Record,), {"__slots__": type(a).__slots__})(*values)
    assert a != look_alike and look_alike != a


def test_field_differences_break_equality():
    assert FaceTable(5, (1, 3, 2)) != FaceTable(6, (1, 3, 2))
    assert FaceTable(5, (1, 3, 2)) != FaceTable(5, (1, 3, 3))
    assert FaceTable(5, (1, 3, 2)) != HVector(5, (1, 3, 2))
    assert CheckResult("a", "b", True, "d") != CheckResult("a", "b", False, "d")


@pytest.mark.parametrize("name", NAMES)
def test_fields_are_immutable(name):
    a = CASES[name][0]()
    field = type(a).__slots__[0]
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, before)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert getattr(a, field) == before
    assert not hasattr(a, "__dict__")


@pytest.mark.parametrize("name", NAMES)
def test_pickle_round_trip(name):
    a = CASES[name][0]()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        b = pickle.loads(pickle.dumps(a, protocol))
        assert type(b) is type(a)
        assert b == a and hash(b) == hash(a) and repr(b) == repr(a)
        with pytest.raises(AttributeError):
            setattr(b, type(b).__slots__[0], None)


@pytest.mark.parametrize("name", NAMES)
def test_copy_and_deepcopy(name):
    a = CASES[name][0]()
    for b in (copy.copy(a), copy.deepcopy(a)):
        assert type(b) is type(a)
        assert b == a and hash(b) == hash(a) and repr(b) == repr(a)
    nested = copy.deepcopy([a, {"k": a}])
    assert nested[0] == a and nested[1]["k"] == a


def test_constructor_binds_fields_like_keywords_and_positions():
    assert FaceTable(5, (1, 3, 2)) == FaceTable(n=5, f=(1, 3, 2)) == FaceTable(5, f=(1, 3, 2))
    with pytest.raises(TypeError):
        FaceTable(5)
    with pytest.raises(TypeError):
        FaceTable(5, (1,), 7)
    with pytest.raises(TypeError):
        FaceTable(5, n=5)
    with pytest.raises(TypeError):
        FaceTable(5, g=(1,))


def test_validating_constructors_still_validate():
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        PeakSet(3, (4,))
    with pytest.raises(ValueError):
        DyckPrefix("DU")
