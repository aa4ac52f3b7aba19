"""Value semantics of the immutable records (circpeaks.record.Record).

Each of the six record classes must compare equal only to an instance of
its own class with equal fields, hash like the tuple of its fields, print
as Name(field=value, ...), refuse assignment and deletion, and survive
pickle and copy.deepcopy.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from circpeaks.exact_algebra import ExactPoly
from circpeaks.hilbert_algebras import RationalSeriesForm
from circpeaks.peak_sets import DyckPrefix, PeakSet
from circpeaks.perm_core import Permutation
from circpeaks.record import Record
from circpeaks.verify import CheckResult

# (factory, field values after construction, expected repr)
CASES = {
    "ExactPoly": (
        lambda: ExactPoly((1, 2, 0)),
        ((1, 2),),
        "ExactPoly(coeffs=(1, 2))",
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
    "RationalSeriesForm": (
        lambda: RationalSeriesForm(ExactPoly((1, 1)), 3),
        (ExactPoly((1, 1)), 3),
        "RationalSeriesForm(numerator=ExactPoly(coeffs=(1, 1)), denominator_exponent=3)",
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


def test_exact_poly_repr_keeps_a_non_integral_coefficient_a_fraction():
    p = ExactPoly((Fraction(1, 2), 3, Fraction(4, 2)))
    assert repr(p) == "ExactPoly(coeffs=(Fraction(1, 2), 3, 2))"
    assert p == ExactPoly((Fraction(1, 2), Fraction(3), 2)) and hash(p) == hash(((Fraction(1, 2), 3, 2),))


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
    assert PeakSet(5, (3,)) != PeakSet(6, (3,))
    assert PeakSet(5, (3,)) != PeakSet(5, (4,))
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
    p = ExactPoly((1, 1))
    assert RationalSeriesForm(p, 3) == RationalSeriesForm(numerator=p, denominator_exponent=3) \
        == RationalSeriesForm(p, denominator_exponent=3)
    with pytest.raises(TypeError):
        RationalSeriesForm(p)
    with pytest.raises(TypeError):
        RationalSeriesForm(p, 3, 7)
    with pytest.raises(TypeError):
        RationalSeriesForm(p, numerator=p)
    with pytest.raises(TypeError):
        RationalSeriesForm(p, g=3)


def test_validating_constructors_still_validate():
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        PeakSet(3, (4,))
    with pytest.raises(ValueError):
        DyckPrefix("DU")
