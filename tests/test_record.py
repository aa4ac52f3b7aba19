"""Value semantics of the immutable records (circpeaks.record.Record).

Each of the four record classes must compare equal only to an instance of
its own class with equal fields, hash like the tuple of its fields, print
as Name(field=value, ...), refuse assignment and deletion, and survive
pickle and copy.deepcopy. verify.CheckResult, a namedtuple, is held to the
same, except that it equals the plain tuple of its fields.
"""

import copy
import pickle
from collections import namedtuple
from fractions import Fraction

import pytest

from circpeaks import record
from circpeaks.exact_algebra import ExactPoly, NonIntegralError
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
    "CheckResult": (
        lambda: CheckResult("perm", "cp-classes-partition", True, "ok", 1, 10, 10),
        ("perm", "cp-classes-partition", True, "ok", 1, 10, 10),
        "CheckResult(suite='perm', name='cp-classes-partition', ok=True, detail='ok', "
        "first=1, last=10, cap=10)",
    ),
}
NAMES = sorted(CASES)


def _fields(cls):
    return getattr(cls, "_fields", None) or cls.__slots__


def test_every_record_class_is_covered():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    assert sorted(c.__name__ for c in subclasses(Record)
                  if c.__module__.startswith("circpeaks.")) == [n for n in NAMES if n != "CheckResult"]


@pytest.mark.parametrize("name", NAMES)
def test_equality_hash_and_repr(name):
    make, values, text = CASES[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a == b and not a != b
    assert a is not b
    assert hash(a) == hash(b) == hash(values)
    assert repr(a) == text
    assert tuple(getattr(a, f) for f in _fields(type(a))) == values


def test_exact_poly_repr_shows_int_coefficients():
    p = ExactPoly((Fraction(4, 2), 3, True))
    assert repr(p) == "ExactPoly(coeffs=(2, 3, 1))"
    assert p == ExactPoly((2, 3, 1)) and hash(p) == hash(((2, 3, 1),))
    with pytest.raises(NonIntegralError):
        ExactPoly((Fraction(1, 2), 3))


@pytest.mark.parametrize("name", NAMES)
def test_equal_only_to_the_same_class(name):
    make, values, _ = CASES[name]
    a = make()
    assert a != values[0]
    for other in NAMES:
        if other != name:
            assert a != CASES[other][0]()
    if isinstance(a, tuple):
        # a namedtuple compares as the plain tuple of its fields
        assert a == values and values == a
        assert a == namedtuple("LookAlike", _fields(type(a)))(*values)
        return
    assert a != values
    assert values != a
    look_alike = record._restore(type("LookAlike", (Record,), {"__slots__": type(a).__slots__}),
                                 values)
    assert a != look_alike and look_alike != a


def test_field_differences_break_equality():
    assert PeakSet(5, (3,)) != PeakSet(6, (3,))
    assert PeakSet(5, (3,)) != PeakSet(5, (4,))
    assert DyckPrefix("UD") != DyckPrefix("UU")
    result = CheckResult("a", "b", True, "d", 3, 8, None)
    assert result != CheckResult("a", "b", False, "d", 3, 8, None)
    assert result != CheckResult("a", "b", True, "d", 3, 9, None)
    assert result != CheckResult("a", "b", True, "d", None, None, None)
    assert result != CheckResult("a", "b", True, "d", 3, 8, 8)


@pytest.mark.parametrize("name", NAMES)
def test_fields_are_immutable(name):
    a = CASES[name][0]()
    field = _fields(type(a))[0]
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
            setattr(b, _fields(type(b))[0], None)


@pytest.mark.parametrize("name", NAMES)
def test_copy_and_deepcopy(name):
    a = CASES[name][0]()
    for b in (copy.copy(a), copy.deepcopy(a)):
        assert type(b) is type(a)
        assert b == a and hash(b) == hash(a) and repr(b) == repr(a)
    nested = copy.deepcopy([a, {"k": a}])
    assert nested[0] == a and nested[1]["k"] == a


def test_validating_constructors_still_validate():
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        PeakSet(3, (4,))
    with pytest.raises(ValueError):
        DyckPrefix("DU")
