"""Immutable value records, the one base class of the validated value types.

Only a type whose constructor enforces a condition is a Record:
ExactPoly, PeakSet, DyckPrefix and Permutation.  A subclass lists its
fields in ``__slots__`` and its own validating ``__init__`` writes each
field once with ``set_field``; Record has no constructor of its own.
Records compare equal only to records of the same class with equal
fields, hash like the tuple of their fields, print as
``Name(field=value, ...)``, refuse assignment and deletion of attributes,
and survive ``pickle`` and ``copy.deepcopy``.
The methods are written once here rather than generated per class at
import time, so importing the package stays cheap: no ``inspect``, no
per-class code generation.
"""

from __future__ import annotations

from operator import attrgetter

# Writes a field of a record under construction; __setattr__ refuses.
set_field = object.__setattr__


class Record:
    """Base of the immutable records; subclasses name their fields in ``__slots__``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        # The field tuple, the value behind ==, hash and pickling.
        cls._values = property(get if len(cls.__slots__) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable "
                             f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable "
                             f"{type(self).__name__}")

    def __reduce__(self):
        # The default slot-state protocol restores fields through
        # __setattr__, which refuses; rebuild from the field values instead,
        # without re-running a subclass's validating __init__.
        return _restore, (type(self), self._values)


def _restore(cls: type, values: tuple) -> Record:
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        set_field(obj, name, value)
    return obj
