"""Immutable value records, the one base class of the package's value types.

A subclass lists its fields in ``__slots__``; a subclass with its own
validating ``__init__`` writes each field once with ``set_field``.
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

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            args = _bind(type(self), fields, args, kwargs)
        for name, value in zip(fields, args):
            set_field(self, name, value)

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


def _bind(cls: type, fields: tuple, args: tuple, kwargs: dict) -> tuple:
    """The field values of a call with keywords or a wrong count, or TypeError."""
    if len(args) > len(fields):
        raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)}")
    values = dict(zip(fields, args))
    for name, value in kwargs.items():
        if name not in fields or name in values:
            raise TypeError(f"{cls.__name__}: unexpected or repeated field {name!r}")
        values[name] = value
    missing = [name for name in fields if name not in values]
    if missing:
        raise TypeError(f"{cls.__name__}: missing fields {missing}")
    return tuple(values[name] for name in fields)


def _restore(cls: type, values: tuple) -> Record:
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        set_field(obj, name, value)
    return obj
