"""The base of plumbline's immutable values.

A subclass names its slots in ``__slots__`` and its fields, the
constructor's parameters in order, in ``_fields``.  Its ``__init__``
checks the arguments and sets each slot with ``object.__setattr__``;
afterwards every assignment and deletion raises ``AttributeError``.
Instances equal only instances of the same class whose fields are equal,
hash as the tuple of their fields (so a dict field makes them unhashable)
and print as the keyword constructor call; copies and pickles rebuild
them through the constructor.  A class with its own equality overrides
``__eq__`` and ``__hash__``.
"""

from __future__ import annotations

from typing import Tuple


class Frozen:
    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _field_values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values() == other._field_values()

    def __hash__(self):
        return hash(self._field_values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, self._field_values()

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__name__} is immutable")
