"""The base of plumbline's immutable values.

A subclass declares ``__slots__``, every slot an instance holds;
``_fields``, the constructor's parameters in order, each stored in the
slot of its name; ``_defaults``, the defaults of trailing fields; and
optionally ``_check``, run once the fields are stored, which raises on bad
arguments and sets a normalised field or a non-field slot with
``object.__setattr__``.  A class naming ``_fields`` in its own body without
an ``__init__`` gets one generated, as ``collections.namedtuple`` builds
its ``__new__``: it stores the fields, then calls ``self._check()`` if the
class has one.  A subclass naming no ``_fields`` inherits that constructor.
``GaussianRational``, built on every exact operation, keeps a hand-written
``__init__`` that coerces both parts as it stores them: a ``_check`` that
coerced them again would add a method call to each.

Afterwards every assignment and deletion raises ``AttributeError``, so
``copy`` and ``pickle``, which rebuild a value by assignment, refuse it
too; no command copies or pickles a value.  Instances equal only
instances of the same class whose fields are equal, hash as the tuple of
their fields (so a dict field makes them unhashable) and print as the
keyword constructor call.  A class with its own ``__eq__`` defines its
``__hash__`` too, or its values are unhashable (``Jet``).

No command run calls that equality, hashing or repr; they ship as what a
value means.  Tests compare sampled values with their oracles by them,
``Jet._check_ring`` accepts equal rings that are not identical,
``GaussianRational`` hashes as the int or Fraction it equals, and a failed
assertion prints a value as its constructor call.
"""

from __future__ import annotations

from typing import Mapping, Tuple


def _constructor(cls):
    """``__init__(self, *_fields)``: store each field, then run ``_check``."""
    fields, defaults = cls._fields, cls._defaults
    params = "".join(f", {f}=_defaults[{f!r}]" if f in defaults else f", {f}" for f in fields)
    body = "".join(f"\n    _set(self, {f!r}, {f})" for f in fields)
    if hasattr(cls, "_check"):
        body += "\n    self._check()"
    filename = f"<{cls.__module__}.{cls.__qualname__}.__init__>"
    namespace = {"_set": object.__setattr__, "_defaults": defaults, "__name__": cls.__module__}
    exec(compile(f"def __init__(self{params}):{body}", filename, "exec"), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class Frozen:
    __slots__ = ()
    _fields: Tuple[str, ...] = ()
    _defaults: Mapping[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__ and "__init__" not in cls.__dict__:
            cls.__init__ = _constructor(cls)

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

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__name__} is immutable")
