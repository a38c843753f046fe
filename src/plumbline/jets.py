"""Sparse truncated multivariate polynomial ("jet") arithmetic.

A jet lives in a ring with a fixed ordered variable list and a total-degree
truncation order; every product silently discards monomials whose total
degree exceeds the order.  Two coefficient fields are supported:

* exact: Gaussian rationals, arithmetic is exact and zero-tests are
  literal;
* float: ordinary Python complex, zero-tests are relative to the largest
  coefficient modulus of the jet being tested (the field's tolerance,
  1e-10).

A jet stores its coefficients as (re, im) pairs over one positive integer
denominator, as FLINT's ``fmpq_poly`` does: Gaussian integers over a common
denominator in the exact field, float pairs over 1 in the float field.
Products multiply the denominators and sums rescale both jets to the lcm
of theirs, so one loop serves both fields and exact arithmetic runs on
Python ints, with no Fraction in it.  Field values (``GaussianRational`` or
``complex``) are made only where a coefficient leaves the jet: ``terms``,
``coefficient``, ``to_json_dict`` and equality.

A jet keys each term by one int that packs its monomial, as Monagan and
Pearce's packed exponent vectors do ("Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", ISSAC 2007).  The ring fixes a
field width ``width = max(1, order.bit_length())`` bits, enough for any
exponent up to the order, and ``shift = width * len(variables)``.  The key
of exponents ``e`` is

    (sum(e) << shift) + e[0] + (e[1] << width) + (e[2] << 2*width) + ...

so the total degree sits above the exponent fields and ``key >> shift``
reads it.  The key of a monomial product is the sum of the factors' keys,
and the degrees add with them.  No field carries into the next one: a
product keeps a pair of terms only if its degree is at most the order, so
every exponent of the sum is at most the order too and fits its field.  A
key of lower degree is the smaller int, so the least key of a jet has its
lowest degree.  Exponent tuples appear only at the boundary:
``coefficient`` encodes, ``terms`` and ``to_json_dict`` decode, and
``times_monomial`` does both to move a jet into another ring.

``Jet.min_nonzero_degree`` holds the one float zero test; the exact one is
literal, as a jet stores no zero pair.  Every exact/numeric decision
downstream reads the ring's field.

Jets are immutable values; all operations return fresh jets, so instances
can be shared freely across threads.
"""

from __future__ import annotations

import cmath
import enum
import sys
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, Mapping, Tuple

from .errors import RangeError, StructureError
from .frozen import Frozen
from .gaussian import GaussianRational

DEFAULT_TOLERANCE = 1e-10

Exponents = Tuple[int, ...]
Pair = Tuple  # (re, im): two ints in the exact field, two floats in the float field


class FieldKind(enum.Enum):
    EXACT_GAUSSIAN_RATIONAL = "exact"
    COMPLEX_FLOAT = "float"


class CoefficientField(Frozen):
    __slots__ = _fields = ("kind", "tolerance")
    _defaults = {"tolerance": DEFAULT_TOLERANCE}

    @property
    def is_exact(self) -> bool:
        return self.kind is FieldKind.EXACT_GAUSSIAN_RATIONAL

    @property
    def mode(self) -> str:
        """Report label: "exact" (2*pi*i divided out) or "numeric"."""
        return "exact" if self.is_exact else "numeric"

    def coerce(self, x):
        """Force ``x`` into the field: the exact field refuses floats, the
        float field rounds once and refuses a value beyond float range, one
        that overflows or has a nonzero part that rounds to 0."""
        if self.is_exact:
            if isinstance(x, GaussianRational):
                return x
            if isinstance(x, (int, Fraction)):
                return GaussianRational(x)
            raise TypeError(
                f"exact field cannot absorb {type(x).__name__}; "
                "convert floats explicitly if that is really intended"
            )
        try:
            if isinstance(x, GaussianRational):
                z, re, im = x.to_complex(), x.re, x.im
            elif isinstance(x, (int, float, complex, Fraction)):
                z, re, im = complex(x), x.real, x.imag
            else:
                raise TypeError(f"cannot coerce {type(x).__name__} into the float field")
        except OverflowError as e:
            raise RangeError(f"value beyond the float field's range: {e}") from None
        if (re and not z.real) or (im and not z.imag):
            raise RangeError("value beyond the float field's range: a nonzero part underflows to 0")
        return z

    def pack(self, x) -> Tuple[Pair, int]:
        """``x`` forced into the field, as a jet stores it: an (re, im) pair
        over a positive denominator, the least one in the exact field and 1
        in the float field."""
        if not self.is_exact:
            x = self.coerce(x)
            return (x.real, x.imag), 1
        if type(x) is int:  # the common scalar, kept off Fraction
            return (x, 0), 1
        x = self.coerce(x)
        re, im = x.re, x.im
        den = lcm(re.denominator, im.denominator)
        pair = re.numerator * (den // re.denominator), im.numerator * (den // im.denominator)
        return pair, den

    def unpack(self, pair: Pair, den: int):
        """The field value of a stored pair over ``den``."""
        re, im = pair
        if self.is_exact:
            return GaussianRational(Fraction(re, den), Fraction(im, den))
        return complex(re, im)

    @property
    def two_pi_i(self):
        """The transcendental factor 2*pi*i, or 1 in exact units, which divide it out."""
        return GaussianRational(1) if self.is_exact else complex(0.0, 2.0 * cmath.pi)

    def in_range(self, x, what: str):
        """``x``, a product of nonzero factors, refused when it has left the
        float field's range: it overflows, or it underflows to 0."""
        if not self.is_exact:
            if not cmath.isfinite(x):
                raise RangeError(f"value beyond the float field's range: {what} overflows")
            if not x:
                raise RangeError(f"value beyond the float field's range: {what} underflows to 0")
        return x

    def zero(self):
        return GaussianRational(0) if self.is_exact else 0j


EXACT_FIELD = CoefficientField(FieldKind.EXACT_GAUSSIAN_RATIONAL)
FLOAT_FIELD = CoefficientField(FieldKind.COMPLEX_FLOAT)


class JetRing(Frozen):
    # width and shift, the packed key layout (module docstring), are not
    # fields: equality, hashing and repr stay those of (variables, order, field)
    __slots__ = ("variables", "order", "field", "width", "shift")
    _fields = ("variables", "order", "field")
    _defaults = {"field": EXACT_FIELD}

    def _check(self):
        variables, order = self.variables, self.order
        if len(set(variables)) != len(variables):
            raise StructureError(f"duplicate variable names in {variables}")
        if order < 0:
            raise RangeError(f"truncation order must be >= 0, got {order}")
        width = max(1, order.bit_length())
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "shift", width * len(variables))

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise StructureError(f"variable {name!r} not declared in ring {self.variables}") from None

    def _key(self, exp: Exponents) -> int:
        """The packed key of an exponent vector already checked against the
        ring: nonnegative ints, one per variable, of degree at most the order."""
        width = self.width
        key = sum(exp) << self.shift
        for i, e in enumerate(exp):
            key += e << (width * i)
        return key

    def _exponents(self, key: int) -> Exponents:
        """The exponent vector that ``key`` packs."""
        width = self.width
        mask = (1 << width) - 1
        return tuple((key >> (width * i)) & mask for i in range(len(self.variables)))

    def _variable_key(self, name: str) -> int:
        if self.order < 1:
            raise RangeError("ring of order 0 holds no degree-1 monomials")
        return (1 << self.shift) + (1 << (self.width * self.var_index(name)))

    def zero(self) -> "Jet":
        return Jet(self, {})

    def constant(self, c) -> "Jet":
        return self._packed({0: c})

    def variable(self, name: str) -> "Jet":
        return self._packed({self._variable_key(name): 1})

    def _packed(self, values: Mapping[int, object]) -> "Jet":
        """The jet of the nonzero ``values``, keyed by packed monomials and
        each forced into the field, over the lcm of their denominators."""
        packed = {}
        den = 1
        for key, x in values.items():
            pair, d = self.field.pack(x)
            if pair[0] or pair[1]:
                packed[key] = pair, d
                den = lcm(den, d)
        return Jet(self, {key: _scaled(pair, den // d) for key, (pair, d) in packed.items()}, den)

    def linear_form(self, coeffs: Mapping[str, object]) -> "Jet":
        """The unit factor 1 + sum of coeff*variable."""
        values = {0: 1}
        for name, c in coeffs.items():
            values[self._variable_key(name)] = c
        return self._packed(values)


def _scaled(pair: Pair, factor: int) -> Pair:
    return pair if factor == 1 else (pair[0] * factor, pair[1] * factor)


class Jet(Frozen):
    """Immutable sparse truncated polynomial over its ring's field.

    ``_terms`` maps packed monomial keys to nonzero (re, im) pairs, each
    divided by the positive ``_den``; the ring's constructors pack
    exponents and field values."""

    __slots__ = _fields = ("ring", "_terms", "_den")
    _defaults = {"_den": 1}

    # -- inspection ---------------------------------------------------

    def _values(self) -> Dict[int, object]:
        """Field values keyed by packed monomial."""
        unpack, den = self.ring.field.unpack, self._den
        return {key: unpack(c, den) for key, c in self._terms.items()}

    @property
    def terms(self) -> Dict[Exponents, object]:
        exponents = self.ring._exponents
        return {exponents(key): c for key, c in self._values().items()}

    def coefficient(self, exponents: Iterable[int]):
        ring = self.ring
        exp = tuple(exponents)
        if len(exp) != len(ring.variables):
            raise StructureError(
                f"exponent vector of length {len(exp)} against {len(ring.variables)} variables"
            )
        if any(e < 0 for e in exp) or sum(exp) > ring.order:
            return ring.field.zero()  # a monomial no jet of the ring stores
        c = self._terms.get(ring._key(exp))
        return ring.field.zero() if c is None else ring.field.unpack(c, self._den)

    def coefficient_of_var(self, name: str):
        """Coefficient of the degree-1 monomial of a single variable."""
        exp = [0] * len(self.ring.variables)
        exp[self.ring.var_index(name)] = 1
        return self.coefficient(exp)

    def vanishes_through_degree(self, d: int) -> bool:
        """True iff every monomial of total degree <= d has a zero coefficient."""
        if d > self.ring.order:
            raise RangeError(f"degree {d} exceeds truncation order {self.ring.order}")
        low = self.min_nonzero_degree()
        return low is None or low > d

    def min_nonzero_degree(self) -> int | None:
        """Smallest total degree carrying a nonzero coefficient.

        Exact field: that of the least stored key, as every stored pair is
        nonzero.  Float field: a coefficient is zero when its modulus is at
        most the field's tolerance times the largest modulus in the jet.
        """
        field = self.ring.field
        if field.is_exact:
            low = min(self._terms, default=None)
        else:
            values = self._values()
            cut = field.tolerance * max((abs(c) for c in values.values()), default=0.0)
            low = min((key for key, c in values.items() if not abs(c) <= cut), default=None)
        # the least key has the least degree
        return None if low is None else low >> self.ring.shift

    # -- arithmetic ---------------------------------------------------

    def _check_ring(self, other: "Jet"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise StructureError(f"jets from different rings: {self.ring} vs {other.ring}")

    def _wrap(self, x) -> "Jet":
        if isinstance(x, Jet):
            self._check_ring(x)
            return x
        return self.ring.constant(x)

    def __add__(self, other):
        try:
            other = self._wrap(other)
        except TypeError:
            return NotImplemented
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        if fa == 1:
            terms = dict(self._terms)
        else:
            terms = {key: (re * fa, im * fa) for key, (re, im) in self._terms.items()}
        for key, (br, bi) in other._terms.items():
            if fb != 1:
                br, bi = br * fb, bi * fb
            s = terms.get(key)
            if s is None:
                terms[key] = br, bi
                continue
            re, im = s[0] + br, s[1] + bi
            if re or im:
                terms[key] = re, im
            else:
                del terms[key]
        return Jet(self.ring, terms, den)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = self._wrap(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        terms = {key: (-re, -im) for key, (re, im) in self._terms.items()}
        return Jet(self.ring, terms, self._den)

    def __mul__(self, other):
        try:
            other = self._wrap(other)
        except TypeError:
            return NotImplemented
        return self._times(other)

    __rmul__ = __mul__

    def _times(self, other: "Jet") -> "Jet":
        """The product with every monomial above the ring order discarded.

        Each outer term meets only the inner terms that fit under the order
        with it: the inner operand is filtered once per distinct outer
        degree, in its own order, so the pairs kept are visited in the
        sequence of a full double loop and every float sum runs as there."""
        out: Dict[int, Pair] = {}
        # iterate over the smaller operand outside for fewer dict rebuilds
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        shift, order = self.ring.shift, self.ring.order
        fitting: Dict[int, list] = {}
        for ka, (ar, ai) in a.items():
            room = order - (ka >> shift)
            fits = fitting.get(room)
            if fits is None:
                # kb >> shift <= room, the degree test, is kb < (room + 1) << shift
                bound = (room + 1) << shift
                fits = fitting[room] = [(kb, br, bi) for kb, (br, bi) in b.items() if kb < bound]
            for kb, br, bi in fits:
                key = ka + kb
                # the complex product, in the order CPython takes it
                re = ar * br - ai * bi
                im = ar * bi + ai * br
                s = out.get(key)
                if s is not None:
                    re, im = s[0] + re, s[1] + im
                if re or im:
                    out[key] = re, im
                elif s is not None:
                    del out[key]
        return Jet(self.ring, out, self._den * other._den)

    def times_monomial(self, ring: JetRing, exponents: Exponents) -> "Jet":
        """This jet times the monomial of ``exponents``, in ``ring``: a ring of
        the same variables and field, whose order drops the terms above it."""
        own, shift = self.ring, ring._key(exponents)
        room = ring.order - (shift >> ring.shift)
        terms = {
            ring._key(own._exponents(key)) + shift: c
            for key, c in self._terms.items()
            if key >> own.shift <= room
        }
        return Jet(ring, terms, self._den)

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return self.ring == other.ring and self._values() == other._values()

    # -- evaluation & serialization ------------------------------------

    def to_json_dict(self) -> dict:
        field = self.ring.field
        values = self.terms
        terms = []
        for exp in sorted(values):
            c = values[exp]
            if field.is_exact:
                terms.append({"exp": list(exp), "re": _printed(c.re), "im": _printed(c.im)})
            else:
                terms.append({"exp": list(exp), "re": c.real, "im": c.imag})
        return {"vars": list(self.ring.variables), "order": self.ring.order, "terms": terms}


def _printed(x: Fraction) -> str:
    """``x`` in decimal, refused past the interpreter's digit limit."""
    try:
        return str(x)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise RangeError(f"a coefficient has more than {limit} digits to print") from None
