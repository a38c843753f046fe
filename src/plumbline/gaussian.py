"""Exact Gaussian rational arithmetic.

A GaussianRational is a complex number re + im*i with both parts stored as
arbitrary-precision ``fractions.Fraction``.  All arithmetic is exact; there
is no rounding anywhere.  Floats are deliberately rejected by the
constructor so that inexactness cannot sneak into an exact computation --
convert explicitly with ``to_complex`` at the boundary instead.
"""

from __future__ import annotations

from fractions import Fraction

from .frozen import Frozen

_ZERO = Fraction(0)


def _as_fraction(x, what: str) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"{what} must be an int or a Fraction, not {type(x).__name__}")


class GaussianRational(Frozen):
    __slots__ = _fields = ("re", "im")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        object.__setattr__(self, "re", _as_fraction(re, "real part"))
        object.__setattr__(self, "im", _as_fraction(im, "imaginary part"))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerced(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerced(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = _coerced(other)
        if other is NotImplemented:
            return NotImplemented
        # fast path: both purely real, as in most products of kappabar,
        # check_star_on_cone and config values
        if not self.im and not other.im:
            return GaussianRational(self.re * other.re)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerced(other)
        if other is NotImplemented:
            return NotImplemented
        denom = other.re * other.re + other.im * other.im
        if not denom:
            raise ZeroDivisionError("division by zero GaussianRational")
        if not self.im and not other.im:
            return GaussianRational(self.re / other.re)
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / denom,
            (self.im * other.re - self.re * other.im) / denom,
        )

    def __rtruediv__(self, other):
        other = _coerced(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    # -- structure ----------------------------------------------------

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * float(self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _coerced(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def _coerced(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return NotImplemented
