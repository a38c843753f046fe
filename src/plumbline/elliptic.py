"""Elliptic curves as upper-half-plane points with marked points.

The curve E_tau = C/(Z.tau + Z) is represented purely by tau, an exact
Gaussian rational with Im > 0.  A mark is a point (either a 2-torsion
label or a generic representative in the fundamental cell) together with
the leading coefficient c of the chosen local coordinate
w = c*(z - a) + O((z - a)^2); the plumbing formulas consume the mark only
through the normalized-form value 1/c.  Every value here is exact; a
float is made only where a jet ring's coefficient field coerces one.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterable, Union

from .errors import DegenerateDataError, RangeError
from .frozen import Frozen
from .gaussian import GaussianRational


class TauPoint(Frozen):
    __slots__ = _fields = ("value",)

    def __init__(self, value: GaussianRational):
        object.__setattr__(self, "value", value)
        if value.im <= 0:
            raise RangeError(f"tau must have positive imaginary part, got {value}")


class TwoTorsionLabel(enum.Enum):
    O = "O"
    HALF = "Half"
    TAU_HALF = "TauHalf"
    HALF_PLUS_TAU_HALF = "HalfPlusTauHalf"

    def representative(self, tau: GaussianRational) -> GaussianRational:
        if self is TwoTorsionLabel.O:
            return GaussianRational(0)
        if self is TwoTorsionLabel.HALF:
            return GaussianRational(Fraction(1, 2))
        if self is TwoTorsionLabel.TAU_HALF:
            return tau / 2
        return (tau + 1) / 2


MarkPoint = Union[TwoTorsionLabel, GaussianRational]


class Mark(Frozen):
    __slots__ = _fields = ("point", "coord_leading_coeff")

    def __init__(self, point: MarkPoint, coord_leading_coeff: GaussianRational):
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "coord_leading_coeff", coord_leading_coeff)
        if not coord_leading_coeff:
            raise DegenerateDataError("local coordinate with zero leading coefficient")


def normalized_form_value(m: Mark) -> GaussianRational:
    """Value of the normalized 1-form against the local coordinate: 1/c."""
    return 1 / m.coord_leading_coeff


class MarkedEllipticCurve(Frozen):
    __slots__ = _fields = ("tau", "marks")

    def __init__(self, tau: TauPoint, marks: Iterable[Mark] = ()):
        marks = tuple(marks)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "marks", marks)
        reps = [
            m.point.representative(tau.value)
            if isinstance(m.point, TwoTorsionLabel)
            else m.point
            for m in marks
        ]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                if reps[i] == reps[j]:
                    raise DegenerateDataError(
                        f"marks {i} and {j} sit at the same point {reps[i]}"
                    )

    def mark_value(self, index: int) -> GaussianRational:
        return normalized_form_value(self.marks[index])
