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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Tuple, Union

from .errors import DegenerateDataError, RangeError
from .gaussian import GaussianRational


@dataclass(frozen=True)
class TauPoint:
    value: GaussianRational

    def __post_init__(self):
        if self.value.im <= 0:
            raise RangeError(f"tau must have positive imaginary part, got {self.value}")


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


@dataclass(frozen=True)
class Mark:
    point: MarkPoint
    coord_leading_coeff: GaussianRational

    def __post_init__(self):
        if not self.coord_leading_coeff:
            raise DegenerateDataError("local coordinate with zero leading coefficient")


def normalized_form_value(m: Mark) -> GaussianRational:
    """Value of the normalized 1-form against the local coordinate: 1/c."""
    return 1 / m.coord_leading_coeff


@dataclass(frozen=True)
class MarkedEllipticCurve:
    tau: TauPoint
    marks: Tuple[Mark, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "marks", tuple(self.marks))
        reps = [
            m.point.representative(self.tau.value)
            if isinstance(m.point, TwoTorsionLabel)
            else m.point
            for m in self.marks
        ]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                if reps[i] == reps[j]:
                    raise DegenerateDataError(
                        f"marks {i} and {j} sit at the same point {reps[i]}"
                    )

    def mark_value(self, index: int) -> GaussianRational:
        return normalized_form_value(self.marks[index])
