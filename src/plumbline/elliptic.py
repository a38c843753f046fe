"""Elliptic curves as upper-half-plane points with marked points.

The curve E_tau = C/(Z.tau + Z) is represented purely by tau (exact
Gaussian rational or complex float, with Im > 0).  A mark is a point
(either a 2-torsion label or a generic representative in the fundamental
cell) together with the leading coefficient c of the chosen local
coordinate w = c*(z - a) + O((z - a)^2); the plumbing formulas consume the
mark only through the normalized-form value 1/c.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Tuple, Union

from .errors import DegenerateDataError, RangeError
from .gaussian import GaussianRational

ComplexValue = Union[GaussianRational, complex]


def _im(z: ComplexValue):
    return z.im if isinstance(z, GaussianRational) else z.imag


def _one_half(exact: bool) -> ComplexValue:
    return GaussianRational(Fraction(1, 2)) if exact else complex(0.5)


@dataclass(frozen=True)
class TauPoint:
    value: ComplexValue

    def __post_init__(self):
        if _im(self.value) <= 0:
            raise RangeError(f"tau must have positive imaginary part, got {self.value}")


class TwoTorsionLabel(enum.Enum):
    O = "O"
    HALF = "Half"
    TAU_HALF = "TauHalf"
    HALF_PLUS_TAU_HALF = "HalfPlusTauHalf"

    def representative(self, tau: ComplexValue) -> ComplexValue:
        exact = isinstance(tau, GaussianRational)
        half = _one_half(exact)
        if self is TwoTorsionLabel.O:
            return GaussianRational(0) if exact else 0j
        if self is TwoTorsionLabel.HALF:
            return half
        if self is TwoTorsionLabel.TAU_HALF:
            return tau / 2
        return half + tau / 2


MarkPoint = Union[TwoTorsionLabel, GaussianRational, complex]


@dataclass(frozen=True)
class Mark:
    point: MarkPoint
    coord_leading_coeff: ComplexValue

    def __post_init__(self):
        if not self.coord_leading_coeff:
            raise DegenerateDataError("local coordinate with zero leading coefficient")


def normalized_form_value(m: Mark) -> ComplexValue:
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

    def mark_value(self, index: int) -> ComplexValue:
        return normalized_form_value(self.marks[index])
