"""Elliptic curves as upper-half-plane points with marked points, and the
period blocks of plumbed tails.

The curve E_tau = C/(Z.tau + Z) is represented purely by tau, an exact
Gaussian rational with Im > 0.  A mark is a point (either a 2-torsion
label or a generic representative in the fundamental cell) together with
the leading coefficient c of the chosen local coordinate
w = c*(z - a) + O((z - a)^2).  The plumbing formulas read a marked curve
only as its ``CurveBlock``, the 1x1 block (tau) with the normalized-form
value 1/c, which is built as a config is read.  Every value here is exact;
a float is made only where a jet ring's coefficient field coerces one.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .errors import DegenerateDataError, RangeError, StructureError
from .frozen import Frozen
from .gaussian import GaussianRational


class TauPoint(Frozen):
    __slots__ = _fields = ("value",)

    def _check(self):
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


class Mark(Frozen):
    __slots__ = _fields = ("point", "coord_leading_coeff")

    def _check(self):
        if not self.coord_leading_coeff:
            raise DegenerateDataError("local coordinate with zero leading coefficient")


def normalized_form_value(m: Mark) -> GaussianRational:
    """Value of the normalized 1-form against the local coordinate: 1/c."""
    return 1 / m.coord_leading_coeff


class MarkedEllipticCurve(Frozen):
    __slots__ = _fields = ("tau", "marks")
    _defaults = {"marks": ()}

    def _check(self):
        marks = tuple(self.marks)
        object.__setattr__(self, "marks", marks)
        tau = self.tau.value
        reps = [
            m.point.representative(tau) if isinstance(m.point, TwoTorsionLabel) else m.point
            for m in marks
        ]
        # two marks coincide on E_tau when their representatives z = a + b.tau
        # agree in (a mod 1, b mod 1), where b = Im z / Im tau
        cells = [((z.re - z.im / tau.im * tau.re) % 1, z.im / tau.im % 1) for z in reps]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                if cells[i] == cells[j]:
                    raise DegenerateDataError(
                        f"marks {i} and {j} sit at the same point {reps[i]}"
                    )

    def mark_value(self, index: int) -> GaussianRational:
        return normalized_form_value(self.marks[index])


class CurveBlock(Frozen):
    """A constant period block with the form values at the attachment
    point.  The block is symmetric and its imaginary part is positive
    definite, as a period matrix's is; an elliptic curve is the 1x1 case."""

    __slots__ = _fields = ("tau_block", "omega_at_point")

    def _check(self):
        tau_block = self.tau_block
        g = len(tau_block)
        if g == 0 or any(len(row) != g for row in tau_block):
            raise StructureError("tau block must be square and nonempty")
        if len(self.omega_at_point) != g:
            raise StructureError("omega vector length must match block size")
        for i in range(g):
            for j in range(g):
                if tau_block[i][j] != tau_block[j][i]:
                    raise StructureError("tau block must be symmetric")
        im = [[x.im for x in row] for row in tau_block]
        for k in range(g):  # exact symmetric elimination: positive definite iff every pivot > 0
            if im[k][k] <= 0:
                raise RangeError("tau block's imaginary part must be positive definite")
            for i in range(k + 1, g):
                ratio = im[i][k] / im[k][k]
                for j in range(k + 1, g):
                    im[i][j] -= ratio * im[k][j]


def curve_block(curve: MarkedEllipticCurve, mark_index: int) -> CurveBlock:
    """The 1x1 block of ``curve`` attached at its mark ``mark_index``."""
    return CurveBlock(((curve.tau.value,),), (curve.mark_value(mark_index),))
