"""Marks, 2-torsion representatives and normalized form values."""

import random
from fractions import Fraction

import pytest

from plumbline.elliptic import (
    Mark,
    MarkedEllipticCurve,
    TauPoint,
    TwoTorsionLabel,
    normalized_form_value,
)
from plumbline.errors import DegenerateDataError, RangeError
from plumbline.gaussian import GaussianRational

I = GaussianRational(0, 1)


def test_two_torsion_representatives():
    reps = [label.representative(I) for label in TwoTorsionLabel]
    assert reps == [
        GaussianRational(0),
        GaussianRational(Fraction(1, 2)),
        GaussianRational(0, Fraction(1, 2)),
        GaussianRational(Fraction(1, 2), Fraction(1, 2)),
    ]
    assert len(reps) == 4
    assert len(set((r.re, r.im) for r in reps)) == 4


def test_normalized_form_value():
    assert normalized_form_value(Mark(TwoTorsionLabel.O, GaussianRational(1))) == GaussianRational(1)
    assert normalized_form_value(Mark(TwoTorsionLabel.O, GaussianRational(2))) == GaussianRational(
        Fraction(1, 2)
    )
    assert normalized_form_value(Mark(TwoTorsionLabel.O, GaussianRational(-1))) == GaussianRational(-1)


def test_form_value_times_coeff_is_one_exactly():
    rng = random.Random(77)
    for _ in range(50):
        c = GaussianRational(
            Fraction(rng.randint(1, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )
        mark = Mark(TwoTorsionLabel.HALF, c)
        assert normalized_form_value(mark) * c == GaussianRational(1)


def test_invalid_inputs():
    with pytest.raises(RangeError):
        TauPoint(GaussianRational(1, 0))
    with pytest.raises(RangeError):
        TauPoint(GaussianRational(0, -1))
    with pytest.raises(DegenerateDataError):
        Mark(TwoTorsionLabel.O, GaussianRational(0))
    with pytest.raises(DegenerateDataError):
        MarkedEllipticCurve(
            TauPoint(I),
            (
                Mark(TwoTorsionLabel.O, GaussianRational(1)),
                Mark(TwoTorsionLabel.O, GaussianRational(2)),
            ),
        )
