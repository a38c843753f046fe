"""Every in-process elimination is bounded, so a reduction that never lowers
its row's lead fails a test instead of hanging it."""

import functools
import itertools
from unittest import mock

import pytest

from plumbline import curve_periods, surfaces


def _bounded(rank):
    """``rank``, failing once its elimination has reduced more rows than it
    can: each reduction lowers a row's lead, so each row reduces at most
    once per key."""

    @functools.wraps(rank)
    def bounded(rows):
        rows = list(rows)
        bound = len(rows) * len(set().union(*rows))
        calls = itertools.count()
        primitive = surfaces._primitive

        def counted(row):
            assert next(calls) < bound, "a reduction did not lower the lead"
            return primitive(row)

        with mock.patch.object(surfaces, "_primitive", counted):
            return rank(rows)

    return bounded


@pytest.fixture(autouse=True, scope="session")
def _bounded_elimination():
    """``matrix_rank_exact`` bounded wherever the package calls it: in
    ``surfaces`` (the span and the skew-block premise) and in
    ``curve_periods`` (the rank-one check), which imports the name."""
    bounded = _bounded(surfaces.matrix_rank_exact)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(surfaces, "matrix_rank_exact", bounded)
        patch.setattr(curve_periods, "matrix_rank_exact", bounded)
        yield
