"""The samplers draw exactly what their oracles draw.

The reports print span values and pass flags, which almost any draw
reproduces, so their pinned hashes cannot see a changed stream.  The
oracles are kept here and in ``oracles.py``: the star, tree and frame
samplers as they were written on ``randint`` and ``Fraction``, and a
Fraction surface model drawn from the surface sampler's two ``randbytes``
calls with a plain rejection loop.  Each sampler must give equal values
(the surface sampler, the oracle's Fraction sides times 12) and leave the
generator in an equal state.  The surface stream is also pinned by hash.
"""

import hashlib
from collections import Counter
from fractions import Fraction
from typing import Dict

from hypothesis import given, settings, strategies as st

from plumbline import sampling
from plumbline.alkanes import Alkane, enumerate_alkanes
from plumbline.curve_periods import StarConfig, TreeConfig, TreeEdgeData
from plumbline.elliptic import CurveBlock, TauPoint
from plumbline.gaussian import GaussianRational
from plumbline.relations import plucker_coordinates
from plumbline.sampling import (
    rand_fraction,
    rand_nonzero_fraction,
    random_grass_frame_minors,
    random_star_config,
    random_surface_sides,
    random_tree_config,
    substream,
)

from oracles import fraction_oracle, nonzero_oracle, oracle_sides, surface_oracle

# ---------------------------------------------------------------------------
# the oracles: the samplers as they were written on randint and Fraction


def _tau_oracle(rng):
    return TauPoint(
        GaussianRational(fraction_oracle(rng, -3, 3, 4), nonzero_oracle(rng, 1, 4, 3))
    )


def _star_oracle(g, rng):
    tails = []
    for _ in range(g):
        c = nonzero_oracle(rng, -6, 6, 6)
        tails.append(CurveBlock(((_tau_oracle(rng).value,),), (1 / GaussianRational(c),)))
    points = []
    while len(points) < g:
        b = fraction_oracle(rng, -12, 12, 6)
        if all(b != p for p in points):
            points.append(b)
    variables = tuple(f"t{i}" for i in range(1, g + 1))
    return StarConfig(tuple(tails), tuple(GaussianRational(b) for b in points), variables)


def _tree_oracle(alkane, rng):
    taus = tuple(_tau_oracle(rng) for _ in range(alkane.genus))
    edge_data = {}
    for (i, j) in alkane.edges:
        edge_data[(i, j)] = TreeEdgeData(
            var=f"t{i}_{j}",
            coeff_low=GaussianRational(nonzero_oracle(rng, -6, 6, 6)),
            coeff_high=GaussianRational(nonzero_oracle(rng, -6, 6, 6)),
        )
    return TreeConfig(alkane, taus, edge_data)


def _grass_oracle(g, rng) -> Dict:
    while True:
        rows = [[fraction_oracle(rng, -9, 9, 5) for _ in range(g)] for _ in range(2)]
        y = plucker_coordinates(*rows)
        if all(y.values()):
            return y


# ---------------------------------------------------------------------------

_ALKANES = [a for h in range(1, 8) for a in enumerate_alkanes(h)]
_SAMPLERS = {
    # the integer sides against the Fraction model's sides times 12
    "surface": (
        random_surface_sides,
        lambda alkane, rng: oracle_sides(surface_oracle(alkane, rng)),
        st.sampled_from(_ALKANES),
    ),
    "star": (random_star_config, _star_oracle, st.integers(2, 8)),
    "tree": (random_tree_config, _tree_oracle, st.sampled_from(_ALKANES)),
    "grass": (random_grass_frame_minors, _grass_oracle, st.integers(4, 8)),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_SAMPLERS)), st.integers(0, 2**32), st.text(max_size=12), st.data())
def test_samplers_match_randint_oracle(name, seed, label, data):
    sampler, oracle, arg = _SAMPLERS[name]
    x = data.draw(arg)
    rng, rng_oracle = substream(seed, label), substream(seed, label)
    assert sampler(x, rng) == oracle(x, rng_oracle)
    assert rng.getstate() == rng_oracle.getstate()


def test_surface_tables_are_the_cleared_draws():
    # one entry per (n, d) of the draw n/d, n in -5..5 and d in 1..4, cleared
    # by 12, so a uniform choice keeps the distribution of that draw; omega
    # draws the nonzero ones
    cleared = Counter(12 * Fraction(n, d) for n in range(-5, 6) for d in range(1, 5))
    assert Counter(sampling._I_VALUES) == cleared
    assert Counter(sampling._OMEGA_VALUES) == Counter({x: m for x, m in cleared.items() if x})
    assert {type(x) for x in sampling._I_VALUES + sampling._OMEGA_VALUES} == {int}


def test_surface_byte_tables_are_exactly_uniform():
    # counted over all 256 bytes, not sampled: the kept bytes fill every
    # slot equally often, and each maps to its slot's value as a signed byte
    for (table, dropped), values, per_slot in (
        (sampling._OMEGA_DRAW, sampling._OMEGA_VALUES, 6),
        (sampling._I_DRAW, sampling._I_VALUES, 5),
    ):
        n = len(values)
        kept = [b for b in range(256) if b not in dropped]
        assert sorted(dropped) == list(range(256 - 256 % n, 256))
        assert Counter(b % n for b in kept) == dict.fromkeys(range(n), per_slot)
        decoded = memoryview(bytes(kept).translate(table, dropped)).cast("b").tolist()
        assert decoded == [values[b % n] for b in kept]
    assert len(sampling._OMEGA_DRAW[1]) == 16 and len(sampling._I_DRAW[1]) == 36
    zero_slots = [k for k, x in enumerate(sampling._I_VALUES) if not x]
    assert len(zero_slots) == 4
    assert {sampling._I_DRAW[0][b] for b in range(220) if b % 44 in zero_slots} == {0}
    assert 0 not in sampling._OMEGA_DRAW[0]


def test_surface_stream_is_pinned():
    # no report prints a draw, so the stream is pinned here; the same on
    # CPython 3.10 to 3.13
    sides = random_surface_sides(Alkane.chain(6), substream(0, "test:stream:pin"))
    digest = hashlib.sha256(repr(sides).encode()).hexdigest()
    assert digest == "98e807d6b118e4405a804cadd402f1f05c46b7253444c89c5eb9ccd91e27eaa9"


def test_star_genus_is_bounded_by_its_points():
    # a star draws distinct points n/d, |n| <= 12, d <= 6; with all 93 of
    # them it still draws as the oracle does (the CLI test refuses 94)
    points = {Fraction(n, d) for n in range(-12, 13) for d in range(1, 7)}
    assert sampling.STAR_POINTS == len(points) == 93
    rng, rng_oracle = substream(0, "star:bound"), substream(0, "star:bound")
    assert random_star_config(93, rng) == _star_oracle(93, rng_oracle)
    assert rng.getstate() == rng_oracle.getstate()


# every (lo, hi, max_den) the package passes to ``rand_fraction`` or
# ``rand_nonzero_fraction``, its default (-9, 9, 9) included
_CALL_RANGES = [
    (-5, 5, 4), (-12, 12, 6), (-9, 9, 9), (-9, 9, 5), (-6, 6, 6),
    (-3, 3, 4), (1, 4, 3), (-2, 2, 3), (1, 3, 2), (-5, 5, 3),
]
_EDGE_RANGES = [(1, 1, 1), (0, 0, 1), (-12, -12, 1), (12, 12, 9), (0, 1, 2), (-4, 4, 3), (1, 8, 8)]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.text(max_size=12))
def test_rand_fraction_matches_randint(seed, label):
    for lo, hi, max_den in _CALL_RANGES + _EDGE_RANGES + [(-20, 20, 11)]:
        rng, rng_oracle = substream(seed, label), substream(seed, label)
        for _ in range(20):
            got = rand_fraction(rng, lo, hi, max_den)
            assert got == Fraction(rng_oracle.randint(lo, hi), rng_oracle.randint(1, max_den))
            assert type(got) is Fraction
        if lo or hi:
            got = rand_nonzero_fraction(rng, lo, hi, max_den)
            assert got == nonzero_oracle(rng_oracle, lo, hi, max_den)
        assert rng.getstate() == rng_oracle.getstate()
