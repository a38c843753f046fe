"""Deterministic random rational fixtures.

All randomized verification flows derive their draws from labelled
substreams of one master seed, so adding a new check never shifts the
draws of an existing one and reports are byte-for-byte reproducible.

Star, tree and frame draws are ``randint``'s: each rational is
``Fraction(randint(lo, hi), randint(1, max_den))``, and every random tail,
a star's or a rank-one pair's side, is ``random_tail``'s 1x1 ``CurveBlock``.
Surface sides are drawn from two ``randbytes`` calls per model: each kept
byte is a uniform slot of a table of the values 12 n/d, and
``bytes.translate`` does the rejection and the lookup with no Python
bytecode per entry, so the sides are ints and no Fraction is built.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Tuple

from .alkanes import GENUS_CAP, Alkane
from .elliptic import CurveBlock, TauPoint, TwoTorsionLabel
from .errors import RangeError
from .gaussian import GaussianRational
from .relations import StarConfig, plucker_coordinates
from .surfaces import BLOCK_COLS

if TYPE_CHECKING:
    from .curve_periods import TreeConfig

_LABELS = list(TwoTorsionLabel)


def substream(seed: int, label: str) -> random.Random:
    """Independent PRNG for one named verification stream."""
    return random.Random(f"{seed}:{label}")


def rand_fraction(rng: random.Random, lo: int = -9, hi: int = 9, max_den: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_nonzero_fraction(rng: random.Random, lo: int = -9, hi: int = 9, max_den: int = 9) -> Fraction:
    while True:
        f = rand_fraction(rng, lo, hi, max_den)
        if f:
            return f


def rand_tau(rng: random.Random) -> TauPoint:
    """Exact upper-half-plane point with small rational parts."""
    return TauPoint(
        GaussianRational(rand_fraction(rng, -3, 3, 4), rand_nonzero_fraction(rng, 1, 4, 3))
    )


# the distinct attachment points a star can draw: n/d with |n| <= 12, d <= 6,
# each counted once in lowest terms
STAR_POINTS = sum(math.gcd(n, d) == 1 for n in range(-12, 13) for d in range(1, 7))


def random_tail(rng: random.Random) -> CurveBlock:
    """A random 1x1 tail: it draws c, then tau, and holds tau and 1/c."""
    c = rand_nonzero_fraction(rng, -6, 6, 6)
    return CurveBlock(((rand_tau(rng).value,),), (GaussianRational(1 / c),))


def random_star_config(g: int, rng: random.Random) -> StarConfig:
    if g > STAR_POINTS:
        raise RangeError(f"genus {g} needs {g} distinct star points; there are {STAR_POINTS}")
    tails = tuple(random_tail(rng) for _ in range(g))
    points: list = []
    while len(points) < g:
        b = rand_fraction(rng, -12, 12, 6)
        if all(b != p for p in points):
            points.append(b)
    variables = tuple(f"t{i}" for i in range(1, g + 1))
    return StarConfig(tails, tuple(GaussianRational(b) for b in points), variables)


def random_tree_config(alkane: Alkane, rng: random.Random) -> TreeConfig:
    # only selftest draws trees: start-up leaves the tree classes unloaded
    from .curve_periods import TreeConfig, TreeEdgeData

    taus = tuple(rand_tau(rng) for _ in range(alkane.genus))
    used: Dict[int, int] = {v: 0 for v in range(1, alkane.genus + 1)}
    edge_data = {}
    for (i, j) in alkane.edges:
        label_i = _LABELS[used[i]]
        label_j = _LABELS[used[j]]
        used[i] += 1
        used[j] += 1
        edge_data[(i, j)] = TreeEdgeData(
            var=f"t{i}_{j}",
            label_low=label_i,
            coeff_low=GaussianRational(rand_nonzero_fraction(rng, -6, 6, 6)),
            label_high=label_j,
            coeff_high=GaussianRational(rand_nonzero_fraction(rng, -6, 6, 6)),
        )
    return TreeConfig(alkane, taus, edge_data)


def random_grass_frame_minors(g: int, rng: random.Random) -> Dict[Tuple[int, int], Fraction]:
    """Pluecker minors of a random rational rank-2 frame, resampled until
    every coordinate is nonzero (the cone chart needs all of them)."""
    while True:
        rows = [[rand_fraction(rng, -9, 9, 5) for _ in range(g)] for _ in range(2)]
        y = plucker_coordinates(*rows)
        if all(y.values()):
            return y


# 12 n/d for n in -5..5 and d in 1..4, one slot per (n, d): an int, since
# every d divides 12, so a uniform slot is a uniform (n, d) cleared by 12.
# Omega sides draw only the 40 nonzero slots.
_I_VALUES = tuple(n * (12 // d) for n in range(-5, 6) for d in range(1, 5))
_OMEGA_VALUES = tuple(x for x in _I_VALUES if x)

# A random byte b below 256 - 256 % n is uniform over n slots as b % n
# (the rejection method for uniform integers, in bulk).  Each draw table is
# a ``bytes.translate`` pair: the slot values as signed bytes, repeated so
# that byte b reads slot b % n, and the bytes at or above the bound, which
# it deletes.  The four zero slots of the I table map to byte 0.
_OMEGA_DRAW = (bytes(x % 256 for x in _OMEGA_VALUES) * 7)[:256], bytes(range(240, 256))
_I_DRAW = (bytes(x % 256 for x in _I_VALUES) * 6)[:256], bytes(range(220, 256))

# the ambient columns of vertex v + 1's I entries: its block less the skew column
_I_COLUMNS = [tuple(range(BLOCK_COLS * v, BLOCK_COLS * (v + 1) - 1)) for v in range(GENUS_CAP)]


def _draw(rng: random.Random, k: int, table: Tuple[bytes, bytes]) -> list:
    """The values of k slots of a draw table, each slot equally likely: the
    bytes of ``rng.randbytes(k)`` that the table keeps, read as signed
    bytes, topped up by further calls for as many as it deleted."""
    kept = rng.randbytes(k).translate(*table)
    while len(kept) < k:
        kept += rng.randbytes(k - len(kept)).translate(*table)
    return memoryview(kept).cast("b").tolist()


def random_surface_sides(alkane: Alkane, rng: random.Random) -> list:
    """Per edge {i, j}, i < j, in edge order, a random surface model's
    integer omega side keyed by ambient row and I side keyed by ambient
    column, as drawn: no side is divided by its content.  The model's
    omega pairs (omega_i, -omega_j) are drawn first, from one
    ``randbytes`` call over ``_OMEGA_VALUES``; then its I entries, 14 per
    vertex of each edge, from a second over ``_I_VALUES``, the skew column
    left zero.  An I side keeps only its nonzero entries."""
    edges = alkane.edges
    omegas = iter(_draw(rng, 2 * len(edges), _OMEGA_DRAW))
    entries = iter(_draw(rng, 2 * (BLOCK_COLS - 1) * len(edges), _I_DRAW))
    # zip reads the 28 columns first, so it stops without taking an entry
    return [
        (
            {i - 1: next(omegas), j - 1: -next(omegas)},
            {c: x for c, x in zip(_I_COLUMNS[i - 1] + _I_COLUMNS[j - 1], entries) if x},
        )
        for i, j in edges
    ]
