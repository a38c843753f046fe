"""Deterministic random rational fixtures.

All randomized verification flows derive their draws from labelled
substreams of one master seed, so adding a new check never shifts the
draws of an existing one and reports are byte-for-byte reproducible.

Each integer is drawn as CPython's ``randint(lo, hi)`` draws it,
``lo + r`` with ``r = getrandbits(k)`` for ``k = (hi - lo + 1).bit_length()``
redrawn while ``r > hi - lo``, so every draw and the generator state after
it are those of ``randint``.  ``random_surface_sides`` makes the same draws
as ints and builds no Fraction.  It runs the rejection loops of its I draws,
28 per edge, inline and reads each cleared value from a table.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Dict, Tuple

from .alkanes import Alkane
from .curve_periods import StarConfig, TreeConfig, TreeEdgeData
from .elliptic import Mark, MarkedEllipticCurve, TauPoint, TwoTorsionLabel
from .errors import RangeError
from .gaussian import GaussianRational
from .relations import plucker_coordinates
from .surfaces import BLOCK_COLS, _primitive

_LABELS = list(TwoTorsionLabel)


def substream(seed: int, label: str) -> random.Random:
    """Independent PRNG for one named verification stream."""
    return random.Random(f"{seed}:{label}")


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A draw from [0, n), n > 0, exactly as ``random.Random._randbelow``."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def rand_fraction(rng: random.Random, lo: int = -9, hi: int = 9, max_den: int = 9) -> Fraction:
    """``Fraction(rng.randint(lo, hi), rng.randint(1, max_den))``, with the
    same draws."""
    getrandbits = rng.getrandbits
    n = lo + _below(getrandbits, hi - lo + 1)
    return Fraction(n, 1 + _below(getrandbits, max_den))


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


# the distinct attachment points a star can draw: n/d with |n| <= 12, d <= 6
STAR_POINTS = len({Fraction(n, d) for n in range(-12, 13) for d in range(1, 7)})


def random_star_config(g: int, rng: random.Random) -> StarConfig:
    if g > STAR_POINTS:
        raise RangeError(f"genus {g} needs {g} distinct star points; there are {STAR_POINTS}")
    curves = []
    for _ in range(g):
        c = rand_nonzero_fraction(rng, -6, 6, 6)
        curves.append(
            MarkedEllipticCurve(rand_tau(rng), (Mark(TwoTorsionLabel.O, GaussianRational(c)),))
        )
    points: list = []
    while len(points) < g:
        b = rand_fraction(rng, -12, 12, 6)
        if all(b != p for p in points):
            points.append(b)
    variables = tuple(f"t{i}" for i in range(1, g + 1))
    return StarConfig(tuple(curves), tuple(GaussianRational(b) for b in points), variables)


def random_tree_config(alkane: Alkane, rng: random.Random) -> TreeConfig:
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


# 12 * n/d for the I draw n = r - 5, d = 1 + s, indexed [r][s]
_CLEARED_I = tuple(tuple((r - 5) * (12 // (1 + s)) for s in range(4)) for r in range(11))


def random_surface_sides(alkane: Alkane, rng: random.Random) -> list:
    """Per edge, in edge order, a random surface model's primitive omega side
    keyed by ambient row and I side keyed by ambient column, drawn as ints:
    ``rand_nonzero_fraction(rng, -5, 5, 4)`` twice for omega, then 2 x 14
    ``rand_fraction(rng, -5, 5, 4)`` for I, the skew column left zero.  12
    clears each side; over its content, it is the primitive vector
    positively proportional to the drawn side."""
    getrandbits = rng.getrandbits
    sides = []
    for edge in alkane.edges:
        omega = {}
        for v, sign in zip(edge, (1, -1)):
            n = 0
            while not n:
                n = _below(getrandbits, 11) - 5
                d = 1 + _below(getrandbits, 4)
            omega[v - 1] = sign * n * (12 // d)
        i_side = {}
        for v in edge:
            for c in range(BLOCK_COLS * (v - 1), BLOCK_COLS * v - 1):
                # _below(getrandbits, 11) and _below(getrandbits, 4), inlined
                r = getrandbits(4)
                while r > 10:
                    r = getrandbits(4)
                s = getrandbits(3)
                while s > 3:
                    s = getrandbits(3)
                x = _CLEARED_I[r][s]
                if x:
                    i_side[c] = x
        sides.append((_primitive(omega), _primitive(i_side)))
    return sides
