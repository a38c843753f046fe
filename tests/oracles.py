"""The draws the samplers must reproduce, shared by the sampler tests and
by the tests that need a Fraction surface model: ``randint``'s for the
star, tree and frame draws, two ``randbytes`` calls for a surface model;
the recursive labelling of an alkane code; the jet of an exponent ->
coefficient mapping, which only tests build; and the 2x2-minors test of
rank one, the reference of the rank-one check."""

import itertools
from fractions import Fraction

from plumbline.alkanes import Alkane, _root_children
from plumbline.surfaces import BLOCK_COLS


def jet_of(ring, terms):
    """The jet of ``ring`` with coefficient ``c`` at each exponent vector
    ``e`` of ``terms``; each ``e`` must lie in the ring."""
    return ring._packed({ring._key(tuple(e)): c for e, c in terms.items()})


def fraction_oracle(rng, lo=-9, hi=9, max_den=9):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def nonzero_oracle(rng, lo=-9, hi=9, max_den=9):
    while True:
        f = fraction_oracle(rng, lo, hi, max_den)
        if f:
            return f


# n/d for n in -5..5 and d in 1..4, one slot per (n, d), in the order of
# sampling's tables
_I_FRACTIONS = tuple(Fraction(n, d) for n in range(-5, 6) for d in range(1, 5))
_OMEGA_FRACTIONS = tuple(f for f in _I_FRACTIONS if f)


def _uniform_slots(rng, k, n):
    """k slots drawn uniformly from range(n): each byte of ``rng.randbytes``
    below 256 - 256 % n gives slot byte % n, the others are dropped, and the
    dropped ones are drawn again, as many bytes as are missing."""
    slots = []
    while len(slots) < k:
        slots += [b % n for b in rng.randbytes(k - len(slots)) if b < 256 - 256 % n]
    return slots


def surface_oracle(alkane, rng):
    """A random surface model with Fraction entries, drawn as
    ``sampling.random_surface_sides`` draws its sides: per edge {i, j},
    i < j, in edge order, the signed omega pair (omega_i, -omega_j) and
    the two I vectors, BLOCK_COLS wide with a zero skew coordinate.  The
    omega slots come from the first ``randbytes`` call (and its top-ups),
    then the I slots from a second."""
    edges = alkane.edges
    width = BLOCK_COLS - 1
    # each generator draws its slots as it is made, omega first
    omegas = (_OMEGA_FRACTIONS[s] for s in _uniform_slots(rng, 2 * len(edges), 40))
    entries = (_I_FRACTIONS[s] for s in _uniform_slots(rng, 2 * width * len(edges), 44))
    model = {}
    for edge in edges:
        omega = (next(omegas), -next(omegas))
        i_vectors = tuple(
            tuple(next(entries) for _ in range(width)) + (Fraction(0),) for _ in range(2)
        )
        model[edge] = omega, i_vectors
    return model


def _ambient(edge, omega, i_vectors):
    """An edge's omega keyed by ambient row and its I keyed by ambient column."""
    offsets = (BLOCK_COLS * (v - 1) for v in edge)
    cols = {c + k: x for c, vec in zip(offsets, i_vectors) for k, x in enumerate(vec)}
    return {v - 1: w for v, w in zip(edge, omega)}, cols


def _times_12(side):
    """12 times the nonzero entries of a side, as ints: every denominator of
    a drawn n/d, d in 1..4, divides 12."""
    cleared = {k: 12 * v for k, v in side.items() if v}
    assert all(v.denominator == 1 for v in cleared.values()), side
    return {k: v.numerator for k, v in cleared.items()}


def oracle_sides(model):
    """Per edge, in edge order, the omega and I sides of a Fraction model
    times 12, as ints, divided by nothing else: what
    ``sampling.random_surface_sides`` returns for the same draws."""
    return [tuple(map(_times_12, _ambient(edge, *data))) for edge, data in model.items()]


def oracle_pi(model, edge):
    """The Fraction Pi_e = omega_e tensor I_e of one edge, its nonzero
    entries keyed by ambient (row, col)."""
    rows, cols = _ambient(edge, *model[edge])
    return {(r, c): v for r, w in rows.items() for c, x in cols.items() if (v := w * x)}


def rank_one_by_minors(c):
    """Whether a square matrix of Gaussian rationals has rank exactly 1: some
    entry is nonzero and every 2x2 minor vanishes."""
    if not any(v for row in c for v in row):
        return False  # rank 0
    g = len(c)
    return all(
        not (c[i][j] * c[k][l] - c[i][l] * c[k][j])
        for i in range(g)
        for k in range(i + 1, g)
        for j in range(g)
        for l in range(j + 1, g)
    )


def alkane_from_code_recursive(code):
    """An alkane code's labelled tree, vertices numbered in DFS preorder,
    built by recursion over the code's root children."""
    edges = []
    counter = itertools.count(1)

    def build(c):
        v = next(counter)
        for kid in _root_children(c):
            edges.append((v, build(kid)))
        return v

    build(code)
    return Alkane(next(counter) - 1, edges)
