"""The randint + Fraction draws the samplers must reproduce, shared by the
sampler tests and by the tests that need a Fraction surface model; and
the jet of an exponent -> coefficient mapping, which only tests build."""

from fractions import Fraction

from plumbline.surfaces import BLOCK_COLS, _cleared, _primitive


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


def surface_oracle(alkane, rng):
    """A random surface model with Fraction entries, drawn as
    ``sampling.random_surface_sides`` draws its sides: per edge {i, j},
    i < j, in edge order, the signed omega pair (omega_i, -omega_j) and
    the two I vectors, BLOCK_COLS wide with a zero skew coordinate."""
    model = {}
    for edge in alkane.edges:
        omega = (nonzero_oracle(rng, -5, 5, 4), -nonzero_oracle(rng, -5, 5, 4))
        i_vectors = tuple(
            tuple(fraction_oracle(rng, -5, 5, 4) for _ in range(BLOCK_COLS - 1)) + (Fraction(0),)
            for _ in range(2)
        )
        model[edge] = omega, i_vectors
    return model


def _ambient(edge, omega, i_vectors):
    """An edge's omega keyed by ambient row and its I keyed by ambient column."""
    offsets = (BLOCK_COLS * (v - 1) for v in edge)
    cols = {c + k: x for c, vec in zip(offsets, i_vectors) for k, x in enumerate(vec)}
    return {v - 1: w for v, w in zip(edge, omega)}, cols


def oracle_sides(model):
    """Per edge, in edge order, the omega and I sides of a Fraction model
    cleared to integers and divided by their contents: what
    ``sampling.random_surface_sides`` returns for the same draws."""
    return [
        tuple(_primitive(_cleared(side)[1]) for side in _ambient(edge, *data))
        for edge, data in model.items()
    ]


def oracle_pi(model, edge):
    """The Fraction Pi_e = omega_e tensor I_e of one edge, its nonzero
    entries keyed by ambient (row, col)."""
    rows, cols = _ambient(edge, *model[edge])
    return {(r, c): v for r, w in rows.items() for c, x in cols.items() if (v := w * x)}
