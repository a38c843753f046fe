"""The randint + Fraction draws the samplers must reproduce, shared by the
sampler tests and by the tests that need a Fraction surface model."""

from fractions import Fraction

from plumbline.surfaces import BLOCK_COLS, EdgeData, SurfaceGraphModel


def fraction_oracle(rng, lo=-9, hi=9, max_den=9):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def nonzero_oracle(rng, lo=-9, hi=9, max_den=9):
    while True:
        f = fraction_oracle(rng, lo, hi, max_den)
        if f:
            return f


def surface_oracle(alkane, rng):
    """A random surface model with Fraction entries, drawn as
    ``sampling.random_surface_sides`` draws its sides."""
    edge_data = {}
    for (i, j) in alkane.edges:
        omega = (nonzero_oracle(rng, -5, 5, 4), -nonzero_oracle(rng, -5, 5, 4))
        i_vectors = tuple(
            tuple(fraction_oracle(rng, -5, 5, 4) for _ in range(BLOCK_COLS - 1)) + (Fraction(0),)
            for _ in range(2)
        )
        edge_data[(i, j)] = EdgeData((i, j), omega, i_vectors)
    return SurfaceGraphModel(alkane, edge_data)
