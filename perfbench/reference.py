"""A fixed piece of pure-Python work that measures how fast the host runs now.

Usage: ``python perfbench/reference.py`` prints the seconds the work took.

The work multiplies sparse polynomials in six variables with Fraction
coefficients, truncated at total degree 14: dicts keyed by exponent tuples
and big-integer fractions, the kind of work plumbline's jets do.  It does
not use plumbline, so no change to the program moves it; only the machine
does.  ``run.py`` runs it in a fresh process after every timed invocation,
as the invocations are run, and divides each invocation's time by it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Dict, Tuple

N_VARS = 6
ORDER = 14

Poly = Dict[Tuple[int, ...], Fraction]


def _random_poly(rng: random.Random, n_terms: int) -> Poly:
    poly: Poly = {}
    for _ in range(n_terms):
        e = tuple(rng.randrange(3) for _ in range(N_VARS))
        poly[e] = Fraction(rng.randrange(-50, 50), rng.randrange(1, 60))
    return poly


def _mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        da = sum(ea)
        for eb, cb in b.items():
            if da + sum(eb) <= ORDER:
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
    return out


def work() -> float:
    """Seconds taken by the fixed work; the inputs are the same every time."""
    rng = random.Random(7)
    t0 = time.perf_counter()
    p = _random_poly(rng, 120)
    for _ in range(2):
        p = _mul(p, _random_poly(rng, 80))
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(work()))
