"""Octic asymptotic relations and the Grassmannian tangent cone.

For each quadruple i<j<k<l the quadratic identity
y_ij*y_kl - y_ik*y_jl + y_il*y_jk = 0 between 2x2 minors of a rank-2
frame, double-squared after substituting y^2 = 1/t, clears denominators to
the degree-8 polynomial

    f = 2*t_ij*t_kl*t_il*t_jk*t_ik*t_jl*(t_ik*t_jl + t_il*t_jk + t_ij*t_kl)
        - ((t_ik*t_jl*t_il*t_jk)^2 + (t_ij*t_kl*t_ik*t_jl)^2
           + (t_ij*t_kl*t_il*t_jk)^2)

whose negative part runs over the three splittings of {i,j,k,l} into
complementary pairs.  This "corrected" form vanishes identically on points
t_ab = y_ab^-2; a variant whose first negative monomial drops the pair
{ij,kl} instead ("printed") does not, and is kept purely as a corruption
control.  Entries are mappings keyed by 1-based pairs (a, b) with a < b,
whose values may be numbers or jets: with jet entries the vanishing can be
checked coefficient-by-coefficient through a given total degree.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .curve_periods import StarConfig, star_period_leading
from .errors import DegenerateDataError, RangeError, StructureError
from .frozen import Frozen
from .jets import EXACT_FIELD, Jet, JetRing, lookahead_product

OCTIC_VARIANTS = ("corrected", "printed")
OCTIC_MIN_GENUS = 4  # an octic takes four distinct indices i < j < k < l


def all_octic_indices(g: int) -> List[Tuple[int, int, int, int]]:
    """Every quadruple 1 <= i < j < k < l <= g, in lexicographic order."""
    return list(combinations(range(1, g + 1), 4))


Entries = Mapping[Tuple[int, int], object]


def _square(*factors):
    """The square of f1*f2*f3*f4: the factors are folded with their own
    valuations reserved, since the base will meet itself once more, and
    the base is then multiplied by itself once."""
    # numbers and zero jets add no degree; a zero factor makes the base zero
    reserve = sum(f.valuation() or 0 for f in factors if isinstance(f, Jet))
    base = lookahead_product(factors, reserve=reserve)
    return base * base


def octic_eval(entries: Entries, idx: Tuple[int, int, int, int], variant: str = "corrected"):
    """Evaluate the degree-8 relation on the six off-diagonal entries of idx.

    variant "corrected" is the form that vanishes on the cone; "printed"
    keeps the defective first negative monomial and serves as a negative
    control only.
    """
    if variant not in OCTIC_VARIANTS:
        raise StructureError(f"unknown octic variant {variant!r}")
    i, j, k, l = idx
    tij, tik, til = entries[(i, j)], entries[(i, k)], entries[(i, l)]
    tjk, tjl, tkl = entries[(j, k)], entries[(j, l)], entries[(k, l)]
    ij_kl, il_jk, ik_jl = tij * tkl, til * tjk, tik * tjl
    positive = lookahead_product((2, ij_kl, il_jk, ik_jl, ik_jl + il_jk + ij_kl))
    sq_ik_jl__il_jk = _square(tik, tjl, til, tjk)
    sq_ij_kl__ik_jl = _square(tij, tkl, tik, tjl)
    sq_ij_kl__il_jk = _square(tij, tkl, til, tjk)
    if variant == "corrected":
        negative = sq_ik_jl__il_jk + sq_ij_kl__ik_jl + sq_ij_kl__il_jk
    else:
        negative = _square(tij, til, tjk, tjl) + sq_ik_jl__il_jk + sq_ij_kl__ik_jl
    return positive - negative


def plucker_coordinates(r0: Sequence, r1: Sequence) -> Dict[Tuple[int, int], object]:
    """2x2 column minors y_ij of the 2 x g frame (r0, r1), keyed by 1-based
    (i,j) with i<j."""
    g = len(r0)
    return {
        (i + 1, j + 1): r0[i] * r1[j] - r0[j] * r1[i]
        for i in range(g)
        for j in range(i + 1, g)
    }


def plucker_to_cone(y: Entries) -> Dict[Tuple[int, int], object]:
    """tau_ij = y_ij^-2 on the chart where every coordinate is nonzero."""
    values = {}
    for pair, coord in y.items():
        if not coord:
            raise DegenerateDataError(
                f"Pluecker coordinate y_{pair} = 0: the cone chart map is undefined there"
            )
        if isinstance(coord, int):
            coord = Fraction(coord)  # keep integer frames exact
        values[pair] = 1 / (coord * coord)
    return values


# ---------------------------------------------------------------------------
# jet verification through degree 16


MOD_T9_SAFE_DEGREE = 16  # octic monomials have parameter degree 16; corrections start later
ORDER = MOD_T9_SAFE_DEGREE + 1  # the smallest ring that can report the first survivor


class AsymptoticReport(Frozen):
    __slots__ = _fields = ("genus", "mode", "octics_checked", "passed", "min_surviving_degree")

    def to_json_dict(self) -> dict:
        return {
            "g": self.genus,
            "mode": self.mode,
            "order": ORDER,
            "octics_checked": self.octics_checked,
            "all_vanish_through": MOD_T9_SAFE_DEGREE,
            "pass": self.passed,
            "min_surviving_degree": self.min_surviving_degree,
        }


def perturbed_star_entries(
    s: StarConfig,
    ring: JetRing,
    seed: int,
    corrupt_entry: Optional[Tuple[int, int]] = None,
) -> Dict[Tuple[int, int], Jet]:
    """Off-diagonal jets tau_ij = taubar_ij * (1 + l_ij) with l_ij random
    rational linear forms in the ring variables; optionally shift one entry
    off the cone by +1 as a negative control."""
    rng = random.Random(seed)
    base = star_period_leading(s, ring)
    g = s.genus
    out: Dict[Tuple[int, int], Jet] = {}
    for i in range(1, g + 1):
        for j in range(i + 1, g + 1):
            coeffs = {
                name: Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                for name in ring.variables
            }
            unit = ring.linear_form(coeffs)
            out[(i, j)] = base.entry(i, j) * unit
    if corrupt_entry is not None:
        pair = (min(corrupt_entry), max(corrupt_entry))
        out[pair] = out[pair] + 1
    return out


def verify_asymptotic_vanishing(
    s: StarConfig,
    seed: int,
    corrupt_entry: Optional[Tuple[int, int]] = None,
    field=EXACT_FIELD,
) -> AsymptoticReport:
    """Check that every octic jet vanishes through total degree 16.

    Each off-diagonal entry is the leading star product times a random
    degree-1 unit, so octic monomials have parameter degree exactly 16 and
    the corrections from the units begin at degree 17; the minimum actually
    surviving degree is reported, never asserted.
    """
    g = s.genus
    if g < OCTIC_MIN_GENUS:
        raise RangeError(f"octic relations need genus >= {OCTIC_MIN_GENUS}")
    ring = JetRing(tuple(s.variables), ORDER, field)
    entries = perturbed_star_entries(s, ring, seed, corrupt_entry)
    octics = all_octic_indices(g)
    degrees = [octic_eval(entries, idx).min_nonzero_degree() for idx in octics]
    min_surviving = min((d for d in degrees if d is not None), default=None)
    return AsymptoticReport(
        genus=g,
        mode=ring.field.mode,
        octics_checked=len(octics),
        passed=min_surviving is None or min_surviving > MOD_T9_SAFE_DEGREE,
        min_surviving_degree=min_surviving,
    )
