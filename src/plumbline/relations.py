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

import cmath
import math
import random
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import DegenerateDataError, RangeError, StructureError
from .frozen import Frozen
from .jets import EXACT_FIELD, CoefficientField, Jet, JetRing

OCTIC_VARIANTS = ("corrected", "printed")
OCTIC_MIN_GENUS = 4  # an octic takes four distinct indices i < j < k < l


def all_octic_indices(g: int) -> List[Tuple[int, int, int, int]]:
    """Every quadruple 1 <= i < j < k < l <= g, in lexicographic order."""
    return list(combinations(range(1, g + 1), 4))


Entries = Mapping[Tuple[int, int], object]


def _square(pair, c, d):
    """The square of pair*c*d, where ``pair`` is the product of the first
    two factors, shared with the other terms of the octic."""
    base = pair * c * d
    return base * base


def octic_eval(
    entries: Entries, idx: Tuple[int, int, int, int], variant: str = "corrected", *, ring=None
):
    """Evaluate the degree-8 relation on the six off-diagonal entries of idx.

    variant "corrected" is the form that vanishes on the cone; "printed"
    keeps the defective first negative monomial and serves as a negative
    control only.  With ``ring``, the entries are reduced star entries, t_a
    t_b divided out, and the octic is lifted back by (t_i t_j t_k t_l)^4
    into ``ring``, a ring of the same variables: every octic monomial holds
    each of t_i, t_j, t_k and t_l four times.
    """
    if variant not in OCTIC_VARIANTS:
        raise StructureError(f"unknown octic variant {variant!r}")
    i, j, k, l = idx
    tij, tik, til = entries[(i, j)], entries[(i, k)], entries[(i, l)]
    tjk, tjl, tkl = entries[(j, k)], entries[(j, l)], entries[(k, l)]
    ij_kl, il_jk, ik_jl = tij * tkl, til * tjk, tik * tjl
    positive = 2 * ij_kl * il_jk * ik_jl * (ik_jl + il_jk + ij_kl)
    sq_ik_jl__il_jk = _square(ik_jl, til, tjk)
    sq_ij_kl__ik_jl = _square(ij_kl, tik, tjl)
    sq_ij_kl__il_jk = _square(ij_kl, til, tjk)
    if variant == "corrected":
        negative = sq_ik_jl__il_jk + sq_ij_kl__ik_jl + sq_ij_kl__il_jk
    else:
        negative = _square(tij * til, tjk, tjl) + sq_ik_jl__il_jk + sq_ij_kl__ik_jl
    f = positive - negative
    if ring is None:
        return f
    # the packed key of (t_i t_j t_k t_l)^4 in ``ring`` (jets module docstring)
    lift = (16 << ring.shift) + sum(4 << (ring.width * (a - 1)) for a in idx)
    reduced = f.ring
    terms = {
        ring._key(reduced._exponents(key)) + lift: c
        for key, c in f._terms.items()
        if (key >> reduced.shift) + 16 <= ring.order
    }
    return Jet(ring, terms, f._den)


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
# star configurations and their leading coefficients
#
# ``curve_periods.star_period_leading`` reads them too.  They live here,
# beside ``verify_asymptotic_vanishing``, because every process loads this
# module for the parser's ``OCTIC_MIN_GENUS`` and none needs the assemblies
# to check the octics.


def _two_pi_i(field: CoefficientField):
    """The transcendental factor 2*pi*i, or 1 in exact units, which divide it out."""
    return field.one() if field.is_exact else complex(0.0, 2.0 * math.pi)


def _finite(field: CoefficientField, x, what: str):
    """``x``, refused when a float product has left the float field's range."""
    if not (field.is_exact or cmath.isfinite(x)):
        raise RangeError(f"value beyond the float field's range: {what} overflows")
    return x


class StarConfig(Frozen):
    """g elliptic tails attached to a projective line at b_1..b_g."""

    __slots__ = _fields = ("curves", "attach_points", "variables")

    def _check(self):
        curves, attach_points = self.curves, self.attach_points
        g = len(curves)
        if len(attach_points) != g or len(self.variables) != g:
            raise StructureError("curves, attach points and variables must align")
        if g < 2:
            raise RangeError("a star needs at least two tails")
        for i in range(g):
            if not curves[i].marks:
                raise StructureError(f"curve {i + 1} carries no mark")
            for j in range(i + 1, g):
                if attach_points[i] == attach_points[j]:
                    raise DegenerateDataError(
                        f"attachment points {i + 1} and {j + 1} coincide"
                    )

    @property
    def genus(self) -> int:
        return len(self.curves)


def star_leading_coefficients(s: StarConfig, field: CoefficientField) -> dict:
    """kappabar_ij = kappa v_i v_j / (b_i - b_j)^2 for 1-based i < j: the
    star entry (i, j) is kappabar_ij t_i t_j."""
    coerce = field.coerce
    kappa = _two_pi_i(field) / 16
    v = [coerce(c.mark_value(0)) for c in s.curves]
    b = [coerce(x) for x in s.attach_points]
    out = {}
    for i in range(s.genus):
        for j in range(i + 1, s.genus):
            d = b[i] - b[j]
            if not d * d:  # distinct float points whose squared distance underflows
                raise RangeError(
                    f"value beyond the float field's range: (b{i + 1} - b{j + 1})^2 underflows to 0"
                )
            coeff = kappa * v[i] * v[j] / (d * d)
            out[(i + 1, j + 1)] = _finite(field, coeff, f"star entry ({i + 1},{j + 1})")
    return out


# ---------------------------------------------------------------------------
# jet verification through degree 16
#
# A star entry is kappabar t_a t_b (1 + l) with l linear, so an octic on
# them is (t_i t_j t_k t_l)^4 times the octic on kappabar (1 + l): its
# order-1 jet, whose constant term lifts to degree 16, the star-on-cone
# identity, and whose linear part lifts to degree 17, the first survivor.


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
    seed: int,
    corrupt_entry: Optional[Tuple[int, int]] = None,
    field: CoefficientField = EXACT_FIELD,
) -> Dict[Tuple[int, int], Jet]:
    """Reduced off-diagonal jets kappabar_ij * (1 + l_ij), with l_ij random
    rational linear forms in the star's variables, in their order-1 ring:
    the star entries tau_ij = kappabar_ij t_i t_j (1 + l_ij) with t_i t_j
    divided out, which ``octic_eval`` puts back.  Optionally double one
    kappabar, which moves that entry off the cone, as a negative control."""
    rng = random.Random(seed)
    ring = JetRing(s.variables, 1, field)
    kbar = star_leading_coefficients(s, field)
    out: Dict[Tuple[int, int], Jet] = {}
    for pair, coeff in kbar.items():
        coeffs = {
            name: Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            for name in ring.variables
        }
        out[pair] = ring.linear_form(coeffs) * coeff
    if corrupt_entry is not None:
        pair = (min(corrupt_entry), max(corrupt_entry))
        out[pair] = out[pair] * 2
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
    ring = JetRing(s.variables, ORDER, field)
    entries = perturbed_star_entries(s, seed, corrupt_entry, field)
    octics = all_octic_indices(g)
    degrees = [octic_eval(entries, idx, ring=ring).min_nonzero_degree() for idx in octics]
    min_surviving = min((d for d in degrees if d is not None), default=None)
    return AsymptoticReport(
        genus=g,
        mode=field.mode,
        octics_checked=len(octics),
        passed=min_surviving is None or min_surviving > MOD_T9_SAFE_DEGREE,
        min_surviving_degree=min_surviving,
    )
