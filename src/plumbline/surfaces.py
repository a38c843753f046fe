"""Surface-side statement-level checks on the W_{1^h} model: stratum
dimensions, rank-1 edge matrices, span dimensions, and the skew-block
vanishing property.

Every vertex block is a genus-1 elliptic block, one ambient row wide
and BLOCK_COLS columns wide, so an edge carries two omega scalars and two
I vectors.  These are synthetic data (random rational draws): the
verifiable content is linear-algebraic -- ranks, spans and zero patterns
-- and all of it is checked exactly.  An edge is given by its sides, the
one surface format: the omega side keyed by ambient row and the I side
keyed by ambient column, integer vectors of any content, as
``sampling.random_surface_sides`` draws them.  Pi_e is proportional to
their outer product, and one fraction-free elimination core, behind
``matrix_rank_exact`` and ``span_dimension_E_Gamma``, ranks on Python ints
by leading-key insertion: each row looks up the basis row at its largest
key, joins the basis if there is none, and is reduced by it otherwise.
The span hands it each edge as the factored pair of its sides; a pair is
multiplied out only when its lead collides, which an alkane's own edges,
whose leads are distinct, never do.  Only the rows that a reduction forms
are divided by their content.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .alkanes import Alkane
from .errors import RangeError, StructureError

# ---------------------------------------------------------------------------
# dimension formulas


def dim_period_domain(h: int) -> int:
    """h(10h+8) + h(h-1)/2."""
    if h < 1:
        raise RangeError(f"h must be >= 1, got {h}")
    return h * (10 * h + 8) + h * (h - 1) // 2


def dim_K(j: int) -> int:
    """18 - 4j for j in 0..4 (j designated quadruple-point fibres on a K3)."""
    if not 0 <= j <= 4:
        raise RangeError(f"j must lie in 0..4, got {j}")
    return 18 - 4 * j


def dim_V_Gamma(gamma: Alkane) -> int:
    """Vertex-wise sum of K-stratum dimensions minus the glueing conditions:
    sum_v (18 - 4*deg v) - (h-1).  ``checks.check_surface_dims`` compares it
    with the closed form 9h+9."""
    h = gamma.genus
    return sum(18 - 4 * d for d in gamma.degrees().values()) - (h - 1)


def dim_W(h_parts: Sequence[int]) -> int:
    """2*sum(h_i) - (r-1) for the locus with all elliptic factors equal."""
    parts = list(h_parts)
    if not parts:
        raise StructureError("dim_W needs at least one part")
    if any(p < 1 for p in parts):
        raise RangeError(f"all parts must be >= 1, got {parts}")
    return 2 * sum(parts) - (len(parts) - 1)


# ---------------------------------------------------------------------------
# genus-1 blocks and edge sides

# Columns of a genus-1 block: 11h+8 for h = 1, less the h x 4 zero block.
# Vertex v owns ambient row v-1 and the BLOCK_COLS columns from
# BLOCK_COLS*(v-1); the last of these is the block's skew column.
BLOCK_COLS = 15


def _outer(rows: Dict[int, int], cols: Dict[int, int]) -> Dict[Tuple[int, int], int]:
    """omega_e tensor I_e from an edge's sides, keyed by ambient (row, col)."""
    return {(r, c): w * x for r, w in rows.items() for c, x in cols.items()}


# ---------------------------------------------------------------------------
# exact linear algebra on sparse rational rows


def _cleared(row: Mapping[object, object]) -> Dict[object, int]:
    """The nonzero entries of a sparse int or Fraction row times the lcm of
    their denominators, as ints."""
    d = math.lcm(*[v.denominator for v in row.values()])
    return {k: n * (d // v.denominator) for k, v in row.items() if (n := v.numerator)}


def _primitive(row: Dict[object, int]) -> Dict[object, int]:
    """An integer row with no zero entries, divided by its content."""
    g = math.gcd(*row.values())
    return {k: v // g for k, v in row.items()} if g > 1 else row


def matrix_rank_exact(rows: Sequence[Mapping[object, object]]) -> int:
    """Rank of the span of sparse int or Fraction vectors keyed by arbitrary
    hashable, mutually comparable positions.

    Each row is cleared to integers once and inserted by its largest key
    (``_primitive_rank``); the elimination is then fraction-free.
    """
    return _primitive_rank(row for row in map(_cleared, rows) if row)


def _primitive_rank(rows: Iterable) -> int:
    """Rank of nonzero integer rows with no zero entries, of any content,
    by leading-key insertion.  The basis holds at most one row per lead
    (largest key), so its rows are independent.  A row whose lead has no
    basis row joins the basis; otherwise, with p the lead entry of that
    pivot and b its own, it becomes p * row - b * pivot, whose lead is
    smaller, divided by its content if nonzero, and is tried again.
    The rank is the size of the basis; no input row is changed.

    A row is a dict, or a pair (w, c) of nonzero sides that stands for the
    row ``_outer(w, c)``, keyed by (r, k), whose lead is (max(w), max(c))
    since keys order lexicographically.  A pair is multiplied out only when
    its lead collides; a pivot so multiplied out replaces its pair in the
    basis.  The edge rows of an alkane labelled with each parent below its
    children, as ``enumerate_alkanes`` gives them, have distinct leads: an
    edge's lead row is its child vertex, which has one parent edge.  So
    each edge costs one lookup and is never multiplied out.
    """
    basis: Dict[object, object] = {}
    for row in rows:
        while row:
            if type(row) is tuple:
                w, c = row
                lead = max(w), max(c)
            else:
                lead = max(row)
            pivot = basis.setdefault(lead, row)
            if pivot is row:
                break
            if type(pivot) is tuple:
                pivot = basis[lead] = _outer(*pivot)
            if type(row) is tuple:
                row = _outer(*row)
            p, b = pivot[lead], row[lead]
            new = {k: p * v for k, v in row.items()}
            for k, v in pivot.items():
                new[k] = new.get(k, 0) - b * v
            row = {k: v for k, v in new.items() if v}
            if row:
                row = _primitive(row)
    return len(basis)


def span_dimension_E_Gamma(sides: Sequence[Tuple[Dict[int, int], Dict[int, int]]]) -> int:
    """Exact dimension of the span of the edge matrices Pi_e, from their
    integer sides (``sampling.random_surface_sides``), which need not be
    primitive: each edge with nonzero sides w, c is the row w tensor c, a
    nonzero multiple of Pi_e, and is inserted by its lead as the pair
    (w, c), which an alkane's own edges never multiply out."""
    return _primitive_rank((rows, cols) for rows, cols in sides if rows and cols)


def skew_block_rank_one_vanishing(
    matrix: Sequence[Sequence[object]],
    block_rows: Sequence[int],
    block_cols: Sequence[int],
) -> bool:
    """Direct check of: rank(M) <= 1 and B skew-symmetric implies B = 0.

    Returns True when the implication holds for this matrix (vacuously if
    the premise fails), False only on a genuine counterexample.
    """
    rows = list(block_rows)
    cols = list(block_cols)
    if len(rows) != len(cols):
        raise StructureError("skew block must be square")
    b = [[matrix[r][c] for c in cols] for r in rows]
    n = len(rows)
    skew = all(not b[a][a] for a in range(n)) and all(
        not (b[a][c] + b[c][a]) for a in range(n) for c in range(a + 1, n)
    )
    premise = skew and matrix_rank_exact([dict(enumerate(row)) for row in matrix]) <= 1
    if not premise:
        return True
    return all(not b[a][c] for a in range(n) for c in range(n))
