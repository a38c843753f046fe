"""Surface-side statement-level checks: stratum dimensions, rank-1 edge
matrices, span dimensions, and the skew-block vanishing property.

The omega and I vectors attached to edges are synthetic data (random
rational or user-supplied): the verifiable content is linear-algebraic --
shapes, ranks, spans and zero patterns -- and all of it is checked
exactly.  The edge matrices and the span rank run on Python ints: each
edge's omega and I are cleared of their denominators once, and the rank
eliminates fraction-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .alkanes import Alkane, canonical_code
from .errors import FormulaViolationError, RangeError, StructureError

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
    """Vertex-wise sum of K-stratum dimensions minus the glueing conditions.

    Computed as sum_v (18 - 4*deg v) - (h-1) and cross-checked against the
    closed form 9h+9 before returning; disagreement is a bug, not bad input.
    """
    h = gamma.genus
    by_valency = sum(18 - 4 * d for d in gamma.degrees().values()) - (h - 1)
    closed_form = 9 * h + 9
    if by_valency != closed_form:
        raise FormulaViolationError(
            f"valency sum gave {by_valency} but the closed form is {closed_form} "
            f"for alkane {canonical_code(gamma)}"
        )
    return closed_form


def dim_W(h_parts: Sequence[int]) -> int:
    """2*sum(h_i) - (r-1) for the locus with all elliptic factors equal."""
    parts = list(h_parts)
    if not parts:
        raise StructureError("dim_W needs at least one part")
    if any(p < 1 for p in parts):
        raise RangeError(f"all parts must be >= 1, got {parts}")
    return 2 * sum(parts) - (len(parts) - 1)


# ---------------------------------------------------------------------------
# block shapes and edge data


@dataclass(frozen=True)
class SurfaceBlockShape:
    h: int

    def __post_init__(self):
        if self.h < 1:
            raise RangeError(f"block genus must be >= 1, got {self.h}")

    @property
    def rows(self) -> int:
        return self.h

    @property
    def cols(self) -> int:
        # 11h+8 with the h x 4 zero block discarded
        return 11 * self.h + 4


def _as_vector(x) -> Tuple[object, ...]:
    if isinstance(x, (list, tuple)):
        return tuple(x)
    return (x,)


@dataclass(frozen=True)
class EdgeData:
    """Data of one configuration edge {i,j}, i < j.

    ``omega`` is the signed pair ([omega_i(P_ij)], [-omega_j(P_ji)]) as
    per-vertex vectors; a bare number is accepted for a genus-1 block.
    ``i_vectors`` are the per-vertex integral vectors, of the full column
    width of each block; the trailing h coordinates (the skew block) are
    required to be zero, and callers modelling additional vanishing
    integrals simply supply more zeros.  Every entry is an int or a
    ``Fraction``.
    """

    edge: Tuple[int, int]
    omega: Tuple[Tuple[object, ...], Tuple[object, ...]]
    i_vectors: Tuple[Tuple[object, ...], Tuple[object, ...]]

    def __post_init__(self):
        i, j = self.edge
        if i >= j:
            raise StructureError(f"edge must be stored low-high, got {self.edge}")
        object.__setattr__(self, "omega", tuple(_as_vector(v) for v in self.omega))
        object.__setattr__(self, "i_vectors", tuple(tuple(v) for v in self.i_vectors))

    def validate_against(self, shape_low: SurfaceBlockShape, shape_high: SurfaceBlockShape):
        for side, shape, name in (
            (0, shape_low, "low"),
            (1, shape_high, "high"),
        ):
            if len(self.omega[side]) != shape.rows:
                raise StructureError(
                    f"omega vector on the {name} side has length {len(self.omega[side])}, "
                    f"block genus is {shape.h}"
                )
            iv = self.i_vectors[side]
            if len(iv) != shape.cols:
                raise StructureError(
                    f"I vector on the {name} side has length {len(iv)}, "
                    f"block width is {shape.cols}"
                )
            if any(iv[-shape.h + k] for k in range(shape.h)):
                raise StructureError(
                    f"trailing {shape.h} coordinates of the {name}-side I vector "
                    "must vanish (skew block)"
                )


@dataclass(frozen=True)
class SurfaceGraphModel:
    """Alkane-shaped configuration of surface blocks with per-edge data."""

    alkane: Alkane
    shapes: Tuple[SurfaceBlockShape, ...]
    edge_data: Mapping[Tuple[int, int], EdgeData]
    # ambient row and column offset of each vertex's block, vertex 1 first
    _row_offsets: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    _col_offsets: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.shapes) != self.alkane.genus:
            raise StructureError("one shape per alkane vertex required")
        object.__setattr__(self, "edge_data", dict(self.edge_data))
        if set(self.edge_data) != set(self.alkane.edges):
            raise StructureError("edge data keys do not match the alkane's edge set")
        for (i, j), data in self.edge_data.items():
            if data.edge != (i, j):
                raise StructureError(f"edge data stored under {(i, j)} claims edge {data.edge}")
            data.validate_against(self.shapes[i - 1], self.shapes[j - 1])
        rows = accumulate((s.rows for s in self.shapes), initial=0)
        cols = accumulate((s.cols for s in self.shapes), initial=0)
        object.__setattr__(self, "_row_offsets", tuple(rows))
        object.__setattr__(self, "_col_offsets", tuple(cols))

    def row_offset(self, vertex: int) -> int:
        return self._row_offsets[vertex - 1]

    def col_offset(self, vertex: int) -> int:
        return self._col_offsets[vertex - 1]


def _cleared(
    offsets: Iterable[int], vectors: Sequence[Sequence[object]]
) -> Tuple[int, List[Tuple[int, int]]]:
    """Scale the per-vertex rational ``vectors`` to integers by the lcm d > 0
    of their denominators: d and the nonzero scaled entries, each keyed by
    its vertex offset plus its index."""
    d = math.lcm(*(x.denominator for vec in vectors for x in vec))
    return d, [
        (off + k, x.numerator * (d // x.denominator))
        for off, vec in zip(offsets, vectors)
        for k, x in enumerate(vec)
        if x
    ]


def edge_matrix(
    model: SurfaceGraphModel, edge: Tuple[int, int]
) -> Tuple[int, Dict[Tuple[int, int], int]]:
    """The rank-<=1 ambient matrix omega_e tensor I_e of one edge {i, j},
    i < j, as ``(d, entries)``: Pi_e = entries / d with d > 0, and
    ``entries`` holds the nonzero integers keyed by ambient (row, col)."""
    data = model.edge_data[edge]
    d_omega, rows = _cleared(map(model.row_offset, edge), data.omega)
    d_i, cols = _cleared(map(model.col_offset, edge), data.i_vectors)
    return d_omega * d_i, {(r, c): w * x for r, w in rows for c, x in cols}


# ---------------------------------------------------------------------------
# exact linear algebra on sparse rational rows


def _primitive(row: Dict[object, int]) -> Dict[object, int]:
    """An integer row without its zero entries, divided by its content."""
    row = {k: v for k, v in row.items() if v}
    g = math.gcd(*row.values())
    return {k: v // g for k, v in row.items()} if g > 1 else row


def matrix_rank_exact(rows: Sequence[Mapping[object, object]]) -> int:
    """Rank of the span of sparse int or Fraction vectors keyed by arbitrary
    hashable, mutually comparable positions.

    Each row is cleared to integers once; elimination is then
    fraction-free, each new row divided by the gcd of its entries.
    """
    work = []
    for r in rows:
        d = math.lcm(*(v.denominator for v in r.values()))
        row = _primitive({k: v.numerator * (d // v.denominator) for k, v in r.items()})
        if row:
            work.append(row)
    rank = 0
    while work:
        row = work.pop(0)
        rank += 1
        key = min(row)
        p = row[key]
        reduced = []
        for other in work:
            b = other.get(key)
            if b:
                new = {k: p * v for k, v in other.items()}
                for k, v in row.items():
                    new[k] = new.get(k, 0) - b * v
                other = _primitive(new)
            if other:
                reduced.append(other)
        work = reduced
    return rank


def span_dimension_E_Gamma(model: SurfaceGraphModel) -> int:
    """Exact dimension of the linear span of the edge matrices Pi_e; the
    span of entries / d is that of the integer entries."""
    return matrix_rank_exact([edge_matrix(model, edge)[1] for edge in model.alkane.edges])


def all_two_by_two_minors_vanish(matrix: Sequence[Sequence[object]]) -> bool:
    rows = [list(r) for r in matrix]
    n = len(rows)
    for a in range(n):
        ra = rows[a]
        for b in range(a + 1, n):
            rb = rows[b]
            m = len(ra)
            for c in range(m):
                if not ra[c] and not rb[c]:
                    continue
                for d in range(c + 1, m):
                    if ra[c] * rb[d] - ra[d] * rb[c]:
                        return False
    return True


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
    premise = skew and all_two_by_two_minors_vanish(matrix)
    if not premise:
        return True
    return all(not b[a][c] for a in range(n) for c in range(n))
