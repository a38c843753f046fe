"""Surface-side statement-level checks: stratum dimensions, rank-1 edge
matrices, first-order block assembly, span dimensions, and the
skew-block vanishing property.

The constant per-vertex blocks and the integral vectors attached to edges
are synthetic data (random rational or user-supplied): the verifiable
content is linear-algebraic -- shapes, ranks, spans and zero patterns --
and all of it is checked exactly over Gaussian rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from .alkanes import Alkane, canonical_code
from .errors import FormulaViolationError, RangeError, StructureError
from .gaussian import GaussianRational
from .jets import Jet, JetRing

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
    integrals simply supply more zeros.
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
    blocks: Tuple[Tuple[Tuple[object, ...], ...], ...]
    edge_data: Mapping[Tuple[int, int], EdgeData]

    def __post_init__(self):
        r = self.alkane.genus
        if len(self.shapes) != r or len(self.blocks) != r:
            raise StructureError("one shape and one block per alkane vertex required")
        for v, (shape, block) in enumerate(zip(self.shapes, self.blocks), start=1):
            if len(block) != shape.rows or any(len(row) != shape.cols for row in block):
                raise StructureError(f"block at vertex {v} does not match its shape")
        object.__setattr__(self, "edge_data", dict(self.edge_data))
        if set(self.edge_data) != set(self.alkane.edges):
            raise StructureError("edge data keys do not match the alkane's edge set")
        for (i, j), data in self.edge_data.items():
            if data.edge != (i, j):
                raise StructureError(f"edge data stored under {(i, j)} claims edge {data.edge}")
            data.validate_against(self.shapes[i - 1], self.shapes[j - 1])

    def row_offset(self, vertex: int) -> int:
        return sum(s.rows for s in self.shapes[: vertex - 1])

    def col_offset(self, vertex: int) -> int:
        return sum(s.cols for s in self.shapes[: vertex - 1])

    @property
    def ambient_shape(self) -> Tuple[int, int]:
        return (
            sum(s.rows for s in self.shapes),
            sum(s.cols for s in self.shapes),
        )

    def variables(self) -> Tuple[str, ...]:
        return tuple(f"t{i}_{j}" for i, j in self.alkane.edges)

    def edge_var(self, edge: Tuple[int, int]) -> str:
        i, j = edge
        return f"t{i}_{j}"


def build_Pi(model: SurfaceGraphModel, edge: Tuple[int, int]) -> List[List[object]]:
    """The rank-<=1 ambient matrix omega_e tensor I_e of one edge."""
    data = model.edge_data[tuple(sorted(edge))]
    i, j = data.edge
    n_rows, n_cols = model.ambient_shape
    zero = GaussianRational(0)
    out = [[zero] * n_cols for _ in range(n_rows)]
    row_slots = [
        (model.row_offset(i), data.omega[0]),
        (model.row_offset(j), data.omega[1]),
    ]
    col_slots = [
        (model.col_offset(i), data.i_vectors[0]),
        (model.col_offset(j), data.i_vectors[1]),
    ]
    for r_off, rvec in row_slots:
        for a, w in enumerate(rvec):
            if not w:
                continue
            for c_off, cvec in col_slots:
                for b, x in enumerate(cvec):
                    if x:
                        out[r_off + a][c_off + b] = w * x
    return out


def assemble_surface_period(model: SurfaceGraphModel, ring: JetRing) -> Tuple[Tuple[Jet, ...], ...]:
    """Block-diagonal constant part plus sum_e t_e * Pi_e, modulo (t)^2."""
    if ring.order < 1:
        raise RangeError("surface assembly needs truncation order >= 1")
    for edge in model.alkane.edges:
        ring.var_index(model.edge_var(edge))  # raises on missing variable
    n_rows, n_cols = model.ambient_shape
    coerce = ring.field.coerce
    entries = [[ring.zero() for _ in range(n_cols)] for _ in range(n_rows)]
    for v in range(1, model.alkane.genus + 1):
        r0, c0 = model.row_offset(v), model.col_offset(v)
        for a, row in enumerate(model.blocks[v - 1]):
            for b, val in enumerate(row):
                if val:
                    entries[r0 + a][c0 + b] = ring.constant(coerce(val))
    # edge processing order must not matter; iterate the mapping as given
    for edge in model.edge_data:
        t = ring.variable(model.edge_var(edge))
        pi = build_Pi(model, edge)
        for r in range(n_rows):
            for c in range(n_cols):
                if pi[r][c]:
                    entries[r][c] = entries[r][c] + t * coerce(pi[r][c])
    return tuple(tuple(row) for row in entries)


# ---------------------------------------------------------------------------
# exact linear algebra on matrices of rationals


def matrix_rank_exact(rows: Sequence[Mapping[Tuple[int, int], object]]) -> int:
    """Rank of the span of sparse vectors keyed by arbitrary hashable positions."""
    work = [dict(r) for r in rows]
    rank = 0
    while work:
        row = work.pop(0)
        row = {k: v for k, v in row.items() if v}
        if not row:
            continue
        rank += 1
        key = min(row)
        pivot = row[key]
        reduced = []
        for other in work:
            if key in other and other[key]:
                factor = other[key] / pivot
                new = dict(other)
                for k, v in row.items():
                    w = new.get(k)
                    w = -factor * v if w is None else w - factor * v
                    if w:
                        new[k] = w
                    else:
                        new.pop(k, None)
                reduced.append(new)
            else:
                reduced.append(other)
        work = reduced
    return rank


def _sparsify(matrix: Sequence[Sequence[object]]) -> Dict[Tuple[int, int], object]:
    return {
        (r, c): v
        for r, row in enumerate(matrix)
        for c, v in enumerate(row)
        if v
    }


def dense_rank_exact(matrix: Sequence[Sequence[object]]) -> int:
    return matrix_rank_exact(
        [{c: v for c, v in enumerate(row) if v} for row in matrix]
    )


def span_dimension_E_Gamma(model: SurfaceGraphModel) -> int:
    """Exact dimension of the linear span of the edge matrices Pi_e."""
    vectors = []
    for edge in model.alkane.edges:
        vectors.append(_sparsify(build_Pi(model, edge)))
    return matrix_rank_exact(vectors)


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
