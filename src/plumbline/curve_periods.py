"""First-order period matrices of plumbed curve families, as jets.

Three assemblies are provided:

* pairwise: diag blocks + lambda * t * (u tensor u) with
  u = [omega_a(a), -omega_b(b)] and lambda = 2*pi*i/4;
* star over P^1: off-diagonal (i,j) entry kappa * t_i t_j v_i v_j/(b_i-b_j)^2
  with kappa = 2*pi*i/16, diagonal first-order corrections dropped
  (this models only the leading off-diagonal products);
* tree of elliptic curves along an alkane: one rank-1 pairwise contribution
  per edge, diagonal corrections kept.

The ring's coefficient field alone picks the units: over the exact field
the transcendental factor 2*pi*i is divided out (lambda = 1/4, kappa =
1/16), over the float field it is kept.

Pair and tree matrices are first order, modulo the square of the parameter
ideal; star off-diagonals have bidegree (1,1), so a star needs order 2.
"""

from __future__ import annotations

import cmath
import math
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple, Union

from .alkanes import canonical_code
from .elliptic import MarkedEllipticCurve, TwoTorsionLabel
from .errors import DegenerateDataError, RangeError, StructureError
from .frozen import Frozen
from .jets import CoefficientField, Jet, JetRing


def _two_pi_i(field: CoefficientField):
    """The transcendental factor 2*pi*i, or 1 in exact units, which divide it out."""
    return field.one() if field.is_exact else complex(0.0, 2.0 * math.pi)


# ---------------------------------------------------------------------------
# configurations


class CurveBlock(Frozen):
    """A constant symmetric period block with the form values at the
    attachment point.  An elliptic curve is the 1x1 case."""

    __slots__ = _fields = ("tau_block", "omega_at_point")

    def _check(self):
        tau_block = self.tau_block
        g = len(tau_block)
        if g == 0 or any(len(row) != g for row in tau_block):
            raise StructureError("tau block must be square and nonempty")
        if len(self.omega_at_point) != g:
            raise StructureError("omega vector length must match block size")
        for i in range(g):
            for j in range(g):
                if tau_block[i][j] != tau_block[j][i]:
                    raise StructureError("tau block must be symmetric")


PairSide = Union[CurveBlock, MarkedEllipticCurve]


def _as_block(side: PairSide, mark_index: int) -> CurveBlock:
    if isinstance(side, CurveBlock):
        return side
    return CurveBlock(((side.tau.value,),), (side.mark_value(mark_index),))


class PairPlumbing(Frozen):
    __slots__ = _fields = ("curve_a", "curve_b", "t", "mark_a", "mark_b")
    _defaults = {"mark_a": 0, "mark_b": 0}


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


class TreeEdgeData(Frozen):
    """Plumbing data of one alkane edge {i,j} with i < j: the jet variable
    and, per endpoint, the 2-torsion attachment label and the local
    coordinate's leading coefficient."""

    __slots__ = _fields = ("var", "label_low", "coeff_low", "label_high", "coeff_high")

    def _check(self):
        if not self.coeff_low or not self.coeff_high:
            raise DegenerateDataError("zero leading coefficient at an attachment mark")


class TreeConfig(Frozen):
    __slots__ = _fields = ("alkane", "taus", "edge_data")

    def _check(self):
        g = self.alkane.genus
        if len(self.taus) != g:
            raise StructureError(f"{len(self.taus)} curves for a genus-{g} alkane")
        edge_data = dict(self.edge_data)
        object.__setattr__(self, "edge_data", edge_data)
        if set(edge_data) != set(self.alkane.edges):
            raise StructureError("edge data keys do not match the alkane's edge set")
        per_vertex: Dict[int, List[TwoTorsionLabel]] = {}
        for (i, j), data in edge_data.items():
            per_vertex.setdefault(i, []).append(data.label_low)
            per_vertex.setdefault(j, []).append(data.label_high)
        for v, labels in per_vertex.items():
            if len(set(labels)) != len(labels):
                raise StructureError(f"repeated 2-torsion attachment label at vertex {v}")

    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(d.var for d in self.edge_data.values())


# ---------------------------------------------------------------------------
# the matrix-of-jets carrier


def _upper_pairs(g: int):
    return ((i, j) for i in range(1, g + 1) for j in range(i, g + 1))


class PeriodMatrixJet(Frozen):
    """Symmetric matrix of jets, stored once per unordered pair: ``entries``
    maps each 1-based (i, j) with i <= j to its jet."""

    __slots__ = ("genus", "entries", "meta")
    _fields = ("entries", "meta")
    _defaults = {"meta": None}

    def _check(self):
        entries = dict(self.entries)
        g = max((j for _, j in entries), default=0)
        if g < 1 or set(entries) != set(_upper_pairs(g)):
            raise StructureError("period matrix needs one jet per pair (i, j), 1 <= i <= j <= g")
        object.__setattr__(self, "genus", g)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "meta", dict(self.meta or {}))

    @property
    def ring(self) -> JetRing:
        return self.entries[(1, 1)].ring

    def entry(self, i: int, j: int) -> Jet:
        return self.entries[(min(i, j), max(i, j))]

    def var_coefficient_matrix(self, var: str) -> List[List[object]]:
        """Matrix of coefficients of the degree-1 monomial of ``var``."""
        g = range(1, self.genus + 1)
        return [[self.entry(i, j).coefficient_of_var(var) for j in g] for i in g]

    def to_json_dict(self) -> dict:
        # the report shows the full stored support (a star matrix is invisible
        # modulo (t)^2, its off-diagonals being bidegree (1,1))
        g = range(1, self.genus + 1)
        d = {
            "genus": self.genus,
            "mode": self.ring.field.mode,
            "entries": [[self.entry(i, j).to_json_dict() for j in g] for i in g],
            "support": [list(p) for p in sorted(offdiag_support(self))],
        }
        d.update(self.meta)
        return d


# ---------------------------------------------------------------------------
# assemblies


def _block_diagonal(ring: JetRing, blocks: Sequence[Sequence[Sequence[object]]]):
    """The constant block-diagonal matrix of the symmetric ``blocks``, each
    value coerced into the ring: one jet per pair (i, j), i <= j."""
    entries = {p: ring.zero() for p in _upper_pairs(sum(map(len, blocks)))}
    start = 0
    for block in blocks:
        for a, row in enumerate(block):
            for b in range(a, len(block)):
                entries[(start + a + 1, start + b + 1)] = ring.constant(ring.field.coerce(row[b]))
        start += len(block)
    return entries


def _finite(field: CoefficientField, x, what: str):
    """``x``, refused when a float product has left the float field's range."""
    if not (field.is_exact or cmath.isfinite(x)):
        raise RangeError(f"value beyond the float field's range: {what} overflows")
    return x


def _outer_contribution(entries, lam, t_jet: Jet, slots: Sequence[int], values: Sequence[object]):
    """Add lam * t * (u tensor u) where u has ``values`` in the increasing
    1-based ``slots``: one product per pair (a, b), a <= b."""
    pairs = list(zip(slots, values))
    for n, (a, va) in enumerate(pairs):
        for b, vb in pairs[n:]:
            coeff = _finite(t_jet.ring.field, lam * va * vb, f"entry ({a},{b})")
            entries[(a, b)] = entries[(a, b)] + t_jet * coeff


def pair_period_first_order(p: PairPlumbing, ring: JetRing) -> PeriodMatrixJet:
    """diag(tau_a, tau_b) + lambda * t * u tensor u, u = [omega_a(a), -omega_b(b)]."""
    if ring.order < 1:
        raise RangeError("pair plumbing needs truncation order >= 1")
    block_a = _as_block(p.curve_a, p.mark_a)
    block_b = _as_block(p.curve_b, p.mark_b)
    coerce = ring.field.coerce
    entries = _block_diagonal(ring, (block_a.tau_block, block_b.tau_block))
    u = [coerce(v) for v in block_a.omega_at_point] + [
        -coerce(v) for v in block_b.omega_at_point
    ]
    lam = _two_pi_i(ring.field) / 4
    _outer_contribution(entries, lam, ring.variable(p.t), range(1, len(u) + 1), u)
    return PeriodMatrixJet(entries, {"assembly": "pair"})


def star_period_leading(s: StarConfig, ring: JetRing) -> PeriodMatrixJet:
    """Leading off-diagonal products only; diagonal first-order terms are zero."""
    if ring.order < 2:
        raise RangeError("star off-diagonals are bidegree (1,1); need order >= 2")
    g = s.genus
    coerce = ring.field.coerce
    kappa = _two_pi_i(ring.field) / 16
    v = [coerce(c.mark_value(0)) for c in s.curves]
    b = [coerce(x) for x in s.attach_points]
    t = [ring.variable(name) for name in s.variables]
    entries = _block_diagonal(ring, [((c.tau.value,),) for c in s.curves])
    for i in range(g):
        for j in range(i + 1, g):
            d = b[i] - b[j]
            if not d * d:  # distinct float points whose squared distance underflows
                raise RangeError(
                    f"value beyond the float field's range: (b{i + 1} - b{j + 1})^2 underflows to 0"
                )
            coeff = kappa * v[i] * v[j] / (d * d)
            coeff = _finite(ring.field, coeff, f"star entry ({i + 1},{j + 1})")
            entries[(i + 1, j + 1)] = t[i] * t[j] * coeff
    return PeriodMatrixJet(entries, {"assembly": "star"})


def tree_period_first_order(c: TreeConfig, ring: JetRing) -> PeriodMatrixJet:
    """One pairwise rank-1 contribution per alkane edge, diagonal terms kept."""
    if ring.order < 1:
        raise RangeError("tree plumbing needs truncation order >= 1")
    coerce = ring.field.coerce
    lam = _two_pi_i(ring.field) / 4
    entries = _block_diagonal(ring, [((tau.value,),) for tau in c.taus])
    # iterate the mapping, not the sorted edge list: the result must not
    # depend on the order the plumbings are performed in
    for (i, j), data in c.edge_data.items():
        v_i = coerce(1 / data.coeff_low)
        v_j = coerce(1 / data.coeff_high)
        _outer_contribution(entries, lam, ring.variable(data.var), (i, j), (v_i, -v_j))
    meta = {"assembly": "tree", "alkane_code": canonical_code(c.alkane)}
    return PeriodMatrixJet(entries, meta)


# ---------------------------------------------------------------------------
# pattern inspection


def offdiag_support(m: PeriodMatrixJet) -> FrozenSet[Tuple[int, int]]:
    """Unordered pairs (i,j), i<j, whose entry is a nonzero jet."""
    return frozenset(
        (i, j) for (i, j), e in m.entries.items() if i < j and e.min_nonzero_degree() is not None
    )


def is_banded(pattern: Iterable[Tuple[int, int]], band: int) -> bool:
    """True iff every support pair satisfies |i - j| <= band - 1
    (band 2 = tridiagonal, band 3 = quadridiagonal)."""
    return all(abs(i - j) <= band - 1 for i, j in pattern)


def banded_locus_dimension(g: int, band: int) -> int:
    """Dimension of symmetric g x g matrices supported on |i-j| <= band-1."""
    if g < 1:
        raise RangeError(f"g must be >= 1, got {g}")
    if band < 1:
        raise RangeError(f"band must be >= 1, got {band}")
    return g + sum(max(g - d, 0) for d in range(1, band))


def derivative_rank_one_check(m: PeriodMatrixJet, var: str) -> bool:
    """The coefficient matrix of ``var`` has rank exactly 1: some entry is
    nonzero and all 2x2 minors vanish.

    Float field: a minor vanishes relative to the square of the matrix's
    largest modulus; an entry is nonzero unless it is exactly 0.
    """
    c = m.var_coefficient_matrix(var)
    if not any(v for row in c for v in row):
        return False  # rank 0: ``var`` does not move the matrix
    g = m.genus
    field = m.ring.field
    magnitude = field.magnitude(v for row in c for v in row)
    scale = max(magnitude * magnitude, 1e-300)
    for i in range(g):
        for k in range(i + 1, g):
            for j in range(g):
                for l in range(j + 1, g):
                    if not field.negligible(c[i][j] * c[k][l] - c[i][l] * c[k][j], scale):
                        return False
    return True
