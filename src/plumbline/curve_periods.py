"""First-order period matrices of plumbed curve families, as jets.

Three assemblies are provided:

* pairwise: diag blocks + lambda * t * (u tensor u) with
  u = [omega_a(a), -omega_b(b)] and lambda = 2*pi*i/4;
* star over P^1: off-diagonal (i,j) entry kappa * t_i t_j v_i v_j/(b_i-b_j)^2
  with kappa = 2*pi*i/16, diagonal first-order corrections dropped
  (this models only the leading off-diagonal products);
* tree of elliptic curves along an alkane: one rank-1 pairwise contribution
  per edge, diagonal corrections kept.

Each assembly takes a configuration and a coefficient field and builds
its own jet ring in the configuration's variables: pair and tree matrices
are first order, modulo the square of the parameter ideal, so their rings
have order 1; star off-diagonals have bidegree (1,1), so a star's has
order 2.  The field alone picks the units: over the exact field the
transcendental factor 2*pi*i is divided out (lambda = 1/4, kappa = 1/16),
over the float field it is kept, and an entry product that overflows or
underflows to 0 there is refused, since it would change the support.
Pair sides and star tails are ``elliptic.CurveBlock``s.  ``StarConfig``
and its leading coefficients kappabar_ij live in ``relations``, which
every command loads; this module loads only with ``periods`` and ``selftest``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .alkanes import canonical_code
from .elliptic import TwoTorsionLabel
from .errors import DegenerateDataError, RangeError, StructureError
from .frozen import Frozen
from .jets import EXACT_FIELD, Jet, JetRing
from .relations import StarConfig, star_leading_coefficients
from .surfaces import matrix_rank_exact


# ---------------------------------------------------------------------------
# configurations


class PairPlumbing(Frozen):
    """Two blocks plumbed at their attachment points, in the variable ``t``."""

    __slots__ = _fields = ("block_a", "block_b", "t")


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
        if set(edge_data) != set(self.alkane.edges):
            raise StructureError("edge data keys do not match the alkane's edge set")
        # in the alkane's sorted edge order, so that the ring, and with it the
        # report, does not depend on the order the edges were given in
        edge_data = {e: edge_data[e] for e in self.alkane.edges}
        object.__setattr__(self, "edge_data", edge_data)
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
                entries[(start + a + 1, start + b + 1)] = ring.constant(row[b])
        start += len(block)
    return entries


def _outer_contribution(entries, lam, t_jet: Jet, slots: Sequence[int], values: Sequence[object]):
    """Add lam * t * (u tensor u) where u has ``values`` in the increasing
    1-based ``slots``: one product per pair (a, b), a <= b, of nonzero values."""
    pairs = [(a, v) for a, v in zip(slots, values) if v]
    for n, (a, va) in enumerate(pairs):
        for b, vb in pairs[n:]:
            coeff = t_jet.ring.field.in_range(lam * va * vb, f"entry ({a},{b})")
            entries[(a, b)] = entries[(a, b)] + t_jet * coeff


def pair_period_first_order(p: PairPlumbing, field=EXACT_FIELD) -> PeriodMatrixJet:
    """diag(tau_a, tau_b) + lambda * t * u tensor u, u = [omega_a(a), -omega_b(b)],
    in the order-1 ring of t."""
    ring = JetRing((p.t,), 1, field)
    coerce = field.coerce
    entries = _block_diagonal(ring, (p.block_a.tau_block, p.block_b.tau_block))
    u = [coerce(v) for v in p.block_a.omega_at_point]
    u += [-coerce(v) for v in p.block_b.omega_at_point]
    lam = field.two_pi_i / 4
    _outer_contribution(entries, lam, ring.variable(p.t), range(1, len(u) + 1), u)
    return PeriodMatrixJet(entries, {"assembly": "pair"})


def star_period_leading(s: StarConfig, field=EXACT_FIELD) -> PeriodMatrixJet:
    """Leading off-diagonal products only, in the order-2 ring of the star's
    variables; diagonal first-order terms are zero."""
    ring = JetRing(s.variables, 2, field)
    kbar = star_leading_coefficients(s, field)
    t = [ring.variable(name) for name in s.variables]
    entries = _block_diagonal(ring, [tail.tau_block for tail in s.tails])
    for (i, j), coeff in kbar.items():
        entries[(i, j)] = t[i - 1] * t[j - 1] * coeff
    return PeriodMatrixJet(entries, {"assembly": "star"})


def tree_period_first_order(c: TreeConfig, field=EXACT_FIELD) -> PeriodMatrixJet:
    """One pairwise rank-1 contribution per alkane edge, diagonal terms
    kept, in the order-1 ring of the edge variables."""
    ring = JetRing(c.variables, 1, field)
    coerce = field.coerce
    lam = field.two_pi_i / 4
    entries = _block_diagonal(ring, [((tau.value,),) for tau in c.taus])
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
    """The coefficient matrix C = A + iB of ``var`` has rank exactly 1 over
    Q(i): its realification [[A, -B], [B, A]] has rank 2.  Exact field only."""
    if not m.ring.field.is_exact:
        raise StructureError("the rank-one check needs the exact field")
    rows = []
    for row in m.var_coefficient_matrix(var):
        re, im = [c.re for c in row], [c.im for c in row]
        rows += dict(enumerate(re + [-x for x in im])), dict(enumerate(im + re))
    return matrix_rank_exact(rows) == 2
