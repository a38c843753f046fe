"""Surface-side dimensions, rank-1 edge matrices, spans, skew blocks."""

import json
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from plumbline import checks, cli, sampling, surfaces
from plumbline.alkanes import (
    Alkane,
    alkane_codes,
    canonical_code,
    enumerate_alkanes,
    valency_profile,
)
from plumbline.errors import RangeError, StructureError
from plumbline.surfaces import (
    dim_K,
    dim_V_Gamma,
    dim_W,
    dim_period_domain,
    skew_block_rank_one_vanishing,
    span_dimension_E_Gamma,
)
from plumbline.sampling import rand_fraction, random_surface_sides, substream
from plumbline.surfaces import BLOCK_COLS, _outer, _primitive

from oracles import oracle_pi, oracle_sides, surface_oracle


def test_dim_period_domain_values():
    assert dim_period_domain(1) == 18
    assert dim_period_domain(2) == 57
    assert dim_period_domain(3) == 117
    with pytest.raises(RangeError):
        dim_period_domain(0)


def test_dim_K_values():
    assert [dim_K(j) for j in range(5)] == [18, 14, 10, 6, 2]
    with pytest.raises(RangeError):
        dim_K(5)
    with pytest.raises(RangeError):
        dim_K(-1)


def test_dim_V_Gamma_examples():
    assert dim_V_Gamma(Alkane.chain(3)) == 36
    assert dim_V_Gamma(Alkane(5, [(1, 2), (1, 3), (1, 4), (1, 5)])) == 54
    assert dim_V_Gamma(Alkane(1, [])) == 18


def test_dim_V_Gamma_all_alkanes_h_le_12():
    for h in range(1, 13):
        for a in enumerate_alkanes(h):
            assert dim_V_Gamma(a) == 9 * h + 9
            if h >= 2:
                p = valency_profile(a)
                by_profile = sum(
                    n * (18 - 4 * j) for j, n in enumerate(p, start=1)
                ) - (h - 1)
                assert by_profile == 9 * h + 9


def test_dim_W_values():
    assert dim_W([1, 1, 1]) == 4
    assert dim_W([2, 3]) == 9
    assert dim_W([7]) == 14
    for h in range(1, 13):
        assert dim_W([1] * h) == h + 1
    with pytest.raises(StructureError):
        dim_W([])
    with pytest.raises(RangeError):
        dim_W([1, 0])


def test_block_shape():
    # a genus-1 block has 11h+8 columns, less the h x 4 zero block
    assert BLOCK_COLS == 11 * 1 + 4
    # vertex v owns row v-1 and the BLOCK_COLS columns from BLOCK_COLS*(v-1)
    for a in enumerate_alkanes(5):
        sides = random_surface_sides(a, substream(79, f"test:block:{canonical_code(a)}"))
        for (i, j), (rows, cols) in zip(a.edges, sides):
            assert set(rows) == {i - 1, j - 1}
            assert {c // BLOCK_COLS for c in cols} <= {i - 1, j - 1}


def _two_vertex_model(omega_pair=(Fraction(1), Fraction(-1)), scale=Fraction(1)):
    iv = tuple(scale * (c + 1) for c in range(14)) + (Fraction(0),)
    return {(1, 2): (omega_pair, (iv, iv))}


def _dense_outer(model, edge):
    """omega_e tensor I_e as a full ambient matrix, for an edge that joins
    the model's only two vertices."""
    omega, i_vectors = model[edge]
    i_vec = [x for vec in i_vectors for x in vec]
    return [[w * x for x in i_vec] for w in omega]


def _sparse(matrix):
    return [dict(enumerate(row)) for row in matrix]


def _dense(entries, n_rows, n_cols):
    return [[entries.get((r, c), 0) for c in range(n_cols)] for r in range(n_rows)]


def _pi(model, edge):
    """Pi_e from ``oracle_pi``, checked against the dense omega_e tensor I_e
    entry by entry, and the outer product of the edge's primitive integer
    sides checked positively proportional to it."""
    pi = oracle_pi(model, edge)
    dense = _dense_outer(model, edge)
    nonzero = {(r, c): v for r, row in enumerate(dense) for c, v in enumerate(row) if v}
    assert pi == nonzero
    assert _dense(pi, len(dense), len(dense[0])) == dense
    [(rows, cols)] = oracle_sides(model)
    entries = _outer(rows, cols)
    assert entries.keys() == pi.keys() and all(type(v) is int for v in entries.values())
    ratios = {pi[k] / v for k, v in entries.items()}
    assert len(ratios) <= 1 and all(r > 0 for r in ratios)
    return pi


def test_build_pi_rank_at_most_one():
    model = _two_vertex_model((Fraction(2, 3), Fraction(-5, 4)), Fraction(7, 6))
    pi = _pi(model, (1, 2))
    assert len(pi) == 2 * 28  # two omega entries times 14 nonzero I entries per side
    assert surfaces.matrix_rank_exact(_sparse(_dense_outer(model, (1, 2)))) == 1
    rows = [{c: v for (r, c), v in pi.items() if r == row} for row in range(2)]
    assert surfaces.matrix_rank_exact(rows) == 1
    assert span_dimension_E_Gamma(oracle_sides(model)) == 1


def test_build_pi_zero_omega_gives_zero_matrix():
    model = _two_vertex_model((Fraction(0), Fraction(0)))
    assert _pi(model, (1, 2)) == {}
    [(rows, cols)] = oracle_sides(model)
    assert rows == {} and cols and _outer(rows, cols) == {}
    assert surfaces.matrix_rank_exact([_outer(rows, cols)]) == 0
    assert span_dimension_E_Gamma(oracle_sides(model)) == 0


def test_build_pi_scales_linearly():
    s = Fraction(3, 2)
    model = _two_vertex_model(scale=s)
    base = _pi(_two_vertex_model(), (1, 2))
    scaled = _pi(model, (1, 2))
    assert scaled == {k: s * v for k, v in base.items()}
    # the sides scale with the model, and a positive scale leaves the
    # primitive sides as they were
    [(rows, cols)] = oracle_sides(model)
    [(base_rows, base_cols)] = oracle_sides(_two_vertex_model())
    assert rows == base_rows and cols == {k: s * v for k, v in base_cols.items()}
    assert _primitive(cols) == _primitive(base_cols)


def test_span_dimension_generic():
    for h in range(1, 8):
        for a in enumerate_alkanes(h):
            sides = random_surface_sides(a, substream(83, f"test:span:{h}:{canonical_code(a)}"))
            assert span_dimension_E_Gamma(sides) == h - 1


def _duplicated(model):
    """A Fraction model of the 3-chain whose two edges both carry edge
    (1, 2)'s data, concentrated on the middle vertex."""
    zero, zero_i = Fraction(0), (Fraction(0),) * BLOCK_COLS
    (_, w_mid), (_, i_mid) = model[(1, 2)]
    return {(1, 2): ((zero, w_mid), (zero_i, i_mid)), (2, 3): ((w_mid, zero), (i_mid, zero_i))}


def test_span_dimension_degenerate_duplicate():
    model = surface_oracle(Alkane.chain(3), substream(87, "test:span:dup"))
    assert span_dimension_E_Gamma(oracle_sides(_duplicated(model))) == 1 < 2


def test_egamma_span_control_is_the_fraction_duplicate(monkeypatch):
    # check_egamma_span builds its control from integer sides; for every seed
    # they are the sides of the Fraction two-edge model drawn from its stream
    for seed in range(50):
        assert checks.check_egamma_span(seed)[1]["degenerate_span"] == 1
    controls = []
    span = checks.span_dimension_E_Gamma
    monkeypatch.setattr(
        checks, "span_dimension_E_Gamma", lambda sides: controls.append(sides) or span(sides)
    )
    for seed in range(50):
        ok, detail = checks.check_egamma_span(seed, genera=())
        assert ok and detail == {"models": 0, "degenerate_span": 1}
        model = surface_oracle(Alkane.chain(3), substream(seed, "check:span:neg"))
        assert controls == [oracle_sides(_duplicated(model))]
        controls.clear()


def test_span_h1_is_zero():
    sides = random_surface_sides(Alkane(1, []), substream(89, "test:span:h1"))
    assert sides == [] and span_dimension_E_Gamma(sides) == 0


def test_skew_block_on_constructed_pi():
    for h in (2, 3, 4):
        a = Alkane.chain(h)
        for rows, cols in random_surface_sides(a, substream(91, f"test:skew:{h}")):
            # vertex v owns row v-1; its skew column is the last of its 15
            assert all(c % BLOCK_COLS != BLOCK_COLS - 1 for c in cols)
            pi = _dense(_outer(rows, cols), h, BLOCK_COLS * h)
            for v in range(1, h + 1):
                assert skew_block_rank_one_vanishing(pi, [v - 1], [BLOCK_COLS * v - 1])


def test_skew_block_zero_matrix():
    zero = [[Fraction(0)] * 4 for _ in range(3)]
    assert skew_block_rank_one_vanishing(zero, [1, 2], [2, 3])


def test_skew_block_randomized_search_no_counterexample():
    rng = substream(93, "test:skew:search")
    for trial in range(300):
        rows, cols, size = 3, 6, 2
        u = [rand_fraction(rng, -4, 4, 3) for _ in range(rows)]
        w = [rand_fraction(rng, -4, 4, 3) for _ in range(cols)]
        if trial % 3 == 0:
            for c in range(cols - size, cols):
                w[c] = Fraction(0)
        if trial % 3 == 1:
            for r in range(rows - size, rows):
                u[r] = Fraction(0)
        m = [[u[r] * w[c] for c in range(cols)] for r in range(rows)]
        assert skew_block_rank_one_vanishing(
            m, list(range(rows - size, rows)), list(range(cols - size, cols))
        )


def test_skew_block_detects_violation_in_principle():
    # a NON-rank-1 matrix with a nonzero skew block does not violate the
    # implication (premise fails), so the checker must return True
    m = [
        [Fraction(0), Fraction(1)],
        [Fraction(-1), Fraction(0)],
    ]
    assert surfaces.matrix_rank_exact(_sparse(m)) == 2
    assert skew_block_rank_one_vanishing(m, [0, 1], [0, 1])
    # and a hand-made matrix that *claims* rank 1 with nonzero skew block is
    # impossible; forcing one (rank 2) is correctly reported as no violation,
    # while a genuinely rank-1 skew block must be zero:
    rank1 = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]]
    assert surfaces.matrix_rank_exact(_sparse(rank1)) == 1
    assert skew_block_rank_one_vanishing(rank1, [0, 1], [0, 1])  # block not skew


def test_rank_helpers():
    rows = [
        {0: Fraction(1), 1: Fraction(2)},
        {0: Fraction(2), 1: Fraction(4)},
        {2: Fraction(5)},
    ]
    assert surfaces.matrix_rank_exact(rows) == 2
    # positions may be any hashable key, such as the (row, col) of an edge matrix
    matrices = [
        {(0, 0): Fraction(1), (1, 2): Fraction(1)},
        {(0, 1): Fraction(1), (1, 2): Fraction(1)},
        {(0, 0): Fraction(1), (0, 1): Fraction(1), (1, 2): Fraction(2)},
    ]
    assert surfaces.matrix_rank_exact(matrices) == 2


def _rank_fraction_oracle(rows):
    """Gaussian elimination over Fractions: the rank oracle."""
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
                factor = Fraction(other[key]) / pivot
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


_BIG = 2**70
_entries = st.one_of(
    st.integers(-_BIG, _BIG),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
)
_sparse_rows = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 4)), _entries, max_size=8
)


@st.composite
def _rational_rows(draw):
    """Sparse rows with zero rows, duplicates, scaled copies and sums of
    other rows mixed in, in a drawn order."""
    rows = draw(st.lists(_sparse_rows, max_size=6))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["zero", "duplicate", "scaled", "sum"]))
        if kind == "zero" or not rows:
            rows.append(draw(st.sampled_from([{}, {(0, 0): 0}, {(1, 3): Fraction(0)}])))
            continue
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        if kind == "duplicate":
            rows.append(dict(a))
        elif kind == "scaled":
            s = draw(_entries.filter(bool))
            rows.append({k: s * v for k, v in a.items()})
        else:
            rows.append({k: a.get(k, 0) + b.get(k, 0) for k in a.keys() | b.keys()})
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(_rational_rows())
def test_rank_matches_fraction_oracle(rows):
    before = [dict(r) for r in rows]
    assert surfaces.matrix_rank_exact(rows) == _rank_fraction_oracle(rows)
    assert rows == before  # the input rows are left as they were


def _degenerate(model, kind, edge):
    """``model`` with the data of one edge made degenerate in one way."""
    zero, zero_i = Fraction(0), (Fraction(0),) * BLOCK_COLS
    omega, i_vectors = model[edge]
    w_high, i_high = omega[1], i_vectors[1]
    model = dict(model)
    if kind == "zero omega side":
        model[edge] = (zero, w_high), i_vectors
    elif kind == "zero omega":
        model[edge] = (zero, zero), i_vectors
    elif kind == "zero I vector":
        model[edge] = omega, (zero_i, i_high)
    elif kind == "zero I":
        model[edge] = omega, (zero_i, zero_i)
    else:
        # check_egamma_span's control: the data of this edge, concentrated on
        # its high vertex, copied onto another edge at that vertex
        j = edge[1]
        other = next((e for e in model if e != edge and j in e), None)
        if other is None:
            return model
        model[edge] = (zero, w_high), (zero_i, i_high)
        if other[0] == j:
            model[other] = (w_high, zero), (i_high, zero_i)
        else:
            model[other] = (zero, w_high), (zero_i, i_high)
    return model


_ALKANES_UP_TO_6 = [a for h in range(1, 7) for a in enumerate_alkanes(h)]
_DEGENERACIES = ["zero omega side", "zero omega", "zero I vector", "zero I", "duplicate"]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(_ALKANES_UP_TO_6),
    st.integers(0, 2**32),
    st.lists(st.tuples(st.sampled_from(_DEGENERACIES), st.integers(0, 10)), max_size=3),
)
@example(Alkane(1, []), 0, [])
@example(Alkane.chain(3), 87, [("duplicate", 0)])
def test_span_matches_fraction_oracle_on_degenerate_models(alkane, seed, degeneracies):
    model = surface_oracle(alkane, substream(seed, "test:span:oracle"))
    for kind, k in degeneracies:
        if alkane.edges:
            model = _degenerate(model, kind, alkane.edges[k % len(alkane.edges)])
    rows = [oracle_pi(model, e) for e in alkane.edges]
    assert span_dimension_E_Gamma(oracle_sides(model)) == _rank_fraction_oracle(rows)


_int_vectors = st.lists(st.integers(-(2**70), 2**70), max_size=6)


@settings(max_examples=300, deadline=None)
@given(_int_vectors, _int_vectors)
def test_content_of_outer_product(w, c):
    # Gauss's lemma: content(w tensor c) = content(w) content(c), so an edge
    # row is primitive exactly when both of its sides are
    assert math.gcd(*(x * y for x in w for y in c)) == math.gcd(*w) * math.gcd(*c)
    rows = {r: x for r, x in enumerate(w) if x}
    cols = {k: y for k, y in enumerate(c) if y}
    assert _primitive(_outer(rows, cols)) == _outer(_primitive(rows), _primitive(cols))


# small key and value ranges, so that the pivots of distinct sides collide
_small_side = st.dictionaries(st.integers(0, 3), st.integers(-3, 3).filter(bool), max_size=4)
_COPIES = ["duplicate", "negated", "shared pivot"]


def _factored_sides(pairs, copies):
    """Sides (w, c) of any content, with copies of some appended: duplicated,
    negated, or sharing the largest key of c with different entries below it."""
    sides = list(pairs)
    for kind, k, extra in copies:
        w, c = sides[k % len(sides)]
        if kind == "negated":
            w = {r: -x for r, x in w.items()}
        elif kind == "shared pivot" and c:
            top = max(c)
            c = {**{j: x for j, x in extra.items() if j < top}, top: c[top]}
        sides.append((w, c))
    return sides


_FACTORED = (
    st.lists(st.tuples(_small_side, _small_side), min_size=1, max_size=6),
    st.lists(st.tuples(st.sampled_from(_COPIES), st.integers(0, 5), _small_side), max_size=4),
)
_FACTORED_EXAMPLE = ([({0: 1}, {1: 2, 3: 1}), ({}, {0: 1}), ({2: 1}, {})], [("duplicate", 0, {})])


@settings(max_examples=300, deadline=None)
@given(*_FACTORED)
@example(*_FACTORED_EXAMPLE)
@example([({0: 2}, {0: 1})], [("negated", 0, {})])  # leads 2 and -2: scale both rows
def test_span_on_factored_rows_matches_multiplied_out_rank(pairs, copies):
    # span_dimension_E_Gamma counts the edges while their leads
    # (max(w), max(c)) are distinct; once two collide, the rows must be
    # multiplied out and reduced exactly
    sides = _factored_sides(pairs, copies)
    before = [(dict(w), dict(c)) for w, c in sides]
    expected = surfaces.matrix_rank_exact([_outer(w, c) for w, c in sides])
    assert span_dimension_E_Gamma(sides) == expected
    assert sides == before


def _sympy_rank(rows):
    """sympy's rank of sparse int or Fraction rows, laid out densely."""
    keys = sorted({k for row in rows for k in row})
    if not keys:
        return 0
    return sympy.Matrix([[sympy.Rational(row.get(k, 0)) for k in keys] for row in rows]).rank()


@settings(max_examples=100, deadline=None)
@given(_rational_rows())
def test_rank_matches_sympy(rows):
    assert surfaces.matrix_rank_exact(rows) == _sympy_rank(rows)


# rows that collide on purpose: three sharing one lead, the third reducing
# in a chain (against the first, then against the second's reduced row), and
# a collision whose reduced row survives with content 4
_CHAIN = [({0: 1, 2: 1}, {3: 1}), ({0: 2, 2: 1}, {3: 1}), ({0: 5, 2: 1}, {3: 1})]
_CONTENT = [({0: 1, 1: 1}, {1: 1, 2: 2}), ({0: 3, 1: 1}, {1: 1, 2: 2})]


@settings(max_examples=100, deadline=None)
@given(*_FACTORED, st.sampled_from([[], _CHAIN, _CONTENT, _CHAIN + _CONTENT]))
@example(*_FACTORED_EXAMPLE, [])
@example([({1: 1}, {0: 1})], [], _CHAIN)
@example([({1: 1}, {0: 1})], [], _CONTENT)
def test_span_matches_sympy(pairs, copies, colliding):
    # the span of the sides as the edges come, against sympy's rank of the
    # edge rows multiplied out
    sides = [(w, c) for w, c in _factored_sides(pairs, copies) + colliding if w and c]
    expected = _sympy_rank([_outer(w, c) for w, c in sides])
    assert span_dimension_E_Gamma(sides) == expected


def test_colliding_rows_reduce_in_a_chain_and_by_their_content(monkeypatch):
    contents = []
    primitive = surfaces._primitive
    monkeypatch.setattr(
        surfaces, "_primitive", lambda row: contents.append(math.gcd(*row.values())) or primitive(row)
    )
    # the second row's reduced row joins the basis; the third's, of content
    # 4, collides with it and vanishes
    assert span_dimension_E_Gamma(_CHAIN) == 2
    assert contents == [1, 4]
    contents.clear()
    assert span_dimension_E_Gamma(_CONTENT) == 2
    assert contents == [4]


# metamorphic relations of the span: inputs that must give the same span
_ALKANES_UP_TO_8 = [a for h in range(1, 9) for a in enumerate_alkanes(h)]


def _relabelled(sides, perm):
    """The sides with each vertex v renamed perm[v - 1]: omega row r moves to
    row perm[r] - 1, and I column BLOCK_COLS * (v - 1) + k to column
    BLOCK_COLS * (perm[v - 1] - 1) + k."""
    return [
        (
            {perm[r] - 1: x for r, x in w.items()},
            {
                BLOCK_COLS * (perm[col // BLOCK_COLS] - 1) + col % BLOCK_COLS: x
                for col, x in c.items()
            },
        )
        for w, c in sides
    ]


# an alkane, a permutation of its vertices and one of its edges
_relabellings = st.sampled_from(_ALKANES_UP_TO_8).flatmap(
    lambda a: st.tuples(
        st.just(a),
        st.permutations(range(1, a.genus + 1)),
        st.integers(0, max(a.genus - 2, 0)),
    )
)


def _relabelled_draw(relabelling, seed):
    """An alkane's drawn sides relabelled, with relabelled edge k given twice."""
    alkane, perm, k = relabelling
    sides = random_surface_sides(alkane, substream(seed, "test:span:relation"))
    relabelled = _relabelled(sides, perm)
    return relabelled + relabelled[k : k + 1]


# factored sides with colliding pivots, an alkane's draws, and inputs whose
# reduced rows survive: the colliding rows above and relabelled draws
_span_inputs = st.one_of(
    st.builds(_factored_sides, *_FACTORED),
    st.builds(
        lambda a, seed: random_surface_sides(a, substream(seed, "test:span:relation")),
        st.sampled_from(_ALKANES_UP_TO_8),
        st.integers(0, 2**32),
    ),
    st.sampled_from([_CHAIN, _CONTENT, _CHAIN + _CONTENT]),
    st.builds(_relabelled_draw, _relabellings, st.integers(0, 2**32)),
)
_scalings = st.lists(
    st.tuples(st.integers(0, 20), st.booleans(), st.integers(-(2**40), 2**40).filter(bool)),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(_span_inputs, _scalings)
@example(([({0: 1}, {1: 1}), ({0: 1}, {1: 1})]), [(0, True, 2)])
def test_span_is_unchanged_by_scaling_a_side(sides, scalings):
    # a nonzero multiple of a side is a nonzero multiple of its edge row, so
    # the span must not move: sides of any content are ranked as they come
    scaled = list(sides)
    for k, omega, s in scalings:
        if scaled:
            w, c = scaled[k % len(scaled)]
            side = {r: s * x for r, x in (w if omega else c).items()}
            scaled[k % len(scaled)] = (side, c) if omega else (w, side)
    assert span_dimension_E_Gamma(scaled) == span_dimension_E_Gamma(sides)


# the 4-vertex star's draw, read backwards, with its second edge given twice
_STAR4_BACKWARDS = _relabelled_draw((Alkane(4, [(1, 2), (1, 3), (1, 4)]), [4, 3, 2, 1], 1), 1)


@settings(max_examples=200, deadline=None)
@given(_span_inputs.flatmap(lambda sides: st.tuples(st.just(sides), st.permutations(sides))))
@example((_STAR4_BACKWARDS, _STAR4_BACKWARDS[::-1]))
def test_span_is_unchanged_by_shuffling_the_edges(sides_and_shuffled):
    # the rows meet the basis in another order, so colliding rows reduce
    # against other pivots and their reduced rows collide again elsewhere.
    # The example fails a reduced row put in the basis under a fresh key
    # without a lookup of its new lead, or dropped when that lead collides
    sides, shuffled = sides_and_shuffled
    assert span_dimension_E_Gamma(shuffled) == span_dimension_E_Gamma(sides)


@settings(max_examples=200, deadline=None)
@given(_relabellings, st.integers(0, 2**32))
@example((Alkane.chain(3), [3, 2, 1], 1), 0)
def test_span_is_unchanged_by_relabelling_the_vertices(relabelling, seed):
    # an alkane's own labelling gives its edges distinct leads; relabelled,
    # the leads collide, so this relation drives the reduction on real
    # draws.  A relabelled edge given twice must reduce away.
    alkane, perm, k = relabelling
    sides = random_surface_sides(alkane, substream(seed, "test:span:relabel"))
    relabelled = _relabelled(sides, perm)
    span = span_dimension_E_Gamma(sides)
    assert span_dimension_E_Gamma(relabelled) == span
    assert span_dimension_E_Gamma(relabelled + relabelled[k : k + 1]) == span


def test_relabelled_spans_reduce_and_divide_by_content(monkeypatch):
    # read backwards, the genus-8 alkanes' edge leads collide, and reduced
    # rows survive and are divided by their content; every span is still 7
    calls = {"outer": 0, "content": 0}
    outer, primitive = surfaces._outer, surfaces._primitive

    def counted_outer(w, c):
        calls["outer"] += 1
        return outer(w, c)

    def counted_primitive(row):
        calls["content"] += math.gcd(*row.values()) > 1
        return primitive(row)

    monkeypatch.setattr(surfaces, "_outer", counted_outer)
    monkeypatch.setattr(surfaces, "_primitive", counted_primitive)
    backwards = list(range(8, 0, -1))
    for code, a in zip(alkane_codes(8), enumerate_alkanes(8)):
        sides = random_surface_sides(a, substream(0, f"test:span:backwards:{code}"))
        assert span_dimension_E_Gamma(_relabelled(sides, backwards)) == 7
    assert calls["outer"] > 0 and calls["content"] > 0


def test_generic_spans_multiply_out_no_edge_row(monkeypatch):
    # an alkane's edge leads never collide, so the generic spans count their
    # edges and multiply none out; the degenerate control multiplies out its two
    calls = []
    outer = surfaces._outer
    monkeypatch.setattr(surfaces, "_outer", lambda w, c: calls.append(1) or outer(w, c))
    for code, a in zip(alkane_codes(11), enumerate_alkanes(11)):
        sides = random_surface_sides(a, substream(0, f"egamma:{code}:0"))
        assert span_dimension_E_Gamma(sides) == 10
    assert len(calls) == 0
    ok, detail = checks.check_egamma_span(0, genera=())
    assert ok and detail["degenerate_span"] == 1
    assert len(calls) == 2


def test_surface_models_and_spans_build_no_fraction(monkeypatch, capsys):
    # surface models are drawn as integer sides and the span works on ints,
    # so neither the sampler, the span nor the whole command builds a Fraction
    alkanes = enumerate_alkanes(6)

    def forbidden(*args, **kwargs):
        raise AssertionError("Fraction built in the surface model or span loop")

    monkeypatch.setattr(Fraction, "__new__", forbidden)
    spans = [
        span_dimension_E_Gamma(random_surface_sides(a, substream(97, f"test:nofrac:{k}")))
        for k, a in enumerate(alkanes)
    ]
    argv = ["surfaces", "egamma", "--genus", "6", "--trials", "2", "--seed", "97"]
    code = cli.main(argv)
    report = json.loads(capsys.readouterr().out)
    with pytest.raises(AssertionError, match="Fraction built"):
        Fraction(1, 2)
    assert spans == [5] * len(alkanes)
    assert code == 0 and report["pass"]
    assert [r["span_dims"] for r in report["results"]] == [[5, 5]] * len(alkanes)


class _Scripted(random.Random):
    """Hands out scripted byte strings in turn, one per ``randbytes`` call."""

    def __init__(self, chunks):
        super().__init__(0)
        self.chunks = iter(chunks)

    def randbytes(self, n):
        chunk = next(self.chunks)
        assert len(chunk) == n
        return chunk


def _model_script(rng, n_edges, dead, dropped):
    """``randbytes`` results for a model of ``n_edges`` edges: kept bytes for
    the omega entries, then for the I entries, those of edge ``dead`` all on
    zero slots.  With ``dropped``, the first omega call returns only bytes
    the rejection drops and the first I call drops one byte in four, so
    both top-up loops run."""
    n_omega, n_i = len(sampling._OMEGA_VALUES), len(sampling._I_VALUES)
    zeros = [k for k, x in enumerate(sampling._I_VALUES) if not x]
    width = 2 * (BLOCK_COLS - 1)
    omega = bytes(rng.randrange(256 - 256 % n_omega) for _ in range(2 * n_edges))
    i_bytes = bytes(
        rng.choice(zeros) + n_i * rng.randrange(5) if e == dead else rng.randrange(5 * n_i)
        for e in range(n_edges)
        for _ in range(width)
    )
    if not dropped:
        return [omega, i_bytes]
    first = bytearray(rng.randrange(256 - 256 % n_omega, 256) for _ in range(2 * n_edges))
    late = len(i_bytes) // 4
    mixed = bytearray(i_bytes[: len(i_bytes) - late])
    for _ in range(late):
        mixed.insert(rng.randrange(len(mixed) + 1), rng.randrange(5 * n_i, 256))
    return [bytes(first), omega, bytes(mixed), i_bytes[len(i_bytes) - late :]]


@pytest.mark.parametrize(
    "dead, dropped",
    [(0, False), (2, False), (3, False), (1, True)],
    ids=["0", "2", "3", "1-topped-up"],
)
def test_all_zero_I_side_gives_no_row(dead, dropped):
    a = Alkane.chain(5)
    script = _model_script(substream(101, f"test:zeroI:{dead}"), len(a.edges), dead, dropped)
    drawn, oracle = _Scripted(script), _Scripted(script)
    sides = random_surface_sides(a, drawn)
    model = surface_oracle(a, oracle)
    # both make every scripted call, with the same sizes
    assert next(drawn.chunks, None) is None and next(oracle.chunks, None) is None
    assert model[a.edges[dead]][1] == ((Fraction(0),) * BLOCK_COLS,) * 2
    assert sides == oracle_sides(model)
    assert sides[dead][1] == {} and all(cols for k, (_, cols) in enumerate(sides) if k != dead)
    assert span_dimension_E_Gamma(sides) == a.genus - 2


def test_egamma_span_check_fails_when_its_control_does_not(monkeypatch):
    ok, detail = checks.check_egamma_span(0, genera=(2, 3), trials=1)
    assert ok and detail == {"models": 2, "degenerate_span": 1}
    # a span that reads h-1 for every model, the degenerate control included,
    # must fail the check
    monkeypatch.setattr(checks, "span_dimension_E_Gamma", lambda sides: len(sides))
    ok, detail = checks.check_egamma_span(0, genera=(2, 3), trials=1)
    assert not ok and detail["degenerate_span"] == 2
