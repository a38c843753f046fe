"""First-order period matrix assemblies and their zero patterns."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from plumbline.alkanes import Alkane, canonical_code, enumerate_alkanes
from plumbline.curve_periods import (
    CurveBlock,
    PairPlumbing,
    PeriodMatrixJet,
    StarConfig,
    TreeConfig,
    TreeEdgeData,
    banded_locus_dimension,
    derivative_rank_one_check,
    is_banded,
    offdiag_support,
    pair_period_first_order,
    star_period_leading,
    tree_period_first_order,
)
from plumbline.elliptic import Mark, MarkedEllipticCurve, TauPoint, TwoTorsionLabel
from plumbline.errors import DegenerateDataError, StructureError
from plumbline.gaussian import GaussianRational
from plumbline.jets import EXACT_FIELD, FLOAT_FIELD, JetRing
from plumbline.sampling import random_star_config, random_tree_config, substream

from oracles import jet_of, rank_one_by_minors

I = GaussianRational(0, 1)


def _unit_curve(tau):
    return MarkedEllipticCurve(TauPoint(tau), (Mark(TwoTorsionLabel.O, GaussianRational(1)),))


def test_pair_frozen_example():
    m = pair_period_first_order(
        PairPlumbing(_unit_curve(I), _unit_curve(GaussianRational(0, 2)), "t")
    )
    ring = m.ring
    assert ring == JetRing(("t",), 1)
    q = Fraction(1, 4)
    assert m.entry(1, 1) == ring.constant(I) + ring.variable("t") * q
    assert m.entry(1, 2) == ring.variable("t") * (-q)
    assert m.entry(2, 1) == m.entry(1, 2)
    assert m.entry(2, 2) == ring.constant(GaussianRational(0, 2)) + ring.variable("t") * q


def test_pair_rank_one():
    m = pair_period_first_order(
        PairPlumbing(_unit_curve(I), _unit_curve(GaussianRational(0, 3)), "t")
    )
    assert derivative_rank_one_check(m, "t")


def test_pair_off_diagonal_value():
    ca = MarkedEllipticCurve(TauPoint(I), (Mark(TwoTorsionLabel.O, GaussianRational(Fraction(1, 2))),))
    cb = MarkedEllipticCurve(
        TauPoint(GaussianRational(0, 2)), (Mark(TwoTorsionLabel.O, GaussianRational(Fraction(1, 3))),)
    )
    # v_a = 2, v_b = 3 -> off-diagonal t-coefficient -(1/4)*2*3 = -3/2
    m = pair_period_first_order(PairPlumbing(ca, cb, "t"))
    assert m.entry(1, 2).coefficient_of_var("t") == GaussianRational(Fraction(-3, 2))


def test_pair_general_blocks():
    # a genus-2 diagonal block on one side
    block = CurveBlock(
        ((I, GaussianRational(Fraction(1, 5))), (GaussianRational(Fraction(1, 5)), GaussianRational(0, 3))),
        (GaussianRational(2), GaussianRational(-1)),
    )
    m = pair_period_first_order(PairPlumbing(block, _unit_curve(I), "t"))
    assert m.genus == 3
    assert m.entry(1, 2).coefficient((0,)) == GaussianRational(Fraction(1, 5))
    assert derivative_rank_one_check(m, "t")
    # u = [2, -1, -1]: check one cross entry
    assert m.entry(1, 3).coefficient_of_var("t") == GaussianRational(Fraction(1, 4)) * 2 * -1


def test_pair_numeric_mode():
    # the curves stay exact; the float field rounds their values as it takes them
    ca = _unit_curve(I)
    cb = _unit_curve(GaussianRational(0, 2))
    m = pair_period_first_order(PairPlumbing(ca, cb, "t"), FLOAT_FIELD)
    assert m.ring == JetRing(("t",), 1, FLOAT_FIELD)
    assert m.to_json_dict()["mode"] == "numeric"
    lam = complex(0, math.pi / 2)
    assert abs(m.entry(1, 2).coefficient_of_var("t") + lam) < 1e-12
    with pytest.raises(StructureError, match="exact field"):
        derivative_rank_one_check(m, "t")


def _star(taus, bs, cs=None):
    g = len(taus)
    cs = cs or [GaussianRational(1)] * g
    curves = tuple(
        MarkedEllipticCurve(TauPoint(t), (Mark(TwoTorsionLabel.O, c),))
        for t, c in zip(taus, cs)
    )
    return StarConfig(curves, tuple(bs), tuple(f"t{i}" for i in range(1, g + 1)))


def test_star_frozen_example():
    s = _star([I, GaussianRational(0, 2)], [GaussianRational(0), GaussianRational(1)])
    m = star_period_leading(s)
    ring = m.ring
    assert ring == JetRing(("t1", "t2"), 2)
    assert m.entry(1, 2).coefficient((1, 1)) == GaussianRational(Fraction(1, 16))
    # diagonal first-order corrections are zero in this leading model
    assert m.entry(1, 1) == ring.constant(I)


def test_star_spacing_example():
    taus = [I, GaussianRational(0, 2), GaussianRational(0, 3), GaussianRational(0, 4)]
    bs = [GaussianRational(k) for k in range(4)]
    m = star_period_leading(_star(taus, bs))
    # (b_1-b_3)^2 = 4 -> coefficient (1/16)/4 = 1/64
    assert m.entry(1, 3).coefficient((1, 0, 1, 0)) == GaussianRational(Fraction(1, 64))


def test_star_quadratic_scaling():
    s = _star(
        [I, GaussianRational(0, 2), GaussianRational(0, 3)],
        [GaussianRational(0), GaussianRational(1), GaussianRational(3)],
    )
    m = star_period_leading(s)
    # homogeneous of degree 2: scaling every t by s scales the entry by s^2
    for i in range(1, 4):
        for j in range(i + 1, 4):
            terms = m.entry(i, j).terms
            assert terms and all(sum(exp) == 2 for exp in terms)


def test_star_coincident_points_rejected():
    with pytest.raises(DegenerateDataError):
        _star([I, GaussianRational(0, 2)], [GaussianRational(1), GaussianRational(1)])


def _chain3_unit_config():
    alkane = Alkane.chain(3)
    taus = (TauPoint(I), TauPoint(GaussianRational(0, 2)), TauPoint(GaussianRational(0, 3)))
    one = GaussianRational(1)
    edge_data = {
        (1, 2): TreeEdgeData("t1", TwoTorsionLabel.O, one, TwoTorsionLabel.O, one),
        (2, 3): TreeEdgeData("t2", TwoTorsionLabel.HALF, one, TwoTorsionLabel.HALF, one),
    }
    return TreeConfig(alkane, taus, edge_data)


def test_tree_chain_pattern():
    tc = _chain3_unit_config()
    m = tree_period_first_order(tc)
    ring = m.ring
    assert ring == JetRing(("t1", "t2"), 1)
    assert offdiag_support(m) == frozenset({(1, 2), (2, 3)})
    assert m.entry(1, 3).vanishes_through_degree(1)
    assert m.entry(1, 2) == ring.variable("t1") * GaussianRational(Fraction(-1, 4))


def test_tree_order_independence():
    tc = _chain3_unit_config()
    m = tree_period_first_order(tc)
    ring = m.ring
    # same configuration with the edges supplied in the opposite order: the
    # config keeps them in the alkane's sorted edge order, so the ring and
    # every entry are the same
    reversed_config = TreeConfig(
        tc.alkane, tc.taus, dict(reversed(list(tc.edge_data.items())))
    )
    assert tree_period_first_order(reversed_config) == m
    # and against a test-side assembly processing edges in reverse
    lam = GaussianRational(Fraction(1, 4))
    entries = {(a, b): ring.zero() for a in range(1, 4) for b in range(a, 4)}
    for i, tau in enumerate(tc.taus, start=1):
        entries[(i, i)] = ring.constant(tau.value)
    for (i, j) in reversed(tc.alkane.edges):
        d = tc.edge_data[(i, j)]
        u = {i: 1 / d.coeff_low, j: -(1 / d.coeff_high)}
        t = ring.variable(d.var)
        for a, va in u.items():
            for b, vb in u.items():
                if a <= b:
                    entries[(a, b)] = entries[(a, b)] + t * (lam * va * vb)
    assert entries == m.entries  # the tree assembly's meta is not rebuilt here


def test_tree_star_alkane_pattern():
    alkane = Alkane(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    rng = substream(3, "test:star5")
    tc = random_tree_config(alkane, rng)
    m = tree_period_first_order(tc)
    support = offdiag_support(m)
    assert support == frozenset({(1, j) for j in range(2, 6)})
    assert not is_banded(support, 2)


def test_support_equals_edges_random_data():
    for g in range(2, 7):
        for a in enumerate_alkanes(g):
            rng = substream(11, f"test:support:{g}:{canonical_code(a)}")
            tc = random_tree_config(a, rng)
            m = tree_period_first_order(tc)
            assert offdiag_support(m) == frozenset(a.edges)


def test_symmetry_exact():
    for g in (3, 5):
        a = enumerate_alkanes(g)[-1]
        tc = random_tree_config(a, substream(13, f"test:sym:{g}"))
        m = tree_period_first_order(tc)
        for i in range(1, g + 1):
            for j in range(1, g + 1):
                assert m.entry(i, j) == m.entry(j, i)


def test_scaling_covariance():
    base = _chain3_unit_config()
    m0 = tree_period_first_order(base)
    s = GaussianRational(Fraction(7, 2))
    scaled_data = dict(base.edge_data)
    d = scaled_data[(1, 2)]
    scaled_data[(1, 2)] = TreeEdgeData(d.var, d.label_low, d.coeff_low * s, d.label_high, d.coeff_high)
    m1 = tree_period_first_order(TreeConfig(base.alkane, base.taus, scaled_data))
    c0 = m0.entry(1, 2).coefficient_of_var("t1")
    c1 = m1.entry(1, 2).coefficient_of_var("t1")
    assert c1 * s == c0
    # the untouched edge is unchanged
    assert m1.entry(2, 3) == m0.entry(2, 3)


def test_tree_rank_one_all_edges():
    for g in range(2, 7):
        for a in enumerate_alkanes(g):
            tc = random_tree_config(a, substream(17, f"test:rank1:{g}:{canonical_code(a)}"))
            m = tree_period_first_order(tc)
            for d in tc.edge_data.values():
                assert derivative_rank_one_check(m, d.var)


def test_rank_one_rejects_identity_pattern():
    ring = JetRing(("t",), 1)
    t = ring.variable("t")
    entries = {(1, 1): ring.constant(I) + t, (1, 2): ring.zero(), (2, 2): ring.constant(I) + t}
    m = PeriodMatrixJet(entries)
    assert not derivative_rank_one_check(m, "t")


@pytest.mark.parametrize("field", [EXACT_FIELD, FLOAT_FIELD], ids=["exact", "numeric"])
def test_rank_one_rejects_a_variable_that_moves_nothing(field):
    # every 2x2 minor of a zero matrix vanishes, but its rank is 0, not 1;
    # float jets are refused, as no command ranks them.  The tree's matrix
    # is copied into a ring with one more variable, z, that no entry holds
    tc = random_tree_config(Alkane.chain(4), substream(17, "test:rank0"))
    ring = JetRing((*tc.variables, "z"), 1, field)
    tree = tree_period_first_order(tc, field)
    m = PeriodMatrixJet(
        {
            pair: jet_of(ring, {(*e, 0): c for e, c in jet.terms.items()})
            for pair, jet in tree.entries.items()
        }
    )
    if not field.is_exact:
        for var in (*tc.variables, "z"):
            with pytest.raises(StructureError, match="exact field"):
                derivative_rank_one_check(m, var)
        return
    assert all(derivative_rank_one_check(m, d.var) for d in tc.edge_data.values())
    assert not derivative_rank_one_check(m, "z")


_gaussian = st.builds(
    GaussianRational,
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
)


@st.composite
def _symmetric_gaussian(draw):
    """A symmetric g x g Gaussian rational matrix, g = 1..5: a sum of k
    terms lam * u u^T, k = 0..3, so of rank 0, 1 or at most k, or a free
    symmetric matrix, most likely of rank g."""
    g = draw(st.integers(1, 5))
    k = draw(st.sampled_from([0, 1, 1, 2, 3, None]))
    if k is None:
        c = [[None] * g for _ in range(g)]
        for i in range(g):
            for j in range(i, g):
                c[i][j] = c[j][i] = draw(_gaussian)
        return c
    c = [[GaussianRational(0)] * g for _ in range(g)]
    for _ in range(k):
        lam = draw(_gaussian)
        u = draw(st.lists(_gaussian, min_size=g, max_size=g))
        c = [[c[i][j] + lam * u[i] * u[j] for j in range(g)] for i in range(g)]
    return c


def _moved_by(c, field=EXACT_FIELD):
    """A period matrix whose coefficient matrix of t is ``c``; s moves
    every entry, so the check must read t's coefficients alone."""
    ring = JetRing(("s", "t"), 1, field)
    s, t = ring.variable("s"), ring.variable("t")
    g = len(c)
    return PeriodMatrixJet(
        {
            (i + 1, j + 1): ring.constant(I) + s + t * c[i][j]
            for i in range(g)
            for j in range(i, g)
        }
    )


# [[1, i], [i, -1]] = u u^T with u = (1, i) has rank 1 over Q(i), but its
# real part diag(1, -1) has rank 2
_RANK_ONE_NOT_REAL = [[GaussianRational(1), I], [I, GaussianRational(-1)]]


@settings(max_examples=300, deadline=None)
@given(_symmetric_gaussian())
@example(_RANK_ONE_NOT_REAL)
@example([[GaussianRational(0)] * 2] * 2)
@example([[GaussianRational(2), GaussianRational(-2)], [GaussianRational(-2), GaussianRational(2)]])
def test_rank_one_check_matches_minors_oracle(c):
    assert derivative_rank_one_check(_moved_by(c), "t") == rank_one_by_minors(c)
    with pytest.raises(StructureError, match="exact field"):
        derivative_rank_one_check(_moved_by(c, FLOAT_FIELD), "t")


def _sympy_gaussian_rank(c):
    """The exact rank over Q(i) of sympy's domain matrix of ``c``."""
    entries = [[sympy.Rational(x.re) + sympy.I * sympy.Rational(x.im) for x in row] for row in c]
    return sympy.Matrix(entries).to_DM().rank()


@settings(max_examples=100, deadline=None)
@given(_symmetric_gaussian())
@example(_RANK_ONE_NOT_REAL)
def test_rank_one_check_matches_sympy(c):
    assert derivative_rank_one_check(_moved_by(c), "t") == (_sympy_gaussian_rank(c) == 1)


def test_repeated_vertex_label_rejected():
    alkane = Alkane.chain(3)
    taus = (TauPoint(I), TauPoint(I), TauPoint(I))
    one = GaussianRational(1)
    edge_data = {
        (1, 2): TreeEdgeData("t1", TwoTorsionLabel.O, one, TwoTorsionLabel.O, one),
        (2, 3): TreeEdgeData("t2", TwoTorsionLabel.O, one, TwoTorsionLabel.O, one),
    }
    with pytest.raises(StructureError):
        TreeConfig(alkane, taus, edge_data)


def test_offdiag_support_zero_matrix():
    ring = JetRing(("t",), 1)
    entries = {(1, 1): ring.zero(), (1, 2): ring.zero(), (2, 2): ring.zero()}
    assert offdiag_support(PeriodMatrixJet(entries)) == frozenset()


def test_period_matrix_stores_each_pair_once():
    ring = JetRing(("t",), 1)
    t = ring.variable("t")
    m = PeriodMatrixJet({(1, 1): t, (1, 2): t * 2, (2, 2): t * 3})
    assert m.genus == 2 and m.entry(2, 1) is m.entry(1, 2)
    # a lower-triangle key, a missing pair or no entry at all is refused
    for entries in ({(1, 1): t, (2, 1): t, (2, 2): t}, {(1, 1): t, (2, 2): t}, {}):
        with pytest.raises(StructureError):
            PeriodMatrixJet(entries)


def test_is_banded():
    chain = frozenset({(1, 2), (2, 3), (3, 4)})
    assert is_banded(chain, 2)
    assert not is_banded(frozenset({(1, 5)}), 2)
    assert is_banded(frozenset(), 1)


def test_banded_locus_dimension():
    assert banded_locus_dimension(4, 2) == 7
    assert banded_locus_dimension(4, 3) == 9
    assert banded_locus_dimension(1, 2) == 1
    assert banded_locus_dimension(1, 5) == 1
    for g in range(2, 11):
        assert banded_locus_dimension(g, 2) == 2 * g - 1
        assert banded_locus_dimension(g, 3) == 3 * g - 3


def test_chain_is_banded_iff_chain_labeling():
    rng = substream(23, "test:banded")
    for g in range(2, 8):
        tc = random_tree_config(Alkane.chain(g), rng)
        m = tree_period_first_order(tc)
        assert is_banded(offdiag_support(m), 2)


def test_matrix_json_report():
    tc = _chain3_unit_config()
    m = tree_period_first_order(tc)
    d = m.to_json_dict()
    assert d["genus"] == 3
    assert d["mode"] == "exact"
    assert d["support"] == [[1, 2], [2, 3]]
    assert d["alkane_code"] == canonical_code(tc.alkane)
    assert len(d["entries"]) == 3


# ---------------------------------------------------------------------------
# the exact field is the oracle of the float field: a constant coefficient
# is the same number in both, and a non-constant one carries the factor
# 2*pi*i that the exact field divides out


def _largest_field_deviation(exact, numeric):
    """The largest relative deviation of a float coefficient from its exact
    value, over every entry; the two must store the same monomials."""
    worst = 0.0
    for pair, jet in exact.entries.items():
        want, got = jet.terms, numeric.entries[pair].terms
        assert set(got) == set(want), pair
        for exp, c in want.items():
            expected = c.to_complex() * (2j * math.pi if sum(exp) else 1)
            worst = max(worst, abs(got[exp] - expected) / abs(expected))
    return worst


@st.composite
def _field_pairs(draw):
    """A random tree or star config, assembled in both fields."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        alkane = draw(st.sampled_from(enumerate_alkanes(draw(st.integers(2, 7)))))
        config, assemble = random_tree_config(alkane, rng), tree_period_first_order
    else:
        config, assemble = random_star_config(draw(st.integers(2, 9)), rng), star_period_leading
    return [assemble(config, f) for f in (EXACT_FIELD, FLOAT_FIELD)]


@settings(max_examples=60, deadline=None)
@given(_field_pairs())
def test_exact_field_is_the_oracle_of_the_float_field(pair):
    exact, numeric = pair
    deviation = _largest_field_deviation(exact, numeric)
    assert deviation <= FLOAT_FIELD.tolerance, f"largest relative deviation {deviation:.3g}"
