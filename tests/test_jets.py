"""Jet arithmetic: contract examples, ring axioms, oracle evaluation."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from plumbline.errors import RangeError, StructureError
from plumbline.gaussian import GaussianRational
from plumbline.jets import (
    EXACT_FIELD,
    FLOAT_FIELD,
    CoefficientField,
    FieldKind,
    JetRing,
)
from oracles import jet_of


def _evaluate(jet, values):
    """Substitute field values for every variable (plain monomial sum)."""
    field = jet.ring.field
    vals = [field.coerce(values[name]) for name in jet.ring.variables]
    acc = field.zero()
    for exp, c in jet.terms.items():
        term = c
        for v, e in zip(vals, exp):
            for _ in range(e):
                term = term * v
        acc = acc + term
    return acc


def _jet_from_json_dict(data, field):
    ring = JetRing(tuple(data["vars"]), int(data["order"]), field)
    terms = {}
    for t in data["terms"]:
        if field.is_exact:
            c = GaussianRational(Fraction(str(t["re"])), Fraction(str(t["im"])))
        else:
            c = complex(float(t["re"]), float(t["im"]))
        terms[tuple(t["exp"])] = c
    return jet_of(ring, terms)


@pytest.fixture
def ring1():
    return JetRing(("t",), 4)


@pytest.fixture
def ring2():
    return JetRing(("t1", "t2"), 2)


def test_add_cancellation(ring1):
    one_plus_t = ring1.constant(1) + ring1.variable("t")
    assert one_plus_t + (-ring1.variable("t")) == ring1.constant(1)


def test_add_identity(ring1):
    x = ring1.constant(1) * 3 + ring1.variable("t") * Fraction(2, 7)
    assert ring1.zero() + x == x


def test_add_disjoint_supports(ring2):
    t1, t2 = ring2.variable("t1"), ring2.variable("t2")
    s = (t1 + t2) + t1 * t2
    assert s.coefficient((1, 0)) == GaussianRational(1)
    assert s.coefficient((0, 1)) == GaussianRational(1)
    assert s.coefficient((1, 1)) == GaussianRational(1)


def test_mul_truncates_t_squared():
    ring = JetRing(("t",), 1)
    t = ring.variable("t")
    assert (ring.constant(1) + t) * (ring.constant(1) - t) == ring.constant(1)


def test_mul_order_two(ring2):
    t1, t2 = ring2.variable("t1"), ring2.variable("t2")
    p = (ring2.constant(1) + t1) * (ring2.constant(1) + t2)
    assert p == ring2.constant(1) + t1 + t2 + t1 * t2


def test_mul_degree_overflow():
    ring = JetRing(("t",), 17)
    t9 = jet_of(ring, {(9,): 1})
    assert t9 * t9 == ring.zero()


def test_coefficient_examples(ring2):
    p = (ring2.constant(1) + ring2.variable("t1")) * (ring2.constant(1) + ring2.variable("t2"))
    assert p.coefficient((1, 1)) == GaussianRational(1)
    assert ring2.variable("t1").coefficient((2, 0)) == GaussianRational(0)
    one_plus_t = JetRing(("t",), 3).constant(1) + JetRing(("t",), 3).variable("t")
    assert one_plus_t.coefficient((0,)) == GaussianRational(1)


def test_vanishes_through_degree(ring1):
    t = ring1.variable("t")
    a = jet_of(ring1, {(3,): 1, (4,): 2})
    assert a.vanishes_through_degree(2)
    assert not (ring1.constant(1) + t).vanishes_through_degree(0)
    with pytest.raises(RangeError):
        a.vanishes_through_degree(5)


def test_float_vanishing_is_relative():
    ring = JetRing(("t",), 2, FLOAT_FIELD)
    t = ring.variable("t")
    big = ring.constant(1e6) * t * t
    tiny = ring.constant(1e-7)
    a = big + tiny
    # 1e-7 is far below 1e-10 * 1e6
    assert a.vanishes_through_degree(1)
    # but not below 1e-16 * 1e6: the ring's field decides
    fine = JetRing(("t",), 2, CoefficientField(FieldKind.COMPLEX_FLOAT, 1e-16))
    u = fine.variable("t")
    b = fine.constant(1e6) * u * u + fine.constant(1e-7)
    assert not b.vanishes_through_degree(1)
    assert b.min_nonzero_degree() == 0


def test_ring_mismatch_raises(ring1, ring2):
    with pytest.raises(StructureError):
        ring1.constant(1) + ring2.constant(1)
    with pytest.raises(StructureError):
        ring1.constant(1) * ring2.constant(1)


def test_exact_field_refuses_floats(ring1):
    with pytest.raises(TypeError):
        ring1.constant(0.5)


@pytest.mark.parametrize("part", [0.5, "1/2"])
def test_gaussian_rational_takes_only_ints_and_fractions(part):
    # config strings are parsed before they reach the constructor
    with pytest.raises(TypeError, match="must be an int or a Fraction"):
        GaussianRational(part)
    with pytest.raises(TypeError, match="imaginary part"):
        GaussianRational(1, part)


def test_duplicate_variables_rejected():
    with pytest.raises(StructureError):
        JetRing(("t", "t"), 1)


# ---------------------------------------------------------------------------
# property tests


def _coeffs():
    return st.fractions(
        min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
    )


@st.composite
def jets(draw, ring=JetRing(("x", "y"), 3)):
    n = len(ring.variables)
    exps = [e for e in _all_exps(n, ring.order)]
    terms = {}
    for exp in draw(st.lists(st.sampled_from(exps), max_size=6)):
        terms[exp] = GaussianRational(draw(_coeffs()))
    return jet_of(ring, terms)


def _all_exps(n, order):
    if n == 0:
        return [()]
    out = []
    for head in range(order + 1):
        for rest in _all_exps(n - 1, order - head):
            out.append((head,) + rest)
    return out


@settings(max_examples=120, deadline=None)
@given(jets(), jets(), jets())
def test_ring_axioms_exact(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_valuation_examples(ring2):
    assert ring2.zero().min_nonzero_degree() is None
    assert ring2.constant(5).min_nonzero_degree() == 0
    t1, t2 = ring2.variable("t1"), ring2.variable("t2")
    assert (t1 * t2 + t2).min_nonzero_degree() == 1
    assert (t1 * t2).min_nonzero_degree() == 2


MIXED_RING = JetRing(("x", "y"), 4)


@st.composite
def mixed_jets(draw):
    """Jets of the order-4 ring whose terms start at a drawn degree, so
    valuations from 0 up to 4 and the zero jet all occur."""
    low = draw(st.integers(0, MIXED_RING.order))
    exps = [e for e in _all_exps(2, MIXED_RING.order) if sum(e) >= low]
    terms = {}
    for exp in draw(st.lists(st.sampled_from(exps), max_size=5)):
        terms[exp] = GaussianRational(draw(_coeffs()), draw(_coeffs()))
    return jet_of(MIXED_RING, terms)


@settings(max_examples=120, deadline=None)
@given(mixed_jets(), mixed_jets())
def test_valuation_of_sum_and_product(a, b):
    va, vb = a.min_nonzero_degree(), b.min_nonzero_degree()
    s = (a + b).min_nonzero_degree()
    if s is not None:
        assert s >= min(v for v in (va, vb) if v is not None)
    p = (a * b).min_nonzero_degree()
    if p is not None:
        assert p >= va + vb


def _horner_eval(terms, names, values):
    """Independent oracle: recursive Horner evaluation, one variable at a time."""
    if not names:
        return terms.get((), GaussianRational(0))
    by_power = {}
    for exp, c in terms.items():
        by_power.setdefault(exp[0], {})[exp[1:]] = c
    if not by_power:
        return GaussianRational(0)
    acc = GaussianRational(0)
    for power in range(max(by_power), -1, -1):
        acc = acc * values[0] + _horner_eval(
            by_power.get(power, {}), names[1:], values[1:]
        )
    return acc


@settings(max_examples=80, deadline=None)
@given(jets(), st.lists(_coeffs(), min_size=2, max_size=2))
def test_evaluation_matches_horner_oracle(a, point):
    values = [GaussianRational(v) for v in point]
    direct = _evaluate(a, dict(zip(a.ring.variables, values)))
    oracle = _horner_eval(a.terms, list(a.ring.variables), values)
    assert direct == oracle


def _horner_eval_complex(terms, values):
    if not values:
        return terms.get((), 0j)
    by_power = {}
    for exp, c in terms.items():
        by_power.setdefault(exp[0], {})[exp[1:]] = c
    if not by_power:
        return 0j
    acc = 0j
    for power in range(max(by_power), -1, -1):
        acc = acc * values[0] + _horner_eval_complex(by_power.get(power, {}), values[1:])
    return acc


@settings(max_examples=60, deadline=None)
@given(jets(), st.lists(_coeffs(), min_size=2, max_size=2))
def test_float_evaluation_matches_horner_oracle(a, point):
    fring = JetRing(a.ring.variables, a.ring.order, FLOAT_FIELD)
    f = jet_of(fring, {e: c.to_complex() for e, c in a.terms.items()})
    values = [complex(v) for v in point]
    direct = _evaluate(f, dict(zip(f.ring.variables, values)))
    oracle = _horner_eval_complex(f.terms, values)
    assert abs(direct - oracle) <= 1e-10 * max(1.0, abs(oracle))


@settings(max_examples=60, deadline=None)
@given(jets(), jets())
def test_exact_and_float_products_agree(a, b):
    prod = a * b
    fring = JetRing(a.ring.variables, a.ring.order, FLOAT_FIELD)

    def to_float(j):
        return jet_of(fring, {e: c.to_complex() for e, c in j.terms.items()})

    fprod = to_float(a) * to_float(b)
    scale = max(
        [abs(c) for c in fprod.terms.values()]
        + [abs(c.to_complex()) for c in prod.terms.values()]
        + [1.0]
    )
    for exp in set(prod.terms) | set(fprod.terms):
        exact_c = prod.coefficient(exp).to_complex()
        float_c = fprod.coefficient(exp)
        assert abs(exact_c - float_c) <= 1e-12 * scale


def test_json_roundtrip_exact(ring2):
    a = ring2.constant(1) * Fraction(3, 7) + ring2.variable("t1") * GaussianRational(0, 2)
    back = _jet_from_json_dict(a.to_json_dict(), EXACT_FIELD)
    assert back == a


def test_json_roundtrip_float():
    ring = JetRing(("u",), 2, FLOAT_FIELD)
    a = ring.constant(1.5 + 0.25j) + ring.variable("u") * (0.5 - 2j)
    back = _jet_from_json_dict(a.to_json_dict(), FLOAT_FIELD)
    assert back.terms == a.terms


def test_evaluate_float_close_to_exact():
    ring = JetRing(("x", "y"), 3)
    base = ring.constant(1) + ring.variable("x") * 2 - ring.variable("y")
    a = base * base
    vals = {"x": Fraction(1, 3), "y": Fraction(-2, 5)}
    exact = _evaluate(a, vals)
    expected = (1 + 2 * (1 / 3) - (-2 / 5)) ** 2
    assert math.isclose(exact.to_complex().real, expected, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# exact jets store Gaussian integers over one denominator per jet; their
# values must be those of a dict-of-Fraction oracle


def _wide_coeffs():
    # denominators up to 60, so the jets of one example rarely share one
    return st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=60)


@st.composite
def jets_with_oracle(draw):
    """A jet of MIXED_RING and its oracle: exponents to (re, im) Fractions."""
    oracle = draw(
        st.dictionaries(
            st.sampled_from(_all_exps(2, MIXED_RING.order)),
            st.tuples(_wide_coeffs(), _wide_coeffs()),
            max_size=6,
        )
    )
    jet = jet_of(MIXED_RING, {e: GaussianRational(re, im) for e, (re, im) in oracle.items()})
    return jet, {e: v for e, v in oracle.items() if v != (0, 0)}


def _values(jet):
    return {e: (c.re, c.im) for e, c in jet.terms.items()}


def _o_add(a, b):
    out = dict(a)
    for e, (re, im) in b.items():
        r0, i0 = out.get(e, (0, 0))
        out[e] = (r0 + re, i0 + im)
    return {e: v for e, v in out.items() if v != (0, 0)}


def _o_neg(a):
    return {e: (-re, -im) for e, (re, im) in a.items()}


def _o_mul(a, b, limit):
    out = {}
    for ea, (ar, ai) in a.items():
        for eb, (br, bi) in b.items():
            if sum(ea) + sum(eb) <= limit:
                e = tuple(x + y for x, y in zip(ea, eb))
                r0, i0 = out.get(e, (0, 0))
                out[e] = (r0 + ar * br - ai * bi, i0 + ar * bi + ai * br)
    return {e: v for e, v in out.items() if v != (0, 0)}


@settings(max_examples=150, deadline=None)
@given(jets_with_oracle(), jets_with_oracle(), jets_with_oracle())
def test_exact_jets_match_fraction_oracle(a, b, c):
    (ja, oa), (jb, ob), (jc, oc) = a, b, c
    order = MIXED_RING.order
    product = _o_mul(oa, ob, order)
    assert _values(ja * jb) == product
    assert _values(ja * jb * jc) == _o_mul(product, oc, order)
    assert _values(ja + jb) == _o_add(oa, ob)
    assert _values(ja - jb) == _o_add(oa, _o_neg(ob))
    assert _values(-ja) == _o_neg(oa)
    # the same value reached over the lcm of two denominators
    round_trip = (ja + jb) - jb
    assert round_trip == ja
    printed = {tuple(t["exp"]): (t["re"], t["im"]) for t in (ja * jb).to_json_dict()["terms"]}
    assert printed == {e: (str(re), str(im)) for e, (re, im) in product.items()}


def test_equal_values_over_different_denominators():
    a = jet_of(
        MIXED_RING,
        {(0, 0): GaussianRational(Fraction(1, 2), Fraction(-3, 4)), (1, 2): Fraction(5, 6)},
    )
    x5 = MIXED_RING.variable("x") * Fraction(1, 5)
    for same in (a * Fraction(3, 7) * Fraction(7, 3), (a + x5) - x5):
        assert same._den != a._den  # stored over another denominator
        assert same == a
        assert same.terms == a.terms
        assert same.to_json_dict() == a.to_json_dict()
    assert a.to_json_dict()["terms"] == [
        {"exp": [0, 0], "re": "1/2", "im": "-3/4"},
        {"exp": [1, 2], "re": "5/6", "im": "0"},
    ]


# ---------------------------------------------------------------------------
# packed monomial keys: the product and the sum against a reference over
# exponent tuples, insertion order and float bits included


def _pairs(jet):
    """The jet's terms as (exponents, re, im) in insertion order."""
    out = []
    for e, c in jet.terms.items():
        out.append((e, c.real, c.imag) if isinstance(c, complex) else (e, c.re, c.im))
    return out


def _bits(rows):
    """Rows with each float part as ``float.hex``, so a signed zero or a
    last bit counts."""
    return [
        (e, *(x.hex() if isinstance(x, float) else x for x in parts)) for e, *parts in rows
    ]


def _tuple_times(a, b, limit):
    """Reference product over exponent tuples: the smaller operand outside,
    terms in insertion order, the complex product in the order CPython
    takes it, each monomial's products summed as they come and a sum that
    cancels removed."""
    pa, pb = _pairs(a), _pairs(b)
    if len(pa) > len(pb):
        pa, pb = pb, pa
    out = {}
    for ea, ar, ai in pa:
        for eb, br, bi in pb:
            if sum(ea) + sum(eb) > limit:
                continue
            e = tuple(x + y for x, y in zip(ea, eb))
            re, im = ar * br - ai * bi, ar * bi + ai * br
            if e in out:
                re, im = out[e][0] + re, out[e][1] + im
            if re or im:
                out[e] = re, im
            elif e in out:
                del out[e]
    return [(e, re, im) for e, (re, im) in out.items()]


def _tuple_add(a, b):
    """Reference sum over exponent tuples: ``a``'s terms, then ``b``'s added
    in their order, a sum that cancels removed."""
    out = {e: (re, im) for e, re, im in _pairs(a)}
    for e, re, im in _pairs(b):
        if e in out:
            re, im = out[e][0] + re, out[e][1] + im
            if not (re or im):
                del out[e]
                continue
        out[e] = re, im
    return [(e, re, im) for e, (re, im) in out.items()]


def _exponent_vectors(n, order):
    """Exponent vectors of degree at most ``order``, as multisets of
    variable picks, so every degree up to the order occurs."""
    return st.lists(st.integers(0, n - 1), max_size=order).map(
        lambda picks: tuple(picks.count(i) for i in range(n))
    )


def _field_values(field):
    if field.is_exact:
        return st.builds(GaussianRational, _coeffs(), _coeffs())
    parts = st.floats(min_value=-100.0, max_value=100.0)
    return st.builds(complex, parts, parts)


# (variables, order): one variable up to degree 17, a small ring where
# monomials collect many products, an order-0 ring and the 28 pairs of g = 8
PACKED_SHAPES = [(1, 17), (2, 3), (3, 5), (2, 0), (28, 17)]


@st.composite
def packed_operands(draw, field):
    n, order = draw(st.sampled_from(PACKED_SHAPES))
    ring = JetRing(tuple(f"t{k}" for k in range(n)), order, field)
    terms = st.dictionaries(_exponent_vectors(n, order), _field_values(field), max_size=8)
    return jet_of(ring, draw(terms)), jet_of(ring, draw(terms))


@pytest.mark.parametrize("field", [EXACT_FIELD, FLOAT_FIELD], ids=["exact", "float"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_packed_product_and_sum_match_tuple_reference(field, data):
    a, b = data.draw(packed_operands(field))
    order = a.ring.order
    assert _bits(_pairs(a * b)) == _bits(_tuple_times(a, b, order))
    assert _bits(_pairs(b * a)) == _bits(_tuple_times(b, a, order))
    assert _bits(_pairs(a + b)) == _bits(_tuple_add(a, b))
    assert _bits(_pairs(b + a)) == _bits(_tuple_add(b, a))


def test_exponent_at_the_order_does_not_carry():
    ring = JetRing(("x", "y", "z"), 17)
    assert (ring.width, ring.shift) == (5, 15)
    for i in range(3):
        power = [jet_of(ring, {tuple(d if k == i else 0 for k in range(3)): 1}) for d in range(18)]
        top = tuple(17 if k == i else 0 for k in range(3))
        for d in range(18):
            p = power[d] * power[17 - d]
            assert p.terms == {top: GaussianRational(1)}
            assert p.coefficient(top) == GaussianRational(1)
            assert p.min_nonzero_degree() == 17
            assert _bits(_pairs(p)) == _bits(_tuple_times(power[d], power[17 - d], 17))
        # one degree more is truncated, whichever field it would land in
        for name in ring.variables:
            assert power[17] * ring.variable(name) == ring.zero()
    s = jet_of(ring, {(17, 0, 0): 2, (0, 17, 0): 3, (0, 0, 17): 5, (16, 1, 0): 7})
    assert s.to_json_dict()["terms"] == [
        {"exp": [0, 0, 17], "re": "5", "im": "0"},
        {"exp": [0, 17, 0], "re": "3", "im": "0"},
        {"exp": [16, 1, 0], "re": "7", "im": "0"},
        {"exp": [17, 0, 0], "re": "2", "im": "0"},
    ]
    assert list(s.terms) == [(17, 0, 0), (0, 17, 0), (0, 0, 17), (16, 1, 0)]


def test_order_zero_ring_holds_constants_only():
    ring = JetRing(("x", "y"), 0)
    assert (ring.width, ring.shift) == (1, 2)
    a, b = ring.constant(GaussianRational(2, 1)), ring.constant(Fraction(1, 3))
    assert (a * b).terms == {(0, 0): GaussianRational(Fraction(2, 3), Fraction(1, 3))}
    assert (a + b).terms == {(0, 0): GaussianRational(Fraction(7, 3), 1)}
    assert a.coefficient((1, 0)) == GaussianRational(0)
    assert a.min_nonzero_degree() == 0
    assert ring.linear_form({}) == ring.constant(1)
    with pytest.raises(RangeError):
        ring.variable("x")
    with pytest.raises(RangeError):
        ring.linear_form({"x": 1})


def test_coefficient_of_a_monomial_outside_the_ring():
    ring = JetRing(("x", "y", "z"), 17)
    f = jet_of(ring, {(17, 0, 0): 2, (0, 1, 0): 3, (1, 1, 1): 5, (0, 0, 0): 7})
    zero = GaussianRational(0)
    for exp in ((0, 1), (0, 1, 0, 0), ()):
        with pytest.raises(StructureError):
            f.coefficient(exp)
    # a negative exponent, or a degree above the order, is no stored
    # monomial, whatever its fields would pack to: with 5-bit fields,
    # (32, -33, 1) has degree 0 and sums to the constant's fields
    outside = (-1, 2, 0), (32, -33, 1), (0, -1, 0), (18, 0, 0), (32, 0, 0), (17, 1, 0), (1, 31, 0)
    for exp in outside:
        assert f.coefficient(exp) == zero, exp
    assert f.coefficient((17, 0, 0)) == GaussianRational(2)
    assert f.coefficient_of_var("y") == GaussianRational(3)
    assert JetRing(("x",), 0).constant(1).coefficient_of_var("x") == zero


@pytest.mark.parametrize("field", [EXACT_FIELD, FLOAT_FIELD], ids=["exact", "float"])
def test_linear_form_is_its_constant_plus_each_term(field):
    # the constant is the unit 1
    ring = JetRing(("a", "b", "c", "d"), 17, field)
    coeffs = {"c": Fraction(-3, 4), "a": Fraction(0), "d": Fraction(5, 2), "b": Fraction(1, 3)}
    for some in ({}, {"b": coeffs["b"]}, coeffs):
        summed = ring.constant(1)
        for name, c in some.items():
            summed = summed + ring.variable(name) * c
        form = ring.linear_form(some)
        assert _bits(_pairs(form)) == _bits(_pairs(summed))
        assert form._den == summed._den
        assert form.coefficient((0, 0, 0, 0)) == 1


def test_ring_key_layout_stays_out_of_equality():
    a, b = JetRing(("t", "u"), 4), JetRing(["t", "u"], 4)
    assert a is not b and a == b and hash(a) == hash(b)
    assert repr(a) == f"JetRing(variables=('t', 'u'), order=4, field={EXACT_FIELD!r})"
    assert a.variable("t") + b.variable("u") == jet_of(a, {(1, 0): 1, (0, 1): 1})
    assert JetRing(("t", "u"), 8) != a
