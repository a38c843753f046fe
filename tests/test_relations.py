"""Octic relations: exact cone vanishing, homogeneity, jet verification."""

import math
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ_I

from plumbline import checks, relations
from plumbline.curve_periods import star_period_leading
from plumbline.errors import DegenerateDataError
from plumbline.gaussian import GaussianRational
from plumbline.jets import EXACT_FIELD, FLOAT_FIELD, JetRing
from plumbline.relations import (
    OCTIC_MIN_GENUS,
    OCTIC_VARIANTS,
    all_octic_indices,
    octic_eval,
    perturbed_star_entries,
    plucker_coordinates,
    plucker_to_cone,
    verify_asymptotic_vanishing,
)
from plumbline.sampling import (
    rand_nonzero_fraction,
    random_grass_frame_minors,
    random_star_config,
    substream,
)

from oracles import jet_of


def _quadric(y, idx):
    """The Pluecker quadric y_ij y_kl - y_ik y_jl + y_il y_jk."""
    i, j, k, l = idx
    return y[(i, j)] * y[(k, l)] - y[(i, k)] * y[(j, l)] + y[(i, l)] * y[(j, k)]


def _sq(x):
    return x * x


def _octic_plain(entries, idx, variant="corrected"):
    """The octic with plain operators: every product kept up to the ring
    order, the oracle for the truncated products of ``octic_eval``."""
    i, j, k, l = idx
    tij, tik, til = entries[(i, j)], entries[(i, k)], entries[(i, l)]
    tjk, tjl, tkl = entries[(j, k)], entries[(j, l)], entries[(k, l)]
    positive = (
        2 * (tij * tkl) * (til * tjk) * (tik * tjl) * (tik * tjl + til * tjk + tij * tkl)
    )
    sq_ik_jl__il_jk = _sq(tik * tjl * til * tjk)
    sq_ij_kl__ik_jl = _sq(tij * tkl * tik * tjl)
    sq_ij_kl__il_jk = _sq(tij * tkl * til * tjk)
    if variant == "corrected":
        negative = sq_ik_jl__il_jk + sq_ij_kl__ik_jl + sq_ij_kl__il_jk
    else:
        negative = _sq(tij * til * tjk * tjl) + sq_ik_jl__il_jk + sq_ij_kl__ik_jl
    return positive - negative


def _star_entries(g, field, seed, corrupt_entry=None):
    """The reduced star entries kappabar_ab (1 + l_ab) in a ring of order 1,
    and the full entries t_a t_b kappabar_ab (1 + l_ab) in a ring of order
    17."""
    s = random_star_config(g, substream(seed, f"test:plain:{g}"))
    names = tuple(s.variables)
    reduced = perturbed_star_entries(s, seed, corrupt_entry, field)
    ring = JetRing(names, 17, field)
    full = {
        (a, b): ring.variable(names[a - 1]) * ring.variable(names[b - 1]) * jet_of(ring, e.terms)
        for (a, b), e in reduced.items()
    }
    return reduced, full


def _float_bits(jet):
    return {e: (c.real.hex(), c.imag.hex()) for e, c in jet.terms.items()}


@pytest.mark.parametrize("g", [4, 5, 6])
def test_octic_eval_matches_plain_oracle_exact(g):
    for corrupt_entry in (None, (1, 2)):
        _, entries = _star_entries(g, EXACT_FIELD, 90 + g, corrupt_entry)
        for variant in OCTIC_VARIANTS:
            for idx in all_octic_indices(g):
                assert octic_eval(entries, idx, variant) == _octic_plain(entries, idx, variant)


def test_octic_eval_matches_plain_oracle_float_g7():
    _, entries = _star_entries(7, FLOAT_FIELD, 97)
    for idx in all_octic_indices(7):
        f, oracle = octic_eval(entries, idx), _octic_plain(entries, idx)
        assert f.ring.order == 17
        assert f == oracle
        # the kept coefficients come from the same float operations
        assert _float_bits(f) == _float_bits(oracle)


@pytest.mark.parametrize("field", [EXACT_FIELD, FLOAT_FIELD])
def test_octic_eval_matches_plain_oracle_mixed_valuations(field):
    # a constant-only entry (valuation 0) and a zero entry (no valuation)
    _, constant = _star_entries(5, field, 98)
    ring = constant[(1, 2)].ring
    constant[(1, 3)] = ring.constant(3)
    zero = dict(constant)
    zero[(2, 4)] = ring.zero()
    for case in (constant, zero):
        for variant in OCTIC_VARIANTS:
            for idx in all_octic_indices(5):
                assert octic_eval(case, idx, variant) == _octic_plain(case, idx, variant)


@pytest.mark.parametrize("field", [EXACT_FIELD, FLOAT_FIELD], ids=["exact", "float"])
@pytest.mark.parametrize("g", [4, 5, 6, 7, 8])
def test_lifted_octic_matches_order_17_oracle(g, field):
    # the octic of the reduced entries, lifted by (t_i t_j t_k t_l)^4, is
    # the order-17 octic of the full entries: exactly over Gaussian
    # rationals, within 1e-12 of its scale over floats
    for corrupt_entry in (None, (1, 2)):
        reduced, full = _star_entries(g, field, 80 + g, corrupt_entry)
        ring = full[(1, 2)].ring
        for idx in all_octic_indices(g):
            f, oracle = octic_eval(reduced, idx, ring=ring), _octic_plain(full, idx)
            assert f.ring == ring and {sum(e) for e in f.terms} <= {16, 17}
            if field.is_exact:
                assert f == oracle
            else:
                scale = max(abs(c) for c in oracle.terms.values())
                for e in set(f.terms) | set(oracle.terms):
                    assert abs(f.coefficient(e) - oracle.coefficient(e)) <= 1e-12 * scale
            # a doubled kappabar_12 moves the octics that read it off the
            # cone, and they survive at degree 16
            degree = f.min_nonzero_degree()
            if corrupt_entry is not None and {1, 2} <= set(idx):
                assert degree == 16
            else:
                assert degree is None or degree > 16


@pytest.mark.parametrize("field", [EXACT_FIELD, FLOAT_FIELD], ids=["exact", "float"])
@pytest.mark.parametrize("g", [4, 5, 6, 7, 8])
def test_corrupted_entry_survives_at_degree_16(g, field):
    s = random_star_config(g, substream(g, "test:corrupt"))
    assert verify_asymptotic_vanishing(s, seed=g, field=field).passed
    rep = verify_asymptotic_vanishing(s, seed=g, corrupt_entry=(2, 1), field=field)
    assert not rep.passed and rep.min_surviving_degree == 16


def test_cone_oracle_corrected_vs_printed():
    # the decisive check: on exact rational cone points the corrected octic
    # is identically zero and the printed variant is not
    rng = substream(20260809, "test:oracle")
    corrected_nonzero = 0
    printed_zero = 0
    evaluations = 0
    for _ in range(20):
        g = rng.choice([4, 5, 6])
        y = random_grass_frame_minors(g, rng)
        cone = plucker_to_cone(y)
        for idx in all_octic_indices(g):
            evaluations += 1
            if octic_eval(cone, idx, variant="corrected"):
                corrected_nonzero += 1
            if not octic_eval(cone, idx, variant="printed"):
                printed_zero += 1
    assert evaluations >= 20
    assert corrected_nonzero == 0
    assert printed_zero == 0


def test_frame_example_minors():
    y = plucker_coordinates((1, 1, 1, 1), (0, 1, 2, 3))
    assert y == {(i, j): j - i for i, j in combinations(range(1, 5), 2)}
    assert _quadric(y, (1, 2, 3, 4)) == 1 * 1 - 2 * 2 + 3 * 1 == 0


def test_column_swap_negates_minor():
    y = plucker_coordinates((1, 1, 1, 1), (0, 1, 2, 3))
    ys = plucker_coordinates((1, 1, 1, 1), (1, 0, 2, 3))  # columns 1 <-> 2
    assert ys[(1, 2)] == -y[(1, 2)]


def test_cone_point_values_frozen():
    cone = plucker_to_cone(plucker_coordinates((1, 1, 1, 1), (0, 1, 2, 3)))
    assert cone == {
        (1, 2): Fraction(1),
        (1, 3): Fraction(1, 4),
        (1, 4): Fraction(1, 9),
        (2, 3): Fraction(1),
        (2, 4): Fraction(1, 4),
        (3, 4): Fraction(1),
    }
    assert octic_eval(cone, (1, 2, 3, 4)) == 0


def test_octic_on_all_ones():
    ones = {(i, j): 1 for i, j in combinations(range(1, 5), 2)}
    assert octic_eval(ones, (1, 2, 3, 4)) == 2 * 1 * 3 - 3 == 3


def test_homogeneity_degree_eight():
    rng = substream(31, "test:homog")
    idx = (1, 2, 3, 4)
    for _ in range(30):
        m = {
            (i, j): GaussianRational(rand_nonzero_fraction(rng), rand_nonzero_fraction(rng))
            for i, j in combinations(range(1, 5), 2)
        }
        c = GaussianRational(rand_nonzero_fraction(rng))
        scaled = {p: c * v for p, v in m.items()}
        assert octic_eval(scaled, idx) == math.prod([c] * 8) * octic_eval(m, idx)


def _gaussian(re, im):
    """Exact values (a + b i) / d: a drawn by ``re``, b by ``im``, d in 1..4."""
    return st.builds(
        lambda a, b, d: GaussianRational(Fraction(a, d), Fraction(b, d)), re, im, st.integers(1, 4)
    )


_values = _gaussian(st.integers(-6, 6), st.integers(-6, 6))


_UNITS = tuple(GaussianRational(*p) for p in ((1, 0), (0, 1), (-1, 0), (0, -1)))
# every nonzero Gaussian rational is a unit times one with re > 0 and im >= 0
_nonzero = st.builds(
    lambda u, z: u * z, st.sampled_from(_UNITS), _gaussian(st.integers(1, 6), st.integers(0, 6))
)


@st.composite
def _exact_points(draw):
    """A genus g <= 7 and exact values tau_ab for every pair a < b."""
    g = draw(st.integers(OCTIC_MIN_GENUS, 7))
    pairs = list(combinations(range(1, g + 1), 2))
    return g, dict(zip(pairs, draw(st.lists(_values, min_size=len(pairs), max_size=len(pairs)))))


@settings(max_examples=60, deadline=None)
@given(_exact_points(), st.data())
def test_octic_moves_with_a_relabelling(point, data):
    # the octic is symmetric in its three pair products, which a permutation
    # of i, j, k, l only permutes: the octic of sigma.tau at the sorted
    # sigma(idx) is the octic of tau at idx
    g, tau = point
    sigma = dict(zip(range(1, g + 1), data.draw(st.permutations(range(1, g + 1)))))
    moved = {tuple(sorted((sigma[a], sigma[b]))): v for (a, b), v in tau.items()}
    for idx in all_octic_indices(g):
        assert octic_eval(moved, tuple(sorted(sigma[a] for a in idx))) == octic_eval(tau, idx)


@settings(max_examples=60, deadline=None)
@given(_exact_points(), st.lists(_nonzero, min_size=7, max_size=7))
def test_octic_scales_under_the_torus(point, scales):
    # tau_ab -> s_a s_b tau_ab multiplies each pair product, and so each
    # octic monomial, by s_i s_j s_k s_l: every monomial holds each index
    # of the quadruple four times
    g, tau = point
    s = dict(zip(range(1, g + 1), scales))
    scaled = {(a, b): s[a] * s[b] * v for (a, b), v in tau.items()}
    for idx in all_octic_indices(g):
        factor = math.prod(s[a] for a in idx)
        assert octic_eval(scaled, idx) == math.prod([factor] * 4) * octic_eval(tau, idx)


def test_symbolic_degree_count():
    # every monomial of the octic has degree exactly 8 in the entries:
    # evaluate on entries tau_ij = c_ij * x and inspect the jet
    ring = JetRing(("x",), 8)
    rng = substream(37, "test:deg")
    entries = {
        (i, j): ring.variable("x") * GaussianRational(rand_nonzero_fraction(rng))
        for i, j in combinations(range(1, 5), 2)
    }
    for variant in ("corrected", "printed"):
        f = octic_eval(entries, (1, 2, 3, 4), variant=variant)
        assert all(sum(e) == 8 for e in f.terms)


def test_cone_soundness_many_frames():
    for g in (4, 5, 6):
        rng = substream(41, f"test:sound:{g}")
        for _ in range(25):
            cone = plucker_to_cone(random_grass_frame_minors(g, rng))
            for idx in all_octic_indices(g):
                assert octic_eval(cone, idx) == 0


def test_off_cone_matrices_fail():
    rng = substream(43, "test:offcone")
    nonzero = 0
    for _ in range(100):
        m = {
            (i, j): GaussianRational(rand_nonzero_fraction(rng), rand_nonzero_fraction(rng))
            for i, j in combinations(range(1, 5), 2)
        }
        if octic_eval(m, (1, 2, 3, 4)):
            nonzero += 1
    assert nonzero == 100


def test_quadric_octic_consistency():
    # whenever the quadric vanishes on y with all y_ij nonzero, the corrected
    # octic vanishes on tau = y^-2 -- including non-frame solutions
    rng = substream(47, "test:quadoct")
    found = 0
    while found < 50:
        y = {
            (i, j): rand_nonzero_fraction(rng)
            for i, j in combinations(range(1, 5), 2)
        }
        # solve the quadric for y_14: y12*y34 - y13*y24 + y14*y23 = 0
        y[(1, 4)] = (y[(1, 3)] * y[(2, 4)] - y[(1, 2)] * y[(3, 4)]) / y[(2, 3)]
        if not y[(1, 4)]:
            continue
        assert _quadric(y, (1, 2, 3, 4)) == 0
        assert octic_eval(plucker_to_cone(y), (1, 2, 3, 4)) == 0
        found += 1


def test_degenerate_frames_and_zero_coordinates():
    rank_one = plucker_coordinates((1, 2, 3), (2, 4, 6))
    assert not any(rank_one.values())
    with pytest.raises(DegenerateDataError):
        plucker_to_cone(rank_one)
    y = plucker_coordinates((1, 0, 1, 1), (0, 1, 0, 2))
    assert y[(1, 3)] == 0
    with pytest.raises(DegenerateDataError):
        plucker_to_cone(y)


def test_octic_index_validation():
    # plain 4-tuples, strictly increasing and 1-based, each quadruple once
    assert all_octic_indices(3) == []
    assert all_octic_indices(4) == [(1, 2, 3, 4)]
    assert len(all_octic_indices(6)) == 15
    for g in range(4, 9):
        indices = all_octic_indices(g)
        assert len(indices) == math.comb(g, 4) and indices == sorted(set(indices))
        for i, j, k, l in indices:
            assert 1 <= i < j < k < l <= g
        assert all(type(idx) is tuple for idx in indices)


def test_octic_on_star_jet_entries_identically_zero():
    # with no perturbation units the octic jet vanishes coefficientwise: the
    # star entries t_a t_b kappabar_ab are built in an order-17 ring, where
    # no octic term is truncated away, and match the order-2 star assembly
    s = random_star_config(4, substream(53, "test:staroct"))
    ring = JetRing(tuple(s.variables), 17, EXACT_FIELD)
    t = [ring.variable(name) for name in s.variables]
    kbar = relations.star_leading_coefficients(s, EXACT_FIELD)
    entries = {(i, j): t[i - 1] * t[j - 1] * c for (i, j), c in kbar.items()}
    star = star_period_leading(s)
    for (i, j), e in entries.items():
        assert e.min_nonzero_degree() == 2
        assert e == jet_of(ring, star.entry(i, j).terms)
    assert octic_eval(entries, (1, 2, 3, 4)) == ring.zero()


def test_verify_asymptotic_vanishing_passes():
    s = random_star_config(4, substream(59, "test:verify"))
    rep = verify_asymptotic_vanishing(s, seed=101)
    assert rep.passed
    assert rep.octics_checked == 1
    assert rep.min_surviving_degree is None or rep.min_surviving_degree >= 17
    d = rep.to_json_dict()
    assert d["all_vanish_through"] == 16
    assert d["g"] == 4 and d["order"] == 17


def test_verify_negative_control():
    s = random_star_config(4, substream(61, "test:neg"))
    rep = verify_asymptotic_vanishing(s, seed=101, corrupt_entry=(1, 2))
    assert not rep.passed
    assert rep.min_surviving_degree is not None and rep.min_surviving_degree <= 16


def test_jet_vanishing_check_fails_when_its_control_does_not(monkeypatch):
    ok, detail = checks.check_jet_vanishing(0, trials=1)
    assert ok and detail["negative_control_failed"] is True
    # a negative control that passes, its corrupted entry dropped, must fail
    # the check
    original = checks.verify_asymptotic_vanishing
    monkeypatch.setattr(
        checks,
        "verify_asymptotic_vanishing",
        lambda s, seed, corrupt_entry=None: original(s, seed=seed),
    )
    ok, detail = checks.check_jet_vanishing(0, trials=1)
    assert not ok and detail["negative_control_failed"] is False


def test_verify_genus_five():
    s = random_star_config(5, substream(71, "test:g5"))
    rep = verify_asymptotic_vanishing(s, seed=7)
    assert rep.passed
    assert rep.octics_checked == 5


def test_octic_loop_runs_without_gaussian_rational_arithmetic(monkeypatch):
    # exact jets keep Gaussian integers over one denominator: once the
    # entries are built, the octic check neither adds nor multiplies
    # GaussianRational values, nor makes one
    def forbidden(*args):
        raise AssertionError("GaussianRational used in the octic loop")

    build = relations.perturbed_star_entries

    def build_then_forbid(*args, **kwargs):
        entries = build(*args, **kwargs)
        for name in ("__init__", "__add__", "__radd__", "__mul__", "__rmul__"):
            monkeypatch.setattr(GaussianRational, name, forbidden)
        return entries

    monkeypatch.setattr(relations, "perturbed_star_entries", build_then_forbid)
    s = random_star_config(5, substream(71, "test:g5"))
    rep = verify_asymptotic_vanishing(s, seed=7, field=EXACT_FIELD)
    assert GaussianRational.__mul__ is forbidden
    assert rep.passed and rep.octics_checked == 5 and rep.min_surviving_degree == 17


@pytest.mark.parametrize("g", range(4, 9))
def test_star_leading_coefficients_match_sympy(g):
    # kappabar_ij = kappa v_i v_j / (b_i - b_j)^2, recomputed over sympy's
    # Q(i): exactly with kappa = 1/16, and with kappa = 2*pi*i/16 to 30
    # digits for the float field
    def gaussian(x):
        return QQ_I.from_sympy(sympy.Rational(x.re) + sympy.I * sympy.Rational(x.im))

    kappa = 2 * sympy.pi * sympy.I / 16
    for trial in range(4):
        s = random_star_config(g, substream(trial, f"test:kappabar:{g}"))
        v = [gaussian(tail.omega_at_point[0]) for tail in s.tails]
        b = [gaussian(x) for x in s.attach_points]
        exact = relations.star_leading_coefficients(s, EXACT_FIELD)
        numeric = relations.star_leading_coefficients(s, FLOAT_FIELD)
        assert list(exact) == list(numeric) == list(combinations(range(1, g + 1), 2))
        for (i, j), c in exact.items():
            d = b[i - 1] - b[j - 1]
            want = v[i - 1] * v[j - 1] / (d * d)
            assert gaussian(c) == want / 16, (trial, i, j)
            want_float = complex(sympy.N(kappa * QQ_I.to_sympy(want), 30))
            assert abs(numeric[(i, j)] - want_float) <= 1e-12 * abs(want_float), (trial, i, j)
