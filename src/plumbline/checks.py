"""The verification checks, written once.

``plumbline selftest`` runs every entry of ``CHECKS`` at its default
sizes; the acceptance suite calls the same functions with larger sizes
and seeds of its own.  Each check draws from labelled substreams of its
seed and returns ``(passed, detail)``: the verdict and a JSON-ready dict
of what was checked.  The two checks without random draws take no seed.
The Pruefer-sequence brute force, the alkane counts' independent oracle,
lives here too: no other command needs it, so start-up does not load it.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from typing import Dict, FrozenSet, List, Sequence, Tuple

from .alkanes import (
    MAX_CARBON_DEGREE,
    Alkane,
    alkane_codes,
    canonical_code,
    count_alkanes,
    enumerate_alkanes,
    is_chain,
    valency_profile,
)
from .curve_periods import (
    PairPlumbing,
    banded_locus_dimension,
    derivative_rank_one_check,
    is_banded,
    offdiag_support,
    pair_period_first_order,
    tree_period_first_order,
)
from .elliptic import Mark, MarkedEllipticCurve, TauPoint, TwoTorsionLabel
from .gaussian import GaussianRational
from .jets import EXACT_FIELD
from .relations import (
    MOD_T9_SAFE_DEGREE,
    all_octic_indices,
    octic_eval,
    plucker_to_cone,
    star_leading_coefficients,
    verify_asymptotic_vanishing,
)
from .sampling import (
    rand_fraction,
    rand_nonzero_fraction,
    random_grass_frame_minors,
    random_star_config,
    random_surface_sides,
    random_tree_config,
    substream,
)
from .surfaces import (
    BLOCK_COLS,
    dim_K,
    dim_V_Gamma,
    dim_W,
    dim_period_domain,
    skew_block_rank_one_vanishing,
    span_dimension_E_Gamma,
)

CheckResult = Tuple[bool, dict]

EXPECTED_COUNTS = [1, 1, 1, 2, 3, 5, 9, 18, 35, 75, 159, 355]  # OEIS A000602, genus 1..12


# ---------------------------------------------------------------------------
# Pruefer brute force (count oracle; exponential in g)


def prufer_decode(seq: Sequence[int], n: int) -> List[Tuple[int, int]]:
    """Labeled tree on 1..n from a Pruefer sequence of length n-2."""
    if n == 1:
        return []
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, w), max(u, w)))
    return edges


def brute_force_alkane_codes(g: int) -> FrozenSet[str]:
    """Canonical codes of all degree-<=4 labeled trees on 1..g, via every
    Pruefer sequence.  Feasible only for small g (g^(g-2) sequences)."""
    if g == 1:
        return frozenset({"()"})
    codes = set()
    for seq in itertools.product(range(1, g + 1), repeat=g - 2):
        # degree of v is 1 + multiplicity in the sequence
        counts: Dict[int, int] = {}
        ok = True
        for v in seq:
            c = counts.get(v, 0) + 1
            if c > MAX_CARBON_DEGREE - 1:
                ok = False
                break
            counts[v] = c
        if not ok:
            continue
        codes.add(canonical_code(Alkane(g, prufer_decode(seq, g))))
    return frozenset(codes)


def brute_force_alkane_count(g: int) -> int:
    return len(brute_force_alkane_codes(g))


def check_alkane_counts(*, max_genus: int = 10, oracle_max_genus: int = 6) -> CheckResult:
    """Enumerated counts match A000602; the Pruefer brute force agrees."""
    counts = [count_alkanes(g) for g in range(1, max_genus + 1)]
    oracle = [brute_force_alkane_count(g) for g in range(1, oracle_max_genus + 1)]
    ok = counts == EXPECTED_COUNTS[:max_genus] and oracle == EXPECTED_COUNTS[:oracle_max_genus]
    return ok, {"counts": counts, "prufer_oracle": oracle}


def check_cone_vanishing(
    seed: int = 0, *, variant: str = "corrected", genera: Sequence[int] = (4, 5), frames: int = 20
) -> CheckResult:
    """Every octic vanishes exactly at tau = y^-2 for random rank-2 frames."""
    checked = nonzero = 0
    for g in genera:
        rng = substream(seed, f"check:cone:{g}")
        octics = all_octic_indices(g)
        for _ in range(frames):
            cone = plucker_to_cone(random_grass_frame_minors(g, rng))
            for idx in octics:
                checked += 1
                if octic_eval(cone, idx, variant=variant):
                    nonzero += 1
    return nonzero == 0, {"octics_checked": checked, "nonzero": nonzero, "variant": variant}


def check_star_on_cone(
    seed: int = 0, *, variant: str = "corrected", genera: Sequence[int] = (4, 5), trials: int = 5
) -> CheckResult:
    """Every octic vanishes on the t_i t_j coefficients of star period
    matrices, scaled by random rational t."""
    ok = True
    checked = 0
    for g in genera:
        octics = all_octic_indices(g)
        for trial in range(trials):
            rng = substream(seed, f"check:star:{g}:{trial}")
            kbar = star_leading_coefficients(random_star_config(g, rng), EXACT_FIELD)
            t_vals = [GaussianRational(rand_nonzero_fraction(rng)) for _ in range(g)]
            entries = {(i, j): c * t_vals[i - 1] * t_vals[j - 1] for (i, j), c in kbar.items()}
            for idx in octics:
                checked += 1
                if octic_eval(entries, idx, variant=variant):
                    ok = False
    return ok, {"octics_checked": checked, "variant": variant}


def check_jet_vanishing(
    seed: int = 0, *, genera: Sequence[int] = (4,), trials: int = 2
) -> CheckResult:
    """Octic jets of perturbed star entries vanish through degree 16 at each
    genus, and a corrupted entry makes one survive at degree 16 or below.

    The substream labels name the trial, not the genus: the genus alone
    sets how much of each stream a configuration reads.
    """
    ok = neg_failed = True
    degrees = []
    for genus in genera:
        for trial in range(trials):
            s = random_star_config(genus, substream(seed, f"check:jets:{trial}"))
            rep = verify_asymptotic_vanishing(s, seed=f"{seed}:check:jets:perturb:{trial}")
            ok = ok and rep.passed
            degrees.append(rep.min_surviving_degree)
        s = random_star_config(genus, substream(seed, "check:jets:neg"))
        neg = verify_asymptotic_vanishing(s, seed=f"{seed}:check:jets:neg", corrupt_entry=(1, 2))
        degree = neg.min_surviving_degree
        failed = not neg.passed and degree is not None and degree <= MOD_T9_SAFE_DEGREE
        neg_failed = neg_failed and failed
    return ok and neg_failed, {
        "min_surviving_degrees": degrees,
        "negative_control_failed": neg_failed,
    }


def _tree_assembly(alkane: Alkane, rng):
    tc = random_tree_config(alkane, rng)
    return tc, tree_period_first_order(tc)


def check_branch_patterns(seed: int = 0, *, genera: Sequence[int] = range(2, 7)) -> CheckResult:
    """Off-diagonal support equals the edge set; chains of genus 2..8 are
    tridiagonal; banded loci of genus 2..10 have dimensions 2g-1 and 3g-3."""
    ok = True
    tested = 0
    for g in genera:
        for code, a in zip(alkane_codes(g), enumerate_alkanes(g)):
            _, m = _tree_assembly(a, substream(seed, f"check:branch:{g}:{code}"))
            tested += 1
            if offdiag_support(m) != frozenset(a.edges):
                ok = False
    chain_ok = True
    for g in range(2, 9):
        a = Alkane.chain(g)
        _, m = _tree_assembly(a, substream(seed, f"check:chain:{g}"))
        chain_ok = chain_ok and is_chain(a) and is_banded(offdiag_support(m), 2)
    dims_ok = all(
        banded_locus_dimension(g, 2) == 2 * g - 1 and banded_locus_dimension(g, 3) == 3 * g - 3
        for g in range(2, 11)
    )
    return ok and chain_ok and dims_ok, {
        "alkanes_tested": tested,
        "chain_tridiagonal": chain_ok,
        "banded_dims": dims_ok,
    }


def _random_marked_curve(rng) -> MarkedEllipticCurve:
    tau = TauPoint(
        GaussianRational(rand_fraction(rng, -2, 2, 3), rand_nonzero_fraction(rng, 1, 3, 2))
    )
    return MarkedEllipticCurve(
        tau, (Mark(TwoTorsionLabel.O, GaussianRational(rand_nonzero_fraction(rng))),)
    )


def check_rank_one(
    seed: int = 0, *, pair_trials: int = 5, genera: Sequence[int] = range(2, 6), trials: int = 5
) -> CheckResult:
    """Every parameter derivative of pair and tree period matrices has rank 1."""
    ok = True
    for trial in range(pair_trials):
        rng = substream(seed, f"check:pair:{trial}")
        ca = _random_marked_curve(rng)
        cb = _random_marked_curve(rng)
        m = pair_period_first_order(PairPlumbing(ca, cb, "t"))
        if not derivative_rank_one_check(m, "t"):
            ok = False
    tested = 0
    for g in genera:
        for code, a in zip(alkane_codes(g), enumerate_alkanes(g)):
            for trial in range(trials):
                tc, m = _tree_assembly(a, substream(seed, f"check:tree:{g}:{code}:{trial}"))
                tested += 1
                for d in tc.edge_data.values():
                    if not derivative_rank_one_check(m, d.var):
                        ok = False
    return ok, {"assemblies_tested": tested, "pairs_tested": pair_trials}


def check_surface_dims() -> CheckResult:
    """The dimension formulas for h <= 12; for h >= 2, dim V_Gamma is also
    summed over the valency profile.  The degrees of a tree on h vertices
    sum to 2(h-1), so sum_v (18 - 4 deg v) - (h-1) = 9h+9 for every tree:
    this check tests the arithmetic of the formulas, not the alkanes."""
    ok = dim_period_domain(1) == 18 and dim_K(4) == 2
    checked = 0
    for h in range(1, 13):
        if dim_W([1] * h) != h + 1:
            ok = False
        for a in enumerate_alkanes(h):
            checked += 1
            profile = enumerate(valency_profile(a), start=1)
            by_valency = sum(n * (18 - 4 * j) for j, n in profile) - (h - 1)
            if dim_V_Gamma(a) != 9 * h + 9 or (h >= 2 and by_valency != 9 * h + 9):
                ok = False
    return ok, {"alkanes_checked": checked}


def check_egamma_span(
    seed: int = 0, *, genera: Sequence[int] = range(2, 7), trials: int = 10
) -> CheckResult:
    """The edge matrices of random surface models span dimension h-1; two
    coinciding edge matrices (the degenerate control) span less."""
    ok = True
    models = 0
    for h in genera:
        for code, a in zip(alkane_codes(h), enumerate_alkanes(h)):
            for trial in range(trials):
                rng = substream(seed, f"check:span:{h}:{code}:{trial}")
                models += 1
                if span_dimension_E_Gamma(random_surface_sides(a, rng)) != h - 1:
                    ok = False
    # both chain edges carry the same data, the first edge's sides
    # concentrated on the shared middle vertex, so their matrices coincide
    a = Alkane.chain(3)
    (rows, cols), _ = random_surface_sides(a, substream(seed, "check:span:neg"))
    i_mid = {c: x for c, x in cols.items() if c >= BLOCK_COLS}
    mid = {1: rows[1]}, i_mid
    degenerate_span = span_dimension_E_Gamma([mid, mid])
    ok = ok and degenerate_span < a.genus - 1
    return ok, {"models": models, "degenerate_span": degenerate_span}


def check_skew_block(
    seed: int = 0, *, trials: int = 200, pi_genera: Sequence[int] = range(3, 5)
) -> CheckResult:
    """A skew-symmetric block of a rank-1 matrix is zero; every edge matrix
    Pi_e has zero trailing (skew) column blocks."""
    rng = substream(seed, "check:skew")
    rows, cols, size = 4, 9, 3
    counterexamples = 0
    for trial in range(trials):
        u = [rand_fraction(rng, -5, 5, 3) for _ in range(rows)]
        w = [rand_fraction(rng, -5, 5, 3) for _ in range(cols)]
        # a third each: zero trailing columns, zero trailing rows, generic
        if trial % 3 == 0:
            for c in range(cols - size, cols):
                w[c] = Fraction(0)
        elif trial % 3 == 1:
            for r in range(rows - size, rows):
                u[r] = Fraction(0)
        m = [[u[r] * w[c] for c in range(cols)] for r in range(rows)]
        if not skew_block_rank_one_vanishing(
            m, list(range(rows - size, rows)), list(range(cols - size, cols))
        ):
            counterexamples += 1
    pi_ok = True
    for h in pi_genera:
        for code, a in zip(alkane_codes(h), enumerate_alkanes(h)):
            rng = substream(seed, f"check:skew:pi:{h}:{code}")
            for _, cols in random_surface_sides(a, rng):
                if any(c % BLOCK_COLS == BLOCK_COLS - 1 for c in cols):
                    pi_ok = False
    return counterexamples == 0 and pi_ok, {
        "trials": trials,
        "counterexamples": counterexamples,
        "pi_trailing_blocks_zero": pi_ok,
    }


# The selftest report lists the checks in this order.  Each entry is called
# as ``check(seed, variant)``; the checks that evaluate octics forward the
# octic ``variant``.
CHECKS = (
    ("alkane_counts", lambda seed, variant: check_alkane_counts()),
    ("cone_vanishing", lambda seed, variant: check_cone_vanishing(seed, variant=variant)),
    ("star_on_cone", lambda seed, variant: check_star_on_cone(seed, variant=variant)),
    ("jet_vanishing_mod_t9", lambda seed, variant: check_jet_vanishing(seed)),
    ("branch_patterns", lambda seed, variant: check_branch_patterns(seed)),
    ("rank_one_derivatives", lambda seed, variant: check_rank_one(seed)),
    ("surface_dimensions", lambda seed, variant: check_surface_dims()),
    ("egamma_span", lambda seed, variant: check_egamma_span(seed)),
    ("skew_block", lambda seed, variant: check_skew_block(seed)),
)
