"""Alkane enumeration against the frozen A000602 counts and three independent
count oracles (Pruefer, networkx, Otter), plus code invariance."""

import itertools
import json
import random

import networkx as nx
import pytest

from plumbline import checks
from plumbline.alkanes import (
    GENUS_CAP,
    MAX_CARBON_DEGREE,
    Alkane,
    _centroids,
    alkane_codes,
    alkane_from_code,
    canonical_code,
    count_alkanes,
    enumerate_alkanes,
    hydrogen_count,
    is_chain,
    valency_profile,
)
from plumbline.checks import brute_force_alkane_count, prufer_decode
from plumbline.errors import RangeError, StructureError
from plumbline.cli import main

from oracles import alkane_from_code_recursive

# A000602 (quartic free trees), frozen for genus 1..12
EXPECTED = [1, 1, 1, 2, 3, 5, 9, 18, 35, 75, 159, 355]


def _star(g):
    """Center 1 joined to leaves 2..g."""
    return Alkane(g, [(1, j) for j in range(2, g + 1)])


def _relabel(a, perm):
    """The alkane with every vertex v renamed perm[v]."""
    return Alkane(a.genus, [(perm[i], perm[j]) for i, j in a.edges])


def random_degree_bounded_tree(g, rng):
    """Rejection-sample a labeled degree-<=4 tree via random Pruefer sequences."""
    if g <= 2:
        return Alkane(g, [] if g == 1 else [(1, 2)])
    while True:
        seq = [rng.randint(1, g) for _ in range(g - 2)]
        if max(seq.count(v) for v in set(seq)) <= MAX_CARBON_DEGREE - 1:
            return Alkane(g, prufer_decode(seq, g))


def test_counts_match_frozen_sequence():
    assert [count_alkanes(g) for g in range(1, 13)] == EXPECTED


def test_counts_match_prufer_brute_force_small():
    # exhaustive over all g^(g-2) Pruefer sequences
    assert [brute_force_alkane_count(g) for g in range(1, 8)] == EXPECTED[:7]


def test_alkane_count_check_fails_when_its_oracle_does(monkeypatch):
    ok, detail = checks.check_alkane_counts(max_genus=6, oracle_max_genus=5)
    assert ok and detail["prufer_oracle"] == EXPECTED[:5]
    # an oracle that is off by one must fail the check, enumerated counts
    # notwithstanding
    def off_by_one(g):
        return brute_force_alkane_count(g) + 1

    monkeypatch.setattr(checks, "brute_force_alkane_count", off_by_one)
    ok, detail = checks.check_alkane_counts(max_genus=6, oracle_max_genus=5)
    assert not ok and detail["counts"] == EXPECTED[:6]


def _networkx_quartic_tree_count(n: int) -> int:
    if n == 1:
        return 1
    if n == 2:
        return 1
    count = 0
    for tree in nx.nonisomorphic_trees(n):
        if max(dict(tree.degree()).values()) <= 4:
            count += 1
    return count


def test_counts_match_networkx_oracle():
    assert [_networkx_quartic_tree_count(g) for g in range(1, 13)] == EXPECTED


def _otter_alkane_counts(max_n: int):
    """A000602 for n = 1..max_n from Polya's cycle indices and Otter's
    dissimilarity theorem, as power series truncated after x^max_n.

    r counts alkyl radicals (rooted trees whose nodes have at most three
    children; r[0] = 1 is a hydrogen): R = 1 + x Z(S3; R).  A tree rooted
    at a carbon is a multiset of four radicals, x Z(S4; R); one rooted at
    a bond is an unordered pair of nonempty radicals, Z(S2; R - 1).
    Otter: unrooted = carbon-rooted - bond-rooted + symmetric bonds, and
    the symmetric bonds are R(x^2) - 1.
    """
    n = max_n + 1

    def mul(*series):
        out = [1] + [0] * max_n
        for s in series:
            out = [sum(out[i] * s[k - i] for i in range(k + 1)) for k in range(n)]
        return out

    def at_power(s, p):  # s(x^p)
        return [s[k // p] if k % p == 0 else 0 for k in range(n)]

    r = [1] + [0] * max_n
    for k in range(1, n):
        r2, r3 = at_power(r, 2), at_power(r, 3)
        z3 = [a + 3 * b + 2 * c for a, b, c in zip(mul(r, r, r), mul(r, r2), r3)]
        r[k] = z3[k - 1] // 6
    r2, r3, r4 = at_power(r, 2), at_power(r, 3), at_power(r, 4)
    z4 = [
        a + 6 * b + 3 * c + 8 * d + 6 * e
        for a, b, c, d, e in zip(mul(r, r, r, r), mul(r, r, r2), mul(r2, r2), mul(r, r3), r4)
    ]
    radicals = [0] + r[1:]
    z2 = [a - b for a, b in zip(mul(radicals, radicals), [0] + r2[1:])]
    return [z4[k - 1] // 24 - z2[k] // 2 for k in range(1, n)]


def test_counts_match_otter_recurrence(capsys):
    otter = _otter_alkane_counts(16)
    assert otter[:12] == EXPECTED
    assert otter[12:] == [802, 1858, 4347, 10359]
    assert main(["alkanes", "count", "--max", "16"]) == 0
    assert json.loads(capsys.readouterr().out)["counts"] == otter


def test_enumerate_genus_one():
    (a,) = enumerate_alkanes(1)
    assert a.genus == 1 and a.edges == ()
    assert canonical_code(a) == "()"


def test_enumerate_genus_four():
    alkanes = enumerate_alkanes(4)
    assert len(alkanes) == 2
    profiles = sorted(sorted(a.degrees().values()) for a in alkanes)
    assert profiles == [[1, 1, 1, 3], [1, 1, 2, 2]]  # isobutane, n-butane
    assert len({canonical_code(a) for a in alkanes}) == 2


def test_enumeration_is_sorted_and_canonical():
    from plumbline.alkanes import _free_codes

    # every genus the CLI accepts: `surfaces egamma` and `selftest` print and
    # seed from the generated codes instead of recomputing them
    for g in range(1, GENUS_CAP + 1):
        alkanes = enumerate_alkanes(g)
        codes = [canonical_code(a) for a in alkanes]
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes)
        # the generated code strings and the public canonical_code agree,
        # including on bicentroidal trees
        assert tuple(codes) == _free_codes(g) == alkane_codes(g)
        assert count_alkanes(g) == len(alkane_codes(g))
        for a, code in zip(alkanes, codes):
            assert alkane_from_code(code).genus == g


def test_one_pass_labelling_matches_the_recursive_oracle():
    # alkane_from_code labels a code in one pass with a stack; the recursion
    # over root children that it replaced is the oracle
    for g in range(1, 13):
        for code in alkane_codes(g):
            assert alkane_from_code(code) == alkane_from_code_recursive(code)
    for g in range(1, 11):
        for code in alkane_codes(g):
            assert canonical_code(alkane_from_code(code)) == code


def test_genus_out_of_range():
    with pytest.raises(RangeError):
        enumerate_alkanes(0)
    with pytest.raises(RangeError):
        enumerate_alkanes(17)
    with pytest.raises(RangeError):
        count_alkanes(17)
    for g in (0, GENUS_CAP + 1):
        with pytest.raises(RangeError):
            alkane_codes(g)


def test_canonical_code_relabeling_invariance():
    rng = random.Random(4021)
    trials = 0
    while trials < 1000:
        g = rng.randint(2, 9)
        a = random_degree_bounded_tree(g, rng)
        perm = list(range(1, g + 1))
        rng.shuffle(perm)
        b = _relabel(a, {i + 1: perm[i] for i in range(g)})
        assert canonical_code(a) == canonical_code(b)
        trials += 1


def _centroids_by_definition(a):
    """Delete each vertex in turn and measure the components left; the
    centroids are the vertices whose largest component is smallest."""
    worst = {}
    for v in range(1, a.genus + 1):
        forest = nx.Graph()
        forest.add_nodes_from(range(1, a.genus + 1))
        forest.add_edges_from(a.edges)
        forest.remove_node(v)
        worst[v] = max((len(c) for c in nx.connected_components(forest)), default=0)
    best = min(worst.values())
    return [v for v in sorted(worst) if worst[v] == best]


def test_centroids_match_their_definition():
    rng = random.Random(1017)
    checked = 0
    for g in range(1, 11):
        for a in enumerate_alkanes(g):
            perm = list(range(1, g + 1))
            rng.shuffle(perm)
            for b in (a, _relabel(a, {i + 1: perm[i] for i in range(g)})):
                assert _centroids(b) == _centroids_by_definition(b), b.edges
                checked += 1
    assert checked == 2 * sum(EXPECTED[:10])


def test_path_relabelings_share_code():
    a = Alkane(3, [(1, 2), (2, 3)])
    b = Alkane(3, [(2, 1), (1, 3)])  # path 2-1-3
    assert canonical_code(a) == canonical_code(b)


def test_path_vs_star_distinct():
    assert canonical_code(Alkane.chain(4)) != canonical_code(_star(4))


def _edge_set(a):
    return frozenset(map(frozenset, a.edges))


def _conjugate_exists(a, b):
    for perm in itertools.permutations(range(1, a.genus + 1)):
        m = {i + 1: perm[i] for i in range(a.genus)}
        if frozenset(frozenset({m[i], m[j]}) for i, j in a.edges) == _edge_set(b):
            return True
    return False


def test_distinct_codes_never_conjugate_g_le_7():
    # exhaustive permutation search: adjacency structures with different
    # codes are never related by a simultaneous relabeling
    for g in range(2, 8):
        alkanes = enumerate_alkanes(g)
        for a, b in itertools.combinations(alkanes, 2):
            assert canonical_code(a) != canonical_code(b)
            assert not _conjugate_exists(a, b)
    # positive control: a relabeled copy is found conjugate
    a = enumerate_alkanes(6)[2]
    shuffled = _relabel(a, {1: 3, 3: 1, 2: 2, 4: 6, 6: 4, 5: 5})
    assert _conjugate_exists(a, shuffled)


def test_random_prufer_trees_appear_in_enumeration():
    rng = random.Random(99)
    for g in range(2, 13):
        codes = {canonical_code(a) for a in enumerate_alkanes(g)}
        for _ in range(20):
            t = random_degree_bounded_tree(g, rng)
            assert canonical_code(t) in codes


def test_valency_profiles():
    assert valency_profile(Alkane.chain(5)) == (2, 3, 0, 0)
    assert valency_profile(_star(5)) == (4, 0, 0, 1)
    for g in range(2, 10):
        for a in enumerate_alkanes(g):
            p = valency_profile(a)
            assert sum(p) == g
            assert sum(j * n for j, n in enumerate(p, start=1)) == 2 * (g - 1)


def test_hydrogen_counts():
    assert hydrogen_count(Alkane(1, [])) == 4
    assert all(hydrogen_count(a) == 14 for a in enumerate_alkanes(6))
    assert hydrogen_count(Alkane.chain(3)) == 8
    for g in range(1, 11):
        for a in enumerate_alkanes(g):
            assert hydrogen_count(a) == 2 * g + 2


def test_is_chain():
    assert is_chain(Alkane.chain(5))
    assert not is_chain(_star(4))
    assert is_chain(Alkane(1, []))


def test_structural_validation():
    with pytest.raises(StructureError):
        Alkane(3, [(1, 2)])  # too few edges
    with pytest.raises(StructureError):
        Alkane(4, [(1, 2), (2, 3), (1, 3)])  # cycle, vertex 4 disconnected
    with pytest.raises(StructureError):
        Alkane(6, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6)])  # degree 5
    with pytest.raises(StructureError):
        Alkane(2, [(1, 1)])
    for edges in ([(1, 2), (2, 4)], [(0, 1), (1, 2)]):
        with pytest.raises(StructureError, match="edge endpoint outside 1..genus"):
            Alkane(3, edges)


def test_prufer_decode_cayley_count():
    # all 4^2 sequences give distinct labeled trees on 4 vertices
    trees = {
        tuple(sorted(prufer_decode(seq, 4)))
        for seq in itertools.product(range(1, 5), repeat=2)
    }
    assert len(trees) == 16


def test_json_shape():
    d = Alkane.chain(3).to_json_dict()
    assert d["genus"] == 3
    assert d["edges"] == [[1, 2], [2, 3]]
    assert d["hydrogens"] == 8
    assert d["valency"] == [2, 1, 0, 0]
    assert isinstance(d["code"], str)
