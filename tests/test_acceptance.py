"""Acceptance criteria, one test per criterion.

Criteria 1-8 run the checks of ``plumbline.checks`` -- the same functions
``plumbline selftest`` runs -- at the acceptance sizes and seeds below,
and pin the counts each check reports, so a check that checked less
cannot pass.  Criterion 1 adds an independent networkx oracle.  Every
check is exact (Gaussian-rational arithmetic); each test prints a single
PASS/FAIL line and enforces its runtime budget.
"""

import json
import time

import networkx as nx

from plumbline import relations
from plumbline.checks import (
    check_alkane_counts,
    check_branch_patterns,
    check_cone_vanishing,
    check_egamma_span,
    check_jet_vanishing,
    check_rank_one,
    check_skew_block,
    check_star_on_cone,
    check_surface_dims,
)
from plumbline.cli import main as cli_main

A000602_PREFIX = [1, 1, 1, 2, 3, 5, 9, 18, 35, 75, 159, 355]


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.name}: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_1_alkane_counts():
    with _Budget("1 alkane counts (oracle + A000602)", 10):
        ok, detail = check_alkane_counts(max_genus=12, oracle_max_genus=7)
        assert ok, detail
        assert detail["counts"] == A000602_PREFIX
        # independent oracle A: exhaustive Pruefer brute force where feasible
        assert detail["prufer_oracle"] == A000602_PREFIX[:7]
        # independent oracle B: library free-tree enumerator, degree-filtered
        for g in range(2, 13):
            nx_count = sum(
                1
                for t in nx.nonisomorphic_trees(g)
                if max(dict(t.degree()).values()) <= 4
            )
            assert nx_count == detail["counts"][g - 1]


def test_criterion_2_cone_vanishing():
    with _Budget("2 exact cone vanishing (frames + star matrices)", 30):
        # 100 random frames per genus, octics C(g, 4) = 1, 5, 15
        ok, detail = check_cone_vanishing(1, genera=(4, 5, 6), frames=100)
        assert ok, detail
        assert detail["octics_checked"] == 100 * 21
        # star coefficient matrices with random rational t, v, b
        ok, detail = check_star_on_cone(1, genera=(4, 5, 6), trials=10)
        assert ok, detail
        assert detail["octics_checked"] == 10 * 21


def test_criterion_3_mod_t9_jet_vanishing(monkeypatch):
    octics = []
    original = relations.octic_eval

    def count(entries, idx, *args, **kwargs):
        f = original(entries, idx, *args, **kwargs)
        octics.append((len(f.ring.variables), f.min_nonzero_degree()))
        return f

    monkeypatch.setattr(relations, "octic_eval", count)
    with _Budget("3 mod-T^9 jet vanishing (g=4 and 7, order 17, 5 seeds each)", 60):
        ok, detail = check_jet_vanishing(2, genera=(4, 7), trials=5)
        assert ok, detail
        assert len(detail["min_surviving_degrees"]) == 10
        # the corrupted entry survives at degree <= 16, at each genus
        assert detail["negative_control_failed"]
    # g = 7: five configurations of 35 octics, each vanishing through degree
    # 16 and the smallest surviving degree 17, then the corrupted one
    assert detail["min_surviving_degrees"][5:] == [17] * 5
    g7 = [d for g, d in octics if g == 7]
    assert len(g7) == 6 * 35
    passing, control = g7[:-35], g7[-35:]
    assert all(d is None or d >= 17 for d in passing)
    assert min(d for d in control if d is not None) <= 16


def test_criterion_4_branch_patterns():
    with _Budget("4 branch patterns (support = edges, tridiagonal chain)", 30):
        ok, detail = check_branch_patterns(3, genera=range(1, 9))
        assert ok, detail
        assert detail["alkanes_tested"] == sum(A000602_PREFIX[:8])


def test_criterion_5_rank_one_derivatives():
    with _Budget("5 rank-1 derivatives (pair + tree, g<=6, 20 seeds)", 60):
        ok, detail = check_rank_one(4, pair_trials=20, genera=range(2, 7), trials=20)
        assert ok, detail
        assert detail["pairs_tested"] == 20
        assert detail["assemblies_tested"] == 20 * sum(A000602_PREFIX[1:6])


def test_criterion_6_surface_dimensions():
    with _Budget("6 surface dimension formulas (h<=12)", 30):
        ok, detail = check_surface_dims()
        assert ok, detail
        assert detail["alkanes_checked"] == sum(A000602_PREFIX)


def test_criterion_7_egamma_span():
    with _Budget("7 E_Gamma span (h<=7, 50 seeds each)", 120):
        ok, detail = check_egamma_span(5, genera=range(1, 8), trials=50)
        assert ok, detail
        assert detail["models"] == 50 * sum(A000602_PREFIX[:7])
        # negative control: both chain edges concentrated on the shared vertex
        assert detail["degenerate_span"] < 2


def test_criterion_8_skew_block_property():
    with _Budget("8 skew-block property (1000 rank-1 trials)", 60):
        # constructed edge matrices always have zero trailing blocks, h = 2..5
        ok, detail = check_skew_block(6, trials=1000, pi_genera=range(2, 6))
        assert ok, detail
        assert detail["trials"] == 1000
        assert detail["counterexamples"] == 0


def test_criterion_9_determinism_and_exit_codes(tmp_path):
    with _Budget("9 selftest determinism and exit codes", 60):
        out1, out2, out3 = (tmp_path / n for n in ("r1.json", "r2.json", "bad.json"))
        assert cli_main(["selftest", "--seed", "0", "--out", str(out1)]) == 0
        assert cli_main(["selftest", "--seed", "0", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes(), "selftest reports not byte-identical"
        code = cli_main(
            ["selftest", "--seed", "0", "--inject-corrupted-octic", "--out", str(out3)]
        )
        assert code == 1
        report = json.loads(out3.read_text())
        assert report["summary"]["failed"] >= 1
