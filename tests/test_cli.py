"""CLI wiring: exit codes, JSON shapes, determinism."""

import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from plumbline import relations
from plumbline.cli import main
from plumbline.config import _parse_value
from plumbline.curve_periods import TreeConfig
from plumbline.elliptic import MarkedEllipticCurve
from plumbline.errors import StructureError
from plumbline.jets import FLOAT_FIELD, CoefficientField, FieldKind, Jet, JetRing

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args, env=None, timeout=30, **kwargs):
    """``python *args`` in a fresh process that imports this checkout's
    package, ``env`` added to its environment.  Every test that starts one
    goes through here, so each is bounded: a run that hangs, say on an
    elimination that never lowers its lead, fails after ``timeout`` seconds."""
    env = {**os.environ, **(env or {}), "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=env, timeout=timeout, check=False, **kwargs
    )


PAIR_CONFIG = {
    "t": "t",
    "curve_a": {"tau": ["0", "1"], "marks": [{"point": "O", "c": ["1", "0"]}]},
    "curve_b": {"tau": ["0", "2"], "marks": [{"point": "O", "c": ["1", "0"]}]},
}

STAR_CONFIG = {
    "curves": [
        {"tau": ["0", "1"], "marks": [{"point": "O", "c": ["1", "0"]}]},
        {"tau": ["0", "2"], "marks": [{"point": "O", "c": ["1", "0"]}]},
    ],
    "b": ["0", "1"],
    "vars": ["t1", "t2"],
}

TREE_CONFIG = {
    "genus": 3,
    "edges": [[1, 2], [2, 3]],
    "taus": [["0", "1"], ["0", "2"], ["0", "3"]],
    "edge_data": [
        {
            "edge": [1, 2],
            "var": "t1",
            "low": {"label": "O", "c": ["1", "0"]},
            "high": {"label": "O", "c": ["1", "0"]},
        },
        {
            "edge": [2, 3],
            "var": "t2",
            "low": {"label": "Half", "c": ["1", "0"]},
            "high": {"label": "Half", "c": ["1", "0"]},
        },
    ],
}


def _tree_with_duplicate_edge():
    cfg = copy.deepcopy(TREE_CONFIG)
    cfg["edge_data"].append(
        {
            "edge": [2, 1],
            "var": "t9",
            "low": {"label": "TauHalf", "c": ["1", "0"]},
            "high": {"label": "TauHalf", "c": ["1", "0"]},
        }
    )
    return cfg


def _with(config, path, value):
    """A copy of ``config`` with the field at key path ``path`` set to ``value``."""
    cfg = copy.deepcopy(config)
    *parents, last = path
    target = cfg
    for key in parents:
        target = target[key]
    target[last] = value
    return cfg


PAIR_C = ["curve_a", "marks", 0, "c"]  # the key path of curve_a's mark value

BLOCK_PAIR_CONFIG = {
    "curve_a": {"block": [["1"]], "omega": ["1"]},
    "curve_b": {"block": [["2"]], "omega": ["1"]},
}

# (periods subcommand, config file text, stderr fragment after "config error:");
# each must exit 2 with that config error in both modes
MALFORMED_CONFIGS = [
    ("pair", "{not json", ""),
    ("pair", json.dumps({"curve_a": PAIR_CONFIG["curve_a"]}), ""),
    ("tree", json.dumps({**TREE_CONFIG, "edges": [[1, 2, 3], [2, 3]]}), "edges[0]"),
    (
        "tree",
        json.dumps(_with(TREE_CONFIG, ["edge_data", 1, "edge"], [2, "3"])),
        "edge_data[1].edge",
    ),
    # an unknown 2-torsion label, named by its path
    *(
        ("tree", json.dumps(_with(TREE_CONFIG, ["edge_data", 0, side, "label"], label)),
         f"edge_data[0].{side}.label: unknown 2-torsion label")
        for side in ("low", "high")
        for label in ("Bogus", [1], 5, None)
    ),
    (
        "star",
        json.dumps(_with(STAR_CONFIG, ["curves", 1, "marks", 0, "point"], "Bogus")),
        "curves[1].marks[0].point: unknown 2-torsion label 'Bogus'",
    ),
    (
        "pair",
        json.dumps(_with(PAIR_CONFIG, ["curve_a", "marks", 0, "point"], "o")),
        "curve_a.marks[0].point: unknown 2-torsion label 'o'",
    ),
    ("pair", json.dumps([PAIR_CONFIG]), ""),
    ("pair", json.dumps({**PAIR_CONFIG, "curve_b": {"tau": ["0", "2"]}}), ""),
    ("pair", json.dumps({**PAIR_CONFIG, "mark_a": 0.5}), "mark_a: "),
    ("tree", json.dumps(_tree_with_duplicate_edge()), ""),
    ("star", json.dumps({**STAR_CONFIG, "b": [0, math.inf]}), "inf"),
    ("star", json.dumps({**STAR_CONFIG, "b": [math.nan, 1]}), "nan"),
    ("pair", json.dumps(_with(PAIR_CONFIG, PAIR_C, True)), "True"),
    ("pair", json.dumps(_with(PAIR_CONFIG, PAIR_C, [1, False])), "False"),
    ("tree", json.dumps(_with(TREE_CONFIG, ["taus", 0], {"a": 1})), "taus[0]: "),
    (
        "tree",
        json.dumps(_with(TREE_CONFIG, ["edge_data", 1, "high", "c"], "1/0")),
        "edge_data[1].high.c: ",
    ),
    ("star", json.dumps(_with(STAR_CONFIG, ["b", 1], "one")), "b[1]: "),
    # PEP 515 underscores, which Fraction reads only from Python 3.11 on
    ("pair", json.dumps(_with(PAIR_CONFIG, PAIR_C, "1_0")), "curve_a.marks[0].c: bad numeric"),
    (
        "pair",
        json.dumps(_with(PAIR_CONFIG, ["curve_b", "tau"], ["0", "2_0"])),
        "curve_b.tau: bad numeric value",
    ),
    # a decimal exponent past the interpreter's digit limit, which Fraction would expand
    ("pair", json.dumps(_with(PAIR_CONFIG, PAIR_C, "1e4301")), "curve_a.marks[0].c: bad numeric"),
    (
        "star",
        json.dumps(_with(STAR_CONFIG, ["curves", 1, "marks", 0, "c"], [1])),
        "curves[1].marks[0].c: ",
    ),
    ("pair", json.dumps(_with(PAIR_CONFIG, ["curve_a", "tau"], None)), "curve_a.tau: "),
    ("pair", json.dumps(_with(PAIR_CONFIG, PAIR_C, {"re": 1})), "curve_a.marks[0].c: "),
    (
        "pair",
        json.dumps(_with(PAIR_CONFIG, ["curve_b", "marks", 0, "c"], [1, 2, 3])),
        "curve_b.marks[0].c: ",
    ),
    (
        "star",
        json.dumps(_with(STAR_CONFIG, ["curves", 0, "marks"], [{"point": "O", "c": 1}, 3])),
        "curves[0].marks[1] must be an object",
    ),
    (
        "star",
        json.dumps(_with(STAR_CONFIG, ["curves", 1, "marks"], {"point": "O"})),
        "curves[1].marks must be a list",
    ),
    # a string is not read one character at a time
    (
        "pair",
        json.dumps(_with(BLOCK_PAIR_CONFIG, ["curve_a", "block"], ["1"])),
        "curve_a.block[0] must be a list",
    ),
    (
        "pair",
        json.dumps(_with(BLOCK_PAIR_CONFIG, ["curve_a", "block"], "1")),
        "curve_a.block must be a list",
    ),
    (
        "pair",
        json.dumps(_with(BLOCK_PAIR_CONFIG, ["curve_a", "omega"], "1")),
        "curve_a.omega must be a list",
    ),
    ("star", json.dumps({**STAR_CONFIG, "b": "01"}), "b must be a list"),
    ("star", json.dumps({**STAR_CONFIG, "vars": "ab"}), "vars must be a list"),
    ("star", json.dumps({**STAR_CONFIG, "curves": "ab"}), "curves must be a list"),
    ("tree", json.dumps({**TREE_CONFIG, "taus": "123"}), "taus must be a list"),
    ("tree", json.dumps({**TREE_CONFIG, "edges": "12"}), "edges must be a list"),
    ("tree", json.dumps({**TREE_CONFIG, "edge_data": "e"}), "edge_data must be a list"),
    # a variable name that is not a string
    ("star", json.dumps({**STAR_CONFIG, "vars": [{"a": 1}, "t2"]}), "vars[0] must be a variable"),
    ("star", json.dumps({**STAR_CONFIG, "vars": [1, 2]}), "vars[0] must be a variable"),
    ("pair", json.dumps({**PAIR_CONFIG, "t": ["t"]}), "t must be a variable"),
    (
        "tree",
        json.dumps(_with(TREE_CONFIG, ["edge_data", 1, "var"], {"a": 1})),
        "edge_data[1].var must be a variable",
    ),
    # a list element or a side that should be an object
    ("star", json.dumps({**STAR_CONFIG, "curves": ["x", "y"]}), "curves[0] must be an object"),
    ("star", json.dumps(_with(STAR_CONFIG, ["curves", 1], 7)), "curves[1] must be an object"),
    ("pair", json.dumps({**PAIR_CONFIG, "curve_a": 5}), "curve_a must be an object"),
    ("pair", json.dumps({**PAIR_CONFIG, "curve_b": "x"}), "curve_b must be an object"),
    ("pair", json.dumps({**BLOCK_PAIR_CONFIG, "curve_b": [["1"]]}), "curve_b must be an object"),
    ("tree", json.dumps({**TREE_CONFIG, "edge_data": ["e"]}), "edge_data[0] must be an object"),
    (
        "tree",
        json.dumps(_with(TREE_CONFIG, ["edge_data", 0, "low"], 1)),
        "edge_data[0].low must be an object",
    ),
    (
        "tree",
        json.dumps(_with(TREE_CONFIG, ["edge_data", 1, "high"], ["O", 1])),
        "edge_data[1].high must be an object",
    ),
    # a genus that is not a whole number, a bool included
    *(
        ("tree", json.dumps({**TREE_CONFIG, "genus": g}), "genus must be a whole number")
        for g in ("3", 3.0, None, [3], True)
    ),
    # a block has no marks: a mark index on a block side other than 0
    *(
        ("pair", json.dumps({**BLOCK_PAIR_CONFIG, key: mark}), f"{key}: ")
        for key in ("mark_a", "mark_b")
        for mark in ("x", 0.5, True, [0], 5, -1, 0.0)
    ),
    ("pair", json.dumps({**PAIR_CONFIG, "curve_b": BLOCK_PAIR_CONFIG["curve_b"], "mark_b": 1}),
     "mark_b: "),
    # a file the JSON decoder refuses: nested too deep, or an int past the digit limit
    ("pair", "[" * 100_000 + "]" * 100_000, "cannot decode config"),
    (
        "tree",
        json.dumps(TREE_CONFIG).replace('"genus": 3', '"genus": ' + "9" * 5000),
        "cannot decode config",
    ),
]

# stdout sha256 of fixed-seed reports: a refactor that keeps the reports
# byte-identical keeps these
PINNED_REPORTS = [
    (
        ["selftest", "--seed", "0"],
        "efa3aff707c53a700c96dd9dc8e4ac1ef0896d3744dbe835ff0e12937b2ab395",
    ),
    (
        ["surfaces", "egamma", "--genus", "7", "--trials", "2", "--seed", "0"],
        "512b5d733bd862bf412846cffc2e811042d5633f799958f7334b251b1ff3111c",
    ),
    (
        ["relations", "verify", "--genus", "7", "--trials", "1", "--seed", "0"],
        "e2d2a80f08e9f19d89acb21a67455fd2e3d3a7c09b48a312bb992b1a6263ed8e",
    ),
    (
        ["surfaces", "egamma", "--genus", "11", "--trials", "1", "--seed", "0"],
        "43e58af30ea77e404164329b8e4504068d6ec0ab55c9c7b10b86b659613f3684",
    ),
    (
        ["relations", "verify", "--genus", "12", "--trials", "1", "--seed", "0"],
        "bfde2173db9e9fb3eba70988e739bfbd2bd115fa90e7e3849cdfcb3192738508",
    ),
    # the README configs (PAIR_CONFIG, STAR_CONFIG, TREE_CONFIG), which print
    # exact and float jet coefficients; run where the test writes them
    (
        ["periods", "pair", "--config", "pair.json", "--exact"],
        "94277fb4f1d5bd5acb8ea916e23caa43262f0284033397d4a6777f6bff76de49",
    ),
    (
        ["periods", "pair", "--config", "pair.json", "--numeric"],
        "9c5265ed59436c9fd12c73cf9cb2ceef50ef0469fac0bc279e50b9cbde3fb220",
    ),
    (
        ["periods", "star", "--config", "star.json", "--exact"],
        "fc6ebe8a05e147161a115dc7e7841f372634c67b077ff55232122738d595b7c0",
    ),
    (
        ["periods", "star", "--config", "star.json", "--numeric"],
        "bcea7f7d7e36340ee3e5863efb2220f6e64b9c80cecdcfdd50470f69bf5970d9",
    ),
    (
        ["periods", "tree", "--config", "tree.json", "--exact"],
        "f5d47737c45140f1789a339cfb0a2330a71f5b0f3ae886211e121a5d902b152f",
    ),
    (
        ["periods", "tree", "--config", "tree.json", "--numeric"],
        "eb16de87301f50b106bbf264431824aff2b722f6aae7786521d1c6ab92b13f9b",
    ),
    (
        ["alkanes", "count", "--max", "16"],
        "d55d7228b576a7eb2aba9c81642f2506a0b01d3ca3e05c7c99ac4501341601c4",
    ),
    (
        ["alkanes", "enum", "--genus", "8"],
        "d41c7aafadd967fa74afa4b455eacb41e8e38ecf7a779039f2c906c8cce3c5a0",
    ),
    (
        ["surfaces", "dims", "--genus", "6"],
        "b494027c748d4ff5ec037bc29ffbc371968c054913543e3e12b84a176c1bd1de",
    ),
    (
        ["relations", "verify", "--genus", "7", "--trials", "3", "--seed", "5", "--numeric"],
        "a30ef0ae48148a19864c6737e85c5936a8c2d310088bd4894e7799a23efb1199",
    ),
    # larger octic checks: 1820 octics exact, and 495 with float jets
    (
        ["relations", "verify", "--genus", "16", "--trials", "1", "--seed", "0"],
        "33445a625ed5d1db0bf50e122345abeed8a2aeb0b9c1acdf1094fe2967c7cbb2",
    ),
    (
        ["relations", "verify", "--genus", "12", "--trials", "1", "--seed", "0", "--numeric"],
        "f5ca118038a9f07aba1b37e171e4d0e11a20704ad2ffcc47590a12ba95efd6bd",
    ),
    (
        ["selftest", "--seed", "5"],
        "ea7c062dd3b8848567c431a8fb80113fd145c526b2f3a19a6cd3f338162c9eb2",
    ),
]


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_alkanes_count(capsys):
    code, report = _run(capsys, ["alkanes", "count", "--max", "8"])
    assert code == 0
    assert report["counts"] == [1, 1, 1, 2, 3, 5, 9, 18]


def test_alkanes_enum(capsys):
    code, report = _run(capsys, ["alkanes", "enum", "--genus", "4"])
    assert code == 0
    assert report["count"] == 2
    assert {tuple(map(tuple, a["edges"])) for a in report["alkanes"]} == {
        ((1, 2), (1, 4), (2, 3)),
        ((1, 2), (1, 3), (1, 4)),
    }


def test_alkanes_enum_out_of_range(capsys):
    with pytest.raises(SystemExit) as exc:  # argparse bounds the genus
        main(["alkanes", "enum", "--genus", "0"])
    assert (exc.value.code, capsys.readouterr().out) == (2, "")


def test_periods_pair(tmp_path, capsys):
    cfg = tmp_path / "pair.json"
    cfg.write_text(json.dumps(PAIR_CONFIG))
    code, report = _run(capsys, ["periods", "pair", "--config", str(cfg)])
    assert code == 0
    assert report["genus"] == 2
    assert report["mode"] == "exact"
    e12 = report["entries"][0][1]
    assert e12["terms"] == [{"exp": [1], "re": "-1/4", "im": "0"}]


def test_periods_star(tmp_path, capsys):
    cfg = tmp_path / "star.json"
    cfg.write_text(json.dumps(STAR_CONFIG))
    code, report = _run(capsys, ["periods", "star", "--config", str(cfg)])
    assert code == 0
    e12 = report["entries"][0][1]
    assert e12["terms"] == [{"exp": [1, 1], "re": "1/16", "im": "0"}]


def test_periods_pair_is_symmetric_in_both_modes(tmp_path, capsys):
    # float products of the two mark values taken in the two orders round
    # apart; each off-diagonal pair is one product written to both cells
    cfg = tmp_path / "pair.json"
    config = _with(PAIR_CONFIG, PAIR_C, [0.3, 0.7])
    config["curve_b"]["marks"][0]["c"] = [1.1, 0.4]
    cfg.write_text(json.dumps(config))
    for mode in ("--exact", "--numeric"):
        code, report = _run(capsys, ["periods", "pair", "--config", str(cfg), mode])
        assert code == 0, mode
        entries = report["entries"]
        assert entries[0][1] == entries[1][0] and entries[0][1]["terms"], mode


def test_periods_tree(tmp_path, capsys):
    cfg = tmp_path / "tree.json"
    cfg.write_text(json.dumps(TREE_CONFIG))
    code, report = _run(capsys, ["periods", "tree", "--config", str(cfg)])
    assert code == 0
    assert report["support"] == [[1, 2], [2, 3]]


def test_periods_tree_numeric(tmp_path, capsys):
    cfg = tmp_path / "tree.json"
    cfg.write_text(json.dumps(TREE_CONFIG))
    code, report = _run(capsys, ["periods", "tree", "--config", str(cfg), "--numeric"])
    assert code == 0
    assert report["mode"] == "numeric"
    (term,) = report["entries"][0][1]["terms"]
    assert term["re"] == 0.0
    assert abs(term["im"] + 1.5707963267948966) < 1e-12  # -2*pi/4


def test_tree_edges_may_come_in_any_order(tmp_path, capsys):
    # edge_data read backwards prints the README config's bytes in both modes
    backwards = {**TREE_CONFIG, "edge_data": TREE_CONFIG["edge_data"][::-1]}
    for name, config in (("tree", TREE_CONFIG), ("backwards", backwards)):
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    for mode in ("--exact", "--numeric"):
        outs = []
        for name in ("tree", "backwards"):
            assert main(["periods", "tree", "--config", str(tmp_path / f"{name}.json"), mode]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1], mode


def test_missing_config_is_usage_error(tmp_path, capsys):
    code, _ = _run(capsys, ["periods", "tree", "--config", "missing.json"])
    assert code == 2
    out = tmp_path / "no_such_dir" / "report.json"
    code = main(["alkanes", "count", "--max", "3", "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "config error:" in captured.err


def test_malformed_config_is_usage_error(tmp_path, capsys):
    for n, (command, text, fragment) in enumerate(MALFORMED_CONFIGS):
        cfg = tmp_path / f"bad{n}.json"
        cfg.write_text(text)
        for mode in ("--exact", "--numeric"):
            code = main(["periods", command, "--config", str(cfg), mode])
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, ""), (mode, text)
            assert "config error:" in captured.err, (mode, text)
            assert fragment in captured.err.split("config error:", 1)[1], (mode, text)


def test_undecodable_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_bytes(json.dumps(PAIR_CONFIG).encode().replace(b'"t"', b'"\xff"'))
    code = main(["periods", "pair", "--config", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "config error: cannot decode config" in captured.err and "utf-8" in captured.err


@pytest.mark.parametrize("error", [TypeError("library bug"), KeyError("tau")])
@pytest.mark.parametrize(
    "command, config, cls",
    [("tree", TREE_CONFIG, TreeConfig), ("pair", PAIR_CONFIG, MarkedEllipticCurve)],
    ids=["tree", "pair"],
)
def test_library_bug_during_a_parse_exits_3(
    command, config, cls, error, tmp_path, monkeypatch, capsys
):
    # the parse runs library constructors: what they raise, unless it is a
    # PlumblineError, is a bug and never a config error
    original = cls.__init__

    def broken(self, *args, **kwargs):
        original(self, *args, **kwargs)
        raise error

    monkeypatch.setattr(cls, "__init__", broken)
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(config))
    code = main(["periods", command, "--config", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert "internal error" in captured.err and "config error" not in captured.err


def test_block_sides_take_the_default_mark_index(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(BLOCK_PAIR_CONFIG))
    code, report = _run(capsys, ["periods", "pair", "--config", str(path)])
    assert code == 0
    path.write_text(json.dumps({**BLOCK_PAIR_CONFIG, "mark_a": 0, "mark_b": 0}))
    assert _run(capsys, ["periods", "pair", "--config", str(path)]) == (0, report)


def test_tree_vertex_outside_the_genus_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({**TREE_CONFIG, "edges": [[1, 2], [2, 4]]}))
    code = main(["periods", "tree", "--config", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "invalid input: edge endpoint outside 1..genus" in captured.err


@pytest.mark.parametrize(
    "label, point",
    [("O", ["1", "0"]), ("Half", ["3/2", "0"]), ("O", ["0", "1"]), ("O", ["0", "0"])],
)
def test_marks_that_coincide_modulo_the_lattice_are_invalid_input(label, point, tmp_path, capsys):
    # curve_a has tau = i: 1, 3/2 and i are 0, 1/2 and 0 on E_i
    marks = [{"point": label, "c": ["1", "0"]}, {"point": point, "c": ["1", "0"]}]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(_with(PAIR_CONFIG, ["curve_a", "marks"], marks)))
    code = main(["periods", "pair", "--config", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "invalid input: marks 0 and 1 sit at the same point" in captured.err


def _set_all(config, paths, value):
    for path in paths:
        config = _with(config, path, value)
    return config


# each assembly with its attachment coefficients c = 1e200, and the key paths
# set: every form value 1/c is 1e-200, so a float entry product is 1e-400
TINY_FORMS = [
    (command, _set_all(config, paths, "1e200"), paths)
    for command, config, paths in (
        ("pair", PAIR_CONFIG, [PAIR_C, ["curve_b", "marks", 0, "c"]]),
        ("star", STAR_CONFIG, [["curves", k, "marks", 0, "c"] for k in (0, 1)]),
        ("tree", TREE_CONFIG, [["edge_data", 0, side, "c"] for side in ("low", "high")]),
    )
]


def _paths(node, path=()):
    """Every key path below the root of a JSON value, with the value there."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _paths(value, path + (key,))


# values a number or a name may be replaced with: a 4,000-digit int and
# p/q string, whose exact jets are too long to print, subnormal floats, and
# values whose float products overflow or underflow
_VALUES = {
    "bool": True,
    "digits": 10**4000,
    "long ratio": "1/1" + "0" * 4000,
    "subnormal": 5e-324,
    "subnormal string": "-4e-320",
    "1e200": "1e200",
    "1e-200": "1e-200",
}


def _mutations(config):
    """The (path, kind) mutations that apply to ``config``: drop a key, turn a
    list into a string, repeat its first element (coincident marks, star
    points, edges), replace a number or a name with an object or with one of
    ``_VALUES``."""
    for path, value in _paths(config):
        if isinstance(path[-1], str):
            yield path, "drop"
        if isinstance(value, list):
            yield path, "string"
            if value:
                yield path, "repeat"
        elif not isinstance(value, dict):
            yield path, "object"
            for kind in _VALUES:
                yield path, kind


def _mutate(config, path, kind):
    cfg = copy.deepcopy(config)
    *parents, last = path
    target = cfg
    for key in parents:
        target = target[key]
    value = target[last]
    if kind == "drop":
        del target[last]
    elif kind == "string":
        target[last] = "".join(map(str, value))
    elif kind == "repeat":  # a second copy of a lone element, else the last one replaced
        target[last] = [*value, value[0]] if len(value) == 1 else [*value[:-1], value[0]]
    elif kind == "object":
        target[last] = {"re": value}
    else:
        target[last] = _VALUES[kind]
    return cfg


_FUZZ_CONFIGS = [
    ("pair", PAIR_CONFIG),
    ("pair", BLOCK_PAIR_CONFIG),
    ("star", STAR_CONFIG),
    ("tree", TREE_CONFIG),
]


@st.composite
def _mutated_configs(draw):
    """A fuzz config after one to three mutations, with the key paths mutated."""
    command, config = draw(st.sampled_from(_FUZZ_CONFIGS))
    paths = []
    for _ in range(draw(st.integers(1, 3))):
        mutations = list(_mutations(config))
        if not mutations:
            break
        key_path, kind = draw(st.sampled_from(mutations))
        paths.append(key_path)
        config = _mutate(config, key_path, kind)
    return command, config, paths


def _term_exponents(report):
    """Per entry, the exponent vectors of its printed terms."""
    return [[[term["exp"] for term in entry["terms"]] for entry in row] for row in report["entries"]]


@settings(max_examples=300, deadline=None)
@given(_mutated_configs())
@example(TINY_FORMS[0])
@example(TINY_FORMS[1])
@example(TINY_FORMS[2])
def test_mutated_configs_keep_the_exit_contract(tmp_path_factory, case):
    command, config, paths = case
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps(config))
    reports = []
    for mode in ("--exact", "--numeric"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["periods", command, "--config", str(path), mode])
        # 3 marks an internal error; 1 needs a report, so a check did run
        assert code in (0, 1, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert (code == 2) == (out.getvalue() == "")
        if code != 2:
            reports.append(json.loads(out.getvalue()))
        else:  # a config error names a mutated key or one above it
            named = {_json_path(p[:n]) for p in paths for n in range(1, len(p) + 1)}
            message = err.getvalue()
            assert message.startswith("invalid input:") or any(n in message for n in named), message
    # every monomial of an entry is one product, so float arithmetic loses a
    # term only by underflow, which the float field refuses
    if len(reports) == 2:
        exact, numeric = reports
        assert _term_exponents(exact) == _term_exponents(numeric)
        assert exact["support"] == numeric["support"]


def test_coefficient_too_long_to_print_is_invalid_input(tmp_path, capsys):
    # 10^8000 / 4 parses, but its decimal digits pass the interpreter's limit
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(_with(PAIR_CONFIG, PAIR_C, "1/1" + "0" * 4000)))
    for mode, fragment in (("--exact", "digits to print"), ("--numeric", "float field's range")):
        code = main(["periods", "pair", "--config", str(path), mode])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), mode
        assert captured.err.startswith("invalid input:") and fragment in captured.err, mode


def _json_path(path):
    """A key path as config errors print it: ("curve_a", "marks", 0) is curve_a.marks[0]."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


_DROPS = [(c, cfg, p) for c, cfg in _FUZZ_CONFIGS for p, kind in _mutations(cfg) if kind == "drop"]


@pytest.mark.parametrize(
    "command, config, path", _DROPS, ids=[f"{c} {_json_path(p)}" for c, _, p in _DROPS]
)
def test_each_dropped_key_is_named(command, config, path, tmp_path, capsys):
    file = tmp_path / "config.json"
    file.write_text(json.dumps(_mutate(config, path, "drop")))
    code = main(["periods", command, "--config", str(file)])
    captured = capsys.readouterr()
    if path == ("t",):  # optional, and its default is the name PAIR_CONFIG gives
        assert code == 0
        file.write_text(json.dumps(config))
        _, report = _run(capsys, ["periods", command, "--config", str(file)])
        assert report == json.loads(captured.out)
        return
    assert (code, captured.out) == (2, ""), captured.err
    if path[-1] == "marks" and command == "star":  # optional; a star tail needs a mark
        assert captured.err == (
            f"config error: {_json_path(path)}: a star tail attaches at its first mark, "
            "and it has none\n"
        )
    elif path[-1] == "marks":  # optional; mark_a and mark_b default to mark 0
        assert f"outside {_json_path(path)}, which has 0" in captured.err
    else:
        assert captured.err == f"config error: missing key {_json_path(path)}\n"


def test_value_beyond_float_range_is_usage_error(tmp_path, capsys):
    cfg = copy.deepcopy(PAIR_CONFIG)
    cfg["curve_a"]["tau"] = ["0", "1" + "0" * 400]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(cfg))
    code = main(["periods", "pair", "--config", str(path), "--numeric"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "invalid input:" in captured.err and "float" in captured.err
    # the same value is an ordinary exact Gaussian rational
    code, report = _run(capsys, ["periods", "pair", "--config", str(path)])
    assert code == 0
    assert report["entries"][0][0]["terms"][0]["im"] == "1" + "0" * 400
    # pair and tree marks whose values 1/c = 1e200 overflow the float
    # products lam * v_a * v_b; exact mode prints them
    pair = copy.deepcopy(PAIR_CONFIG)
    for side in ("curve_a", "curve_b"):
        pair[side]["marks"][0]["c"] = ["1e-200", "0"]
    tree = _with(TREE_CONFIG, ["edge_data", 0, "low", "c"], ["1e-200", "0"])
    tree["edge_data"][0]["high"]["c"] = ["1e-200", "0"]
    for command, config in (("pair", pair), ("tree", tree)):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(config))
        code = main(["periods", command, "--config", str(path), "--numeric"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), command
        assert "invalid input: value beyond the float field's range" in captured.err, command
        assert "entry (1,1) overflows" in captured.err, command
        code, report = _run(capsys, ["periods", command, "--config", str(path), "--exact"])
        assert code == 0, command
        (term,) = report["entries"][0][0]["terms"][1:]
        assert term == {"exp": [1] + [0] * (len(term["exp"]) - 1), "re": "25" + "0" * 398, "im": "0"}
    # distinct star points whose float squared distance underflows to 0, and
    # one whose squared distance is subnormal, so the entry overflows
    for b, fragment in (("1e-200", "underflows to 0"), ("1e-160", "star entry (1,2) overflows")):
        star = _with(STAR_CONFIG, ["b"], ["0", b])
        path = tmp_path / "star.json"
        path.write_text(json.dumps(star))
        code = main(["periods", "star", "--config", str(path), "--numeric"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), b
        assert "invalid input: value beyond the float field's range" in captured.err, b
        assert fragment in captured.err, b
        code, _ = _run(capsys, ["periods", "star", "--config", str(path)])
        assert code == 0, b


@pytest.mark.parametrize(
    "command, config, fragment",
    [
        *(
            (command, config, f"{entry} underflows to 0")
            for (command, config, _), entry in zip(
                TINY_FORMS, ["entry (1,1)", "star entry (1,2)", "entry (1,1)"]
            )
        ),
        ("pair", _with(PAIR_CONFIG, PAIR_C, "1e400"), "a nonzero part underflows to 0"),
        ("pair", _with(PAIR_CONFIG, ["curve_a", "tau"], ["0", "1e-400"]), "underflows to 0"),
    ],
    ids=["pair", "star", "tree", "mark", "tau"],
)
def test_value_that_underflows_the_float_field_is_usage_error(
    command, config, fragment, tmp_path, capsys
):
    # a nonzero value, or a product of nonzero values, that the float field
    # rounds to 0 would drop a term from the report; exact mode prints it
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(["periods", command, "--config", str(path), "--numeric"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("invalid input: value beyond the float field's range: ")
    assert captured.err.endswith(f"{fragment}\n")
    code, report = _run(capsys, ["periods", command, "--config", str(path), "--exact"])
    assert code == 0 and [1, 2] in report["support"]


@pytest.mark.parametrize(
    "argv",
    [
        ["periods", "pair", "--config", "pair.json", "--order", "1"],
        ["periods", "star", "--config", "star.json", "--order", "2"],
        ["periods", "tree", "--config", "tree.json", "--order", "1"],
        ["relations", "verify", "--genus", "4", "--order", "17"],
    ],
)
def test_order_is_not_an_option(argv, capsys):
    # each statement fixes its own truncation order
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "unrecognized arguments: --order" in captured.err


finite = st.floats(allow_nan=False, allow_infinity=False).map(lambda x: x + 0.0)


@settings(max_examples=300, deadline=None)
@given(finite, finite)
def test_numeric_config_values_keep_their_floats(x, y):
    # a JSON number is read as the decimal it prints as and rounded once by
    # the float field, so it comes back as the float it was; x + 0.0 drops
    # the sign of a zero, which a rational cannot carry
    for value, old in ((x, complex(x)), ([x, y], complex(x, y))):
        new = FLOAT_FIELD.coerce(_parse_value(value, "x"))
        assert (new.real.hex(), new.imag.hex()) == (old.real.hex(), old.imag.hex())



@pytest.mark.parametrize(
    "argv",
    [
        ["relations", "verify", "--genus", "4", "--trials", "0"],
        ["relations", "verify", "--genus", "4", "--trials", "-3"],
        ["surfaces", "egamma", "--genus", "4", "--trials", "0"],
        ["alkanes", "count", "--max", "0"],
    ],
)
def test_nonpositive_count_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "positive integer" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["alkanes", "enum", "--genus", "0"],
        ["alkanes", "enum", "--genus", "17"],
        ["alkanes", "count", "--max", "17"],
        ["surfaces", "dims", "--genus", "0"],
        ["surfaces", "dims", "--genus", "17"],
        ["surfaces", "egamma", "--genus", "0"],
        ["surfaces", "egamma", "--genus", "17"],
        ["relations", "verify", "--genus", "3"],
        ["relations", "verify", "--genus", "94"],
    ],
    ids=" ".join,
)
def test_size_out_of_range_is_usage_error(argv, capsys):
    # argparse bounds each size, so the library never refuses one
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert f"argument {argv[2]}: expected" in captured.err and argv[3] in captured.err


def test_library_error_after_the_parse_exits_3(monkeypatch, capsys):
    # a PlumblineError is invalid input only where a config's data is read
    def broken(self, other):
        raise StructureError("jets from different rings")

    monkeypatch.setattr(Jet, "_times", broken)
    code = main(["relations", "verify", "--genus", "5", "--trials", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert "internal error" in captured.err and "invalid input" not in captured.err


@pytest.mark.parametrize(
    "error", [TypeError("not a config error here"), KeyError("edge"), ZeroDivisionError()]
)
def test_internal_error_exits_3(error, monkeypatch, capsys):
    def broken(alkane):
        raise error

    monkeypatch.setattr("plumbline.cli.dim_V_Gamma", broken)
    code = main(["surfaces", "dims", "--genus", "3"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert "internal error" in captured.err and "Traceback" in captured.err


def test_failed_dimension_identity_exits_1(monkeypatch, capsys):
    # dim V_Gamma = 9h+9 is checked in one place, and a miss there is a
    # failed verification, not an internal error
    from plumbline import checks

    monkeypatch.setattr(checks, "dim_V_Gamma", lambda alkane: 9 * alkane.genus + 10)
    ok, detail = checks.check_surface_dims()
    assert ok is False and detail["alkanes_checked"] > 0
    code, report = _run(capsys, ["selftest", "--seed", "0"])
    assert code == 1
    failing = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failing == ["surface_dimensions"]


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["alkanes", "count", "--max", "5", "--bogus"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_relations_verify_small(capsys):
    code, report = _run(
        capsys,
        ["relations", "verify", "--genus", "4", "--trials", "2", "--seed", "3"],
    )
    assert code == 0
    assert report["pass"] is True
    assert len(report["trials"]) == 2
    assert all(t["octics_checked"] == 1 and t["order"] == 17 for t in report["trials"])


@settings(max_examples=6, deadline=None)
@given(st.integers(4, 7), st.integers(0, 2**16))
@example(7, 5)
def test_relations_verify_modes_agree_up_to_the_mode(genus, seed):
    # the exact field is the oracle of the float field: the same star
    # configs and units reach the same octic degrees in both
    reports = []
    for mode in ("--exact", "--numeric"):
        argv = ["relations", "verify", "--genus", str(genus), "--trials", "2", "--seed", str(seed)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main([*argv, mode]) == 0
        reports.append(json.loads(out.getvalue()))
    exact, numeric = reports
    assert [t.pop("mode") for t in exact["trials"]] == ["exact"] * 2
    assert [t.pop("mode") for t in numeric["trials"]] == ["numeric"] * 2
    assert exact == numeric


def test_star_genus_beyond_its_points_is_usage_error():
    # a star draws distinct attachment points from 93 values, so argparse
    # refuses genus 94 before any draw; the timeout turns a draw loop into a
    # failure
    argv = ["-m", "plumbline.cli", "relations", "verify", "--genus", "94"]
    start = time.perf_counter()
    run = run_python(*argv, text=True, timeout=10)
    assert time.perf_counter() - start < 1
    assert (run.returncode, run.stdout) == (2, "")
    assert "argument --genus:" in run.stderr and "93" in run.stderr


def test_a_huge_decimal_exponent_is_refused_at_once(tmp_path):
    # Fraction would expand 1e99999999 into a 10^8-digit int; the reader
    # refuses an exponent past the digit limit first
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(_with(PAIR_CONFIG, PAIR_C, "1e99999999")))
    argv = ["-m", "plumbline.cli", "periods", "pair", "--config", str(path)]
    start = time.perf_counter()
    run = run_python(*argv, text=True, timeout=10)
    assert time.perf_counter() - start < 1
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr.startswith("config error: curve_a.marks[0].c: bad numeric value '1e99999999'")


def test_surfaces_dims(capsys):
    code, report = _run(capsys, ["surfaces", "dims", "--genus", "3"])
    assert code == 0
    assert report["K"] == [18, 14, 10, 6, 2]
    assert all(item["dims"]["V_Gamma"] == 36 for item in report["alkanes"])
    assert all(item["dims"]["W_1h"] == 4 for item in report["alkanes"])


def test_surfaces_egamma(capsys):
    code, report = _run(
        capsys, ["surfaces", "egamma", "--genus", "4", "--seed", "1", "--trials", "3"]
    )
    assert code == 0
    assert report["pass"] is True
    assert all(r["span_dims"] == [3, 3, 3] for r in report["results"])


def test_fixed_seed_reports_pinned(tmp_path, monkeypatch, capsys):
    for name, config in (("pair", PAIR_CONFIG), ("star", STAR_CONFIG), ("tree", TREE_CONFIG)):
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    for argv, digest in PINNED_REPORTS:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


@pytest.mark.parametrize("argv", [["--numeric", "--trials", "2"], ["--trials", "1"]])
def test_octic_probe_contract(monkeypatch, tmp_path, argv):
    # the benchmark's numeric probe wraps relations.octic_eval the same way
    # and reads each jet's terms, degree queries and field tolerance
    kept = []
    original = relations.octic_eval

    def keep(*args, **kwargs):
        f = original(*args, **kwargs)
        kept.append(f)
        return f

    monkeypatch.setattr(relations, "octic_eval", keep)
    out = tmp_path / "r.json"
    argv = ["relations", "verify", "--genus", "7", *argv, "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    report = json.loads(out.read_text())
    assert len(kept) == len(report["trials"]) * math.comb(7, 4)
    assert sum(t["octics_checked"] for t in report["trials"]) == len(kept)
    for f in kept:
        assert f.ring.order == 17 and len(f.ring.variables) == 7
        assert f.ring.field.tolerance == 1e-10
        assert f.terms and all(len(e) == 7 and sum(e) >= 16 for e in f.terms)
        assert f.vanishes_through_degree(16) and f.min_nonzero_degree() == 17


def test_perfbench_control_contract():
    # the benchmark's negative control calls these names outside the CLI,
    # in this way
    from plumbline.jets import DEFAULT_TOLERANCE, CoefficientField, FieldKind
    from plumbline.relations import verify_asymptotic_vanishing
    from plumbline.sampling import random_star_config, substream

    seed = 3
    field = CoefficientField(FieldKind.COMPLEX_FLOAT, DEFAULT_TOLERANCE)
    s = random_star_config(7, substream(seed, "perfbench:control"))
    rep = verify_asymptotic_vanishing(
        s, f"{seed}:perfbench:control", corrupt_entry=(1, 2), field=field
    )
    assert rep.passed is False


def test_selftest_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["selftest", "--seed", "5", "--out", str(out1)]) == 0
    assert main(["selftest", "--seed", "5", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_selftest_corrupted_octic_fails(tmp_path):
    out = tmp_path / "bad.json"
    code = main(["selftest", "--seed", "5", "--inject-corrupted-octic", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    failing = {c["name"] for c in report["checks"] if not c["pass"]}
    assert "cone_vanishing" in failing and "star_on_cone" in failing


def test_selftest_corrupted_octic_report_pinned(capsys):
    # exit 1 keeps it out of PINNED_REPORTS, whose runs must exit 0
    assert main(["selftest", "--seed", "0", "--inject-corrupted-octic"]) == 1
    out = capsys.readouterr().out
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "4fdd054f089877b54d994fa2efef6a0171be91811269eb0b9895d7efdd769d05"
    )


def test_field_tolerance_reaches_zero_tests(monkeypatch):
    from plumbline.curve_periods import PeriodMatrixJet, derivative_rank_one_check
    from plumbline.relations import verify_asymptotic_vanishing
    from plumbline.sampling import random_star_config, substream

    # a float octic's residue at degree 16 is either 0.0 or far above 1e-30
    # of its scale, so under that tolerance a trial fails exactly when one of
    # its octic jets keeps a nonzero coefficient at degree <= 16; the trials
    # are those of relations verify --genus 4 --trials 2 --seed 1
    kept = []
    original = relations.octic_eval

    def keep(*args, **kwargs):
        f = original(*args, **kwargs)
        kept[-1].append(f)
        return f

    monkeypatch.setattr(relations, "octic_eval", keep)

    def octic_reports(field):
        reports = []
        for trial in range(2):
            kept.append([])
            reports.append(
                verify_asymptotic_vanishing(
                    random_star_config(4, substream(1, f"relations:config:{trial}")),
                    seed=f"1:relations:perturb:{trial}",
                    field=field,
                )
            )
        return reports

    assert all(rep.passed for rep in octic_reports(FLOAT_FIELD))
    kept.clear()
    tight = octic_reports(CoefficientField(FieldKind.COMPLEX_FLOAT, 1e-30))
    for rep, jets in zip(tight, kept):
        low = any(c for f in jets for e, c in f.terms.items() if sum(e) <= 16)
        assert rep.passed is not low
        assert rep.passed or rep.min_surviving_degree == 16
    assert not tight[0].passed  # its residue is about 7e-16 of its scale

    # the rank-one check reads no tolerance: it refuses float jets, whatever
    # their field's tolerance
    def rank_one(field):
        ring = JetRing(("t",), 1, field)
        t = ring.variable("t")
        entries = {
            (1, 1): ring.constant(1j) + t,
            (1, 2): t,
            (2, 2): ring.constant(2j) + t * (1 + 1e-8),
        }
        return derivative_rank_one_check(PeriodMatrixJet(entries), "t")

    for field in (CoefficientField(FieldKind.COMPLEX_FLOAT, 1e-6), FLOAT_FIELD):
        with pytest.raises(StructureError, match="exact field"):
            rank_one(field)


# ---------------------------------------------------------------------------
# argv mutations: each must end in 0, 1 or 2, never in a traceback

ARGV_BASES = [
    ["alkanes", "enum", "--genus", "4"],
    ["alkanes", "count", "--max", "5"],
    ["relations", "verify", "--genus", "4", "--trials", "1"],
    ["surfaces", "dims", "--genus", "3"],
    ["surfaces", "egamma", "--genus", "4", "--trials", "1"],
    ["periods", "pair", "--config", "pair.json"],
    ["periods", "star", "--config", "star.json"],
    ["periods", "tree", "--config", "tree.json"],
    ["selftest", "--seed", "0"],
]

# flag -> values it must refuse; "." is the working directory
BAD_VALUES = {
    "--genus": ["0", "-3"],
    "--trials": ["0", "x"],
    "--config": [".", "/dev/null"],
}


def _argv_mutations():
    for base in ARGV_BASES:
        flags = [k for k, a in enumerate(base) if a.startswith("--")]
        for k in flags:
            flag, value = base[k], base[k + 1]
            yield base[:k + 1] + base[k + 2:]  # the flag without its value
            yield base + [flag, value]  # the flag repeated
            bad = list(BAD_VALUES.get(flag, ()))
            if flag == "--genus" and base[0] in ("alkanes", "surfaces"):
                bad.append("17")  # past the enumerated range
            for v in bad:
                yield base[:k + 1] + [v] + base[k + 2:]
        yield base + ["--out", "."]
        yield base + ["--order", "17"]  # an option no command takes


@pytest.mark.parametrize("argv", list(_argv_mutations()), ids=" ".join)
def test_mutated_argv_keeps_the_exit_contract(argv, tmp_path, monkeypatch):
    for name, config in (("pair", PAIR_CONFIG), ("star", STAR_CONFIG), ("tree", TREE_CONFIG)):
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse refuses the usage
            code = e.code
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


def _config_cases():
    command, text, fragment = next(row for row in MALFORMED_CONFIGS if row[2])
    bad_tau = json.dumps(_with(PAIR_CONFIG, ["curve_a", "tau"], ["1", "-2"]))
    return [
        ("pair", None, "config error: cannot read config"),
        (command, text, f"config error: {fragment}"),
        ("pair", bad_tau, "invalid input:"),
    ]


@pytest.mark.parametrize(
    "command, text, message", _config_cases(), ids=["missing", "malformed", "invalid"]
)
def test_config_errors_exit_2_under_python_m(command, text, message, tmp_path):
    # under -m the CLI runs as __main__: an error class the config reader
    # took from plumbline.cli would be a second copy, which main misses
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    run = run_python("-m", "plumbline.cli", "periods", command, "--config", str(path), text=True)
    assert (run.returncode, run.stdout) == (2, ""), run.stderr
    assert run.stderr.startswith(message) and "Traceback" not in run.stderr, run.stderr


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_reports_do_not_depend_on_the_hash_seed(hash_seed):
    for argv, digest in PINNED_REPORTS[:2]:
        run = run_python("-m", "plumbline.cli", *argv, env={"PYTHONHASHSEED": hash_seed})
        assert run.returncode == 0, run.stderr
        assert hashlib.sha256(run.stdout).hexdigest() == digest, argv


@pytest.mark.parametrize("value", ["1e300", "1e-30", "abc"])
def test_reports_ignore_the_tolerance_variable(value):
    # the float tolerance is fixed at 1e-10; a PLUMBLINE_TOL left in the
    # environment by an older release neither passes nor fails a check
    argv = ["relations", "verify", "--genus", "7", "--trials", "3", "--seed", "5", "--numeric"]
    digest = {tuple(a): d for a, d in PINNED_REPORTS}[tuple(argv)]
    run = run_python("-m", "plumbline.cli", *argv, env={"PLUMBLINE_TOL": value})
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(run.stdout).hexdigest() == digest


def test_pinned_reports_script_reads_this_table():
    # tools/pinned_reports.py reruns the table under other interpreters; it
    # reads the table and the configs from this file, not from a copy
    import importlib.util

    path = SRC.parent / "tools" / "pinned_reports.py"
    spec = importlib.util.spec_from_file_location("pinned_reports", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    table = script.read_table(Path(__file__))
    assert table["PINNED_REPORTS"] == PINNED_REPORTS
    assert [table[name] for name in script.CONFIGS] == [PAIR_CONFIG, STAR_CONFIG, TREE_CONFIG]
