"""The package ships only what a command reaches.

Every CLI command runs in process under ``sys.setprofile``, in both
coefficient modes where it has them, with the README's pair, star and
tree configs and one config whose tau is refused.  Every function and
method defined in a ``plumbline`` module must be called by that run,
unless ``ALLOWLIST`` names it with the reason it ships anyway.  A method
that only tests call belongs in ``tests/``, not in the package.
"""

import importlib
import json
import pkgutil
import sys

import plumbline
from plumbline.cli import main
from test_cli import PAIR_CONFIG, STAR_CONFIG, TREE_CONFIG, _with

# "module.Qualname" -> why it ships though no command run calls it
ALLOWLIST = {
    "frozen._constructor": "import time: builds each value class's __init__",
    "frozen.Frozen.__init_subclass__": "import time: runs once per value class",
    "jets.CoefficientField.__init__": "import time: builds EXACT_FIELD and FLOAT_FIELD",
    "frozen.Frozen.__setattr__": "the immutability guard",
    "frozen.Frozen.__delattr__": "the immutability guard",
    "frozen.Frozen.__eq__": "value semantics: the sampler-vs-oracle tests compare values",
    "frozen.Frozen.__hash__": "value semantics: values with hashable fields hash as them",
    "frozen.Frozen._field_values": "value semantics: read by __eq__ and __hash__",
    "frozen.Frozen.__repr__": "value semantics: every value prints as its constructor call",
    "gaussian.GaussianRational.__hash__": "value semantics: agrees with GaussianRational(1) == 1",
    "jets.Jet.__eq__": "value semantics: tests compare jets with their oracles",
    "jets.Jet.vanishes_through_degree": "the benchmark's numeric probe calls it",
    "cli._internal_error": "the exit-3 path, reached only by a bug",
    "surfaces._primitive": (
        "divides a reduced row that survives its collision by its content; no command's "
        "rows leave one (an alkane's edge leads never collide, and the rank-1 reductions "
        "vanish), the relabelled spans and the colliding rows of test_surfaces do"
    ),
}

BAD_TAU_CONFIG = _with(PAIR_CONFIG, ["curve_a", "tau"], ["1", "-2"])

RUNS = [
    ["selftest", "--seed", "0"],
    ["alkanes", "enum", "--genus", "4"],
    ["alkanes", "count", "--max", "5"],
    ["surfaces", "dims", "--genus", "3"],
    ["surfaces", "egamma", "--genus", "4", "--trials", "1"],
    *(
        argv + [mode]
        for mode in ("--exact", "--numeric")
        for argv in (
            ["relations", "verify", "--genus", "5", "--trials", "1"],
            ["periods", "pair", "--config", "pair.json"],
            ["periods", "star", "--config", "star.json"],
            ["periods", "tree", "--config", "tree.json"],
        )
    ),
    ["periods", "pair", "--config", "bad_tau.json"],
]


def _defined_functions():
    """"module.Qualname" -> code object, for every function and method
    defined in a plumbline module.  A cached function's cache is cleared,
    so that the scan sees the calls a fresh process makes."""
    found = {}
    for info in pkgutil.iter_modules(plumbline.__path__):
        module = importlib.import_module(f"plumbline.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if isinstance(obj, type) else [obj]
            for member in members:
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                parts = [member.fget, member.fset] if isinstance(member, property) else [member]
                for f in parts:
                    if hasattr(f, "cache_clear"):
                        f.cache_clear()
                    f = getattr(f, "__wrapped__", f)
                    if hasattr(f, "__code__") and f.__module__ == module.__name__:
                        found[f"{info.name}.{f.__qualname__}"] = f.__code__
    return found


def _called_code(tmp_path, monkeypatch, capsys):
    configs = {"pair": PAIR_CONFIG, "star": STAR_CONFIG, "tree": TREE_CONFIG}
    for name, config in {**configs, "bad_tau": BAD_TAU_CONFIG}.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    called, codes = set(), []

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for argv in RUNS:
            codes.append(main(argv))
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * (len(RUNS) - 1) + [2], codes  # the bad tau is refused
    return called


def test_every_package_function_is_reached_by_a_command(tmp_path, monkeypatch, capsys):
    defined = _defined_functions()
    called = _called_code(tmp_path, monkeypatch, capsys)
    unreached = sorted(name for name, code in defined.items() if code not in called)
    test_only = [name for name in unreached if name not in ALLOWLIST]
    assert not test_only, f"no command calls {test_only}: delete them, or allowlist with a reason"
    missing = sorted(set(ALLOWLIST) - set(defined))
    assert not missing, f"allowlisted but no longer defined: {missing}"
