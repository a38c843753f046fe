"""The package runtime is stdlib-only: every import in src/plumbline is a
standard-library module or plumbline itself.  It reads no environment
variable, so argv, the config and --seed fix every report.  And every
invocation loads only what its start-up needs: no ``dataclasses``, and
neither ``selftest``'s registry nor ``traceback`` until they are used.
Only ``frozen.py``, which generates the value classes' constructors, runs
code built at run time."""

import ast
import json
import sys
from pathlib import Path

from test_cli import PAIR_CONFIG, run_python

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "plumbline"


def _imported_top_levels(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            # a relative import (level > 0) stays inside plumbline
            yield "plumbline" if node.level else node.module.partition(".")[0]


def test_runtime_imports_are_stdlib_only():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no modules found under {PACKAGE}"
    foreign = {
        f"{path.name}: {name}"
        for path in sources
        for name in _imported_top_levels(path)
        if name != "plumbline" and name not in sys.stdlib_module_names
    }
    assert not foreign, sorted(foreign)


def _environment_reads(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        for name in names:
            if name.partition(".")[0] == "os" or name in ("environ", "getenv"):
                yield f"{path.name}:{node.lineno}: {name}"


def test_reports_do_not_read_the_environment():
    # a report depends only on argv, the config and --seed
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _environment_reads(path)]
    assert not found, found


def test_no_module_imports_dataclasses():
    # the value classes derive from plumbline.frozen.Frozen instead
    found = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if "dataclasses" in _imported_top_levels(path)
    )
    assert not found, found


# modules the start-up of every command leaves unloaded
NOT_AT_STARTUP = (
    "dataclasses",
    "inspect",
    "traceback",
    "plumbline.checks",
    "plumbline.config",
    "plumbline.curve_periods",
)


def test_cli_import_leaves_unused_modules_unloaded():
    probe = (
        "import sys, plumbline.cli; "
        f"print(' '.join(m for m in {NOT_AT_STARTUP!r} if m in sys.modules))"
    )
    run = run_python("-c", probe, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []


# runs the CLI as ``python -m plumbline.cli`` does, then prints the loaded
# plumbline modules on the last line of stderr
_LOADED_PROBE = """
import atexit, runpy, sys
loaded = lambda: sorted(m for m in sys.modules if m.startswith("plumbline"))
atexit.register(lambda: print(" ".join(loaded()), file=sys.stderr))
runpy.run_module("plumbline.cli", run_name="__main__", alter_sys=True)
"""


def _loaded_by(argv, cwd):
    run = run_python("-c", _LOADED_PROBE, *argv, text=True, cwd=cwd)
    assert run.returncode == 0, (argv, run.stderr)
    return set(run.stderr.splitlines()[-1].split())


def test_commands_load_the_same_modules_as_the_start_up_probe(tmp_path):
    # --version times start-up for the benchmark, so both workloads load
    # exactly what it loads; periods adds its config reader and assemblies,
    # and neither it nor anything else compiles a second plumbline.cli
    (tmp_path / "pair.json").write_text(json.dumps(PAIR_CONFIG))
    start_up = _loaded_by(["--version"], tmp_path)
    assert "plumbline.relations" in start_up and "plumbline.cli" not in start_up
    for argv in (
        ["relations", "verify", "--genus", "4", "--trials", "1"],
        ["surfaces", "egamma", "--genus", "4", "--trials", "1"],
    ):
        assert _loaded_by(argv, tmp_path) == start_up, argv
    periods = _loaded_by(["periods", "pair", "--config", "pair.json"], tmp_path)
    assert periods == start_up | {"plumbline.config", "plumbline.curve_periods"}


def _private_reads(path: Path):
    """The ``_``-prefixed attributes, dunders aside, that ``path`` reads but
    does not define: a module defines the names its defs, classes and
    assignments bind, and the fields its ``__slots__`` and ``_fields`` name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = {
                getattr(t, "id", None) or getattr(t, "attr", None)
                for target in targets
                for t in ast.walk(target)
            }
            defined |= bound
            if bound & {"__slots__", "_fields"}:
                defined |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
            if name.startswith("_") and not name.endswith("__") and name not in defined:
                yield f"{path.name}:{node.lineno}: {name}"


def test_modules_read_only_their_own_private_attributes():
    # a module that reads another's private layout (the jets' packed keys,
    # say) breaks when that module changes it
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _private_reads(path)]
    assert not found, found


def _dynamic_code_calls(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        # the builtins, called by name (``re.compile`` is no such call)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("exec", "eval", "compile"):
                yield f"{path.name}:{node.lineno}: {node.func.id}"


def test_only_frozen_runs_generated_code():
    found = [
        hit
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "frozen.py"
        for hit in _dynamic_code_calls(path)
    ]
    assert not found, found
    assert list(_dynamic_code_calls(PACKAGE / "frozen.py"))  # the guard sees real calls
