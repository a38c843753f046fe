"""The package runtime is stdlib-only: every import in src/plumbline is a
standard-library module or plumbline itself.  It reads no environment
variable, so argv, the config and --seed fix every report.  And every
invocation loads only what its start-up needs: no ``dataclasses``, and
neither ``selftest``'s registry nor ``traceback`` until they are used."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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
NOT_AT_STARTUP = ("dataclasses", "inspect", "traceback", "plumbline.checks")


def test_cli_import_leaves_unused_modules_unloaded():
    probe = (
        "import sys, plumbline.cli; "
        f"print(' '.join(m for m in {NOT_AT_STARTUP!r} if m in sys.modules))"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert run.stdout.split() == []
