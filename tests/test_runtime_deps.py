"""The package runtime is stdlib-only: every import in src/plumbline is a
standard-library module or plumbline itself.  And it reads no environment
variable, so argv, the config and --seed fix every report."""

import ast
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
