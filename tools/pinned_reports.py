#!/usr/bin/env python3
"""Run the pinned reports under several Python interpreters.

The commands and their stdout sha256 digests are read from
``PINNED_REPORTS`` in ``tests/test_cli.py``, and the three config files
they name from ``PAIR_CONFIG``, ``STAR_CONFIG`` and ``TREE_CONFIG`` there,
so the table is kept in one place.  Each command runs as
``<interpreter> -m plumbline.cli ...`` against this checkout's ``src/``, in
a temporary directory that holds the configs, and its digest is printed
against the table.

    python3 tools/pinned_reports.py ~/.pyenv/versions/3.1[0-3]*/bin/python3

Without arguments it uses the interpreter that runs it.  Exit status 0
when every digest matches under every interpreter, 1 otherwise.  Stdlib
only, so it runs under interpreters that have no pytest.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = {"PAIR_CONFIG": "pair.json", "STAR_CONFIG": "star.json", "TREE_CONFIG": "tree.json"}


def read_table(path: Path) -> dict:
    """The module-level literals PINNED_REPORTS and the configs in ``path``."""
    wanted = {"PINNED_REPORTS", *CONFIGS}
    found = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in wanted:
                found[name] = ast.literal_eval(node.value)
    missing = wanted - set(found)
    if missing:
        raise SystemExit(f"{path}: no literal {', '.join(sorted(missing))}")
    return found


def version(python: str) -> str:
    run = subprocess.run(
        [python, "-c", "import platform; print(platform.python_version())"],
        capture_output=True, text=True, check=True,
    )
    return run.stdout.strip()


def main(argv: list) -> int:
    table = read_table(ROOT / "tests" / "test_cli.py")
    pythons = argv or [sys.executable]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    failures = 0
    with tempfile.TemporaryDirectory() as work:
        for name, filename in CONFIGS.items():
            Path(work, filename).write_text(json.dumps(table[name]), encoding="utf-8")
        for python in pythons:
            label = version(python)
            start = time.perf_counter()
            for args, pinned in table["PINNED_REPORTS"]:
                run = subprocess.run(
                    [python, "-m", "plumbline.cli", *args],
                    capture_output=True, cwd=work, env=env, timeout=600, check=False,
                )
                digest = hashlib.sha256(run.stdout).hexdigest()
                ok = run.returncode == 0 and digest == pinned
                failures += not ok
                verdict = "ok" if ok else f"MISMATCH (exit {run.returncode})"
                print(f"{label:8} {digest[:16]} {verdict:8} {' '.join(args)}")
            print(f"{label:8} {time.perf_counter() - start:.1f} s for {len(table['PINNED_REPORTS'])} reports")
    print(f"{failures} mismatches" if failures else "every digest matches")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
