"""Source guards: invariant checks must survive ``python -O``, which strips
``assert``, and the CLI must not hide decoding bugs behind broad handlers."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "clusterforge"


def test_no_assert_statements_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], "use `raise AssertionError(msg)` instead of assert: " + ", ".join(found)


def test_only_the_oracle_builds_unchecked_state_vectors():
    # StateVector._trusted skips the norm check and the copy; a caller
    # outside oracle.py could hand it any array.
    def trusted_calls(path: Path) -> list[str]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {"StateVector"} | {
            alias.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name == "StateVector" and alias.asname
        }
        return [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_trusted"
            and ast.unparse(node.value).split(".")[-1] in names
        ]

    assert trusted_calls(SRC / "oracle.py"), "the guard no longer sees the oracle's own calls"
    leaks = [hit for path in sorted(SRC.glob("*.py")) if path.name != "oracle.py"
             for hit in trusted_calls(path)]
    assert leaks == [], "StateVector._trusted outside oracle.py: " + ", ".join(leaks)


def test_only_the_oracle_and_checks_import_numpy():
    # Imports inside functions count too: a deferred import still loads numpy.
    def imports_numpy(node: ast.AST) -> bool:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            return False
        return any(name.split(".")[0] == "numpy" for name in names)

    found = sorted({
        path.stem
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if imports_numpy(node)
    })
    assert found == ["checks", "oracle"]


def test_export_and_replay_catch_only_value_error():
    # `main` is the CLI's one error boundary: it alone turns ValueError into
    # exit 1.  Stored documents and mc's cost moments are checked to raise
    # only ValueError; catching KeyError, TypeError or OverflowError as
    # well would turn a missed check into exit 1, and a verb that caught
    # ValueError itself would keep a second copy of the boundary's rule.
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    caught = {
        fn.name: sorted(ast.unparse(node.type) if node.type else "<bare>"
                        for node in ast.walk(fn) if isinstance(node, ast.ExceptHandler))
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and (fn.name == "main" or fn.name.startswith("cmd_"))
    }
    assert caught == {
        "main": ["BrokenPipeError", "ValueError"],
        "cmd_build": ["ResourcesExhaustedError"],
        "cmd_verify": ["KeyError"],
        "cmd_mc": [],
        "cmd_export": [],
        "cmd_replay": [],
    }


def test_to_graph_self_check_runs_under_dash_o():
    # A broken canonical_equal must make the graph extraction refuse its answer.
    code = (
        "from clusterforge import tableau as tb\n"
        "from clusterforge.graphstate import chain\n"
        "tb.canonical_equal = lambda a, b: False\n"
        "tb.to_graph(tb.from_graph(chain(3)))\n"
    )
    r = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        timeout=60,
    )
    assert r.returncode != 0
    assert b"AssertionError: graph extraction failed self-check" in r.stderr
