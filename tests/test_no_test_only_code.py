"""No top-level ``src/`` name is reached only by tests.

Every function and class defined at the top of a module under
``src/repro`` must be named in code outside its own body: in ``src/``,
``benchmarks/``, ``examples/`` or ``perfbench/``.  Tests do not count,
and neither do imports (a package re-export names nothing) or the
strings of ``__all__``.  The scan repeats until it finds nothing new, so
a helper that only dead code names is dead too.  Code that only tests
reach is an escape hatch: delete it, or move it into ``tests/`` when a
test uses it as an independent oracle (``tests/oracles.py``).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
USERS = ("benchmarks", "examples", "perfbench")

# The executor's ``recorder=`` protocol.  It goes when the checkpoint
# journal and the store segment become one per-cell log (ROADMAP item 3).
ALLOWED = frozenset({"CellRecorder"})


def _named(tree: ast.AST) -> "set[str]":
    """Identifiers ``tree`` names in code: names and attribute names."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def _test_only_definitions() -> "list[tuple[Path, ast.AST]]":
    """``(module, node)`` of every top-level def no non-test code reaches."""
    uses = {}  # definition node -> names its body uses, its own name aside
    named = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                uses[(path, node)] = _named(node) - {node.name}
            else:
                named |= _named(node)
    for directory in USERS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            named |= _named(ast.parse(path.read_text(), filename=str(path)))

    dead = set()
    while True:
        reached = named.union(*(used for key, used in uses.items() if key not in dead))
        new = {key for key in uses if key not in dead and key[1].name not in reached}
        if not new:
            return sorted(dead, key=lambda key: (key[0], key[1].lineno))
        dead |= new


def test_no_src_name_is_reached_only_by_tests():
    dead = _test_only_definitions()
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno}: {node.name}"
        for path, node in dead
        if node.name not in ALLOWED
    ]
    assert not offenders, offenders
    stale = ALLOWED - {node.name for _, node in dead}
    assert not stale, f"no longer test-only, drop from ALLOWED: {sorted(stale)}"
