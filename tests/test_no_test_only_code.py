"""No ``src/`` name is reached only by tests.

Every function and class defined at the top of a module under
``src/repro``, and every non-dunder method or property of such a class,
must be named in code outside its own body: in ``src/``,
``benchmarks/``, ``examples/`` or ``perfbench/``.  Tests do not count,
and neither do imports (a package re-export names nothing) or the
strings of ``__all__``.  A string names a member only as a call's second
argument, as in ``getattr(task, "absorb_clean_logits")`` or the
benchmark tracer's ``_patch(owner, "cell", ...)``.  The scan repeats
until it finds nothing new, so a helper that only dead code names is
dead too.  Code that only tests reach is an escape hatch: delete it, or
move it into ``tests/`` when a test uses it as an independent oracle
(``tests/oracles.py``).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
USERS = ("benchmarks", "examples", "perfbench")

ALLOWED = frozenset({
    # ``http.server`` calls these hooks by name.
    "_ServiceHandler.do_GET",
    "_ServiceHandler.do_POST",
    "_ServiceHandler.log_message",
})

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_METHODS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _named(tree: ast.AST, skip: "tuple[ast.AST, ...]" = ()) -> "set[str]":
    """Identifiers ``tree`` names in code, outside the subtrees in ``skip``.

    Names and attribute names count, and so does a string passed as a
    call's second argument.
    """
    found = set()
    pending = [tree]
    while pending:
        node = pending.pop()
        pending.extend(
            child for child in ast.iter_child_nodes(node) if child not in skip
        )
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Call) and len(node.args) > 1:
            argument = node.args[1]
            if isinstance(argument, ast.Constant) and isinstance(argument.value, str):
                found.add(argument.value)
    return found


def _members(node: ast.AST) -> "tuple[ast.AST, ...]":
    """The non-dunder methods and properties a class body defines."""
    if not isinstance(node, ast.ClassDef):
        return ()
    return tuple(
        member
        for member in node.body
        if isinstance(member, _METHODS)
        and not (member.name.startswith("__") and member.name.endswith("__"))
    )


def _test_only_definitions() -> "list[tuple[Path, str, ast.AST]]":
    """``(module, qualified name, node)`` of every top-level def and class
    member that no non-test code reaches."""
    uses = {}  # (module, qualified name, node) -> names its body uses
    named = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, _DEFINITIONS):
                named |= _named(node)
                continue
            members = _members(node)
            uses[(path, node.name, node)] = _named(node, members) - {node.name}
            for member in members:
                key = (path, f"{node.name}.{member.name}", member)
                uses[key] = _named(member) - {member.name}
    for directory in USERS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            named |= _named(ast.parse(path.read_text(), filename=str(path)))

    dead = set()
    while True:
        reached = named.union(*(
            used
            for key, used in uses.items()
            if key not in dead or key[1] in ALLOWED
        ))
        new = {key for key in uses if key not in dead and key[2].name not in reached}
        if not new:
            return sorted(dead, key=lambda key: (key[0], key[2].lineno))
        dead |= new


def test_no_src_name_is_reached_only_by_tests():
    dead = _test_only_definitions()
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno}: {name}"
        for path, name, node in dead
        if name not in ALLOWED
    ]
    assert not offenders, "reached only by tests:\n" + "\n".join(offenders)
    stale = ALLOWED - {name for _, name, _ in dead}
    assert not stale, f"no longer test-only, drop from ALLOWED: {sorted(stale)}"
