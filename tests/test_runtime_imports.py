"""The runtime imports nothing beyond the stdlib, NumPy and itself.

NumPy is the one runtime dependency ``pyproject.toml`` declares; PyYAML
is needed only to read YAML suites, in ``scenarios/spec.py``.  Every
module under ``src/repro`` is parsed rather than imported, so an import
inside a function counts too.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
ALLOWED = frozenset({"numpy", "repro"})
YAML_READER = SRC / "scenarios" / "spec.py"


def _absolute_imports(path: Path):
    """``(line, top-level package)`` of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_runtime_imports_only_stdlib_numpy_and_repro():
    modules = sorted(SRC.rglob("*.py"))
    assert YAML_READER in modules
    offenders = []
    for path in modules:
        allowed = (ALLOWED | {"yaml"}) if path == YAML_READER else ALLOWED
        for line, package in _absolute_imports(path):
            if package not in sys.stdlib_module_names and package not in allowed:
                offenders.append(f"{path.relative_to(SRC)}:{line}: {package}")
    assert not offenders, offenders
