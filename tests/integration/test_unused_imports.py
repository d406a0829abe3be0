"""No module under ``src/`` or ``tests/`` imports a name it never uses.

CI runs no linter, so this is the check: every name an ``import`` binds
must occur in its module as a name, or in a string that parses as an
expression (a string annotation, or a ``harness.claim`` that evaluates
its text in the caller's scope).  The names a module lists in
``__all__`` are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CHECKED = ("src", "tests")


def _expressions(tree):
    """``tree`` and every string constant in it that parses as an
    expression."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                yield ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                pass


def unused_imports(path):
    """Names ``path`` imports and never uses, sorted."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for root in _expressions(tree)
            for node in ast.walk(root) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(bound - used)


def test_no_unused_imports():
    unused = {}
    for top in CHECKED:
        for path in sorted((ROOT / top).rglob("*.py")):
            names = unused_imports(path)
            if names:
                unused[str(path.relative_to(ROOT))] = names
    assert unused == {}
