"""Every module, ``def`` and ``class`` in ``src/repro`` is reached from
outside itself.

A name is reached when it occurs as a word in ``src/``, ``benchmarks/``,
``examples/`` or ``perfbench/`` anywhere but the lines of its own
definition and the package ``__init__`` files that re-export it.  Code
in ``src`` that only tests call fails here unless :data:`ALLOWED` names
it with the reason it is kept.  A module (apart from ``__init__`` and
``__main__``) is reached when a file in those trees other than a package
``__init__`` imports it or a name from it, directly or through the
``__init__`` files that re-export it.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEARCHED = ("src", "benchmarks", "examples", "perfbench")

#: Names only tests reach, each with the reason it stays.
ALLOWED = {
    "max_hops": "the torus diameter that bounds its routes in the torus "
                "tests",
    "shared_in_use": "credit-pool accessor the ER credit tests read",
    "is_lossless": "traffic-class predicate the packet tests and the "
                   "reference port use",
    "is_paused": "PFC state the switch and fabric tests read",
    "is_data": "frame-type predicate the frame and recovery tests use",
    "is_first_fragment": "fragment predicate the frame tests read",
    "is_last_fragment": "fragment predicate the frame tests read",
    "in_quarantine": "RM accessor the quarantine tests read",
    "feature_stage_time": "the feature stage's hold time in the server's "
                          "mode, through which the queue differential's "
                          "process reference computes it",
}

_WORD = re.compile(r"[A-Za-z_]\w*")


def definitions():
    """(name, path, first line, last line) of every def and class."""
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and not (
                    node.name.startswith("__")
                    and node.name.endswith("__")):
                yield node.name, path, node.lineno, node.end_lineno


def occurrences():
    """word -> [(path, line)] over the searched trees, minus __init__."""
    found = defaultdict(list)
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for number, line in enumerate(
                    path.read_text().splitlines(), 1):
                for word in set(_WORD.findall(line)):
                    found[word].append((path, number))
    return found


def unreached():
    found = occurrences()
    return sorted({
        name for name, path, first, last in definitions()
        if all(where == path and first <= line <= last
               for where, line in found[name])})


def test_every_definition_is_reached_or_allowed():
    # Equality also catches a stale allowlist entry.
    assert set(unreached()) == set(ALLOWED)


def modules():
    """Dotted name of every module in ``src/repro`` but the package
    ``__init__`` and ``__main__`` files."""
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        if path.name not in ("__init__.py", "__main__.py"):
            yield ".".join(path.relative_to(ROOT / "src").with_suffix("")
                           .parts)


def imports(path, package):
    """(local name, dotted name) of every name ``path``, a file of
    ``package``, imports."""
    parts = package.split(".")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = parts[:len(parts) + 1 - node.level] if node.level else []
            module = ".".join(base + [node.module] if node.module else base)
            for alias in node.names:
                yield alias.asname or alias.name, f"{module}.{alias.name}"


def imported():
    """Every module the searched trees import, or import a name from,
    following package ``__init__`` re-exports to where a name is
    defined.  A re-export alone reaches nothing."""
    exports, names = {}, []
    for top in SEARCHED:
        base = ROOT / "src" if top == "src" else ROOT
        for path in sorted((ROOT / top).rglob("*.py")):
            package = ".".join(path.relative_to(base).parent.parts)
            for local, name in imports(path, package):
                if path.name == "__init__.py":
                    exports[f"{package}.{local}"] = name
                else:
                    names.append(name)
    found = set()
    for name in names:
        while exports.get(name, name) != name:
            name = exports[name]
        found.update((name, name.rpartition(".")[0]))
    return found


def test_every_module_is_imported():
    assert sorted(set(modules()) - imported()) == []
