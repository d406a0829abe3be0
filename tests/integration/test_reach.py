"""Every module, ``def`` and ``class`` in ``src/repro`` is reached from
outside itself.

A package ``__init__`` lists its public names in an export table, which
it passes to ``_lazy_exports``; a re-export alone reaches nothing.

A name is reached when it occurs as a word in ``src/``, ``benchmarks/``,
``examples/`` or ``perfbench/`` anywhere but the lines of its own
definition, or as a name the code of a package ``__init__`` uses (its
docstring and export table do not count).  Code in ``src`` that only
tests call fails here unless :data:`ALLOWED` names it with the reason it
is kept.  A module (apart from ``__init__`` and ``__main__``) is reached
when a file in those trees imports it or a name from it, directly or
through the export tables that list the name.
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
    """word -> [(path, line)] over the searched trees; in a package
    ``__init__``, only the names its code uses."""
    found = defaultdict(list)
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            text = path.read_text()
            if path.name == "__init__.py":
                for node in ast.walk(ast.parse(text)):
                    if isinstance(node, ast.Name):
                        found[node.id].append((path, node.lineno))
                continue
            for number, line in enumerate(text.splitlines(), 1):
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


def imports(tree, package):
    """Dotted name of every name ``tree``, a file of ``package``,
    imports."""
    parts = package.split(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = parts[:len(parts) + 1 - node.level] if node.level else []
            module = ".".join(base + [node.module] if node.module else base)
            for alias in node.names:
                yield f"{module}.{alias.name}"


def export_table(tree):
    """The export table (submodule -> names) a package ``__init__``
    passes to ``_lazy_exports``, or {}."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and \
                getattr(node.func, "id", None) == "_lazy_exports":
            return ast.literal_eval(node.args[1])
    return {}


def imported():
    """Every module the searched trees import, or import a name from,
    following the export tables to where a name is defined."""
    exports, names = {}, []
    for top in SEARCHED:
        base = ROOT / "src" if top == "src" else ROOT
        for path in sorted((ROOT / top).rglob("*.py")):
            package = ".".join(path.relative_to(base).parent.parts)
            tree = ast.parse(path.read_text())
            for module, listed in export_table(tree).items():
                for name in listed:
                    exports[f"{package}.{name}"] = \
                        f"{package}.{module}.{name}"
            names.extend(imports(tree, package))
    found = set()
    for name in names:
        while exports.get(name, name) != name:
            name = exports[name]
        found.update((name, name.rpartition(".")[0]))
    return found


def test_every_module_is_imported():
    assert sorted(set(modules()) - imported()) == []
