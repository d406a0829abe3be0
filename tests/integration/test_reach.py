"""Every ``def`` and ``class`` in ``src/repro`` is reached from outside
itself.

A name is reached when it occurs as a word in ``src/``, ``benchmarks/``,
``examples/`` or ``perfbench/`` anywhere but the lines of its own
definition and the package ``__init__`` files that re-export it.  Code
in ``src`` that only tests call fails here unless :data:`ALLOWED` names
it with the reason it is kept.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEARCHED = ("src", "benchmarks", "examples", "perfbench")

#: Names only tests reach, each with the reason it stays.
ALLOWED = {
    "RingNetwork":
        "test_router_differential checks the streamed ER through rings",
    "MeshNetwork":
        "test_router_differential checks the streamed ER through meshes",
    "set_local_handler":
        "the composed networks' delivery hook, used by the ring and mesh "
        "checks",
    "gcm_encrypt": "one-shot reference the GcmContext fast path is "
                   "checked against",
    "gcm_decrypt": "one-shot reference the GcmContext fast path is "
                   "checked against",
    "ctr_crypt": "one-shot reference the GcmContext fast path is "
                 "checked against",
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
