"""What every entry of :data:`repro.experiments.table.TABLE` shares: the
printed format of its rows (:func:`render`, for ``python -m repro`` and
the pytest benchmarks alike) and the check of its paper claims
(:func:`claim`).
"""

import ast
import builtins
import reprlib
import sys
from typing import Iterable, List, NamedTuple, Optional, Sequence, Union


class Table(NamedTuple):
    """A fixed-width table: a title, column headers and rows of cells."""

    title: str
    headers: Sequence[str]
    rows: Iterable[Sequence[object]]


def fmt(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}"


def render(blocks: Iterable[Union[Table, str]]) -> str:
    """An entry's ``rows(result)`` as printed text: a blank line before
    each block, and each table's cells right-aligned under its title,
    headers and a rule.  A string block is a note of one or more
    lines."""
    lines: List[str] = []
    for block in blocks:
        lines.append("")
        if isinstance(block, str):
            lines.append(block)
            continue
        rows = [[str(cell) for cell in row] for row in block.rows]
        widths = [max([len(header)] + [len(row[i]) for row in rows])
                  for i, header in enumerate(block.headers)]
        line = "  ".join(h.rjust(w) for h, w in zip(block.headers, widths))
        lines += [f"=== {block.title} ===", line, "-" * len(line)]
        lines += ["  ".join(c.rjust(w) for c, w in zip(row, widths))
                  for row in rows]
    return "\n".join(lines)


class ClaimFailed(AssertionError):
    """A paper claim did not hold; the message gives the claim and the
    measured values it read."""


class approx:
    """``pytest.approx`` for one number, so claims keep their pytest
    form: ``expected`` within ``rel`` times it or within ``abs``
    (defaults rel 1e-6 and abs 1e-12; ``abs`` alone is the tolerance)."""

    def __init__(self, expected: float, rel: Optional[float] = None,
                 abs: Optional[float] = None):
        self.expected = expected
        self.tolerance = abs if rel is None and abs is not None else max(
            (1e-6 if rel is None else rel) * builtins.abs(expected),
            1e-12 if abs is None else abs)

    def __eq__(self, actual: object) -> bool:
        return actual == self.expected or \
            builtins.abs(actual - self.expected) <= self.tolerance

    def __repr__(self) -> str:
        return f"{self.expected} ± {self.tolerance:.1e}"


def claim(*claims: str) -> None:
    """Check each of ``claims``, a Python expression over the calling
    function's local and module names, as ``assert`` would; unlike
    ``assert``, also under ``python -O``.

    A false claim raises :class:`ClaimFailed` naming it and what it
    read: the values a comparison compared and the numbers among its
    names, or else every name it read.
    """
    caller = sys._getframe(1)
    scope = {**caller.f_globals, **caller.f_locals}
    for text in claims:
        if eval(text, scope):
            continue
        node = ast.parse(text, mode="eval").body
        parts = names = [name for name in ast.walk(node)
                         if isinstance(name, ast.Name) and name.id in scope
                         and not callable(scope[name.id])]
        if isinstance(node, ast.Compare):
            parts = [part for part in (node.left, *node.comparators)
                     if any(sub in names for sub in ast.walk(part))]
            parts += [name for name in names
                      if isinstance(scope[name.id], (int, float))]
        sources = dict.fromkeys(ast.get_source_segment(text, part)
                                for part in parts)
        raise ClaimFailed(text + "  [" + ", ".join(
            f"{source} = {reprlib.repr(eval(source, scope))}"
            for source in sources) + "]")
