"""Command-line runner for the experiment table.

Usage::

    python -m repro                 # list experiments
    python -m repro E6              # run Fig. 10, print it, check it
    python -m repro E10 E1          # run several

Each id prints the block ``pytest benchmarks/bench_paper.py
--benchmark-only -s`` prints for it.  Exit status 1 means a paper claim
failed, 2 an unknown id.
"""

import sys

from .experiments.harness import ClaimFailed, render
from .experiments.table import TABLE


def main(argv: list[str]) -> int:
    if not argv:
        print("Available experiments (see DESIGN.md / EXPERIMENTS.md):")
        width = max(map(len, TABLE))
        for key, entry in TABLE.items():
            print(f"  {key:>{width}}  {entry.TITLE}")
        print("\nRun one with: python -m repro <id>")
        return 0
    unknown = [key for key in argv if key not in TABLE]
    if unknown:
        print(f"unknown experiment id(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    status = 0
    for key in argv:
        entry = TABLE[key]
        result = entry.run()
        print(render(entry.rows(result)))
        try:
            entry.check(result)
        except ClaimFailed as failure:
            print(f"{key} check failed: {failure}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
