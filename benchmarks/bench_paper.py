"""The paper's experiments, one benchmark per entry of
``repro.experiments.table.TABLE``: each runs once, prints the tables ``python
-m repro <id>`` prints (run pytest with ``-s`` to see them) and checks
its paper claims.

    PYTHONPATH=src pytest benchmarks/bench_paper.py --benchmark-only -s
"""

import pytest

from repro.experiments.harness import render
from repro.experiments.table import TABLE


@pytest.mark.parametrize("key", list(TABLE))
def test_paper_experiment(benchmark, key):
    entry = TABLE[key]
    # E3 and E4 share one cached study: clear it so each is timed cold.
    result = benchmark.pedantic(
        entry.run, setup=getattr(entry.run, "cache_clear", None),
        rounds=1, iterations=1)
    print(render(entry.rows(result)))
    entry.check(result)
