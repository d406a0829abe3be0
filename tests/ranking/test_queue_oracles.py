"""The SOFTWARE ranking server against an exact queueing oracle.

In SOFTWARE mode one thread runs a query's pre, feature and post stages
back to back on one core, so a server is a FIFO queue with c identical
cores.  The Kiefer-Wolfowitz recursion (Kiefer & Wolfowitz, 1955) gives
every query's start without a simulation kernel: keep the c core-free
times in a heap; query k starts at max(arrival_k, earliest free time)
and frees that core at start + service.  ``run_open_loop`` must equal it
sample for sample, in completion order, after the warm-up cut.
"""

import functools
import heapq
import random

import pytest

from repro.ranking import (
    AccelerationMode,
    RankingServiceConfig,
    run_open_loop,
    saturation_qps,
)

QUERIES = 1500


def kiefer_wolfowitz(config, rate, num_queries, seed, warmup_fraction=0.1):
    """Steady-state latencies and achieved throughput of ``run_open_loop``
    computed from the FIFO c-server recursion.

    Arrivals come from ``random.Random(seed)`` and query work from
    ``random.Random(seed + 1)``, drawn in the order the simulation draws
    them; the arrival clock advances by the same float additions.
    """
    arrivals = random.Random(seed)
    work_rng = random.Random(seed + 1)
    software = config.software
    free = [0.0] * config.num_cores
    done = []
    t = 0.0
    for _ in range(num_queries):
        work = config.workload.sample(work_rng)
        start = max(t, heapq.heappop(free))
        end = start + (software.pre_time(work) + software.feature_time(work)
                       + software.post_time(work))
        heapq.heappush(free, end)
        done.append((end, end - t))
        t = t + arrivals.expovariate(rate)
    done.sort()
    warmup = int(num_queries * warmup_fraction)
    # The arrival loop draws one more gap after the last query, so the
    # run ends at the later of that instant and the last completion.
    achieved = num_queries / max(t, done[-1][0])
    return [latency for _, latency in done[warmup:]], achieved


@functools.lru_cache(maxsize=None)
def capacity(cores):
    return saturation_qps(RankingServiceConfig(
        mode=AccelerationMode.SOFTWARE, num_cores=cores))


@pytest.mark.parametrize("cores", [1, 4, 8, 16])
@pytest.mark.parametrize("load", [0.3, 0.9, 1.2])
@pytest.mark.parametrize("seed", [0, 1])
def test_software_server_is_a_fifo_c_server_queue(cores, load, seed):
    config = RankingServiceConfig(mode=AccelerationMode.SOFTWARE,
                                  num_cores=cores)
    rate = load * capacity(cores)
    result = run_open_loop(config, rate, num_queries=QUERIES, seed=seed)
    latencies, achieved = kiefer_wolfowitz(config, rate, QUERIES, seed)
    assert result.latency.samples == latencies
    assert result.achieved_qps == achieved
