"""Differential test: the callback query paths against the process-era
reference (:mod:`tests.ranking.reference_queues`).

Random programs drive a ranking server, a DNN pool and the consolidation
pool twice: once as call_later chains through :class:`repro.sim.Pool`,
once as one generator process per query with `Resource` grants.  Ranking
programs cover every mode, 1-8 cores, 1-4 FPGA slots, loads 0.3-2.0,
bursts of queries arriving at one instant, FPGA loss and restore at
random instants, and traced queries.  Pool programs cover local and
remote pools, bursts and traced requests.  Both sides must agree on
every latency sample in order, every counter, every trace mark and the
final time.

A submitted query starts at once, where a process started at the end of
its instant.  The two orders differ only for an event that shares the
instant and was scheduled after the arrival: the programs schedule every
FPGA flip before the arrivals it can coincide with.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnn.pool import DnnPool, RemoteNetworkModel, \
    run_oversubscription_point
from repro.ranking import (
    AccelerationMode,
    RankingServer,
    RankingServiceConfig,
    run_open_loop,
    saturation_qps,
)
from repro.ranking.consolidation import ConsolidationConfig, \
    run_consolidation_point
from repro.sim import Environment
from repro.trace import TraceContext
from tests.sim.reference_events import process

from . import reference_queues as ref

#: Mean core time per query (seconds): the loads below are fractions of
#: cores / this, the host-bound capacity.
CORE_SECONDS = {AccelerationMode.SOFTWARE: 0.95e-3,
                AccelerationMode.LOCAL_FPGA: 0.46e-3,
                AccelerationMode.REMOTE_FPGA: 0.46e-3}


@st.composite
def ranking_programs(draw):
    mode = draw(st.sampled_from(list(AccelerationMode)))
    cores = draw(st.integers(1, 8))
    return {
        "config": RankingServiceConfig(
            mode=mode, num_cores=cores,
            fpga_pipeline_slots=draw(st.integers(1, 4))),
        "rate": draw(st.floats(0.3, 2.0)) * cores / CORE_SECONDS[mode],
        "arrivals": draw(st.integers(20, 150)),
        "burst": draw(st.integers(1, 3)),
        "traced": draw(st.booleans()),
        # FPGA loss/restore instants, as fractions of the arrival span.
        "flips": draw(st.lists(st.floats(0.0, 1.0), max_size=4)),
        "seed": draw(st.integers(0, 2 ** 16)),
    }


def run_ranking(program, reference):
    config = program["config"]
    env = Environment()
    server_cls = ref.ReferenceRankingServer if reference else RankingServer
    server = server_cls(env, config, rng=random.Random(program["seed"] + 1))
    arrivals = random.Random(program["seed"])
    rate = program["rate"]
    records, marks = [], []
    ids = itertools.count()

    def one_query(work, i):
        latency = yield from server.handle_query(work)
        records.append((i, latency, env.now))

    def submit(work, i):
        if reference:
            process(env, one_query(work, i))
        else:
            server.submit(work, lambda latency: records.append(
                (i, latency, env.now)))

    def arrive(left):
        if left:
            for _ in range(program["burst"]):
                work = config.workload.sample(server.rng)
                if program["traced"]:
                    work.trace = TraceContext(env.now)
                    marks.append(work.trace.marks)
                submit(work, next(ids))
            env.call_later(arrivals.expovariate(rate), arrive, left - 1)

    def flip():
        if server.fpga_available:
            server.fail_fpga()
        else:
            server.restore_fpga()

    arrive(program["arrivals"])
    for at in program["flips"]:
        env.call_at(at * program["arrivals"] / rate, flip)
    env.run()
    return {
        "samples": server.latency.samples,
        "completed": server.completed,
        "fallbacks": server.software_fallbacks,
        "records": records,
        "marks": marks,
        "now": env.now,
    }


def assert_same(new, old):
    assert new.keys() == old.keys()
    for key in new:
        assert new[key] == old[key], key


@settings(max_examples=100, deadline=None)
@given(ranking_programs())
def test_ranking_server_matches_process_reference(program):
    assert_same(run_ranking(program, reference=False),
                run_ranking(program, reference=True))


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
MODES = list(AccelerationMode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("cores,slots", [(1, 1), (8, 4)])
def test_open_loop_and_saturation_match(mode, cores, slots):
    config = RankingServiceConfig(mode=mode, num_cores=cores,
                                  fpga_pipeline_slots=slots)
    capacity = saturation_qps(config, num_queries=600)
    assert capacity == ref.saturation_qps(config, num_queries=600)
    for load, seed in ((0.5, 0), (1.3, 3)):
        new = run_open_loop(config, load * capacity, num_queries=600,
                            seed=seed)
        old = ref.run_open_loop(config, load * capacity, num_queries=600,
                                seed=seed)
        assert new.latency.samples == old.latency.samples
        assert new.achieved_qps == old.achieved_qps


@pytest.mark.parametrize("ratio", [1, 2, 3, 4])
def test_consolidation_matches(ratio):
    config = ConsolidationConfig(num_servers=2 * ratio, num_fpgas=2)
    new = run_consolidation_point(config, queries_per_server=150, seed=ratio)
    old = ref.run_consolidation_point(config, queries_per_server=150,
                                      seed=ratio)
    assert new.latency.samples == old.latency.samples
    assert new.queries_completed == old.queries_completed
    assert new.fpga_utilization == old.fpga_utilization


@pytest.mark.parametrize("remote", [None, RemoteNetworkModel()])
def test_oversubscription_point_matches(remote):
    new = run_oversubscription_point(9, 3, remote=remote,
                                     requests_per_client=120, seed=4)
    old = ref.run_oversubscription_point(9, 3, remote=remote,
                                         requests_per_client=120, seed=4)
    assert new.latency.samples == old.latency.samples


# ----------------------------------------------------------------------
# DNN pool
# ----------------------------------------------------------------------
@st.composite
def pool_programs(draw):
    fpgas = draw(st.integers(1, 4))
    return {
        "fpgas": fpgas,
        "remote": draw(st.booleans()),
        "load": draw(st.floats(0.3, 2.0)),
        "requests": draw(st.integers(20, 200)),
        "burst": draw(st.integers(1, 3)),
        "traced": draw(st.booleans()),
        "seed": draw(st.integers(0, 2 ** 16)),
    }


def run_pool(program, reference):
    env = Environment()
    pool_cls = ref.ReferenceDnnPool if reference else DnnPool
    pool = pool_cls(env, program["fpgas"],
                    rng=random.Random(program["seed"]),
                    remote=RemoteNetworkModel() if program["remote"]
                    else None)
    mean = pool.accelerators[0].mean_service_time
    rate = program["load"] * program["fpgas"] / mean
    draws = random.Random(program["seed"] + 1)
    marks = []

    def start(call):
        # The callback pool has already started the request; the
        # reference returned its process body.
        if reference:
            process(env, call)

    def arrive(left):
        if left:
            for _ in range(program["burst"]):
                trace = None
                if program["traced"]:
                    trace = TraceContext(env.now)
                    marks.append(trace.marks)
                start(pool.request(trace=trace))
            env.call_later(draws.expovariate(rate), arrive, left - 1)

    arrive(program["requests"])
    env.run()
    return {
        "samples": pool.latency.samples,
        "completed": pool.completed,
        "depths": pool._queue_depth,
        "marks": marks,
        "now": env.now,
    }


@settings(max_examples=100, deadline=None)
@given(pool_programs())
def test_dnn_pool_matches_process_reference(program):
    assert_same(run_pool(program, reference=False),
                run_pool(program, reference=True))
