"""Differential test: the callback query paths against the process-era
reference (:mod:`tests.ranking.reference_queues`).

Random programs drive a ranking server, a DNN pool and the consolidation
pool twice: once as call_later chains through :class:`repro.sim.Pool`,
once as one generator process per query with `Resource` grants.  Ranking
programs cover every mode, 1-8 cores, 1-4 FPGA slots, loads 0.3-2.0,
bursts of queries arriving at one instant, FPGA loss and restore at
random instants, traced queries, and overload off, protected (with
budgets small enough to drop expired work at every stage, and with
admission control on or effectively off) and accounted-only.  Pool
programs cover local and remote pools, slow FPGAs, deadlines, plain and
hedged requests and bursts.  Both sides must agree on every latency
sample in order, every counter, every trace mark and the final time.

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
from repro.overload import AdmissionConfig, HedgeConfig, HedgeController
from repro.ranking import (
    AccelerationMode,
    RankingServer,
    RankingServiceConfig,
    run_open_loop,
    saturation_qps,
)
from repro.ranking.consolidation import ConsolidationConfig, \
    run_consolidation_point
from repro.ranking.service import OverloadConfig, run_surge
from repro.sim import Environment
from repro.trace import TraceContext
from repro.workloads import FlashCrowdProfile

from . import reference_queues as ref

#: Mean core time per query (seconds): the loads below are fractions of
#: cores / this, the host-bound capacity.
CORE_SECONDS = {AccelerationMode.SOFTWARE: 0.95e-3,
                AccelerationMode.LOCAL_FPGA: 0.46e-3,
                AccelerationMode.REMOTE_FPGA: 0.46e-3}
#: Admission control that never sheds or degrades: deadlines alone
#: decide what is dropped.
NO_ADMISSION = AdmissionConfig(target_delay=10.0)


def overload_config(kind, budget):
    if kind == "off":
        return None
    if kind == "account":
        return OverloadConfig(default_budget=budget, protect=False)
    if kind == "admit":
        return OverloadConfig(default_budget=budget)
    return OverloadConfig(default_budget=budget, admission=NO_ADMISSION)


@st.composite
def ranking_programs(draw):
    mode = draw(st.sampled_from(list(AccelerationMode)))
    cores = draw(st.integers(1, 8))
    return {
        "config": RankingServiceConfig(
            mode=mode, num_cores=cores,
            fpga_pipeline_slots=draw(st.integers(1, 4)),
            overload=overload_config(
                draw(st.sampled_from(("off", "admit", "deadline",
                                      "account"))),
                draw(st.floats(0.3e-3, 3e-3)))),
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
            env.process(one_query(work, i))
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
        "rejected": server.rejected,
        "degraded": server.degraded_queries,
        "drops": server.deadline_stats.dropped,
        "slo": server.slo and server.slo.snapshot(),
        "admission": server.admission and server.admission.stats,
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


def test_expired_work_is_dropped_at_every_stage():
    """A protected remote server with one FPGA slot and no shedding: the
    budget runs out in the core queue, the FPGA queue and the post
    queue, identically on both sides."""
    program = {
        "config": RankingServiceConfig(
            mode=AccelerationMode.REMOTE_FPGA, num_cores=2,
            fpga_pipeline_slots=1,
            overload=overload_config("deadline", 0.6e-3)),
        "rate": 1.6 * 2 / CORE_SECONDS[AccelerationMode.REMOTE_FPGA],
        "arrivals": 400, "burst": 2, "traced": True, "flips": [0.5, 0.7],
        "seed": 5,
    }
    new = run_ranking(program, reference=False)
    assert set(new["drops"]) == {"core.queue", "fpga.queue", "post.queue"}
    assert_same(new, run_ranking(program, reference=True))


def test_5000_expired_queries_dropped_in_the_core_queue():
    """One core held past the budget of 5,000 queries queued behind it:
    each is granted the core and gives it straight back."""
    program = {
        "config": RankingServiceConfig(
            mode=AccelerationMode.SOFTWARE, num_cores=1,
            overload=overload_config("deadline", 0.1e-3)),
        "rate": 1.0, "arrivals": 1, "burst": 5001, "traced": False,
        "flips": [], "seed": 0,
    }
    new = run_ranking(program, reference=False)
    assert new["drops"] == {"core.queue": 5000}
    assert_same(new, run_ranking(program, reference=True))


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


@pytest.mark.parametrize("mode", MODES)
def test_protected_saturation_matches(mode):
    config = RankingServiceConfig(mode=mode, overload=OverloadConfig())
    assert saturation_qps(config) == ref.saturation_qps(config)


@pytest.mark.parametrize("protect", [True, False])
def test_surge_matches(protect):
    config = RankingServiceConfig(mode=AccelerationMode.LOCAL_FPGA,
                                  overload=OverloadConfig(protect=protect))
    profile = FlashCrowdProfile(baseline_qps=9000.0, surge_multiplier=4.0,
                                surge_start=0.05, surge_duration=0.1)
    new = run_surge(config, profile, seed=7)
    old = ref.run_surge(config, profile, seed=7)
    for name, phase in new.phases.items():
        assert phase.slo == old.phases[name].slo
        assert phase.latency.samples == old.phases[name].latency.samples
    assert new.row() == old.row()
    assert new.server.latency.samples == old.server.latency.samples
    assert new.server.admission.stats == old.server.admission.stats


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
        "slow": draw(st.lists(st.tuples(st.integers(0, fpgas - 1),
                                        st.floats(1.0, 10.0)),
                              max_size=2)),
        "load": draw(st.floats(0.3, 2.0)),
        "requests": draw(st.integers(20, 200)),
        "burst": draw(st.integers(1, 3)),
        # Share of requests hedged, and of requests with a deadline.
        "hedged": draw(st.sampled_from((0.0, 0.5, 1.0))),
        "deadlines": draw(st.sampled_from((0.0, 0.5, 1.0))),
        "budget": draw(st.floats(0.0, 3.0)),
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
    for index, factor in program["slow"]:
        pool.set_slow(index, factor)
    hedge = HedgeController(HedgeConfig(min_samples=5,
                                        budget_fraction=0.3))
    mean = pool.accelerators[0].mean_service_time
    rate = program["load"] * program["fpgas"] / mean
    draws = random.Random(program["seed"] + 1)
    marks = []

    def start(call):
        # The callback pool has already started the request; the
        # reference returned its process body.
        if reference:
            env.process(call)

    def arrive(left):
        if left:
            for _ in range(program["burst"]):
                deadline = None
                if draws.random() < program["deadlines"]:
                    deadline = env.now + program["budget"] * mean
                if draws.random() < program["hedged"]:
                    start(pool.request_hedged(hedge, deadline=deadline))
                    continue
                trace = None
                if program["traced"]:
                    trace = TraceContext(env.now)
                    marks.append(trace.marks)
                start(pool.request(deadline=deadline, trace=trace))
            env.call_later(draws.expovariate(rate), arrive, left - 1)

    arrive(program["requests"])
    env.run()
    return {
        "samples": pool.latency.samples,
        "completed": pool.completed,
        "backend_served": pool.backend_served,
        "deadline_drops": pool.deadline_drops,
        "depths": pool._queue_depth,
        "hedge": hedge.stats,
        "marks": marks,
        "now": env.now,
    }


@settings(max_examples=100, deadline=None)
@given(pool_programs())
def test_dnn_pool_matches_process_reference(program):
    assert_same(run_pool(program, reference=False),
                run_pool(program, reference=True))


def test_handing_back_5000_expired_requests_does_not_recurse():
    """One FPGA serving past the deadline of 5,000 requests queued behind
    it: each is handed the slot and gives it straight back from inside
    the release that handed it over."""
    program = {"fpgas": 1, "remote": False, "slow": [], "load": 1.0,
               "requests": 1, "burst": 5001, "hedged": 0.0,
               "deadlines": 1.0, "budget": 0.01, "traced": False,
               "seed": 0}
    new = run_pool(program, reference=False)
    assert new["deadline_drops"] == 5000
    assert_same(new, run_pool(program, reference=True))
