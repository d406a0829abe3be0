"""The scale sweep's runner and its analytic cross-TOR path.

The path-model checks are oracles: each floor is summed by hand from
``LatencyModel`` values.  Hypothesis draws ping workloads over L0, L1 and
L2 pairs (unique sources, 1-4 messages each) and checks the one-world
runner on them: every ping is answered, a repeated run gives the same
digest, the reference sends nothing down the analytic path, and a
workload with no cross-TOR traffic runs bit for bit as the reference.
"""

import itertools
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scale import (
    BoundaryPathModel,
    PingTask,
    ks_distance,
    run_pings,
    validate_workload,
)
from repro.net.topology import TopologyConfig

CONFIG = TopologyConfig()
#: A few pods, so tasks share pods and TORs.
PODS = 6

slots = st.integers(0, CONFIG.hosts_per_tor - 1)
tors = st.integers(0, CONFIG.tors_per_pod - 1)
pods = st.integers(0, PODS - 1)


def _host(pod: int, tor: int, slot: int) -> int:
    return pod * CONFIG.hosts_per_pod + tor * CONFIG.hosts_per_tor + slot


def _same_pod_floor() -> float:
    lat = CONFIG.latency
    return (2 * lat.host_tor_distance_m / 2.0e8
            + 2 * lat.tor_l1_distance_m / 2.0e8
            + 2 * lat.tor_latency + lat.l1_latency)


class TestBoundaryPathModel:
    def test_same_pod_floor(self):
        model = BoundaryPathModel(CONFIG, 0)
        for a, b in ((0, 30), (24, 900), (_host(3, 0, 5), _host(3, 39, 0))):
            assert model.min_delay(a, b) == \
                pytest.approx(_same_pod_floor(), rel=1e-12)

    def test_cross_pod_floor_crosses_l2(self):
        """A cross-pod path adds the L2 switch and both pods' fiber runs
        to the same-pod floor."""
        for seed in (0, 7):
            model = BoundaryPathModel(CONFIG, seed)
            for pa, pb in itertools.permutations((0, 1, 5, 200), 2):
                floor = model.min_delay(_host(pa, 0, 0), _host(pb, 3, 1))
                assert floor > _same_pod_floor() + CONFIG.latency.l2_latency

    def test_sampled_delay_never_undercuts_floor(self):
        model = BoundaryPathModel(CONFIG, 1, rng=random.Random(42))
        for a, b in itertools.permutations((0, 30, 5000, 100_000), 2):
            for size in (64, 256, 1500):
                assert model.delay(a, b, size) >= model.min_delay(a, b)

    def test_same_tor_pair_rejected(self):
        model = BoundaryPathModel(CONFIG, 0)
        with pytest.raises(ValueError, match="share a TOR"):
            model.min_delay(0, 1)
        with pytest.raises(ValueError, match="share a TOR"):
            model.delay(0, 23, 64)


def test_workload_validation_rejects_duplicate_sources():
    with pytest.raises(ValueError, match="only one PingTask"):
        validate_workload([PingTask(src=0, dst=30),
                           PingTask(src=0, dst=48)])


#: Small integers, so the two samples share values (ties).
samples = st.lists(st.integers(0, 20).map(float), min_size=1, max_size=40)


@given(a=samples, b=samples)
@settings(max_examples=100, deadline=None)
def test_ks_distance_is_largest_cdf_gap(a, b):
    """Against the definition: the largest gap between the two
    empirical CDFs, evaluated at every sample value."""
    xs, ys = sorted(a), sorted(b)
    gaps = [abs(bisect_right(xs, v) / len(xs) - bisect_right(ys, v) / len(ys))
            for v in xs + ys]
    assert ks_distance(a, b) == max(gaps)


@st.composite
def ping_tasks(draw, tiers):
    pod, tor, slot = draw(pods), draw(tors), draw(slots)
    tier = draw(st.sampled_from(tiers))
    if tier == "L0":
        dst = _host(pod, tor, draw(slots.filter(lambda s: s != slot)))
    elif tier == "L1":
        dst = _host(pod, draw(tors.filter(lambda t: t != tor)), draw(slots))
    else:
        dst = _host(draw(pods.filter(lambda p: p != pod)), draw(tors),
                    draw(slots))
    return PingTask(src=_host(pod, tor, slot), dst=dst,
                    messages=draw(st.integers(1, 4)))


@st.composite
def workloads(draw):
    """Random L0/L1/L2 mixes, and as often mixes of L0 pairs only."""
    tiers = draw(st.sampled_from((("L0", "L1", "L2"), ("L0",))))
    return draw(st.lists(ping_tasks(tiers), min_size=1, max_size=8,
                         unique_by=lambda task: task.src))


def _rack(host: int) -> int:
    return host // CONFIG.hosts_per_tor


@given(workload=workloads(), seed=st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_one_world_on_random_mixes(workload, seed):
    messages = sum(t.messages for t in workload)
    result = run_pings(workload, seed)
    assert result.total_samples == messages
    assert run_pings(workload, seed).digest == result.digest
    reference = run_pings(workload, seed, analytic=False)
    assert reference.total_samples == messages
    assert reference.analytic_packets == 0
    if all(_rack(t.src) == _rack(t.dst) for t in workload):
        assert result.analytic_packets == 0
        assert result.digest == reference.digest
        assert result.events_processed == reference.events_processed
    else:
        assert result.analytic_packets > 0
