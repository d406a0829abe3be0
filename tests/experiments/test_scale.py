"""The scale sweep's runner on the real fabric, and the sweep's workload.

A fixed Fig. 10-style workload checks that every ping is answered, the
tiers keep their order, and the sample digest is a pure function of
(workload, seed).  The ``scale`` entry's 512-pair workload is checked
without a simulation: each pair lies in the tier it is built for.
Hypothesis draws ping workloads over L0, L1 and L2 pairs (unique
sources, 1-4 messages each) and checks the same runner on them: every
ping is answered and a repeated run gives the same digest.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import scale
from repro.experiments.scale import PingTask, run_pings, validate_workload
from repro.net.topology import ThreeTierTopology, TopologyConfig
from repro.sim.kernel import Environment

CONFIG = TopologyConfig()
#: A few pods, so tasks share pods and TORs.
PODS = 6

slots = st.integers(0, CONFIG.hosts_per_tor - 1)
tors = st.integers(0, CONFIG.tors_per_pod - 1)
pods = st.integers(0, PODS - 1)

# Fig. 10-style sample: one L0 pair alone in its rack, two same-pod
# cross-TOR pairs, two cross-pod pairs — all tiers exercised.
WORKLOAD = [
    PingTask(src=0, dst=1, messages=40),            # L0, same rack
    PingTask(src=24, dst=60, messages=40),          # L1, cross rack
    PingTask(src=48, dst=90, messages=40),          # L1, cross rack
    PingTask(src=26, dst=5_000, messages=40),       # L2, cross pod
    PingTask(src=25, dst=100_000, messages=40),     # L2, cross pod
]
SEED = 11


def _host(pod: int, tor: int, slot: int) -> int:
    return pod * CONFIG.hosts_per_pod + tor * CONFIG.hosts_per_tor + slot


@pytest.fixture(scope="module")
def result():
    return run_pings(WORKLOAD, SEED)


def test_every_ping_is_answered(result):
    counts = {tier: recorder.count for tier, recorder in result.tiers.items()}
    assert counts == {"L0": 40, "L1": 80, "L2": 80}


def test_tier_ordering_preserved(result):
    tiers = result.tiers
    assert tiers["L0"].mean < tiers["L1"].mean < tiers["L2"].mean


def test_digest_stable_across_runs(result):
    again = run_pings(WORKLOAD, SEED)
    assert again.digest == result.digest
    for tier, recorder in again.tiers.items():
        assert recorder.samples == result.tiers[tier].samples


def test_different_seed_changes_digests(result):
    assert run_pings(WORKLOAD, SEED + 1).digest != result.digest


def test_empty_workload_rejected():
    with pytest.raises(ValueError, match="empty workload"):
        run_pings([])


def test_workload_validation_rejects_duplicate_sources():
    with pytest.raises(ValueError, match="only one PingTask"):
        validate_workload([PingTask(src=0, dst=30),
                           PingTask(src=0, dst=48)])


def test_sweep_pairs_lie_in_their_tiers():
    """The ``scale`` entry's workload, built but not run: its L0, L1 and
    L2 pairs lie in those tiers, each source sends once, and the hosts
    span the fabric from its first index to near its top."""
    workload = scale.build_workload(CONFIG)
    topology = ThreeTierTopology(Environment(), CONFIG)
    assert [topology.tier_between(t.src, t.dst) for t in workload] == \
        ["L0"] * scale.L0_PAIRS + ["L1"] * scale.L1_PAIRS + \
        ["L2"] * scale.L2_PAIRS
    sources = [t.src for t in workload]
    assert len(set(sources)) == len(sources) == 512
    hosts = set(sources) | {t.dst for t in workload}
    assert (min(hosts), max(hosts), CONFIG.total_hosts) == \
        (0, 253_353, 253_440)
    assert {t.messages for t in workload} == {scale.MESSAGES}


@st.composite
def ping_tasks(draw):
    pod, tor, slot = draw(pods), draw(tors), draw(slots)
    tier = draw(st.sampled_from(("L0", "L1", "L2")))
    if tier == "L0":
        dst = _host(pod, tor, draw(slots.filter(lambda s: s != slot)))
    elif tier == "L1":
        dst = _host(pod, draw(tors.filter(lambda t: t != tor)), draw(slots))
    else:
        dst = _host(draw(pods.filter(lambda p: p != pod)), draw(tors),
                    draw(slots))
    return PingTask(src=_host(pod, tor, slot), dst=dst,
                    messages=draw(st.integers(1, 4)))


#: Random L0/L1/L2 mixes.
workloads = st.lists(ping_tasks(), min_size=1, max_size=8,
                     unique_by=lambda task: task.src)


@given(workload=workloads, seed=st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_one_world_on_random_mixes(workload, seed):
    result = run_pings(workload, seed)
    assert result.total_samples == sum(t.messages for t in workload)
    assert run_pings(workload, seed).digest == result.digest
