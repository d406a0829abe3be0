"""The shard window protocol on random ping mixes.

Hypothesis draws ping workloads over L0, L1 and L2 pairs (unique
sources, 1-4 messages each) and runs them at 1-8 shards.  A seam
arrival scheduled in a world's past makes ``Environment.call_at`` raise,
so a run that finishes has kept every arrival at or after its window.
Every ping must be answered, every packet that left a world must arrive
in another, and a repeated run must give the same per-shard digests.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.topology import TopologyConfig
from repro.sim.shard import PingTask, ShardDriver

CONFIG = TopologyConfig()
#: A few pods, so tasks share pods and TORs and the plans split pods.
PODS = 6

slots = st.integers(0, CONFIG.hosts_per_tor - 1)
tors = st.integers(0, CONFIG.tors_per_pod - 1)
pods = st.integers(0, PODS - 1)


def _host(pod: int, tor: int, slot: int) -> int:
    return pod * CONFIG.hosts_per_pod + tor * CONFIG.hosts_per_tor + slot


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


workloads = st.lists(ping_tasks(), min_size=1, max_size=8,
                     unique_by=lambda task: task.src)


def _digests(result):
    return [s["digest"] for s in result.per_shard]


@given(workload=workloads, num_shards=st.integers(1, 8),
       seed=st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_window_protocol_on_random_mixes(workload, num_shards, seed):
    result = ShardDriver(seed=seed, num_shards=num_shards).run(workload)
    assert result.total_samples == sum(t.messages for t in workload)
    sent = sum(s["boundary_sent"] for s in result.per_shard)
    received = sum(s["boundary_received"] for s in result.per_shard)
    assert sent == received
    if result.plan.num_shards == 1:
        assert sent == 0
    again = ShardDriver(seed=seed, num_shards=num_shards).run(workload)
    assert _digests(again) == _digests(result)
