"""A3 — ablation: failure handling, torus rerouting vs LTL pool (§V-C).

"Failure handling in the torus can be quite challenging and impact
latency as packets need to be dynamically rerouted around a faulty FPGA
at the cost of extra network hops and latency.  LTL on the other hand
shares the existing datacenter networking infrastructure ... Failure
handling also becomes much simpler in this case as there is an abundance
of spare accessible nodes/FPGAs."

Nodes fail progressively.  In the torus, mean latency between survivors
climbs and some nodes become unreachable; in the Configurable Cloud, the
HaaS pool replaces failed FPGAs and latency is unchanged (the
replacement is just another node on the same Ethernet).
"""

import random
import statistics

from ..core.cloud import ConfigurableCloud
from ..fpga.reconfig import Image
from ..haas import Constraints, ServiceManager
from ..net import TopologyConfig, idle
from ..torus import TorusLatencyModel, TorusTopology
from .harness import Table, claim, fmt

TITLE = "failure handling: torus vs Configurable Cloud (§V-C)"

FAILURE_COUNTS = (0, 2, 4, 8)


def torus_under_failures():
    rng = random.Random(5)
    rows = []
    for failures in FAILURE_COUNTS:
        torus = TorusTopology()
        victims = rng.sample(range(48), failures)
        for node in victims:
            torus.fail_node(node)
        model = TorusLatencyModel(torus)
        rtts = model.all_pair_round_trips()
        survivors = [n for n in range(48) if n not in victims]
        rows.append({
            "failures": failures,
            "mean_rtt_us": 1e6 * statistics.mean(rtts),
            "max_rtt_us": 1e6 * max(rtts),
            "mean_reachable": statistics.mean(
                model.reachable_count(n) for n in survivors),
        })
    return rows


def cloud_under_failures():
    cloud = ConfigurableCloud(
        topology=TopologyConfig(background=idle()), seed=44)
    cloud.add_server(100, enroll=False)
    cloud.add_servers(list(range(12)))
    sm = ServiceManager(cloud.env, "svc", cloud.resource_manager,
                        Image("svc-v1", "role"), Constraints(count=1))
    sm.grow(4)
    cloud.run(until=2.0)

    rows = []
    rng = random.Random(6)
    failed = 0
    for failures in FAILURE_COUNTS:
        while failed < failures:
            victim = rng.choice(sm.hosts)
            cloud.resource_manager.manager(victim).mark_failed()
            # Let the replacement land before the next victim is drawn.
            cloud.run(until=cloud.env.now)
            failed += 1
        cloud.run(until=cloud.env.now + 1.0)
        # Measure RTT to each serving FPGA from the client.
        rtts = []
        for host in sm.hosts:
            rtts.extend(cloud.measure_ltl_rtt(100, host, messages=10))
        rows.append({
            "failures": failures,
            "mean_rtt_us": 1e6 * statistics.mean(rtts),
            "serving": len(sm.hosts),
            "replacements": sm.stats.replacements,
        })
    return rows


def run():
    return torus_under_failures(), cloud_under_failures()


def rows(result):
    torus_rows, cloud_rows = result
    return [
        Table("A3a — torus under node failures",
              ("failures", "mean RTT us", "max RTT us", "mean reachable"),
              [(r["failures"], fmt(r["mean_rtt_us"]), fmt(r["max_rtt_us"]),
                fmt(r["mean_reachable"], 1)) for r in torus_rows]),
        Table("A3b — Configurable Cloud + HaaS under node failures",
              ("failures", "mean RTT us", "serving FPGAs", "replacements"),
              [(r["failures"], fmt(r["mean_rtt_us"]), r["serving"],
                r["replacements"]) for r in cloud_rows])]


def check(result) -> None:
    torus_rows, cloud_rows = result
    # Torus: latency grows and reachability shrinks with failures.
    claim('torus_rows[-1]["mean_rtt_us"] > torus_rows[0]["mean_rtt_us"]',
          'torus_rows[-1]["mean_reachable"] < '
          'torus_rows[0]["mean_reachable"]')
    # Cloud: service keeps 4 FPGAs serving throughout, replacements
    # happened, and latency stays flat (within same-pod variation).
    claim('all(r["serving"] == 4 for r in cloud_rows)',
          'cloud_rows[-1]["replacements"] == FAILURE_COUNTS[-1]')
    spread = max(r["mean_rtt_us"] for r in cloud_rows) / \
        min(r["mean_rtt_us"] for r in cloud_rows)
    claim("spread < 1.5")
