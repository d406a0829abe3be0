#!/usr/bin/env python3
"""Hardware-as-a-Service management (paper §V-F, Fig. 13).

Builds a pool of FPGA-equipped servers, runs two hardware services under
the Resource Manager / Service Manager / FPGA Manager model, exercises
elastic grow/shrink as demand changes, and demonstrates failure handling:
"failing nodes are removed from the pool with replacements quickly
added."

Run:  python examples/haas_management.py
"""

from repro import ConfigurableCloud
from repro.fpga import Image
from repro.haas import Constraints, Locality, ServiceManager


def main() -> None:
    cloud = ConfigurableCloud(seed=11)
    # A rack of donated FPGAs (hosts 0-9 share a TOR) plus two in the
    # next rack.
    cloud.add_servers(list(range(10)) + [24, 25])
    rm = cloud.resource_manager
    print(f"pool: {rm.pool_size} FPGAs registered")

    # Service A: a DNN ensemble needing 2 co-located FPGAs per component.
    dnn = ServiceManager(
        cloud.env, "dnn-serving", rm, Image("dnn-v1", "dnn"),
        Constraints(count=2, locality=Locality.SAME_TOR))
    dnn.grow(2)

    # Service B: ranking feature extraction, singles, anywhere.
    ranking = ServiceManager(
        cloud.env, "ranking-ffu", rm, Image("ffu-v3", "ffu"),
        Constraints(count=1))
    ranking.grow(3)

    cloud.run(until=2.0)  # let partial reconfigurations finish
    print(f"dnn-serving  components={len(dnn.leases)} "
          f"hosts={dnn.hosts}")
    print(f"ranking-ffu  components={len(ranking.leases)} "
          f"hosts={ranking.hosts}")
    print(f"free pool: {sorted(rm.free_hosts())}")

    # Live image check on one allocated node.
    host = dnn.hosts[0]
    print(f"host {host} live image: "
          f"{cloud.shell(host).configuration.live_image.name}")

    # Demand drops: ranking gives a component back to the pool.
    ranking.shrink(1)
    cloud.run(until=cloud.env.now + 0.1)  # the release reaches the RM
    print(f"\nafter shrink: ranking hosts={ranking.hosts}, "
          f"free={sorted(rm.free_hosts())}")

    # A board dies: the RM revokes its lease; the SM replaces it.
    victim = dnn.hosts[0]
    rm.manager(victim).mark_failed()
    cloud.run(until=cloud.env.now + 2.0)
    print(f"\nhost {victim} failed -> dnn-serving now on {dnn.hosts} "
          f"(replacements={dnn.stats.replacements})")
    print(f"free pool: {sorted(rm.free_hosts())} "
          f"(failed node excluded)")


if __name__ == "__main__":
    main()
