"""Scale benchmark: a Fig. 10-style idle-RTT sweep over the full fabric.

Runs ``repro.experiments.scale.run_pings`` over the paper's full-size
fabric (253,440 reachable hosts — "more than a quarter million"), every
packet on the real fabric end to end.  Gates:

* **scale** — the swept fabric must reach 100k+ hosts,
* **coverage** — every tier (L0, L1, L2) must produce samples,
* **calibration** — the L2 tier must stay inside the paper's envelope
  ("L2 latency never exceeded 23.5 us in any of our experiments"),
* **determinism** — a second run of the same sweep must give a
  bit-identical sample digest.

Run standalone to append a run to the committed trajectory file::

    PYTHONPATH=src python benchmarks/bench_scale.py          # full
    PYTHONPATH=src python benchmarks/bench_scale.py --quick  # CI smoke

``BENCH_scale.json`` keeps a bounded ``history`` of prior runs so the
trajectory across PRs stays in the repo, not in CI logs.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.scale import PingTask, run_pings  # noqa: E402
from repro.net.topology import TopologyConfig  # noqa: E402

from _harness import write_result  # noqa: E402

#: Paper: "L2 latency never exceeded 23.5 us in any of our experiments."
L2_MAX_SECONDS = 23.5e-6
#: The sweep must cover the paper's >100k-host scale.
MIN_REACHABLE_HOSTS = 100_000

SEED = 17


def build_workload(l0_pairs: int, l1_pairs: int, l2_pairs: int,
                   messages: int,
                   config: TopologyConfig) -> List[PingTask]:
    """A deterministic Fig. 10-style pair sample across all tiers.

    L0 pairs share rack (0, 0); L1 pairs are cross-rack within a pod
    (pods 1..); L2 pairs stride across the full pod range so the sweep
    touches hosts from index 0 to the top of the 253k-host fabric.
    """
    per_pod = config.hosts_per_pod
    per_tor = config.hosts_per_tor
    tasks: List[PingTask] = []
    for i in range(l0_pairs):
        tasks.append(PingTask(src=2 * i, dst=2 * i + 1, messages=messages))
    pairs_per_pod = config.tors_per_pod // 2
    for i in range(l1_pairs):
        pod = 1 + i // pairs_per_pod
        rack = 2 * (i % pairs_per_pod)
        tasks.append(PingTask(
            src=pod * per_pod + rack * per_tor,
            dst=pod * per_pod + (rack + 1) * per_tor + 1,
            messages=messages))
    for i in range(l2_pairs):
        # Within-rack offsets 8/9 keep L2 endpoints clear of the L0/L1
        # hosts above; (pod, rack) combos repeat only after
        # lcm(pods/2, tors_per_pod) pairs, far beyond the sweep size.
        src_pod = (2 * i) % config.pods
        dst_pod = (2 * i + 1) % config.pods
        src = src_pod * per_pod + (i % config.tors_per_pod) * per_tor + 8
        dst = dst_pod * per_pod + \
            ((i + 13) % config.tors_per_pod) * per_tor + 9
        tasks.append(PingTask(src=src, dst=dst, messages=messages))
    sources = [t.src for t in tasks]
    assert len(sources) == len(set(sources)), "source hosts must be unique"
    return tasks


def run_suite(quick: bool = False) -> Dict[str, object]:
    config = TopologyConfig()
    if quick:
        workload = build_workload(2, 4, 6, messages=30, config=config)
    else:
        workload = build_workload(4, 48, 460, messages=40, config=config)

    t0 = time.time()
    result = run_pings(workload, SEED)
    wall = time.time() - t0

    # Determinism gate: a second run of the same spec must produce a
    # bit-identical digest.
    digests_stable = run_pings(workload, SEED).digest == result.digest

    metrics: Dict[str, object] = {
        "hosts_reachable": config.total_hosts,
        "hosts_active": len({t.src for t in workload}
                            | {t.dst for t in workload}),
        "pairs": len(workload),
        "events_processed": result.events_processed,
        "rtt_samples": result.total_samples,
        "wall_s": round(wall, 3),
        "digests_stable": bool(digests_stable),
        "digest": result.digest,
        "cpu_count": os.cpu_count(),
    }
    for tier, recorder in sorted(result.tiers.items()):
        metrics[f"{tier}_count"] = recorder.count
        if recorder.count:
            metrics[f"{tier}_p50_us"] = round(recorder.p50 * 1e6, 4)
            metrics[f"{tier}_p99_us"] = round(recorder.p99 * 1e6, 4)
            metrics[f"{tier}_max_us"] = round(recorder.max * 1e6, 4)
    return {
        "schema": 1,
        "quick": quick,
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "gates": {
            "l2_max_us": L2_MAX_SECONDS * 1e6,
            "min_reachable_hosts": MIN_REACHABLE_HOSTS,
        },
        "metrics": metrics,
    }


def check_gates(metrics: Dict[str, object]) -> List[str]:
    failures: List[str] = []
    if metrics["hosts_reachable"] < MIN_REACHABLE_HOSTS:
        failures.append(
            f"fabric spans {metrics['hosts_reachable']} hosts "
            f"(gate: >= {MIN_REACHABLE_HOSTS})")
    for tier in ("L0", "L1", "L2"):
        if f"{tier}_p50_us" not in metrics:
            failures.append(f"tier {tier} produced no samples")
    if "L2_max_us" in metrics and \
            metrics["L2_max_us"] > L2_MAX_SECONDS * 1e6:
        failures.append(
            f"L2 max {metrics['L2_max_us']:.2f} us exceeds the paper's "
            f"{L2_MAX_SECONDS * 1e6:.1f} us envelope")
    if not metrics["digests_stable"]:
        failures.append("the digest changed between identical runs — "
                        "determinism is broken")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweep (CI smoke)")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_scale.json",
                        help="result/trajectory file to write")
    args = parser.parse_args(argv)

    result = run_suite(quick=args.quick)
    for name, value in sorted(result["metrics"].items()):
        print(f"{name:>24}: {value}")
    failures = check_gates(result["metrics"])
    write_result(result, args.output)
    print(f"wrote {args.output}")
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}")
        return 1
    print("all scale gates passed")
    return 0


# ----------------------------------------------------------------------
# pytest gates (the acceptance criteria, asserted)
# ----------------------------------------------------------------------
def test_scale_gates():
    result = run_suite(quick=True)
    metrics = result["metrics"]
    assert check_gates(metrics) == []


if __name__ == "__main__":
    sys.exit(main())
