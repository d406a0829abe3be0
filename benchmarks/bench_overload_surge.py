"""Overload-protection surge benchmark — the ISSUE 6 acceptance gates.

Drives one ranking server through a seeded 5x flash crowd twice — once
with the full overload ladder (deadline propagation, CoDel admission
control, degradation, load shedding) and once with protection disabled
but SLO accounting kept — plus a hedged-vs-plain comparison against a
DNN pool with one limplocked FPGA.  Four gates:

* ``surge goodput >= 85% of pre-surge`` with protection on,
* ``admitted P99 during the surge <= 3x pre-surge P99``,
* ``hedging adds <= 5% backend load`` while cutting the limplock tail,
* the **unprotected** server's surge goodput collapses (< 30% of its
  pre-surge goodput) — the regression guard proving the protected
  numbers are not vacuous.

Run standalone to append a run to the committed trajectory file::

    PYTHONPATH=src python benchmarks/bench_overload_surge.py          # full
    PYTHONPATH=src python benchmarks/bench_overload_surge.py --quick  # CI

``BENCH_overload.json`` keeps a bounded ``history`` of prior runs so the
trajectory across PRs stays in the repo, not in CI logs.
"""

from __future__ import annotations

import argparse
import platform
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.dnn.pool import DnnPool  # noqa: E402
from repro.overload import HedgeConfig, HedgeController  # noqa: E402
from repro.ranking.service import (  # noqa: E402
    AccelerationMode,
    OverloadConfig,
    RankingServiceConfig,
    run_surge,
    saturation_qps,
)
from repro.sim import Environment  # noqa: E402
from repro.workloads import FlashCrowdProfile  # noqa: E402

from _harness import write_result  # noqa: E402

#: The acceptance gates (see module docstring / ISSUE 6).
GOODPUT_RATIO_MIN = 0.85
P99_RATIO_MAX = 3.0
HEDGE_BUDGET_MAX = 0.05
UNPROTECTED_COLLAPSE_MAX = 0.30

#: Offered baseline as a fraction of the server's saturation capacity;
#: the 5x surge then offers 3x capacity — a genuine flash crowd.
BASELINE_LOAD = 0.6
SURGE_MULTIPLIER = 5.0


# ----------------------------------------------------------------------
# Experiments
# ----------------------------------------------------------------------
def surge_config(protected: bool) -> RankingServiceConfig:
    overload = OverloadConfig(protect=protected)
    return RankingServiceConfig(mode=AccelerationMode.LOCAL_FPGA,
                                overload=overload)


def run_surge_pair(seed: int = 0) -> Dict[str, float]:
    """Protected and unprotected runs of the identical flash crowd."""
    capacity = saturation_qps(surge_config(protected=True))
    profile = FlashCrowdProfile(baseline_qps=BASELINE_LOAD * capacity,
                                surge_multiplier=SURGE_MULTIPLIER)

    out: Dict[str, float] = {"capacity_qps": round(capacity, 1)}
    for label, protected in (("protected", True), ("unprotected", False)):
        result = run_surge(surge_config(protected), profile, seed=seed)
        row = result.row()
        pre, surge = result.phases["pre"], result.phases["surge"]
        post = result.phases["post"]
        out[f"{label}_pre_goodput_qps"] = round(pre.goodput_qps, 1)
        out[f"{label}_surge_goodput_qps"] = round(surge.goodput_qps, 1)
        out[f"{label}_post_goodput_qps"] = round(post.goodput_qps, 1)
        out[f"{label}_goodput_ratio"] = round(
            surge.goodput_qps / pre.goodput_qps, 3) \
            if pre.goodput_qps else 0.0
        if pre.latency.count and surge.latency.count:
            out[f"{label}_pre_p99_ms"] = round(pre.latency.p99 * 1e3, 3)
            out[f"{label}_surge_p99_ms"] = round(
                surge.latency.p99 * 1e3, 3)
            out[f"{label}_p99_ratio"] = round(
                surge.latency.p99 / pre.latency.p99, 3)
        out[f"{label}_rejected"] = row["rejected"]
        out[f"{label}_degraded"] = row["degraded"]
        out[f"{label}_deadline_drops"] = row["deadline_drops"]
    return out


def run_hedging(num_requests: int = 2000, load: float = 0.4,
                slow_factor: float = 8.0,
                seed: int = 0) -> Dict[str, float]:
    """Open-loop load on a 4-FPGA DNN pool with one limplocked member,
    plain vs hedged; hedging must cut the tail within its 5% budget."""
    results: Dict[str, float] = {}
    for label in ("plain", "hedged"):
        env = Environment()
        pool = DnnPool(env, num_fpgas=4, rng=random.Random(seed))
        pool.set_slow(0, slow_factor)
        hedge = HedgeController(HedgeConfig())
        mean_service = pool.accelerators[0].mean_service_time
        period = mean_service / (load * pool.num_fpgas)

        def client(env, pool=pool, hedge=hedge, label=label):
            for _ in range(num_requests):
                if label == "hedged":
                    pool.request_hedged(hedge)
                else:
                    pool.request()
                yield env.timeout(period)

        env.process(client(env), name="dnn-load")
        env.run()
        results[f"{label}_p99_ms"] = round(pool.latency.p99 * 1e3, 3)
        results[f"{label}_completed"] = pool.completed
        if label == "hedged":
            extra = pool.backend_served - pool.completed
            results["hedge_fraction"] = round(
                hedge.stats.hedge_fraction, 4)
            results["extra_backend_fraction"] = round(
                extra / pool.completed, 4) if pool.completed else 0.0
            results["hedge_wins"] = hedge.stats.hedge_wins
            results["hedges_suppressed_budget"] = \
                hedge.stats.hedges_suppressed_budget
    results["tail_reduction"] = round(
        1.0 - results["hedged_p99_ms"] / results["plain_p99_ms"], 4)
    return results


def run_suite(quick: bool) -> Dict[str, object]:
    # Below ~1000 requests the 5% budget only buys a handful of hedges
    # and the P99 comparison is seed noise; 1000 is the floor at which
    # the tail reduction is stable across seeds.
    hedge_requests = 1000 if quick else 2000
    surge = run_surge_pair(seed=0)
    hedging = run_hedging(num_requests=hedge_requests, seed=0)
    return {
        "schema": 1,
        "quick": quick,
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "gates": {
            "goodput_ratio_min": GOODPUT_RATIO_MIN,
            "p99_ratio_max": P99_RATIO_MAX,
            "hedge_budget_max": HEDGE_BUDGET_MAX,
            "unprotected_collapse_max": UNPROTECTED_COLLAPSE_MAX,
        },
        "metrics": {**surge, **hedging},
    }


def check_gates(metrics: Dict[str, float]) -> List[str]:
    """Return a list of human-readable gate violations (empty = pass)."""
    failures = []
    if metrics["protected_goodput_ratio"] < GOODPUT_RATIO_MIN:
        failures.append(
            f"protected surge goodput is "
            f"{metrics['protected_goodput_ratio']:.2f}x pre-surge "
            f"(gate: >= {GOODPUT_RATIO_MIN})")
    if metrics["protected_p99_ratio"] > P99_RATIO_MAX:
        failures.append(
            f"protected admitted P99 is "
            f"{metrics['protected_p99_ratio']:.2f}x pre-surge "
            f"(gate: <= {P99_RATIO_MAX})")
    if metrics["extra_backend_fraction"] > HEDGE_BUDGET_MAX:
        failures.append(
            f"hedging added {metrics['extra_backend_fraction']:.1%} "
            f"backend load (gate: <= {HEDGE_BUDGET_MAX:.0%})")
    if metrics["hedge_fraction"] > HEDGE_BUDGET_MAX + 1e-9:
        failures.append(
            f"hedge fraction {metrics['hedge_fraction']:.1%} "
            f"exceeds the {HEDGE_BUDGET_MAX:.0%} budget")
    if metrics["tail_reduction"] <= 0.0:
        failures.append("hedging did not reduce the limplock P99")
    if metrics["unprotected_goodput_ratio"] > UNPROTECTED_COLLAPSE_MAX:
        failures.append(
            f"unprotected surge goodput ratio "
            f"{metrics['unprotected_goodput_ratio']:.2f} did not "
            f"collapse (guard: < {UNPROTECTED_COLLAPSE_MAX}) — the "
            f"protected gates are vacuous")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads (CI smoke)")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_overload.json",
                        help="result/trajectory file to write")
    args = parser.parse_args(argv)

    result = run_suite(quick=args.quick)
    for name, value in sorted(result["metrics"].items()):
        print(f"{name:>32}: {value}")
    failures = check_gates(result["metrics"])
    write_result(result, args.output)
    print(f"wrote {args.output}")
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}")
        return 1
    print("all overload gates passed")
    return 0


# ----------------------------------------------------------------------
# pytest gates (the acceptance criteria, asserted)
# ----------------------------------------------------------------------
def test_overload_gates():
    result = run_suite(quick=True)
    metrics = result["metrics"]
    assert check_gates(metrics) == []
    # The protection actually worked, not just relative to a broken
    # baseline: absolute surge goodput beats the unprotected server's.
    assert metrics["protected_surge_goodput_qps"] > \
        10 * metrics["unprotected_surge_goodput_qps"]


if __name__ == "__main__":
    raise SystemExit(main())
