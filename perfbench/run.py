"""Repo benchmark: host wall-clock and simulated fidelity per paper workload.

Run from the repository root::

    python3 perfbench/run.py --workload fabric_idle --seed 0 \
        --seconds 20 --trace 0

One run repeats the workload (each repetition builds a fresh simulated
system from the seed, then runs it) until ``--seconds`` have passed.  A
repetition runs in fixed windows of simulated time; its host time is the
sum over the windows of each window's fastest time across the run's
repetitions.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` repeats untraced for half the time, then runs one more
repetition under cProfile (and, on the fabric workloads, with a
``repro.trace.TraceRecorder`` span on every message) and reports the
per-layer metrics.  The next-to-last line of standard output is a JSON
object of details (every repetition's wall time, the set-up probes, the
tail percentile, the calibration score); the last line is the result::

    {"correct": true, "attempted": ..., "failed": 0, "metrics": {...}}

Every output check and determinism check that fails counts its
operations as failed.  An exception exits non-zero, naming the
workload, without printing a result.  ``perfbench/README.md`` defines
every metric and workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Fresh interpreters started per run to time set-up.
SETUP_PROBES = 8
#: Repetitions a run makes even when ``--seconds`` is already spent.
MIN_REPS = 3
#: Simulated counters that must repeat exactly for a given seed.
DETERMINISTIC = ("sim.events", "ltl.frames_sent", "net.drops",
                 "router.cycles")
#: Samples the tail percentile must leave beyond it.
TAIL_BEYOND = 10


def calibrate(rounds: int = 5) -> float:
    """Best-of-``rounds`` seconds for a fixed pure-Python loop: a host
    speed score recorded beside the metrics, rescaling none of them."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        table = {}
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[acc & 0xFFF] = i
        sorted(table.values())
        best = min(best, time.perf_counter() - start)
    return best


def probe_setup(workload: str, seed: int, size) -> float:
    """Set-up seconds of one fresh interpreter: start, ``import repro``,
    build the simulated system, stop before its first event."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--probe-setup", repr(time.monotonic())]
    if size is not None:
        cmd += ["--size", str(size)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if done.returncode:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def tail(latencies):
    """Value, percentile and sample count of the highest percentile that
    still has ``TAIL_BEYOND`` samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} latency samples; need more than {TAIL_BEYOND}")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def timed(slices):
    """Host seconds of every window a repetition's ``slices`` runs."""
    times = []
    start = time.perf_counter()
    for _ in slices:
        now = time.perf_counter()
        times.append(now - start)
        start = now
    times.append(time.perf_counter() - start)
    return times


def signature(outcome):
    """What two repetitions with one seed must agree on exactly."""
    counters = {name: outcome.counters[name] for name in DETERMINISTIC
                if name in outcome.counters}
    return (counters, statistics.median(outcome.latencies_us),
            tail(outcome.latencies_us)[0])


class Run:
    """Repetitions of one workload at one seed, with their checks."""

    def __init__(self, workloads, args):
        self.workloads = workloads
        self.args = args
        #: Host seconds of every window, per untraced repetition.
        self.reps = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = None

    def once(self, recorder=None, profile=None):
        """Build, time and check one repetition."""
        args = self.args
        workload = self.workloads.build(args.workload, args.seed, args.size,
                                        recorder=recorder)
        gc.collect()
        if profile is not None:
            profile.enable()
        times = timed(workload.slices())
        if profile is not None:
            profile.disable()
        outcome = workload.outcome()
        failed = outcome.failed
        self.problems += outcome.problems
        if not outcome.latencies_us:
            raise RuntimeError("no operation completed")
        if self.first is None:
            self.first = outcome
        elif signature(outcome) != signature(self.first):
            failed = outcome.attempted
            self.problems.append(
                f"repetition {len(self.reps)} disagrees with the first: "
                f"{signature(outcome)} != {signature(self.first)}")
        self.attempted += outcome.attempted
        self.failed += failed
        return times, outcome

    def repeat(self, seconds: float, between=None) -> None:
        """Repeat for ``seconds``; ``between(elapsed)`` runs before each
        repetition."""
        start = time.monotonic()
        while (len(self.reps) < MIN_REPS
               or time.monotonic() - start < seconds):
            if between is not None:
                between(time.monotonic() - start)
            times, _outcome = self.once()
            self.reps.append(times)

    def best_wall(self) -> float:
        """Host seconds of one repetition: each window's fastest time
        across the repetitions, summed.

        Other tenants of the host only ever add time, in bursts far
        shorter than a repetition, so the fastest time of each window
        is the steady estimate of its cost.  The first repetition warms
        caches and lazy imports; it is checked but not timed.
        """
        return sum(min(window) for window in zip(*self.reps[1:]))


def end_to_end(workloads, args, detail):
    run = Run(workloads, args)
    setups = []

    def probe(elapsed: float) -> None:
        # Spread the probes over the run so they see every phase of the
        # host's load, not one.
        due = len(setups) * args.seconds / SETUP_PROBES
        if len(setups) < SETUP_PROBES and elapsed >= due:
            setups.append(probe_setup(args.workload, args.seed, args.size))

    run.repeat(args.seconds, probe)
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(args.workload, args.seed, args.size))
    p50 = statistics.median(run.first.latencies_us)
    tail_us, percentile, samples = tail(run.first.latencies_us)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    detail.update(setup_probes_s=setups,
                  walls_s=[sum(times) for times in run.reps],
                  tail_percentile=percentile, tail_samples=samples,
                  tail_beyond=TAIL_BEYOND)
    metrics = {
        "wall_s": (run.best_wall(), "s"),
        "setup_s": (min(setups), "s"),
        "peak_mem_mb": (peak_mb, "MB"),
        "op_ok_frac": (1.0 - run.failed / run.attempted, "frac"),
        "sim_p50_us": (p50, "us"),
        "sim_tail_us": (tail_us, "us"),
    }
    return run, metrics


def per_layer(workloads, args, detail):
    import cProfile
    import pstats

    import layers
    from repro import TraceRecorder

    run = Run(workloads, args)
    run.repeat(args.seconds / 2)
    recorder = (TraceRecorder() if args.workload.startswith("fabric_")
                else None)
    profile = cProfile.Profile()
    times, outcome = run.once(recorder=recorder, profile=profile)
    traced_wall = sum(times)
    report = recorder.report() if recorder is not None else None
    metrics = layers.per_layer(pstats.Stats(profile).stats, outcome.counters,
                               outcome.attempted, report)
    metrics["trace_overhead"] = (traced_wall / run.best_wall(), "ratio")
    detail.update(walls_s=[sum(times) for times in run.reps],
                  traced_wall_s=traced_wall,
                  trace_spans=report.spans if report is not None else 0)
    return run, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None,
                        help="work per repetition (default: the "
                        "workload's own; the smoke test uses tiny sizes)")
    parser.add_argument("--probe-setup", type=float, default=None,
                        metavar="T0", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads
        if args.workload not in workloads.WORKLOADS:
            raise ValueError(f"unknown workload {args.workload!r}; choose "
                             f"from {sorted(workloads.WORKLOADS)}")
        if args.probe_setup is not None:
            workloads.build(args.workload, args.seed, args.size)
            print(repr(time.monotonic() - args.probe_setup))
            return 0
        detail = {"workload": args.workload, "seed": args.seed,
                  "model_seed": workloads.BASE_SEEDS[args.workload]
                  + args.seed,
                  "python": platform.python_version(),
                  "calibration_s": calibrate()}
        measure = per_layer if args.trace else end_to_end
        run, metrics = measure(workloads, args, detail)
    except Exception:  # noqa: BLE001 - report which workload broke
        traceback.print_exc()
        print(f"perfbench: workload {args.workload} failed", file=sys.stderr)
        return 1
    detail.update(problems=run.problems[:20], repetitions=len(run.reps))
    print(json.dumps(detail))
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
