#!/usr/bin/env python3
"""Where does a remote-FPGA microsecond actually go?

Rides a traced request stream over the full acceleration datapath
(role -> Elastic Router -> LTL -> shell MAC -> TOR -> remote role) with
:mod:`repro.trace` and prints the per-hop P50/P99/P99.9 decomposition,
residual included, then the exact tap trail of a few sampled requests.

Run:  python examples/latency_breakdown.py
"""

from repro import ConfigurableCloud, Stage, TraceRecorder

SEED = 0
MESSAGES = 400
PAYLOAD_BYTES = 256
GAP_SECONDS = 20e-6
#: Simulated role compute per request on the receiving FPGA.
ROLE_SERVICE_SECONDS = 1.2e-6


def run_full_path():
    """One-way requests from host 0's role to host 1's, paced on an idle
    network; each span closes after the receiving role's compute."""
    cloud = ConfigurableCloud(seed=SEED)
    cloud.add_server(0, enroll=False)
    cloud.add_server(1, enroll=False)
    cloud.connect(0, 1)
    env, sender = cloud.env, cloud.shell(0)
    recorder = TraceRecorder(sample_rate=0.02, seed=SEED)

    def serve(ctx, _length):
        def finish():
            ctx.tap(Stage.ROLE_SERVICE, env.now)
            recorder.complete(ctx, env.now)
        env.call_later(ROLE_SERVICE_SECONDS, finish)

    cloud.shell(1).role_receive = serve

    def driver(env):
        for i in range(MESSAGES):
            ctx = recorder.start(env.now, request_id=i)
            sender.remote_send(1, ctx, PAYLOAD_BYTES, trace=ctx)
            yield env.timeout(GAP_SECONDS)

    env.process(driver(env))
    env.run(until=MESSAGES * GAP_SECONDS + 10e-3)
    return recorder.report()


def main() -> None:
    full = run_full_path()
    print("Per-hop latency attribution, full datapath "
          f"({full.spans} one-way requests):\n")
    print(full.format_table())

    # A few captured spans: the exact tap trail of individual requests.
    print("\nSampled span forensics (first 2 captured spans):")
    for span in full.sampled_spans[:2]:
        trail = " -> ".join(
            f"{stage}:{duration * 1e6:.2f}us"
            for stage, duration in span.durations())
        print(f"  request {span.request_id}: {trail}")


if __name__ == "__main__":
    main()
