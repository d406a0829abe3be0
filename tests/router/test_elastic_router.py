"""Tests for the Elastic Router crossbar."""

import pytest

from repro.router import ElasticRouter, packetize
from repro.router.flit import Message
from repro.sim import Environment


def make_router(env, **kwargs):
    defaults = dict(num_ports=4, num_vcs=2, credits_per_port=8)
    defaults.update(kwargs)
    return ElasticRouter(env, **defaults)


class TestPacketize:
    def test_single_flit_message(self):
        msg = Message(src_port=0, dst_port=1, vc=0, payload="x",
                      length_bytes=16)
        flits = packetize(msg, flit_bytes=32)
        assert len(flits) == 1
        assert flits[0].is_head and flits[0].is_tail

    def test_multi_flit_message(self):
        msg = Message(src_port=0, dst_port=1, vc=0, payload="x",
                      length_bytes=100)
        flits = packetize(msg, flit_bytes=32)
        assert len(flits) == 4
        assert flits[0].is_head and not flits[0].is_tail
        assert flits[-1].is_tail and not flits[-1].is_head
        assert all(not f.is_head and not f.is_tail for f in flits[1:-1])

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            Message(src_port=0, dst_port=1, vc=0, payload="", length_bytes=0)

    def test_bad_flit_size_rejected(self):
        msg = Message(src_port=0, dst_port=1, vc=0, payload="x",
                      length_bytes=8)
        with pytest.raises(ValueError):
            packetize(msg, flit_bytes=0)


class TestDelivery:
    def test_point_to_point(self):
        env = Environment()
        router = make_router(env)
        got = []
        router.set_endpoint(2, lambda m: got.append(m.payload))
        router.send(0, 2, "hello", 64)
        env.run()
        assert got == ["hello"]

    def test_u_turn_supported(self):
        env = Environment()
        router = make_router(env)
        got = []
        router.set_endpoint(1, lambda m: got.append(m.payload))
        router.send(1, 1, "loop", 32)
        env.run()
        assert got == ["loop"]

    def test_no_message_loss_under_load(self):
        env = Environment()
        router = make_router(env)
        got = []
        for p in range(4):
            router.set_endpoint(p, lambda m, p=p: got.append(m))
        count = 0
        for src in range(4):
            for dst in range(4):
                for i in range(5):
                    router.send(src, dst, f"{src}->{dst}#{i}", 96,
                                vc=i % 2)
                    count += 1
        env.run()
        assert len(got) == count
        assert router.stats.messages_delivered == count

    def test_per_vc_ordering_preserved(self):
        """Messages on the same (src, dst, vc) must arrive in order."""
        env = Environment()
        router = make_router(env)
        got = []
        router.set_endpoint(3, lambda m: got.append(m.payload))
        for i in range(10):
            router.send(1, 3, i, 64, vc=0)
        env.run()
        assert got == list(range(10))

    def test_no_interleaving_within_vc(self):
        """Wormhole: a multi-flit message owns its (output, VC) until the
        tail; the router itself raises if messages interleave."""
        env = Environment()
        router = make_router(env, credits_per_port=16)
        got = []
        router.set_endpoint(0, lambda m: got.append(m.payload))
        # Two big messages race from different inputs to the same output/VC.
        router.send(1, 0, "from-1", 320, vc=0)
        router.send(2, 0, "from-2", 320, vc=0)
        env.run()
        assert sorted(got) == ["from-1", "from-2"]

    def test_different_vcs_share_physical_port(self):
        env = Environment()
        router = make_router(env)
        got = []
        router.set_endpoint(0, lambda m: got.append((m.vc, m.payload)))
        router.send(1, 0, "vc0", 160, vc=0)
        router.send(2, 0, "vc1", 160, vc=1)
        env.run()
        assert sorted(got) == [(0, "vc0"), (1, "vc1")]

    def test_send_event_completes_when_buffered(self):
        env = Environment()
        router = make_router(env)
        router.set_endpoint(1, lambda m: None)
        done_at = []
        router.send(0, 1, "payload", 64,
                    on_sent=lambda: done_at.append(env.now))
        env.run()
        assert done_at and done_at[0] > 0

    def test_message_latency_scales_with_size(self):
        def deliver_time(length):
            env = Environment()
            router = make_router(env, credits_per_port=64)
            times = []
            router.set_endpoint(1, lambda m: times.append(env.now))
            router.send(0, 1, "x", length)
            env.run()
            return times[0]

        assert deliver_time(640) > deliver_time(32)

    def test_invalid_port_rejected(self):
        env = Environment()
        router = make_router(env)
        with pytest.raises(ValueError):
            router.send(0, 9, "x", 32)
        with pytest.raises(ValueError):
            router.send(-1, 0, "x", 32)

    def test_invalid_vc_rejected(self):
        env = Environment()
        router = make_router(env)
        with pytest.raises(ValueError):
            router.send(0, 1, "x", 32, vc=5)


class TestFairnessAndStats:
    def test_round_robin_fairness(self):
        """Three inputs hammering one output each get served."""
        env = Environment()
        router = make_router(env, credits_per_port=32)
        got = {1: 0, 2: 0, 3: 0}
        router.set_endpoint(0, lambda m: got.__setitem__(
            m.src_port, got[m.src_port] + 1))
        for i in range(20):
            for src in (1, 2, 3):
                router.send(src, 0, i, 32, vc=0)
        env.run()
        assert all(v == 20 for v in got.values())

    def test_stats_track_flits(self):
        env = Environment()
        router = make_router(env)
        router.set_endpoint(1, lambda m: None)
        router.send(0, 1, "x", 96)  # 3 flits at 32 B
        env.run()
        assert router.stats.flits_switched == 3
        assert router.stats.messages_injected == 1
        assert router.stats.messages_delivered == 1

    def test_peak_occupancy_recorded(self):
        env = Environment()
        router = make_router(env)
        router.set_endpoint(1, lambda m: None)
        for _ in range(4):
            router.send(0, 1, "x", 128)
        env.run()
        assert router.stats.peak_buffer_occupancy > 0

    def test_injection_stalls_counted_when_credits_exhausted(self):
        env = Environment()
        # Tiny credit pool and three inputs converging on one output:
        # buffers back up behind the contended output, exhausting credits.
        router = make_router(env, credits_per_port=2, num_vcs=2)
        router.set_endpoint(3, lambda m: None)
        for _ in range(10):
            for src in (0, 1, 2):
                router.send(src, 3, "x", 256, vc=0)
        env.run()
        assert router.stats.injection_stall_cycles > 0
        assert router.stats.messages_delivered == 30


class TestCreditPolicyAblation:
    def _run(self, policy, num_messages=30):
        """One hot VC on a contended output: buffering depth matters."""
        env = Environment()
        router = make_router(env, credit_policy=policy,
                             credits_per_port=8, num_vcs=4)
        router.set_endpoint(3, lambda m: None)
        # Competing senders keep output 3 busy so input 0's flits queue.
        for _ in range(num_messages):
            router.send(1, 3, "bg", 128, vc=1)
            router.send(2, 3, "bg", 128, vc=2)
        done_times = []

        def hot_sender():
            router.send(0, 3, "hot", 128, vc=0, on_sent=sent)

        def sent():
            done_times.append(env.now)
            if len(done_times) < num_messages:
                hot_sender()

        env.call_later(0.0, hot_sender)
        env.run()
        return done_times, router.stats

    def test_elastic_absorbs_hot_vc_burst_better(self):
        """With equal total buffering, the elastic pool lets the hot VC
        borrow idle VCs' credits: its sender stalls less and hands off
        its burst sooner (the §V-B design rationale)."""
        static_done, static_stats = self._run("static")
        elastic_done, elastic_stats = self._run("elastic")
        assert elastic_stats.injection_stall_cycles < \
            static_stats.injection_stall_cycles
        assert sum(elastic_done) < sum(static_done)


class TestStreamAndHandover:
    """The streamed path, its handover to the per-cycle clock, and the
    latch rule, against the per-cycle reference router."""

    CYCLE = 1.0 / 175e6

    def edge(self, k):
        """The k-th edge of a clock started at time zero."""
        t = 0.0
        for _ in range(k):
            t += self.CYCLE
        return t

    def handover_mid_message(self, router_cls):
        env = Environment()
        router = router_cls(env, num_ports=4, num_vcs=2, credits_per_port=8)
        got = []
        router.set_endpoint(2, lambda m: got.append((m.payload, env.now)))
        router.send(0, 2, "long", 320, vc=0)   # 10 flits of 32 B
        # A second port cuts in at 4.5 cycles, to the same output and VC.
        env.call_at(4.5 * self.CYCLE, router.send, 1, 2, "cut-in", 64, 0)
        env.run()
        return got, router.stats, router._rr

    def test_handover_mid_message_keeps_wormhole_and_times(self):
        from .reference_router import ReferenceRouter
        got, stats, rr = self.handover_mid_message(make_router)
        # The wormhole lock holds the output for the streamed message.
        assert [payload for payload, _ in got] == ["long", "cut-in"]
        assert got[0][1] == self.edge(10)
        assert (got, stats, rr) == self.handover_mid_message(ReferenceRouter)

    def chained_on_edge(self, router_cls):
        env = Environment()
        router = router_cls(env, num_ports=4, num_vcs=2, credits_per_port=8)
        got = {}
        for port in (2, 3):
            router.set_endpoint(
                port, lambda m: got.__setitem__(m.payload, env.now))
        router.send(0, 2, "long", 320)  # keeps the clock running

        def send_b():                                     # on edge 3
            assert env.now == self.edge(3)
            router.send(1, 3, "b", 32)

        def chained():                                    # sent at edge 1
            router.send(1, 3, "a", 32, on_sent=lambda: env.call_later(
                2 * self.CYCLE, send_b))

        env.call_later(0.0, chained)
        env.run()
        return got

    def test_chained_sender_on_an_edge_is_latched_to_the_next(self):
        from .reference_router import ReferenceRouter
        got = self.chained_on_edge(make_router)
        # The sender wakes before the clock's edge-3 event, yet "b" is
        # admitted and switched no earlier than the edge after its send.
        assert got["b"] == self.edge(4)
        assert got == self.chained_on_edge(ReferenceRouter)

    def test_inject_returns_the_message_on_both_paths(self):
        env = Environment()
        router = make_router(env)
        router.set_endpoint(2, lambda m: None)
        streamed = router.send(0, 2, "streamed", 96)
        clocked = router.send(1, 2, "clocked", 96)  # hands over
        assert (streamed.payload, streamed.src_port) == ("streamed", 0)
        assert (clocked.payload, clocked.src_port) == ("clocked", 1)
        env.run()
        assert 0 < streamed.delivered_at < clocked.delivered_at

    def test_one_event_per_streamed_message(self):
        env = Environment()
        router = make_router(env)
        router.set_endpoint(1, lambda m: None)
        for _ in range(5):
            router.send(0, 1, "x", 320)
        env.run()
        # Per message: the exit, armed on the edge before it (every
        # message here is 10 flits long).  No on_sent, no entry for it.
        assert env.events_processed == 10
        assert router.stats.cycles == router.stats.flits_switched == 50
        assert router.stats.peak_buffer_occupancy == 1
        assert env.now == self.edge(50)
