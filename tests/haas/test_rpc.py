"""Unit tests for the simulated control-plane RPC seam."""

import pytest

from repro.haas import RpcChannel, RpcConfig, RpcTimeout, ServerUnavailable
from repro.sim import Environment


class EchoServer:
    """Dispatch target that records every delivery it sees."""

    def __init__(self):
        self.calls = []
        self.down = False
        self.fail_with = None

    def __call__(self, channel, method, payload):
        if self.down:
            raise ServerUnavailable("down")
        self.calls.append((method, dict(payload)))
        if self.fail_with is not None:
            raise self.fail_with
        return {"echo": method}


def make_channel(env=None, **config):
    env = env or Environment()
    server = EchoServer()
    channel = RpcChannel(env, server, name="test",
                         config=RpcConfig(**config), seed=1)
    return env, server, channel


class TestInlineMode:
    """The default lossless config: synchronous, zero sim events."""

    def test_default_config_is_inline(self):
        assert RpcConfig().inline
        assert not RpcConfig(loss_probability=0.1).inline
        assert not RpcConfig(duplicate_probability=0.1).inline
        assert not RpcConfig(delay=1e-3).inline

    def test_call_executes_synchronously(self):
        env, server, channel = make_channel()
        result = channel.call("ping", {})
        assert result == {"echo": "ping"}
        assert len(server.calls) == 1
        # No events were scheduled: inline calls are invisible to the
        # simulation clock (this is what keeps seeded digests stable).
        assert len(env) == 0

    def test_tokens_stamped_into_payload(self):
        _, server, channel = make_channel()
        channel.call("acquire", {})
        channel.call("acquire", {})
        tokens = [payload["token"] for _, payload in server.calls]
        assert len(set(tokens)) == 2
        assert all(token.startswith("test:") for token in tokens)

    def test_application_error_raised(self):
        _, server, channel = make_channel()
        server.fail_with = KeyError("nope")
        with pytest.raises(KeyError):
            channel.call("renew", {})

    def test_application_error_delivered_to_on_error(self):
        _, server, channel = make_channel()
        server.fail_with = KeyError("nope")
        errors = []
        channel.call("renew", {}, on_error=errors.append)
        assert len(errors) == 1
        assert isinstance(errors[0], KeyError)

    def test_server_unavailable_looks_like_timeout(self):
        _, server, channel = make_channel()
        server.down = True
        with pytest.raises(RpcTimeout):
            channel.call("ping", {})
        assert channel.stats.server_unavailable == 1

    def test_partitioned_inline_call_times_out(self):
        env, server, channel = make_channel()
        channel.partition_for(5.0)
        with pytest.raises(RpcTimeout):
            channel.call("ping", {})
        assert server.calls == []
        assert channel.stats.partition_drops > 0


class TestSimulatedMode:
    def test_lossless_delayed_call_completes(self):
        env, server, channel = make_channel(delay=1e-3)
        results = []
        channel.call("ping", {}, on_result=results.append)
        assert results == []  # asynchronous now
        env.run(until=1.0)
        assert results == [{"echo": "ping"}]

    def test_loss_is_survived_by_retries(self):
        # Heavy loss: some legs drop, retries still land the call.
        env, server, channel = make_channel(
            delay=1e-3, loss_probability=0.4, call_timeout=0.05,
            max_retries=10, backoff_base=0.01, backoff_max=0.05)
        results, errors = [], []
        for _ in range(10):
            channel.call("ping", {}, on_result=results.append,
                         on_error=errors.append)
        env.run(until=20.0)
        assert len(results) == 10
        assert errors == []
        assert channel.stats.retries > 0
        assert channel.stats.requests_lost + channel.stats.responses_lost > 0

    def test_duplicates_reach_server_but_one_response_wins(self):
        env, server, channel = make_channel(
            delay=1e-3, duplicate_probability=1.0)
        results = []
        channel.call("ping", {}, on_result=results.append)
        env.run(until=1.0)
        # Every leg duplicated: the server saw the request twice...
        assert len(server.calls) == 2
        # ...but the caller saw exactly one completion.
        assert results == [{"echo": "ping"}]
        assert channel.stats.requests_duplicated == 1

    def test_exhausted_retries_deliver_timeout(self):
        env, server, channel = make_channel(
            delay=1e-3, loss_probability=0.1, call_timeout=0.05,
            max_retries=2)
        server.down = True
        errors = []
        channel.call("ping", {}, on_error=errors.append)
        env.run(until=5.0)
        assert len(errors) == 1
        assert isinstance(errors[0], RpcTimeout)
        assert channel.stats.timeouts == 1

    def test_partition_heals_on_schedule(self):
        env, server, channel = make_channel(
            delay=1e-3, call_timeout=0.05, max_retries=30,
            backoff_base=0.05, backoff_max=0.2)
        channel.partition_for(2.0)
        results = []
        channel.call("ping", {}, on_result=results.append)
        env.run(until=1.0)
        assert results == []          # still stranded
        env.run(until=6.0)
        assert results == [{"echo": "ping"}]  # retries crossed the heal


class TestPush:
    def test_inline_push_delivers(self):
        env, server, channel = make_channel()
        got = []
        channel.push(got.append, 42)
        assert got == [42]
        assert channel.stats.pushes == 1

    def test_partitioned_push_is_lost(self):
        env, server, channel = make_channel()
        channel.partition_for(10.0)
        got = []
        channel.push(got.append, 42)
        assert got == []
        assert channel.stats.pushes_lost == 1

    def test_simulated_push_retries_first_arrival_wins(self):
        env, server, channel = make_channel(
            delay=1e-3, duplicate_probability=1.0)
        got = []
        channel.push(got.append, 42)
        env.run(until=5.0)
        assert got == [42]  # resends and duplicates deduplicated


class TestEpochObservation:
    def test_epoch_change_fires_callback(self):
        env, server, channel = make_channel(delay=1e-3)
        epoch = [1]
        changes = []
        channel.epoch_probe = lambda: epoch[0]
        channel.on_epoch_change = lambda new: changes.append(new)
        channel.call("ping", {})
        env.run(until=0.1)
        assert changes == []          # first observation: no change
        epoch[0] = 2
        channel.call("ping", {})
        env.run(until=0.2)
        assert changes == [2]
