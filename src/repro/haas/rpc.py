"""The control-plane RPC seam: a simulated, failure-injectable channel.

All SM<->RM traffic flows through an :class:`RpcChannel` instead of
plain method calls (an FM reports failures to the RM directly).  A
channel has two operating modes:

* **inline** (the default, when the config specifies no loss, no
  duplication and no delay): every call executes the server handler
  synchronously with zero simulation events and zero RNG draws, so a
  lossless control plane behaves — and schedules — exactly like the
  direct method calls it replaced (seeded digests are unchanged).
* **simulated**: each call becomes request/response message legs over
  an unreliable medium with configurable loss, duplication and delay,
  a per-call timeout, and exponential-backoff-with-jitter retries.

Every call carries an **idempotency token**; the server deduplicates
tokens (see :meth:`ResourceManager.rpc_dispatch`) so a retried or
duplicated ``acquire`` is exactly-once *in effect* — it can never
double-allocate.

A channel can also be **partitioned** (the ``NETWORK_PARTITION`` fault):
while partitioned, every message leg in both directions is dropped, so
a Service Manager stranded behind a partition can neither renew its
leases nor hear revocations — the split-brain scenario that lease
fencing (``Lease.fence`` checked by the FpgaManager) exists to defuse.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import count
from typing import Any, Callable, Dict, Optional

from ..sim import Environment


class RpcError(Exception):
    """Base class for transport-level RPC failures."""


class RpcTimeout(RpcError):
    """All retries exhausted without a response (or partitioned)."""


class ServerUnavailable(RpcError):
    """Raised by a server handler whose process is down (RM crash).

    The channel treats it like a lost message: the caller sees silence,
    then a timeout — never a clean error — exactly as a crashed process
    looks from the other side of a network.
    """


@dataclass
class RpcConfig:
    """Failure model and retry policy for one channel."""

    #: Probability an individual message leg is lost.
    loss_probability: float = 0.0
    #: Probability a request leg is delivered twice.
    duplicate_probability: float = 0.0
    #: One-way delivery latency (seconds) plus uniform jitter.
    delay: float = 0.0
    delay_jitter: float = 0.0
    #: Per-attempt response deadline.
    call_timeout: float = 0.25
    #: Retransmit attempts after the first (so max_retries+1 sends).
    max_retries: int = 6
    #: Exponential backoff between attempts, with multiplicative jitter.
    backoff_base: float = 0.05
    backoff_max: float = 1.0
    backoff_jitter: float = 0.5
    #: Resend attempts for one-way pushes (server -> client notices).
    push_attempts: int = 3

    @property
    def inline(self) -> bool:
        """Lossless + zero-delay: execute calls synchronously."""
        return (self.loss_probability == 0.0
                and self.duplicate_probability == 0.0
                and self.delay == 0.0 and self.delay_jitter == 0.0)


@dataclass
class RpcStats:
    calls: int = 0
    requests_sent: int = 0        # legs, including retries + duplicates
    requests_lost: int = 0
    requests_duplicated: int = 0
    responses_sent: int = 0
    responses_lost: int = 0
    retries: int = 0
    timeouts: int = 0             # calls that exhausted every retry
    failures: int = 0             # application errors delivered
    pushes: int = 0
    pushes_lost: int = 0
    server_unavailable: int = 0
    partition_drops: int = 0


class _Call:
    """One logical RPC: survives across retransmits and duplicates."""

    __slots__ = ("method", "payload", "on_result", "on_error", "done")

    def __init__(self, method: str, payload: Dict[str, Any],
                 on_result: Optional[Callable[[Any], None]],
                 on_error: Optional[Callable[[Exception], None]]):
        self.method = method
        self.payload = payload
        self.on_result = on_result
        self.on_error = on_error
        self.done = False


class RpcChannel:
    """A client<->server message channel with injectable unreliability.

    ``server`` is the dispatch callable ``(channel, method, payload) ->
    result``; it may raise application errors (delivered to the caller)
    or :class:`ServerUnavailable` (swallowed — looks like loss).
    """

    def __init__(self, env: Environment,
                 server: Callable[["RpcChannel", str, Dict[str, Any]], Any],
                 name: str = "rpc",
                 config: Optional[RpcConfig] = None,
                 seed: Optional[object] = None):
        self.env = env
        self.server = server
        self.name = name
        self.config = config or RpcConfig()
        self.stats = RpcStats()
        self._token_seq = count(1)
        # The RNG is only touched in simulated mode; a dedicated stream
        # keeps channel noise out of every other seeded draw.
        self._rng = random.Random(seed if seed is not None
                                  else f"rpc-{name}")
        #: Both directions drop everything while ``now`` is before this.
        self.partition_until = 0.0
        #: Optional: poll the server's epoch on every delivered response
        #: and fire ``on_epoch_change(new_epoch)`` when it moves — how a
        #: client learns its server was restarted.
        self.epoch_probe: Optional[Callable[[], int]] = None
        self.on_epoch_change: Optional[Callable[[int], None]] = None
        self._seen_epoch: Optional[int] = None

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------
    @property
    def inline(self) -> bool:
        return self.config.inline

    @property
    def partitioned(self) -> bool:
        return self.env.now < self.partition_until

    def partition_for(self, duration: float) -> None:
        """Drop every message in both directions for ``duration``."""
        self.partition_until = max(self.partition_until,
                                   self.env.now + duration)

    # ------------------------------------------------------------------
    # Client -> server request/response
    # ------------------------------------------------------------------
    def call(self, method: str, payload: Optional[Dict[str, Any]] = None,
             on_result: Optional[Callable[[Any], None]] = None,
             on_error: Optional[Callable[[Exception], None]] = None,
             token: Optional[str] = None) -> Any:
        """Issue one logical RPC.

        Inline mode executes synchronously: the result is returned (and
        ``on_result`` invoked, if given); application errors raise
        unless ``on_error`` is given.  Simulated mode returns ``None``
        immediately and delivers the outcome to the callbacks after the
        message legs and retries play out.
        """
        payload = dict(payload or {})
        if token is None:
            token = f"{self.name}:{next(self._token_seq)}"
        payload["token"] = token
        self.stats.calls += 1

        if self.inline:
            return self._call_inline(method, payload, on_result, on_error)

        call = _Call(method, payload, on_result, on_error)
        self.env.process(self._call_process(call))
        return None

    def notify(self, method: str,
               payload: Optional[Dict[str, Any]] = None) -> None:
        """Client -> server one-way message (result and errors ignored,
        transport retries still apply)."""
        self.call(method, payload,
                  on_result=lambda _r: None, on_error=lambda _e: None)

    def _call_inline(self, method, payload, on_result, on_error):
        self.stats.requests_sent += 1
        if self.partitioned:
            self.stats.partition_drops += 1
            self.stats.timeouts += 1
            err: Exception = RpcTimeout(
                f"{method}: partitioned from server")
            if on_error is not None:
                on_error(err)
                return None
            raise err
        try:
            result = self.server(self, method, payload)
        except ServerUnavailable as exc:
            self.stats.server_unavailable += 1
            self.stats.timeouts += 1
            err = RpcTimeout(f"{method}: {exc}")
            if on_error is not None:
                on_error(err)
                return None
            raise err from exc
        except Exception as exc:
            self.stats.failures += 1
            if on_error is not None:
                on_error(exc)
                return None
            raise
        self.stats.responses_sent += 1
        self._observe_epoch()
        if on_result is not None:
            on_result(result)
        return result

    def _call_process(self, call: _Call):
        config = self.config
        backoff = config.backoff_base
        for attempt in range(config.max_retries + 1):
            self._send_request(call)
            yield self.env.timeout(config.call_timeout)
            if call.done:
                return
            if attempt == config.max_retries:
                break
            self.stats.retries += 1
            jitter = 1.0 + config.backoff_jitter * self._rng.random()
            yield self.env.timeout(backoff * jitter)
            if call.done:
                return
            backoff = min(backoff * 2.0, config.backoff_max)
        call.done = True
        self.stats.timeouts += 1
        if call.on_error is not None:
            call.on_error(RpcTimeout(
                f"{call.method}: no response after "
                f"{config.max_retries + 1} attempts"))

    def _send_request(self, call: _Call) -> None:
        self.stats.requests_sent += 1
        if self._leg_dropped():
            self.stats.requests_lost += 1
            return
        self.env.call_later(self._leg_delay(), self._deliver_request,
                            call)
        if self._rng.random() < self.config.duplicate_probability:
            self.stats.requests_sent += 1
            self.stats.requests_duplicated += 1
            self.env.call_later(self._leg_delay(), self._deliver_request,
                                call)

    def _deliver_request(self, call: _Call) -> None:
        # Duplicates and retransmits still reach the server (that is the
        # point); the server's idempotency table makes them harmless.
        try:
            result = self.server(self, call.method, call.payload)
        except ServerUnavailable:
            self.stats.server_unavailable += 1
            return  # no response: indistinguishable from loss
        except Exception as exc:  # application error — a real response
            self._send_response(call, None, exc)
            return
        self._send_response(call, result, None)

    def _send_response(self, call: _Call, result: Any,
                       error: Optional[Exception]) -> None:
        self.stats.responses_sent += 1
        if self._leg_dropped():
            self.stats.responses_lost += 1
            return
        self.env.call_later(self._leg_delay(), self._deliver_response,
                            call, result, error)

    def _deliver_response(self, call: _Call, result: Any,
                          error: Optional[Exception]) -> None:
        if call.done:
            return  # response to a retransmit already delivered
        call.done = True
        self._observe_epoch()
        if error is not None:
            self.stats.failures += 1
            if call.on_error is not None:
                call.on_error(error)
        elif call.on_result is not None:
            call.on_result(result)

    # ------------------------------------------------------------------
    # Server -> client one-way pushes (revocations, fence installs)
    # ------------------------------------------------------------------
    def push(self, fn: Callable[..., None], *args: Any) -> None:
        """Deliver ``fn(*args)`` to the client over the same unreliable
        medium: bounded resends, first arrival wins.  A push that loses
        every leg (or is partitioned away) is simply gone — the client's
        own recovery paths (renew errors, epoch resync) must cover it.
        """
        self.stats.pushes += 1
        if self.inline:
            if self.partitioned:
                self.stats.partition_drops += 1
                self.stats.pushes_lost += 1
                return
            fn(*args)
            return
        self.env.process(self._push_process(fn, args))

    def _push_process(self, fn: Callable[..., None], args: tuple):
        config = self.config
        state = {"delivered": False}

        def deliver():
            if state["delivered"]:
                return
            state["delivered"] = True
            fn(*args)

        backoff = config.backoff_base
        for _attempt in range(max(config.push_attempts, 1)):
            if not self._leg_dropped():
                self.env.call_later(self._leg_delay(), deliver)
            yield self.env.timeout(config.call_timeout + backoff)
            if state["delivered"]:
                return
            backoff = min(backoff * 2.0, config.backoff_max)
        if not state["delivered"]:
            self.stats.pushes_lost += 1

    # ------------------------------------------------------------------
    # Medium
    # ------------------------------------------------------------------
    def _leg_dropped(self) -> bool:
        if self.partitioned:
            self.stats.partition_drops += 1
            return True
        return self._rng.random() < self.config.loss_probability

    def _leg_delay(self) -> float:
        config = self.config
        delay = config.delay
        if config.delay_jitter > 0.0:
            delay += self._rng.random() * config.delay_jitter
        return delay

    def _observe_epoch(self) -> None:
        if self.epoch_probe is None:
            return
        epoch = self.epoch_probe()
        if self._seen_epoch is None:
            self._seen_epoch = epoch
            return
        if epoch != self._seen_epoch:
            self._seen_epoch = epoch
            if self.on_epoch_change is not None:
                self.on_epoch_change(epoch)
