"""repro.trace — per-hop latency attribution with honest accounting.

Fig. 10 reports *end-to-end* LTL latency; production debugging needs to
know *where* the microseconds go (role -> Elastic Router -> shell MAC ->
TOR -> L1 -> remote role).  This subsystem provides:

* :class:`~repro.trace.stages.Stage` — the canonical stage vocabulary
  every tap site names its hop with,
* :class:`~repro.trace.context.TraceContext` — a context that rides
  packets and LTL frames end to end, collecting timestamp taps at every
  datapath stage,
* :class:`~repro.trace.recorder.TraceRecorder` /
  :class:`~repro.trace.recorder.TraceReport` — exact per-hop
  P50/P99/P99.9 and a decomposition whose hops are
  *guaranteed* to sum to the measured end-to-end latency (any
  uninstrumented interval is reported as an explicit residual, gated at
  < 1%).

On an idle fabric every hop of a traced LTL request reads exactly its
closed-form term (flits x ER cycle, the LTL and MAC pipelines, each
link's propagation + serialization, each switch's forwarding latency);
``tests/net/test_idle_rtt_oracle.py`` checks each one, so a failing
case names the hop whose cost moved.

Tracing is strictly opt-in per request: a request without a context
costs the datapath one ``is not None`` check per tap point and allocates
nothing.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "context": ("TraceContext",),
    "recorder": ("SpanRecord", "TraceRecorder", "TraceReport"),
    "stages": ("SWITCH_STAGE_BY_TIER", "Stage"),
})
