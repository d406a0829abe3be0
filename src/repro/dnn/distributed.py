"""Model-parallel DNN inference across multiple FPGAs over LTL.

The paper motivates inter-FPGA communication with services "that consume
more than one FPGA (e.g. more aggressive web search ranking, large-scale
machine learning, and bioinformatics)".  This module implements the
canonical example: an MLP too large for one role is split layer-wise
across a chain of FPGAs; activations flow FPGA-to-FPGA over LTL, so a
single inference traverses the chain and pipelining overlaps many
inferences at once.

Functional and timing views stay consistent: each stage really computes
its layer slice (numpy), while per-stage service time comes from the
stage's MAdds on the accelerator timing model plus the measured LTL hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Dict, List, Optional

import numpy as np

from ..core.cloud import ConfigurableCloud
from ..core.metrics import LatencyRecorder
from .accelerator import DnnAcceleratorConfig
from .mlp import Mlp, relu, softmax

_request_ids = count()


def split_layers(num_layers: int, num_stages: int) -> List[List[int]]:
    """Partition layer indices into contiguous, non-empty stages."""
    if not 1 <= num_stages <= num_layers:
        raise ValueError(
            f"cannot split {num_layers} layers into {num_stages} stages")
    base, extra = divmod(num_layers, num_stages)
    stages: List[List[int]] = []
    start = 0
    for stage in range(num_stages):
        size = base + (1 if stage < extra else 0)
        stages.append(list(range(start, start + size)))
        start += size
    return stages


@dataclass
class _InFlight:
    """Bookkeeping for one inference crossing the pipeline."""

    request_id: int
    submitted_at: float
    callback: Optional[Callable[[np.ndarray], None]] = None


@dataclass
class _StageMessage:
    """Activations travelling between stages."""

    request_id: int
    activations: np.ndarray


class DistributedMlp:
    """An MLP sharded layer-wise over a chain of shells.

    ``hosts[0]`` is the ingress (also fed by the client), ``hosts[-1]``
    produces the softmax output and reports completion back to the
    coordinator (this object, which lives host-side).
    """

    def __init__(self, cloud: ConfigurableCloud, hosts: List[int],
                 model: Mlp,
                 accelerator_config: Optional[DnnAcceleratorConfig] = None):
        if len(hosts) < 1:
            raise ValueError("need at least one host")
        self.cloud = cloud
        self.hosts = list(hosts)
        self.model = model
        self.config = accelerator_config or DnnAcceleratorConfig(
            per_request_overhead=8e-6)
        self.stages = split_layers(model.num_layers, len(hosts))
        self.latency = LatencyRecorder("distributed-inference")
        self.completed = 0
        self._in_flight: Dict[int, _InFlight] = {}

        # Wire the chain: host[i] -> host[i+1].
        for a, b in zip(self.hosts, self.hosts[1:]):
            cloud.connect(a, b)
        for index, host in enumerate(self.hosts):
            cloud.shell(host).role_receive = self._stage_handler(index)

    # ------------------------------------------------------------------
    # Stage math and timing
    # ------------------------------------------------------------------
    def stage_madds(self, stage_index: int) -> int:
        return sum(self.model.weights[layer].size
                   for layer in self.stages[stage_index])

    def stage_compute_time(self, stage_index: int) -> float:
        cfg = self.config
        return cfg.per_request_overhead + self.stage_madds(stage_index) \
            / (cfg.madds_per_cycle * cfg.clock_hz)

    def _stage_forward(self, stage_index: int,
                       activations: np.ndarray) -> np.ndarray:
        x = activations
        for layer in self.stages[stage_index]:
            x = x @ self.model.weights[layer] + self.model.biases[layer]
            if layer < self.model.num_layers - 1:
                x = relu(x)
        if self.stages[stage_index][-1] == self.model.num_layers - 1:
            x = softmax(x)
        return x

    def activation_bytes(self, stage_index: int) -> int:
        """Bytes shipped out of a stage (fp16 activations)."""
        width = self.model.layer_sizes[self.stages[stage_index][-1] + 1]
        return 2 * width

    # ------------------------------------------------------------------
    # Pipeline plumbing
    # ------------------------------------------------------------------
    def _stage_handler(self, stage_index: int):
        host = self.hosts[stage_index]
        shell = self.cloud.shell(host)
        env = self.cloud.env

        def forward(payload: _StageMessage) -> None:
            result = self._stage_forward(stage_index, payload.activations)
            message = _StageMessage(payload.request_id, result)
            if stage_index + 1 < len(self.hosts):
                shell.remote_send(
                    self.hosts[stage_index + 1], message,
                    self.activation_bytes(stage_index))
            else:
                self._complete(message)

        def handle(payload: _StageMessage, _length: int) -> None:
            env.call_later(self.stage_compute_time(stage_index), forward,
                           payload)

        return handle

    def _complete(self, message: _StageMessage) -> None:
        entry = self._in_flight.pop(message.request_id, None)
        if entry is None:
            return
        self.completed += 1
        self.latency.record(self.cloud.env.now - entry.submitted_at)
        if entry.callback is not None:
            entry.callback(message.activations)

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(self, x: np.ndarray,
               callback: Optional[Callable[[np.ndarray], None]] = None,
               client_host: Optional[int] = None) -> int:
        """Inject one inference; returns its request id.

        If ``client_host`` is given, the input ships from that server's
        FPGA to the ingress stage over LTL; otherwise it is injected at
        the ingress directly (co-located client).
        """
        request_id = next(_request_ids)
        self._in_flight[request_id] = _InFlight(
            request_id=request_id, submitted_at=self.cloud.env.now,
            callback=callback)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        message = _StageMessage(request_id, x)
        input_bytes = 2 * self.model.layer_sizes[0]
        ingress = self.hosts[0]
        if client_host is not None:
            self.cloud.connect(client_host, ingress)
            self.cloud.shell(client_host).remote_send(
                ingress, message, input_bytes)
        else:
            # Local injection at the ingress role.
            shell = self.cloud.shell(ingress)
            handler = self._stage_handler(0)
            handler(message, input_bytes)
        return request_id
