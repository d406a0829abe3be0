"""The FFU and DPF role models (paper §III-A).

"We implemented the selected features in a Feature Functional Unit (FFU),
and the Dynamic Programming Features in a separate DPF unit."

Functionally these reuse the exact software feature code (hardware
accelerates, it does not change the math).  The value here is the
*timing* model:

* the FFU streams document terms through parallel FSM lanes (one term per
  lane per cycle),
* the DPF evaluates DP cells on a systolic array (many cells per cycle),
* documents reach the FPGA over PCIe DMA (local) or LTL (remote).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import exp, log
from typing import TYPE_CHECKING, Any, List, Optional, Sequence

if TYPE_CHECKING:
    from .corpus import Document, Query
    from .features import FeatureVector


@dataclass(slots=True)
class QueryWork:
    """The size of one query's feature-extraction job."""

    num_docs: int
    total_terms: int
    query_terms: int
    #: Optional :class:`repro.trace.TraceContext` riding the query
    #: through the ranking pipeline's stage taps.
    trace: Any = None

    @property
    def dp_cells(self) -> int:
        # Two quadratic DPs (alignment + LCS) and one linear pass.
        return 2 * self.query_terms * self.total_terms + self.total_terms

    @property
    def document_bytes(self) -> int:
        return 4 * self.total_terms


@dataclass
class WorkloadModel:
    """Distribution of query work sizes (post-selection candidate sets)."""

    mean_docs: float = 200.0
    docs_sigma: float = 0.35
    mean_terms_per_doc: float = 300.0
    terms_sigma: float = 0.3
    mean_query_terms: float = 3.2

    def sample(self, rng: random.Random) -> QueryWork:
        """Draw one query's work: two lognormals (``exp`` of a normal,
        which is how ``rng.lognormvariate`` draws one) and one
        ``rng.gauss``, in that order, each clamped to its floor.
        ``tests/ranking/test_sampler_reference.py`` holds the
        ``max``/``min`` form as the reference."""
        num_docs = int(exp(rng.normalvariate(log(self.mean_docs),
                                             self.docs_sigma)))
        if num_docs < 10:
            num_docs = 10
        terms_per_doc = exp(rng.normalvariate(log(self.mean_terms_per_doc),
                                              self.terms_sigma))
        if terms_per_doc < 30:
            terms_per_doc = 30
        query_terms = int(rng.gauss(self.mean_query_terms, 0.9))
        if query_terms < 2:
            query_terms = 2
        elif query_terms > 8:
            query_terms = 8
        return QueryWork(num_docs, int(num_docs * terms_per_doc), query_terms)


@dataclass
class FfuConfig:
    """Hardware parameters of the FFU + DPF role."""

    clock_hz: float = 175e6        # role clock (Fig. 5)
    fsm_lanes: int = 16            # parallel document streams
    dp_cells_per_cycle: int = 4096  # systolic DPF throughput
    #: Fixed role overhead per query (setup, result gather).
    per_query_overhead: float = 5e-6
    #: Effective PCIe bandwidth for streaming candidates (one Gen3 x8).
    pcie_bandwidth_bytes: float = 6.8e9
    pcie_setup: float = 0.9e-6


class FfuDpfRole:
    """Timing + functional model of the combined FFU/DPF role."""

    def __init__(self, config: Optional[FfuConfig] = None):
        self.config = config or FfuConfig()
        self.queries_processed = 0

    # -- timing -----------------------------------------------------------
    def compute_time(self, work: QueryWork) -> float:
        """On-FPGA processing time for one query's candidates."""
        cfg = self.config
        fsm = work.total_terms / (cfg.fsm_lanes * cfg.clock_hz)
        dpf = work.dp_cells / (cfg.dp_cells_per_cycle * cfg.clock_hz)
        return cfg.per_query_overhead + fsm + dpf

    def transfer_time(self, work: QueryWork) -> float:
        """PCIe DMA time to stream candidates into the role."""
        cfg = self.config
        return cfg.pcie_setup + work.document_bytes / cfg.pcie_bandwidth_bytes

    def local_service_time(self, work: QueryWork) -> float:
        """Local acceleration: DMA in (+ compute overlapped tail)."""
        # Transfer and compute are pipelined; the slower one dominates,
        # plus a fill term for the other.
        transfer = self.transfer_time(work)
        compute = self.compute_time(work)
        return max(transfer, compute) + 0.15 * min(transfer, compute)

    # -- function -----------------------------------------------------------
    def extract(self, query: Query,
                documents: Sequence[Document]) -> List[FeatureVector]:
        """Bit-accurate output: same features software would compute."""
        from .features import FeatureExtractor
        self.queries_processed += 1
        extractor = FeatureExtractor(query)
        return extractor.extract_all(documents)


@dataclass
class SoftwareTimingModel:
    """Costs of running the same stages on host cores (2.4 GHz class).

    Per-term and per-cell constants reflect a tuned production C++
    implementation, not CPython.
    """

    fsm_seconds_per_term: float = 3.0e-9
    dp_seconds_per_cell: float = 0.8e-9
    #: Query parse / candidate selection before features.
    pre_seconds: float = 0.15e-3
    #: ML scoring + result assembly after features.
    post_seconds_per_doc: float = 1.3e-6
    post_seconds_fixed: float = 0.05e-3

    def feature_time(self, work: QueryWork) -> float:
        return work.total_terms * self.fsm_seconds_per_term \
            + work.dp_cells * self.dp_seconds_per_cell

    def pre_time(self, _work: QueryWork) -> float:
        return self.pre_seconds

    def post_time(self, work: QueryWork) -> float:
        return self.post_seconds_fixed \
            + work.num_docs * self.post_seconds_per_doc
