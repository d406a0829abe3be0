"""Bing web-search ranking acceleration (paper §III-A).

Functional pieces (corpus, FSM/DP features, ML scorer) plus the FFU/DPF
role models and the service-level queueing simulation that regenerates
Figs. 6-8 and 11.
"""

from .consolidation import (
    ConsolidationConfig,
    ConsolidationResult,
    consolidation_sweep,
    run_consolidation_point,
)
from .corpus import Document, Query, SyntheticCorpus, ZipfSampler
from .dpf import (
    DpFeatureEngine,
    DpFeatureValues,
    lcs_length,
    local_alignment_score,
    min_covering_window,
    proximity_score,
)
from .features import (
    FEATURE_NAMES,
    NUM_FEATURES,
    FeatureExtractor,
    FeatureVector,
)
from .ffu import (
    FfuConfig,
    FfuDpfRole,
    QueryWork,
    SoftwareTimingModel,
    WorkloadModel,
)
from .fsm import AhoCorasick, MatchStats, query_patterns
from .model import BoostedStumpModel, Stump, synthetic_relevance
from .service import (
    AccelerationMode,
    LoadResult,
    RankingServer,
    RankingServiceConfig,
    RemoteAccessConfig,
    run_open_loop,
    saturation_qps,
)

__all__ = [
    "AccelerationMode",
    "ConsolidationConfig",
    "ConsolidationResult",
    "consolidation_sweep",
    "run_consolidation_point",
    "AhoCorasick",
    "BoostedStumpModel",
    "Document",
    "DpFeatureEngine",
    "DpFeatureValues",
    "FEATURE_NAMES",
    "FeatureExtractor",
    "FeatureVector",
    "FfuConfig",
    "FfuDpfRole",
    "LoadResult",
    "MatchStats",
    "NUM_FEATURES",
    "Query",
    "QueryWork",
    "RankingServer",
    "RankingServiceConfig",
    "RemoteAccessConfig",
    "SoftwareTimingModel",
    "Stump",
    "SyntheticCorpus",
    "WorkloadModel",
    "ZipfSampler",
    "lcs_length",
    "local_alignment_score",
    "min_covering_window",
    "proximity_score",
    "query_patterns",
    "run_open_loop",
    "saturation_qps",
    "synthetic_relevance",
]
