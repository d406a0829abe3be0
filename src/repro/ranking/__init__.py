"""Bing web-search ranking acceleration (paper §III-A).

Functional pieces (corpus, FSM/DP features, ML scorer) plus the FFU/DPF
role models and the service-level queueing simulation that regenerates
Figs. 6-8 and 11.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "consolidation": ("ConsolidationConfig", "ConsolidationResult",
                      "consolidation_sweep", "run_consolidation_point"),
    "corpus": ("Document", "Query", "SyntheticCorpus", "ZipfSampler"),
    "dpf": ("DpFeatureEngine", "DpFeatureValues", "lcs_length",
            "local_alignment_score", "min_covering_window",
            "proximity_score"),
    "features": ("FEATURE_NAMES", "NUM_FEATURES", "FeatureExtractor",
                 "FeatureVector"),
    "ffu": ("FfuConfig", "FfuDpfRole", "QueryWork", "SoftwareTimingModel",
            "WorkloadModel"),
    "fsm": ("AhoCorasick", "MatchStats", "query_patterns"),
    "model": ("BoostedStumpModel", "Stump", "synthetic_relevance"),
    "service": ("AccelerationMode", "LoadResult", "RankingServer",
                "RankingServiceConfig", "RemoteAccessConfig", "run_open_loop",
                "saturation_qps"),
})
