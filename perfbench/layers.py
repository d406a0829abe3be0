"""Per-layer metrics: cProfile self time grouped by ``repro.<package>``,
the public stats objects, and the trace recorder's per-hop split.

A layer is one subpackage of ``repro``.  Everything else — the standard
library, builtins, the benchmark's own code and the ``repro`` packages
not named in :data:`LAYERS` — is the ``other`` layer, so the shares of
all layers sum to 1.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

import repro

#: Layers reported with their own self time and share.
LAYERS = ("sim", "router", "net", "ltl", "fpga", "crypto", "ranking",
          "core", "trace")

#: Trace stage prefixes reported as ``hop.<prefix>.sim_us``.
HOP_PREFIXES = ("er", "shell", "ltl", "link", "switch")

_PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_AES_FILE = os.path.join(_PACKAGE_DIR, "crypto", "aes.py")
_AES_BLOCK_CALLS = ("encrypt_block", "decrypt_block")

Metrics = Dict[str, Tuple[float, str]]


def layer_of(filename: str) -> str:
    """The layer a profiled function's source file belongs to."""
    if not filename.startswith(_PACKAGE_DIR):
        return "other"
    package = filename[len(_PACKAGE_DIR):].split(os.sep)[0]
    return package if package in LAYERS else "other"


def self_times(profile_stats: dict) -> Tuple[Dict[str, float], int]:
    """Self seconds per layer, and the number of AES block operations.

    ``profile_stats`` is ``pstats.Stats(profile).stats``.
    """
    seconds = {layer: 0.0 for layer in LAYERS + ("other",)}
    blocks = 0
    for (filename, _line, func), (_cc, calls, tottime, _ct, _callers) \
            in profile_stats.items():
        seconds[layer_of(filename)] += tottime
        if filename == _AES_FILE and func in _AES_BLOCK_CALLS:
            blocks += calls
    return seconds, blocks


def _per(seconds: float, count: float) -> float:
    """Host microseconds per unit of work, 0 when the layer did none."""
    return seconds / count * 1e6 if count else 0.0


def per_layer(profile_stats: dict, counters: Dict[str, float], ops: int,
              report=None) -> Metrics:
    """Every per-layer metric of one traced repetition."""
    seconds, blocks = self_times(profile_stats)
    total = sum(seconds.values())
    out: Metrics = {}
    for layer, value in seconds.items():
        out[f"{layer}.self_s"] = (value, "s")
        out[f"{layer}.share"] = (value / total if total else 0.0, "frac")

    def count(name: str) -> float:
        return float(counters.get(name, 0))

    events = count("sim.events")
    out["sim.events"] = (events, "count")
    out["sim.events_per_op"] = (events / ops if ops else 0.0, "count/op")
    out["sim.us_per_event"] = (_per(seconds["sim"], events), "us")

    cycles, flits = count("router.cycles"), count("router.flits")
    out["router.cycles"] = (cycles, "count")
    out["router.flits"] = (flits, "count")
    out["router.flits_per_cycle"] = (flits / cycles if cycles else 0.0,
                                     "flit/cycle")
    out["router.stall_cycles"] = (count("router.stall_cycles"), "count")
    out["router.us_per_flit"] = (_per(seconds["router"], flits), "us")

    packets = count("net.packets_tx")
    out["net.packets_tx"] = (packets, "count")
    out["net.us_per_packet"] = (_per(seconds["net"], packets), "us")
    for name in ("net.drops", "net.ecn_marked", "net.pfc_pauses",
                 "net.rate_cuts"):
        out[name] = (count(name), "count")

    frames, retransmits = count("ltl.frames_sent"), count("ltl.retransmits")
    out["ltl.frames_sent"] = (frames, "count")
    out["ltl.us_per_frame"] = (_per(seconds["ltl"], frames), "us")
    out["ltl.retransmits"] = (retransmits, "count")
    out["ltl.timeouts"] = (count("ltl.timeouts"), "count")
    out["ltl.nacks"] = (count("ltl.nacks"), "count")
    out["ltl.first_tx_frac"] = (
        (frames - retransmits) / frames if frames else 0.0, "frac")

    out["crypto.blocks"] = (float(blocks), "count")
    out["crypto.us_per_block"] = (_per(seconds["crypto"], blocks), "us")
    out["ranking.queries"] = (count("ranking.queries"), "count")

    out.update(hop_metrics(report))
    return out


def hop_metrics(report: Optional["repro.TraceReport"]) -> Metrics:
    """Mean simulated microseconds per message for each stage prefix."""
    hops = {prefix: 0.0 for prefix in HOP_PREFIXES}
    residual = 0.0
    if report is not None and report.spans:
        for stage, entry in report.hops.items():
            prefix = stage.split(".", 1)[0]
            if prefix in hops:
                hops[prefix] += entry["total"] / report.spans * 1e6
        residual = report.residual_fraction
    out: Metrics = {f"hop.{prefix}.sim_us": (value, "us")
                    for prefix, value in hops.items()}
    out["hop.residual_frac"] = (residual, "frac")
    return out
