"""FPGA crypto engine timing model (paper §IV).

The shell's crypto role runs at full 40 Gb/s in both directions.  Two
regimes:

* **AES-GCM**: "a single packet can be processed with no dependencies and
  thus can be perfectly pipelined" — latency is pipeline depth plus one
  block per cycle.
* **AES-CBC(-SHA1)**: "especially difficult for hardware due to tight
  dependencies.  AES-CBC requires processing 33 packets at a time in our
  implementation, taking only 128 b from a single packet once every 33
  cycles" — so a packet's blocks are consumed once per 33 cycles, and the
  "worst case half-duplex FPGA crypto latency for AES-CBC-128-SHA1 is
  11 us for a 1500 B packet, from first flit to first flit."

The calibration check: ceil(1500/16)=94 blocks x 33 cycles = 3102 cycles;
at the 300 MHz crypto clock plus pipeline fill ≈ 11 us.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: AES block size in bytes (128 bits per cycle into the core).
AES_BLOCK_BYTES = 16
#: Number of packets the CBC engine interleaves to keep the AES core busy.
CBC_INTERLEAVE_PACKETS = 33


@dataclass
class FpgaCryptoConfig:
    """Crypto role clocking and pipeline depths."""

    clock_hz: float = 300e6
    #: Pipeline fill for the perfectly-pipelined GCM path (AES rounds +
    #: GHASH + framing).
    gcm_pipeline_cycles: int = 60
    #: Extra cycles for CBC path entry/exit plus the SHA-1 tail.
    cbc_overhead_cycles: int = 198
    line_rate_bps: float = 40e9


class FpgaCryptoEngine:
    """Latency/throughput model of the shell crypto role."""

    def __init__(self, config: FpgaCryptoConfig | None = None):
        self.config = config or FpgaCryptoConfig()

    # ------------------------------------------------------------------
    def blocks(self, nbytes: int) -> int:
        return max(1, math.ceil(nbytes / AES_BLOCK_BYTES))

    def gcm_latency(self, nbytes: int) -> float:
        """First-flit-to-first-flit latency for a GCM packet."""
        cycles = self.config.gcm_pipeline_cycles + self.blocks(nbytes)
        return cycles / self.config.clock_hz

    def cbc_sha1_latency(self, nbytes: int) -> float:
        """First-flit-to-first-flit latency for a CBC-SHA1 packet.

        The serial CBC dependency means one 128 b block of a given packet
        enters the AES core only once every 33 cycles (the other 32 slots
        carry blocks of the other interleaved packets).
        """
        cycles = (self.blocks(nbytes) * CBC_INTERLEAVE_PACKETS
                  + self.config.cbc_overhead_cycles)
        return cycles / self.config.clock_hz

    def latency(self, suite: str, nbytes: int) -> float:
        if suite.startswith("aes-gcm"):
            return self.gcm_latency(nbytes)
        if suite.startswith("aes-cbc"):
            return self.cbc_sha1_latency(nbytes)
        raise KeyError(f"unknown cipher suite {suite!r}")

    def throughput_bps(self, suite: str) -> float:
        """Sustained throughput: line rate for all supported suites.

        GCM is trivially line rate; CBC sustains line rate *because* of
        the 33-way interleave (one block per cycle enters the core, just
        from rotating packets): 16 B/cycle at 300 MHz = 38.4 Gb/s ≈ line
        rate (the QSFP's usable payload rate after framing).
        """
        per_cycle = AES_BLOCK_BYTES * 8 * self.config.clock_hz
        return min(per_cycle, self.config.line_rate_bps)
