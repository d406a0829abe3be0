"""Software crypto performance model (paper §IV).

"According to Intel, its AES GCM-128 performance on Haswell is 1.26
cycles per byte for encrypt and decrypt each.  Thus, at a 2.4 GHz clock
frequency, 40 Gb/s encryption/decryption consumes roughly five cores.
Different standards, such as 256b or CBC are, however, significantly
slower. ... AES-CBC-128-SHA1 ... consumes at least fifteen cores to
achieve 40 Gb/s full duplex."

The model exposes cycles/byte per cipher suite and converts to cores
needed at a line rate, and to per-packet software latency (fixed stack
overhead + byte-proportional compute) — the paper quotes ~4 us for a
1500 B packet under AES-CBC-128-SHA1 in software.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class CipherSuite:
    """Per-suite software cost (one direction)."""

    name: str
    cycles_per_byte: float


#: Intel Haswell figures (1.26 c/B is the published GCM-128 number; the
#: others are scaled per the paper's "significantly slower" relations —
#: CBC cannot pipeline across blocks and SHA-1 adds a second pass).
HASWELL_SUITES: Dict[str, CipherSuite] = {
    "aes-gcm-128": CipherSuite("aes-gcm-128", 1.26),
    "aes-gcm-256": CipherSuite("aes-gcm-256", 1.72),
    "aes-cbc-128": CipherSuite("aes-cbc-128", 2.40),
    "aes-cbc-128-sha1": CipherSuite("aes-cbc-128-sha1", 3.60),
}


@dataclass
class SoftwareCryptoModel:
    """A host CPU doing crypto in software."""

    clock_hz: float = 2.4e9
    #: Per-packet overhead: syscall/stack/cache disturbance floor.
    per_packet_overhead: float = 1.75e-6
    suites: Dict[str, CipherSuite] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.suites is None:
            self.suites = dict(HASWELL_SUITES)

    def _suite(self, name: str) -> CipherSuite:
        try:
            return self.suites[name]
        except KeyError:
            raise KeyError(f"unknown cipher suite {name!r}") from None

    def throughput_per_core_bps(self, suite: str) -> float:
        """One core's crypto throughput for ``suite`` (one direction)."""
        s = self._suite(suite)
        return self.clock_hz / s.cycles_per_byte * 8

    def cores_for_line_rate(self, suite: str, line_rate_bps: float = 40e9,
                            full_duplex: bool = True) -> float:
        """Cores consumed to run ``suite`` at line rate.

        ``full_duplex`` doubles the work (encrypt + decrypt streams), which
        is how the paper counts: GCM-128 at 40 Gb/s ~ 5 cores; CBC-SHA1
        full duplex >= 15 cores.
        """
        directions = 2 if full_duplex else 1
        return directions * line_rate_bps / \
            self.throughput_per_core_bps(suite)

    def packet_latency(self, suite: str, nbytes: int) -> float:
        """Software latency to encrypt (or decrypt) one packet."""
        s = self._suite(suite)
        return self.per_packet_overhead + nbytes * s.cycles_per_byte \
            / self.clock_hz
