"""Deterministic random-number streams.

Every stochastic component takes a :class:`RandomStreams` (or a stream drawn
from one) so that whole-cloud simulations are reproducible from a single
seed, and so that changing the amount of randomness one component consumes
does not perturb any other component's draws.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def _derive_seed(master_seed: int, *parts: object) -> int:
    """Stable 48-bit child seed from a master seed and a name path.

    Built on SHA-256 rather than ``hash()``: Python salts string hashing
    per process (PYTHONHASHSEED), so ``hash((seed, name))`` silently broke
    the "reproducible from a single seed" contract — every fresh
    interpreter got different child streams for the same master seed.
    """
    key = repr((int(master_seed),) + parts).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:6], "big")


class RandomStreams:
    """A registry of independent, named ``random.Random`` streams.

    Streams are derived from the master seed and the stream name, so the
    same (seed, name) pair always yields the same sequence regardless of
    creation order — and, since the derivation is a stable hash, regardless
    of interpreter process and PYTHONHASHSEED.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating if needed) the stream registered under ``name``."""
        if name not in self._streams:
            # Derive a child seed that depends on both master seed and name.
            self._streams[name] = random.Random(_derive_seed(self.seed, name))
        return self._streams[name]


def percentile(sorted_values, q: float) -> float:
    """Percentile (0..100) of a pre-sorted sequence, linear interpolation.

    Kept here (not numpy) so hot simulation paths avoid array conversion for
    small samples; large-sample analysis code uses numpy directly.
    """
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    n = len(sorted_values)
    if n == 1:
        return float(sorted_values[0])
    rank = (q / 100.0) * (n - 1)
    lo = int(rank)
    hi = min(lo + 1, n - 1)
    frac = rank - lo
    a, b = float(sorted_values[lo]), float(sorted_values[hi])
    if frac == 0.0 or a == b:
        return a
    # Clamp: a + (b-a)*frac can land an ulp outside [a, b].
    return min(max(a + (b - a) * frac, a), b)
