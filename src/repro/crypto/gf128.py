"""GF(2^128) arithmetic for GHASH (the GCM universal hash).

GHASH operates in GF(2^128) defined by x^128 + x^7 + x^2 + x + 1, with
the bit-reflected convention of NIST SP 800-38D: bit 0 of a block is the
coefficient of x^0 and blocks are processed most-significant-bit first.
As an integer (big-endian), the top bit is x^0, so multiplying by x is a
right shift with the reduction folded back in at the top.

:class:`GHashKey` multiplies by a fixed hash key H with Shoup's 8-bit
table method: one 256-entry table of byte multiples of H, built once per
key, and one 256-entry reduction table shared by every key.  A product
then costs 16 steps of "shift the accumulator one byte, fold the byte
that fell off back in, add the next byte's multiple of H".
:func:`gf_mult` is the bit-serial SP 800-38D multiply, kept as the
reference the table method is tested against.
"""

from __future__ import annotations

#: The GCM reduction polynomial, as the bit-reversed constant R.
_R = 0xE1000000000000000000000000000000


def block_to_int(block: bytes) -> int:
    """A 16-byte block as the integer GCM operates on (big-endian)."""
    if len(block) != 16:
        raise ValueError("GF(2^128) elements are 16 bytes")
    return int.from_bytes(block, "big")


def int_to_block(value: int) -> bytes:
    return value.to_bytes(16, "big")


def gf_mult(x: int, y: int) -> int:
    """Multiply two field elements (NIST SP 800-38D algorithm 1)."""
    z = 0
    v = x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z


def _times_x(v: int) -> int:
    return (v >> 1) ^ _R if v & 1 else v >> 1


def _times_x8(v: int) -> int:
    for _ in range(8):
        v = _times_x(v)
    return v


#: ``_REDUCE[b]`` is ``b * x^8`` for a low byte ``b``: shifting a product
#: one byte right drops ``b`` off the bottom, and this adds it back
#: reduced.  It is the same for every H.
_REDUCE = tuple(_times_x8(b) for b in range(256))


class GHashKey:
    """Multiplication by one hash key H, by Shoup's 8-bit method."""

    __slots__ = ("_table",)

    def __init__(self, h: bytes):
        # table[b] = b * H, where byte b holds the coefficients of
        # x^0 (bit 7) .. x^7 (bit 0).  Fill the single-bit entries by
        # repeated multiplication by x, the rest by linearity.
        table = [0] * 256
        v = block_to_int(h)
        bit = 0x80
        while bit:
            table[bit] = v
            v = _times_x(v)
            bit >>= 1
        bit = 2
        while bit < 256:
            for low in range(1, bit):
                table[bit | low] = table[bit] ^ table[low]
            bit <<= 1
        self._table = table

    def mult(self, x: int) -> int:
        """``x * H``: Horner's rule over the bytes of ``x``, from the
        highest-degree byte (the last) to the first."""
        table, reduce = self._table, _REDUCE
        z = 0
        for byte in x.to_bytes(16, "little"):
            z = (z >> 8) ^ reduce[z & 0xFF] ^ table[byte]
        return z

    def ghash(self, data: bytes) -> int:
        """GHASH_H over ``data`` (already padded to a 16-byte multiple),
        as an integer."""
        if len(data) % 16:
            raise ValueError("GHASH input must be a multiple of 16 bytes")
        mult, from_bytes = self.mult, int.from_bytes
        y = 0
        for offset in range(0, len(data), 16):
            y = mult(y ^ from_bytes(data[offset:offset + 16], "big"))
        return y


def ghash(h: bytes, data: bytes) -> bytes:
    """GHASH_H over ``data`` (already padded to a 16-byte multiple)."""
    return int_to_block(GHashKey(h).ghash(data))
