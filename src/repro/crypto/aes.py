"""AES block cipher (FIPS-197), implemented from scratch.

Supports AES-128/192/256 encryption and decryption of single 16-byte
blocks.  This is the functional core behind the shell's line-rate flow
encryption (§IV); cipher *modes* live in :mod:`repro.crypto.modes` and
*timing* in :mod:`repro.crypto.engine` / :mod:`repro.crypto.swmodel`.

The cipher is table-driven.  At import the S-box is built from GF(2^8)
log/antilog tables, and from it the four Te (encryption) and four Td
(decryption) round tables: each maps one state byte to its 32-bit
column contribution of SubBytes plus (Inv)MixColumns, pre-rotated for
its row.  A block then runs as four 32-bit column words per round, with
16 table lookups per round; ShiftRows is folded into which bytes feed
which column.  Decryption is FIPS-197's equivalent inverse cipher, on
round keys passed through InvMixColumns once at key expansion.
Correctness is pinned by the FIPS-197 and NIST vectors in the test suite
and by a differential test against an independent AES implementation.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

BLOCK_BYTES = 16

_WORDS = struct.Struct(">4I")


def _field_tables() -> Tuple[List[int], List[int]]:
    """Antilog and log tables of GF(2^8) mod x^8 + x^4 + x^3 + x + 1,
    on the generator 3; the antilog table is doubled so a sum of two
    logs indexes it without a modulo."""
    exp = [0] * 510
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = exp[i + 255] = x
        log[x] = i
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)   # x * 3
    return exp, log


_EXP, _LOG = _field_tables()


def _mul(a: int, b: int) -> int:
    """GF(2^8) product (build-time only)."""
    return _EXP[_LOG[a] + _LOG[b]] if a and b else 0


def _build_sbox() -> Tuple[tuple, tuple]:
    """The S-box: the field inverse, then the FIPS-197 affine map
    (XOR of the byte with its four left rotations, then 0x63)."""
    sbox = []
    for x in range(256):
        s = r = _EXP[255 - _LOG[x]] if x else 0
        for _ in range(4):
            r = ((r << 1) | (r >> 7)) & 0xFF
            s ^= r
        sbox.append(s ^ 0x63)
    inv_sbox = [0] * 256
    for x, v in enumerate(sbox):
        inv_sbox[v] = x
    return tuple(sbox), tuple(inv_sbox)


SBOX, INV_SBOX = _build_sbox()

RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36,
        0x6C, 0xD8, 0xAB, 0x4D)


def _round_tables(box: Sequence[int], coefficients: Tuple[int, ...]
                  ) -> Tuple[List[int], ...]:
    """T0..T3 for one direction: T0[x] is the column ``coefficients *
    box[x]`` as a big-endian word, and Tr is T0 rotated right r bytes."""
    t0 = []
    for x in range(256):
        s = box[x]
        word = 0
        for c in coefficients:
            word = (word << 8) | _mul(c, s)
        t0.append(word)
    tables = [t0]
    for r in (8, 16, 24):
        tables.append([((w >> r) | (w << (32 - r))) & 0xFFFFFFFF
                       for w in t0])
    return tuple(tables)


def _shifted(box: Sequence[int]) -> Tuple[List[int], ...]:
    """A byte table as the four byte lanes of a big-endian word."""
    return tuple([v << shift for v in box] for shift in (24, 16, 8, 0))


#: SubBytes + MixColumns, and InvSubBytes + InvMixColumns, per row.
_TE = _round_tables(SBOX, (2, 1, 1, 3))
_TD = _round_tables(INV_SBOX, (14, 9, 13, 11))
#: (Inv)SubBytes alone, per row: the final round has no MixColumns.
_SE = _shifted(SBOX)
_SD = _shifted(INV_SBOX)

def _sub_word(w: int) -> int:
    s3, s2, s1, s0 = _SE
    return (s3[w >> 24] | s2[(w >> 16) & 0xFF] | s1[(w >> 8) & 0xFF]
            | s0[w & 0xFF])


def _inv_mix_word(w: int) -> int:
    """InvMixColumns of one column word (Td undoes the S-box it folds
    in, so the byte goes through SBOX first)."""
    t0, t1, t2, t3 = _TD
    return (t0[SBOX[w >> 24]] ^ t1[SBOX[(w >> 16) & 0xFF]]
            ^ t2[SBOX[(w >> 8) & 0xFF]] ^ t3[SBOX[w & 0xFF]])


def _split(words: List[int], rounds: int) -> tuple:
    """Round keys as (first, middle rounds, last) 4-word tuples."""
    keys = [tuple(words[4 * r:4 * r + 4]) for r in range(rounds + 1)]
    return keys[0], tuple(keys[1:-1]), keys[-1]


class AES:
    """One expanded key; encrypt/decrypt 16-byte blocks."""

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise ValueError("AES key must be 16, 24 or 32 bytes")
        self.key = bytes(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        words = self._expand_key(self.key)
        self._enc_keys = _split(words, self.rounds)
        # Equivalent inverse cipher: the round keys in reverse order,
        # every middle one through InvMixColumns.
        rounds = self.rounds
        dec = []
        for r in range(rounds, -1, -1):
            column = words[4 * r:4 * r + 4]
            if 0 < r < rounds:
                column = [_inv_mix_word(w) for w in column]
            dec.extend(column)
        self._dec_keys = _split(dec, rounds)

    # ------------------------------------------------------------------
    # Key schedule
    # ------------------------------------------------------------------
    def _expand_key(self, key: bytes) -> List[int]:
        """The FIPS-197 key expansion, as big-endian 32-bit words."""
        nk = len(key) // 4
        words = list(struct.unpack(f">{nk}I", key))
        for i in range(nk, 4 * (self.rounds + 1)):
            temp = words[i - 1]
            if i % nk == 0:
                rotated = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF
                temp = _sub_word(rotated) ^ (RCON[i // nk - 1] << 24)
            elif nk > 6 and i % nk == 4:
                temp = _sub_word(temp)
            words.append(words[i - nk] ^ temp)
        return words

    # ------------------------------------------------------------------
    # Block operations.  A round reads the state as 16 bytes b0..b15
    # (column-major: column c is b[4c..4c+3]) and writes four column
    # words; ShiftRows picks row r of output column c from input column
    # c + r, InvShiftRows from column c - r.
    # ------------------------------------------------------------------
    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_BYTES:
            raise ValueError("AES block must be 16 bytes")
        pack = _WORDS.pack
        t0, t1, t2, t3 = _TE
        first, middle, last = self._enc_keys
        w0, w1, w2, w3 = _WORDS.unpack(block)
        k0, k1, k2, k3 = first
        (b0, b1, b2, b3, b4, b5, b6, b7,
         b8, b9, b10, b11, b12, b13, b14, b15) = pack(
            w0 ^ k0, w1 ^ k1, w2 ^ k2, w3 ^ k3)
        for k0, k1, k2, k3 in middle:
            (b0, b1, b2, b3, b4, b5, b6, b7,
             b8, b9, b10, b11, b12, b13, b14, b15) = pack(
                t0[b0] ^ t1[b5] ^ t2[b10] ^ t3[b15] ^ k0,
                t0[b4] ^ t1[b9] ^ t2[b14] ^ t3[b3] ^ k1,
                t0[b8] ^ t1[b13] ^ t2[b2] ^ t3[b7] ^ k2,
                t0[b12] ^ t1[b1] ^ t2[b6] ^ t3[b11] ^ k3)
        s3, s2, s1, s0 = _SE
        k0, k1, k2, k3 = last
        return pack(s3[b0] ^ s2[b5] ^ s1[b10] ^ s0[b15] ^ k0,
                    s3[b4] ^ s2[b9] ^ s1[b14] ^ s0[b3] ^ k1,
                    s3[b8] ^ s2[b13] ^ s1[b2] ^ s0[b7] ^ k2,
                    s3[b12] ^ s2[b1] ^ s1[b6] ^ s0[b11] ^ k3)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_BYTES:
            raise ValueError("AES block must be 16 bytes")
        pack = _WORDS.pack
        t0, t1, t2, t3 = _TD
        first, middle, last = self._dec_keys
        w0, w1, w2, w3 = _WORDS.unpack(block)
        k0, k1, k2, k3 = first
        (b0, b1, b2, b3, b4, b5, b6, b7,
         b8, b9, b10, b11, b12, b13, b14, b15) = pack(
            w0 ^ k0, w1 ^ k1, w2 ^ k2, w3 ^ k3)
        for k0, k1, k2, k3 in middle:
            (b0, b1, b2, b3, b4, b5, b6, b7,
             b8, b9, b10, b11, b12, b13, b14, b15) = pack(
                t0[b0] ^ t1[b13] ^ t2[b10] ^ t3[b7] ^ k0,
                t0[b4] ^ t1[b1] ^ t2[b14] ^ t3[b11] ^ k1,
                t0[b8] ^ t1[b5] ^ t2[b2] ^ t3[b15] ^ k2,
                t0[b12] ^ t1[b9] ^ t2[b6] ^ t3[b3] ^ k3)
        s3, s2, s1, s0 = _SD
        k0, k1, k2, k3 = last
        return pack(s3[b0] ^ s2[b13] ^ s1[b10] ^ s0[b7] ^ k0,
                    s3[b4] ^ s2[b1] ^ s1[b14] ^ s0[b11] ^ k1,
                    s3[b8] ^ s2[b5] ^ s1[b2] ^ s0[b15] ^ k2,
                    s3[b12] ^ s2[b9] ^ s1[b6] ^ s0[b3] ^ k3)
