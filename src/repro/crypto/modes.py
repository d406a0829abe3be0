"""AES cipher modes: CBC, CTR, and GCM (NIST SP 800-38A / 800-38D).

These are the modes the paper's crypto role implements: AES-GCM-128 (the
pipelinable mode with Intel's 1.26 cycles/byte Haswell figure) and
AES-CBC-128-SHA1 (the dependency-laden backward-compatibility mode that
needs 33-packet interleaving in hardware).

:class:`GcmContext` holds everything that depends only on the key (the
AES key schedule, the hash key H and its GHASH table), so a flow that
encrypts many packets under one key builds them once.  Keystreams, tags
and MACs are XORed as whole integers, and tags and MACs are compared in
constant time.
"""

from __future__ import annotations

import hmac
import struct
from typing import Tuple

from .aes import AES, BLOCK_BYTES
from .gf128 import GHashKey
from .sha1 import hmac_sha1


class AuthenticationError(Exception):
    """GCM tag or HMAC verification failed."""


class PaddingError(ValueError):
    """A CBC plaintext does not end in valid PKCS#7 padding."""


def _xor(data: bytes, stream: bytes) -> bytes:
    """``data`` XOR the first ``len(data)`` bytes of ``stream``."""
    n = len(data)
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(stream[:n], "big")).to_bytes(n, "big")


# ---------------------------------------------------------------------------
# Padding (PKCS#7) for CBC
# ---------------------------------------------------------------------------
def pkcs7_pad(data: bytes, block: int = BLOCK_BYTES) -> bytes:
    pad = block - (len(data) % block)
    return data + bytes([pad]) * pad


def pkcs7_unpad(data: bytes, block: int = BLOCK_BYTES) -> bytes:
    if not data or len(data) % block:
        raise PaddingError("invalid padded length")
    pad = data[-1]
    if not 1 <= pad <= block or data[-pad:] != bytes([pad]) * pad:
        raise PaddingError("invalid PKCS#7 padding")
    return data[:-pad]


# ---------------------------------------------------------------------------
# CBC
# ---------------------------------------------------------------------------
def cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    """AES-CBC encrypt (input padded with PKCS#7)."""
    if len(iv) != BLOCK_BYTES:
        raise ValueError("IV must be 16 bytes")
    data = pkcs7_pad(plaintext)
    encrypt = AES(key).encrypt_block
    out = []
    prev = iv
    for offset in range(0, len(data), BLOCK_BYTES):
        prev = encrypt(_xor(data[offset:offset + BLOCK_BYTES], prev))
        out.append(prev)
    return b"".join(out)


def cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    if len(iv) != BLOCK_BYTES:
        raise ValueError("IV must be 16 bytes")
    if len(ciphertext) % BLOCK_BYTES:
        raise ValueError("ciphertext not a block multiple")
    decrypt = AES(key).decrypt_block
    plain = b"".join([decrypt(ciphertext[offset:offset + BLOCK_BYTES])
                      for offset in range(0, len(ciphertext), BLOCK_BYTES)])
    # Block i is XORed with ciphertext block i - 1, the first with the IV.
    return pkcs7_unpad(_xor(plain, iv + ciphertext))


# ---------------------------------------------------------------------------
# CTR
# ---------------------------------------------------------------------------
def _ctr_keystream(cipher: AES, initial_counter_block: bytes,
                   nbytes: int) -> bytes:
    """At least ``nbytes`` of keystream; the counter is the block's last
    32 bits, incremented mod 2^32 (GCM's inc32)."""
    counter = int.from_bytes(initial_counter_block[12:], "big")
    prefix = initial_counter_block[:12]
    encrypt = cipher.encrypt_block
    return b"".join([
        encrypt(prefix + ((counter + i) & 0xFFFFFFFF).to_bytes(4, "big"))
        for i in range(-(-nbytes // BLOCK_BYTES))])


# ---------------------------------------------------------------------------
# GCM
# ---------------------------------------------------------------------------
def _ghash_input(aad: bytes, ciphertext: bytes) -> bytes:
    def padded(data: bytes) -> bytes:
        rem = len(data) % 16
        return data + (b"\x00" * (16 - rem) if rem else b"")

    lengths = struct.pack(">QQ", len(aad) * 8, len(ciphertext) * 8)
    return padded(aad) + padded(ciphertext) + lengths


def _check_nonce(nonce: bytes) -> None:
    if len(nonce) != 12:
        raise ValueError("GCM nonce must be 12 bytes")


class GcmContext:
    """AES-GCM under one key, for 12-byte nonces (the standard fast
    path: J0 = nonce || 1).

    Holds the key schedule, the hash key H = E_K(0^128) and H's GHASH
    table, so a message pays only for its own blocks.
    """

    __slots__ = ("_cipher", "_hash")

    def __init__(self, key: bytes):
        self._cipher = AES(key)
        self._hash = GHashKey(self._cipher.encrypt_block(bytes(BLOCK_BYTES)))

    def _tag(self, nonce: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        s = self._hash.ghash(_ghash_input(aad, ciphertext))
        mask = self._cipher.encrypt_block(nonce + b"\x00\x00\x00\x01")
        return (int.from_bytes(mask, "big") ^ s).to_bytes(16, "big")

    def _crypt(self, nonce: bytes, data: bytes) -> bytes:
        return _xor(data, _ctr_keystream(
            self._cipher, nonce + b"\x00\x00\x00\x02", len(data)))

    def encrypt(self, nonce: bytes, plaintext: bytes,
                aad: bytes = b"") -> Tuple[bytes, bytes]:
        """Returns ``(ciphertext, 16-byte tag)``."""
        _check_nonce(nonce)
        ciphertext = self._crypt(nonce, plaintext)
        return ciphertext, self._tag(nonce, aad, ciphertext)

    def decrypt(self, nonce: bytes, ciphertext: bytes, tag: bytes,
                aad: bytes = b"") -> bytes:
        """Verify, then decrypt; raises :class:`AuthenticationError`."""
        _check_nonce(nonce)
        if not hmac.compare_digest(self._tag(nonce, aad, ciphertext), tag):
            raise AuthenticationError("GCM tag mismatch")
        return self._crypt(nonce, ciphertext)


# ---------------------------------------------------------------------------
# CBC + HMAC-SHA1 (encrypt-then-MAC composition)
# ---------------------------------------------------------------------------
def cbc_hmac_encrypt(enc_key: bytes, mac_key: bytes, iv: bytes,
                     plaintext: bytes) -> Tuple[bytes, bytes]:
    """AES-CBC-128-SHA1 composite: returns (ciphertext, 20-byte mac)."""
    ciphertext = cbc_encrypt(enc_key, iv, plaintext)
    return ciphertext, hmac_sha1(mac_key, iv + ciphertext)


def cbc_hmac_decrypt(enc_key: bytes, mac_key: bytes, iv: bytes,
                     ciphertext: bytes, mac: bytes) -> bytes:
    """Verify, then decrypt; raises :class:`AuthenticationError`, or
    :class:`PaddingError` if an authentic ciphertext does not unpad under
    ``enc_key``."""
    if not hmac.compare_digest(hmac_sha1(mac_key, iv + ciphertext), mac):
        raise AuthenticationError("HMAC-SHA1 mismatch")
    return cbc_decrypt(enc_key, iv, ciphertext)
