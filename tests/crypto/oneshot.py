"""One-shot AES-CTR and AES-GCM calls: the references the library's
per-key :class:`repro.crypto.GcmContext` fast path is checked against
(NIST vectors in ``test_modes_hash.py``, the ``cryptography`` package in
``test_oracle.py``, round trips in ``tests/property``).

The simulator itself only keeps a context per flow, so nothing in
``src`` calls these.
"""

from typing import Tuple

from repro.crypto.aes import AES
from repro.crypto.modes import GcmContext, _ctr_keystream, _xor


def ctr_crypt(key: bytes, counter_block: bytes, data: bytes) -> bytes:
    """AES-CTR: encryption and decryption are the same operation."""
    return _xor(data, _ctr_keystream(AES(key), counter_block, len(data)))


def gcm_encrypt(key: bytes, nonce: bytes, plaintext: bytes,
                aad: bytes = b"") -> Tuple[bytes, bytes]:
    """AES-GCM encrypt; returns ``(ciphertext, 16-byte tag)``.

    Nonce must be 12 bytes (the standard fast path: J0 = nonce || 1).
    """
    return GcmContext(key).encrypt(nonce, plaintext, aad)


def gcm_decrypt(key: bytes, nonce: bytes, ciphertext: bytes, tag: bytes,
                aad: bytes = b"") -> bytes:
    """AES-GCM decrypt+verify; raises
    :class:`repro.crypto.AuthenticationError`."""
    return GcmContext(key).decrypt(nonce, ciphertext, tag, aad)
