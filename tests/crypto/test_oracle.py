"""Differential checks of the from-scratch crypto against independent
implementations: AES and its modes against the ``cryptography`` package,
SHA-1 and HMAC-SHA1 against the standard library, and the table-driven
GHASH multiply against the bit-serial reference."""

import hashlib
import hmac
import random

import pytest

from repro.crypto.aes import AES
from repro.crypto.gf128 import GHashKey, gf_mult
from repro.crypto.modes import cbc_decrypt, cbc_encrypt
from repro.crypto.sha1 import hmac_sha1, sha1

from .oneshot import ctr_crypt, gcm_decrypt, gcm_encrypt

KEY_BYTES = (16, 24, 32)
#: Plaintext sizes up to a full 1500-B frame, on and off block multiples.
LENGTHS = (0, 1, 15, 16, 17, 31, 33, 64, 100, 255, 1199, 1200, 1500)
AAD_LENGTHS = (0, 1, 12, 16, 20, 64)


@pytest.fixture(scope="module")
def ciphers():
    return pytest.importorskip("cryptography.hazmat.primitives.ciphers")


@pytest.fixture(scope="module")
def aead():
    return pytest.importorskip(
        "cryptography.hazmat.primitives.ciphers.aead")


def _oracle(ciphers, key, mode):
    return ciphers.Cipher(ciphers.algorithms.AES(key), mode)


@pytest.mark.parametrize("key_bytes", KEY_BYTES)
class TestAgainstCryptography:
    def test_block(self, ciphers, key_bytes):
        rng = random.Random(key_bytes)
        for _ in range(64):
            key, block = rng.randbytes(key_bytes), rng.randbytes(16)
            expected = _oracle(ciphers, key,
                               ciphers.modes.ECB()).encryptor().update(block)
            aes = AES(key)
            assert aes.encrypt_block(block) == expected
            assert aes.decrypt_block(expected) == block

    def test_ctr(self, ciphers, key_bytes):
        rng = random.Random(100 + key_bytes)
        for length in LENGTHS:
            key, data = rng.randbytes(key_bytes), rng.randbytes(length)
            # Keep the low 32-bit counter clear of wrapping: the oracle
            # carries into the whole block, ours (GCM's inc32) does not.
            counter = rng.randbytes(12) + rng.randrange(2 ** 31).to_bytes(
                4, "big")
            expected = _oracle(ciphers, key, ciphers.modes.CTR(counter)) \
                .encryptor().update(data)
            assert ctr_crypt(key, counter, data) == expected
            assert ctr_crypt(key, counter, expected) == data

    def test_cbc(self, ciphers, key_bytes):
        padding = pytest.importorskip(
            "cryptography.hazmat.primitives.padding")
        rng = random.Random(200 + key_bytes)
        for length in LENGTHS:
            key, iv = rng.randbytes(key_bytes), rng.randbytes(16)
            data = rng.randbytes(length)
            padder = padding.PKCS7(128).padder()
            padded = padder.update(data) + padder.finalize()
            expected = _oracle(ciphers, key, ciphers.modes.CBC(iv)) \
                .encryptor().update(padded)
            assert cbc_encrypt(key, iv, data) == expected
            assert cbc_decrypt(key, iv, expected) == data

    def test_gcm(self, aead, key_bytes):
        rng = random.Random(300 + key_bytes)
        for i, length in enumerate(LENGTHS):
            aad = rng.randbytes(AAD_LENGTHS[i % len(AAD_LENGTHS)])
            key, nonce = rng.randbytes(key_bytes), rng.randbytes(12)
            data = rng.randbytes(length)
            sealed = aead.AESGCM(key).encrypt(nonce, data, aad)
            ciphertext, tag = gcm_encrypt(key, nonce, data, aad)
            assert ciphertext + tag == sealed
            assert gcm_decrypt(key, nonce, sealed[:-16], sealed[-16:],
                               aad) == data


def test_sha1_and_hmac_against_stdlib():
    rng = random.Random(7)
    # Every length around the 55/56/64-byte padding boundaries, then
    # longer messages; keys shorter and longer than the 64-byte block.
    for length in list(range(0, 130)) + [1000, 1500]:
        message = rng.randbytes(length)
        assert sha1(message) == hashlib.sha1(message).digest()
        key = rng.randbytes(rng.choice((0, 1, 20, 63, 64, 65, 100)))
        assert hmac_sha1(key, message) == \
            hmac.new(key, message, hashlib.sha1).digest()


def test_ghash_table_multiply_against_bit_serial():
    rng = random.Random(11)
    for _ in range(32):
        h = rng.getrandbits(128)
        key = GHashKey(h.to_bytes(16, "big"))
        for x in (0, 1, 1 << 127, (1 << 128) - 1, h) + tuple(
                rng.getrandbits(128) for _ in range(8)):
            assert key.mult(x) == gf_mult(x, h)
