"""Mode + hash correctness against NIST SP 800-38A/38D and RFC vectors."""

import pytest

from repro.crypto.gf128 import block_to_int, gf_mult, ghash, int_to_block
from repro.crypto.modes import (
    AuthenticationError,
    cbc_decrypt,
    cbc_encrypt,
    cbc_hmac_decrypt,
    cbc_hmac_encrypt,
    pkcs7_pad,
    pkcs7_unpad,
)
from repro.crypto.sha1 import hmac_sha1, sha1

from .oneshot import ctr_crypt, gcm_decrypt, gcm_encrypt

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
NIST_PT = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a"
                        "ae2d8a571e03ac9c9eb76fac45af8e51")


class TestPkcs7:
    def test_pad_length_multiple(self):
        assert len(pkcs7_pad(b"abc")) == 16
        assert len(pkcs7_pad(bytes(16))) == 32

    def test_roundtrip(self):
        for n in range(0, 33):
            data = bytes(range(n % 256))[:n]
            assert pkcs7_unpad(pkcs7_pad(data)) == data

    def test_bad_padding_detected(self):
        with pytest.raises(ValueError):
            pkcs7_unpad(bytes(16))
        with pytest.raises(ValueError):
            pkcs7_unpad(b"short")


class TestCbc:
    def test_nist_f21_blocks(self):
        ct = cbc_encrypt(KEY, IV, NIST_PT)
        assert ct[:16].hex() == "7649abac8119b246cee98e9b12e9197d"
        assert ct[16:32].hex() == "5086cb9b507219ee95db113a917678b2"

    def test_roundtrip_odd_lengths(self):
        for n in (0, 1, 15, 16, 17, 100):
            data = bytes(range(n % 256))[:n]
            assert cbc_decrypt(KEY, IV, cbc_encrypt(KEY, IV, data)) == data

    def test_iv_must_be_block_sized(self):
        with pytest.raises(ValueError):
            cbc_encrypt(KEY, b"short", b"data")

    def test_ciphertext_block_multiple_required(self):
        with pytest.raises(ValueError):
            cbc_decrypt(KEY, IV, b"not-a-multiple!")

    def test_same_plaintext_different_iv_differs(self):
        other_iv = bytes(16)
        assert cbc_encrypt(KEY, IV, b"hello") != \
            cbc_encrypt(KEY, other_iv, b"hello")


class TestCtr:
    COUNTER = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")

    def test_nist_f51(self):
        ct = ctr_crypt(KEY, self.COUNTER, NIST_PT)
        assert ct[:16].hex() == "874d6191b620e3261bef6864990db6ce"
        assert ct[16:32].hex() == "9806f66b7970fdff8617187bb9fffdff"

    def test_involution(self):
        data = b"stream cipher mode" * 3
        assert ctr_crypt(KEY, self.COUNTER,
                         ctr_crypt(KEY, self.COUNTER, data)) == data


class TestGcm:
    # NIST GCM test case 4 (AES-128, with AAD).
    K = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
    N = bytes.fromhex("cafebabefacedbaddecaf888")
    PT = bytes.fromhex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39")
    AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
    CT = bytes.fromhex(
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
        "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091")
    TAG = bytes.fromhex("5bc94fbc3221a5db94fae95ae7121a47")

    def test_nist_case4_encrypt(self):
        ct, tag = gcm_encrypt(self.K, self.N, self.PT, self.AAD)
        assert ct == self.CT and tag == self.TAG

    def test_nist_case1_empty(self):
        ct, tag = gcm_encrypt(bytes(16), bytes(12), b"")
        assert ct == b""
        assert tag.hex() == "58e2fccefa7e3061367f1d57a4e7455a"

    def test_decrypt_verifies(self):
        assert gcm_decrypt(self.K, self.N, self.CT, self.TAG,
                           self.AAD) == self.PT

    def test_tampered_ciphertext_rejected(self):
        bad = bytearray(self.CT)
        bad[0] ^= 1
        with pytest.raises(AuthenticationError):
            gcm_decrypt(self.K, self.N, bytes(bad), self.TAG, self.AAD)

    def test_tampered_tag_rejected(self):
        bad = bytearray(self.TAG)
        bad[-1] ^= 1
        with pytest.raises(AuthenticationError):
            gcm_decrypt(self.K, self.N, self.CT, bytes(bad), self.AAD)

    def test_wrong_aad_rejected(self):
        with pytest.raises(AuthenticationError):
            gcm_decrypt(self.K, self.N, self.CT, self.TAG, b"other")

    def test_nonce_must_be_12_bytes(self):
        with pytest.raises(ValueError):
            gcm_encrypt(self.K, bytes(16), b"x")


class TestGf128:
    def test_mult_identity(self):
        one = 1 << 127  # x^0 in the reflected representation
        x = block_to_int(bytes(range(16)))
        assert gf_mult(x, one) == x

    def test_mult_commutative(self):
        a = block_to_int(bytes(range(16)))
        b = block_to_int(bytes(range(16, 32)))
        assert gf_mult(a, b) == gf_mult(b, a)

    def test_mult_zero(self):
        assert gf_mult(0, 12345) == 0

    def test_ghash_requires_block_multiple(self):
        with pytest.raises(ValueError):
            ghash(bytes(16), b"odd")

    def test_block_int_roundtrip(self):
        raw = bytes(range(16))
        assert int_to_block(block_to_int(raw)) == raw


class TestSha1:
    def test_fips_vectors(self):
        assert sha1(b"abc").hex() == \
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        assert sha1(b"").hex() == \
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        assert sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").hex() == \
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"

    def test_million_a(self):
        assert sha1(b"a" * 1_000_000).hex() == \
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"

    def test_hmac_rfc2202_case1(self):
        assert hmac_sha1(b"\x0b" * 20, b"Hi There").hex() == \
            "b617318655057264e28bc0b6fb378c8ef146be00"

    def test_hmac_rfc2202_case2(self):
        assert hmac_sha1(b"Jefe", b"what do ya want for nothing?").hex() \
            == "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"

    def test_hmac_long_key(self):
        # Keys longer than the block size are hashed first (RFC case 6).
        key = b"\xaa" * 80
        msg = b"Test Using Larger Than Block-Size Key - Hash Key First"
        assert hmac_sha1(key, msg).hex() == \
            "aa4ae5e15272d00e95705637ce8a3b55ed402112"


class TestCbcHmacComposite:
    def test_roundtrip(self):
        ct, mac = cbc_hmac_encrypt(KEY, b"mac-key", IV, b"payload" * 10)
        assert cbc_hmac_decrypt(KEY, b"mac-key", IV, ct, mac) == \
            b"payload" * 10

    def test_bad_mac_rejected(self):
        ct, mac = cbc_hmac_encrypt(KEY, b"mac-key", IV, b"payload")
        with pytest.raises(AuthenticationError):
            cbc_hmac_decrypt(KEY, b"mac-key", IV, ct,
                             bytes(len(mac)))

    def test_wrong_mac_key_rejected(self):
        ct, mac = cbc_hmac_encrypt(KEY, b"mac-key", IV, b"payload")
        with pytest.raises(AuthenticationError):
            cbc_hmac_decrypt(KEY, b"other", IV, ct, mac)
