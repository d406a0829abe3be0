"""Crypto substrate: real ciphers + FPGA/software timing models (§IV).

* Functional: :mod:`~repro.crypto.aes` (AES-128/192/256),
  :mod:`~repro.crypto.modes` (CBC/CTR/GCM, CBC+HMAC-SHA1),
  :mod:`~repro.crypto.sha1`, :mod:`~repro.crypto.gf128` — all verified
  against FIPS/NIST/RFC vectors in the test suite.
* Timing: :mod:`~repro.crypto.engine` (the FPGA crypto role) and
  :mod:`~repro.crypto.swmodel` (Haswell cycles/byte).
* Integration: :mod:`~repro.crypto.flows` — the per-flow transparent
  encryption tap installed in the bump-in-the-wire bridge.
"""

from .aes import AES, BLOCK_BYTES, INV_SBOX, SBOX
from .engine import (
    AES_BLOCK_BYTES,
    CBC_INTERLEAVE_PACKETS,
    FpgaCryptoConfig,
    FpgaCryptoEngine,
)
from .flows import (
    EncryptedPayload,
    EncryptionTap,
    FlowEntry,
    FlowKey,
    FlowTable,
)
from .gf128 import gf_mult, ghash
from .modes import (
    AuthenticationError,
    GcmContext,
    PaddingError,
    cbc_decrypt,
    cbc_encrypt,
    cbc_hmac_decrypt,
    cbc_hmac_encrypt,
    pkcs7_pad,
    pkcs7_unpad,
)
from .sha1 import hmac_sha1, sha1
from .swmodel import HASWELL_SUITES, CipherSuite, SoftwareCryptoModel

__all__ = [
    "AES",
    "AES_BLOCK_BYTES",
    "AuthenticationError",
    "BLOCK_BYTES",
    "CBC_INTERLEAVE_PACKETS",
    "CipherSuite",
    "EncryptedPayload",
    "EncryptionTap",
    "FlowEntry",
    "FlowKey",
    "FlowTable",
    "FpgaCryptoConfig",
    "FpgaCryptoEngine",
    "GcmContext",
    "HASWELL_SUITES",
    "INV_SBOX",
    "PaddingError",
    "SBOX",
    "SoftwareCryptoModel",
    "cbc_decrypt",
    "cbc_encrypt",
    "cbc_hmac_decrypt",
    "cbc_hmac_encrypt",
    "gf_mult",
    "ghash",
    "hmac_sha1",
    "pkcs7_pad",
    "pkcs7_unpad",
    "sha1",
]
