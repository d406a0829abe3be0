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

from .. import _lazy_exports

# Bound here, not on first lookup: loading the submodule of the same
# name binds the module to ``sha1``, and a lookup would find that.
from .sha1 import sha1

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "aes": ("AES", "BLOCK_BYTES", "INV_SBOX", "SBOX"),
    "engine": ("AES_BLOCK_BYTES", "CBC_INTERLEAVE_PACKETS", "FpgaCryptoConfig",
               "FpgaCryptoEngine"),
    "flows": ("EncryptedPayload", "EncryptionTap", "FlowEntry", "FlowKey",
              "FlowTable"),
    "gf128": ("gf_mult", "ghash"),
    "modes": ("AuthenticationError", "GcmContext", "PaddingError",
              "cbc_decrypt", "cbc_encrypt", "cbc_hmac_decrypt",
              "cbc_hmac_encrypt", "pkcs7_pad", "pkcs7_unpad"),
    "sha1": ("hmac_sha1", "sha1"),
    "swmodel": ("HASWELL_SUITES", "CipherSuite", "SoftwareCryptoModel"),
})
