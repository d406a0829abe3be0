"""E5 — §IV: network crypto acceleration.

The §IV cost table: CPU cores consumed per cipher suite at 40 Gb/s
(GCM-128 ~ 5 cores; CBC-128-SHA1 >= 15 cores full duplex) and the
FPGA-vs-software per-packet latency for a 1500 B packet (11 us vs ~4 us
for CBC-SHA1); then real end-to-end flow encryption through two
bump-in-the-wire FPGAs on the fabric.
"""

from dataclasses import dataclass
from typing import List

from ..core.cloud import ConfigurableCloud
from ..crypto.engine import FpgaCryptoEngine
from ..crypto.flows import EncryptionTap, FlowKey
from ..crypto.swmodel import SoftwareCryptoModel
from .harness import Table, approx, claim, fmt

TITLE = "§IV — crypto cost model and transparent flow encryption"

SUITES = ("aes-gcm-128", "aes-gcm-256", "aes-cbc-128", "aes-cbc-128-sha1")


@dataclass
class CryptoRow:
    """One cipher suite's §IV numbers."""

    suite: str
    cores_full_duplex: float
    sw_latency_1500B: float
    fpga_latency_1500B: float
    fpga_throughput_bps: float


def cost_table() -> List[CryptoRow]:
    """Regenerate the §IV cost table."""
    software, engine = SoftwareCryptoModel(), FpgaCryptoEngine()
    return [CryptoRow(
        suite=suite,
        cores_full_duplex=software.cores_for_line_rate(suite),
        sw_latency_1500B=software.packet_latency(suite, 1500),
        fpga_latency_1500B=engine.latency(suite, 1500),
        fpga_throughput_bps=engine.throughput_bps(suite))
        for suite in SUITES]


def flow_encryption():
    """50 packets through AES-GCM bridge taps on two hosts: the payloads
    delivered, and both taps."""
    cloud = ConfigurableCloud(seed=9)
    a = cloud.add_server(0)
    b = cloud.add_server(1)
    tap_a, tap_b = EncryptionTap(), EncryptionTap()
    tap_a.install(a.shell.bridge)
    tap_b.install(b.shell.bridge)
    template = a.shell.attachment.make_packet(
        1, b"x" * 1200, src_port=9000, dst_port=9001)
    flow = FlowKey.of_packet(template)
    tap_a.flows.setup_flow(flow, bytes(16))
    tap_b.flows.setup_flow(flow, bytes(16))
    received = []
    b.on_packet(lambda p: received.append(p.payload))

    def driver(env):
        for i in range(50):
            a.nic_send(a.shell.attachment.make_packet(
                1, bytes([i % 251]) * 1200, src_port=9000, dst_port=9001))
            yield env.timeout(5e-6)

    cloud.env.process(driver(cloud.env))
    cloud.run(until=0.1)
    return received, tap_a, tap_b


def run():
    return cost_table(), flow_encryption()


def rows(result):
    costs, (received, tap_a, tap_b) = result
    return [
        Table("§IV — crypto at 40 Gb/s (full duplex, Haswell 2.4 GHz)",
              ("suite", "cores", "sw us/1500B", "fpga us/1500B",
               "fpga Gb/s"),
              [(r.suite, fmt(r.cores_full_duplex),
                fmt(r.sw_latency_1500B * 1e6),
                fmt(r.fpga_latency_1500B * 1e6),
                fmt(r.fpga_throughput_bps / 1e9, 1)) for r in costs]),
        f"§IV — transparent flow encryption: {tap_a.encrypted} packets "
        f"encrypted on TX FPGA, {tap_b.decrypted} decrypted on RX FPGA, "
        f"{len(received)} delivered as plaintext, "
        f"{tap_b.auth_failures} auth failures"]


def check(result) -> None:
    costs, (received, tap_a, tap_b) = result
    by_suite = {row.suite: row for row in costs}
    # "40 Gb/s encryption/decryption consumes roughly five cores."
    claim('by_suite["aes-gcm-128"].cores_full_duplex == '
          'approx(5.25, abs=0.05)')
    # "Consumes at least fifteen cores to achieve 40 Gb/s full duplex."
    claim('by_suite["aes-cbc-128-sha1"].cores_full_duplex >= 15 - 1e-9')
    # "Worst case half-duplex FPGA crypto latency ... is 11 us."
    claim('by_suite["aes-cbc-128-sha1"].fpga_latency_1500B == '
          'approx(11e-6, rel=0.02)')
    # "In software ... it is approximately 4 us."
    claim('by_suite["aes-cbc-128-sha1"].sw_latency_1500B == '
          'approx(4e-6, rel=0.05)')
    # FPGA runs every suite at line rate.
    for row in costs:
        claim("row.fpga_throughput_bps >= 38e9")
    # Every packet crossed both taps and arrived as its plaintext.
    claim("len(received) == 50",
          "tap_a.encrypted == 50 and tap_b.decrypted == 50",
          "all(payload == bytes([i % 251]) * 1200 "
          "for i, payload in enumerate(received))")
