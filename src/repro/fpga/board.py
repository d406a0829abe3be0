"""The accelerator board (paper Fig. 2/3).

A standalone FPGA card in the PCIe expansion slot of an OpenCompute
server: Altera Stratix V D5, one 4 GB DDR3-1600 channel with ECC, two
independent PCIe Gen3 x8 connections (16 GB/s aggregate each direction),
two 40 GbE QSFP+ ports (one cabled to the NIC, one to the TOR), and a
256 Mb configuration flash holding the golden image plus one application
image.

Physical constraints: half-height half-length card (80 mm x 140 mm),
35 W max electrical draw, 32 W TDP, inlet air up to 70 C at 160 lfm.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class BoardSpec:
    """Static capabilities and limits of the manufactured board."""

    fpga_family: str = "Altera Stratix V D5"
    alms: int = 172_600
    dram_bytes: int = 4 * 1024 ** 3
    dram_standard: str = "DDR3-1600"
    dram_bus_bits: int = 72  # 64 data + 8 ECC
    flash_bits: int = 256 * 1024 ** 2
    pcie_links: int = 2
    pcie_gen: int = 3
    pcie_lanes_per_link: int = 8
    ethernet_ports: int = 2
    ethernet_rate_bps: float = 40e9
    # Power / thermal envelope.
    max_power_w: float = 35.0
    tdp_w: float = 32.0
    inlet_temp_limit_c: float = 70.0
    airflow_lfm: float = 160.0
    # Physical size (half-height, half-length PCIe card).
    width_mm: float = 80.0
    length_mm: float = 140.0


@dataclass
class BoardHealth:
    """Mutable health state used by the deployment/failure models."""

    seu_flips_detected: int = 0
    seu_flips_corrected: int = 0
    dram_calibration_failures: int = 0
    pcie_training_failures: int = 0
    nic_link_unstable: bool = False
    tor_link_unstable: bool = False
    hard_failed: bool = False
    failure_reason: str = ""


@dataclass
class Board:
    """One physical card instance: spec + serial + health."""

    serial: int
    spec: BoardSpec = field(default_factory=BoardSpec)
    health: BoardHealth = field(default_factory=BoardHealth)

    def mark_hard_failure(self, reason: str) -> None:
        self.health.hard_failed = True
        self.health.failure_reason = reason

    @property
    def usable(self) -> bool:
        return not self.health.hard_failed
