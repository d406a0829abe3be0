"""Tests for the Fig. 5 area budget, board spec, and power model."""

import pytest

from repro.fpga import (
    AreaBudget,
    BoardSpec,
    PowerModel,
    ThermalConditions,
    power_virus_power_w,
    validate_envelope,
)
from repro.fpga.area import TOTAL_ALMS
from repro.fpga.board import Board


class TestAreaBudget:
    """Pins the invariants the paper's text states about Fig. 5."""

    def test_total_area_used(self):
        assert AreaBudget().used_alms == 131_350

    def test_used_fraction_is_76_percent(self):
        assert round(100 * AreaBudget().used_fraction) == 76

    def test_shell_fraction_is_44_percent(self):
        assert round(100 * AreaBudget().shell_fraction) == 44

    def test_macs_are_14_percent(self):
        budget = AreaBudget()
        fraction = budget.fraction_of("40G MAC/PHY (TOR)",
                                      "40G MAC/PHY (NIC)")
        assert round(100 * fraction) == 13 or round(100 * fraction) == 14

    def test_ddr_is_8_percent(self):
        assert round(100 * AreaBudget().fraction_of(
            "DDR3 Memory Controller")) == 8

    def test_ltl_is_7_percent(self):
        assert round(100 * AreaBudget().fraction_of(
            "LTL Protocol Engine")) == 7

    def test_er_is_2_percent(self):
        assert round(100 * AreaBudget().fraction_of("Elastic Router")) == 2

    def test_role_is_32_percent(self):
        assert round(100 * AreaBudget().fraction_of("Role")) == 32

    def test_stratix_v_d5_capacity(self):
        assert TOTAL_ALMS == 172_600

    def test_no_ltl_shell_variant_frees_area(self):
        """'Services using only their single local FPGA can choose to
        deploy a shell version without the LTL block.'"""
        budget = AreaBudget()
        freed = sum(budget.entry(name).alms for name in
                    ("LTL Protocol Engine", "LTL Packet Switch"))
        assert freed == 11_839 + 4_815

    def test_rows_include_totals(self):
        rows = AreaBudget().rows()
        assert rows[-1]["component"] == "Total Area Available"
        assert rows[-2]["component"] == "Total Area Used"
        assert rows[-2]["alms"] == 131_350

    def test_entry_lookup(self):
        assert AreaBudget().entry("Role").alms == 55_340
        with pytest.raises(KeyError):
            AreaBudget().entry("nope")

    def test_role_runs_at_175mhz(self):
        assert AreaBudget().entry("Role").freq_mhz == 175.0


class TestBoardSpec:
    def test_power_limits(self):
        spec = BoardSpec()
        assert spec.max_power_w == 35.0
        assert spec.tdp_w == 32.0

    def test_physical_size_half_height_half_length(self):
        spec = BoardSpec()
        assert (spec.width_mm, spec.length_mm) == (80.0, 140.0)

    def test_board_failure_marking(self):
        board = Board(serial=1)
        assert board.usable
        board.mark_hard_failure("SEU storm")
        assert not board.usable
        assert board.health.failure_reason == "SEU storm"


class TestPowerModel:
    def test_power_virus_hits_paper_number(self):
        """'Under these conditions, the card consumes 29.2 W.'"""
        assert power_virus_power_w() == pytest.approx(29.2, abs=0.15)

    def test_virus_within_envelope(self):
        result = validate_envelope()
        assert result["within_tdp"]
        assert result["within_electrical_limit"]

    def test_idle_draw_below_virus(self):
        model = PowerModel()
        idle = model.power_w({}, ThermalConditions())
        assert idle < power_virus_power_w()

    def test_worst_case_hotter_than_nominal(self):
        model = PowerModel()
        util = {"logic": 0.5, "transceivers": 0.5}
        nominal = model.power_w(util, ThermalConditions())
        worst = model.power_w(util, ThermalConditions.worst_case())
        assert worst > nominal

    def test_utilization_bounds_checked(self):
        model = PowerModel()
        with pytest.raises(ValueError):
            model.power_w({"logic": 1.5}, ThermalConditions())
