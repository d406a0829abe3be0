"""Tests for the experiment table and its entry modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.experiments import fig06, fig07, fig10, fig12, sec4
from repro.experiments.harness import ClaimFailed, approx, render
from repro.experiments.table import TABLE

PAPER_IDS = [f"E{i}" for i in range(1, 12)] + \
    [f"A{i}" for i in range(1, 6)] + ["chaos"]


class TestRegistry:
    def test_registry_covers_paper_experiments(self):
        assert list(TABLE) == PAPER_IDS
        titles = [entry.TITLE for entry in TABLE.values()]
        assert len(set(titles)) == len(titles)
        for entry in TABLE.values():
            assert callable(entry.run)
            assert callable(entry.rows)
            assert callable(entry.check)

    def test_registry_entries_runnable(self):
        entry = TABLE["E10"]
        assert "power" in entry.TITLE.lower()
        result = entry.run()
        entry.check(result)
        printed = render(entry.rows(result))
        assert "=== §II — card power (W) ===" in printed
        assert "power virus worst-case: 29.2 W" in printed

    def test_e3_and_e4_share_one_five_day_study(self, monkeypatch):
        calls = []

        def study(*args, **kwargs):
            calls.append(kwargs)
            return object()

        monkeypatch.setattr(fig07, "run_five_day_study", study)
        fig07.run.cache_clear()
        try:
            fig7 = TABLE["E3"].run()
            fig8 = TABLE["E4"].run()
        finally:
            fig07.run.cache_clear()
        assert len(calls) == 1
        assert calls[0]["seed"] == 1
        assert fig8 is fig7

    def test_failed_claim_names_it_and_its_values(self):
        watts, envelope = TABLE["E10"].run()
        with pytest.raises(ClaimFailed) as failure:
            TABLE["E10"].check((watts, dict(envelope, power_virus_w=31.0)))
        message = str(failure.value)
        assert 'envelope["power_virus_w"] == approx(29.2, abs=0.15)' in message
        assert 'envelope["power_virus_w"] = 31.0' in message

    def test_failed_claim_raises_under_python_O(self):
        code = (
            "from repro.experiments.table import TABLE\n"
            "entry = TABLE['E10']\n"
            "watts, envelope = entry.run()\n"
            "envelope['within_tdp'] = False\n"
            "print(__debug__)\n"
            "entry.check((watts, envelope))\n"
        )
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.stdout.strip() == "False"
        assert proc.returncode == 1
        assert 'ClaimFailed: envelope["within_tdp"]' in proc.stderr


class TestApprox:
    @settings(max_examples=200, deadline=None)
    @given(expected=st.floats(-1e3, 1e3), offset=st.floats(-1.0, 1.0),
           rel=st.one_of(st.none(), st.floats(0.0, 0.5)),
           abs_=st.one_of(st.none(), st.floats(0.0, 0.5)))
    def test_matches_pytest_approx(self, expected, offset, rel, abs_):
        actual = expected + offset
        assert (actual == approx(expected, rel=rel, abs=abs_)) == \
            (actual == pytest.approx(expected, rel=rel, abs=abs_))


class TestFig10Module:
    def test_small_run(self):
        result = fig10.run(
            tier_pairs={"L0": (24, [(0, 1)])}, messages_per_pair=10)
        assert "L0" in result.tiers
        assert result.tiers["L0"].avg == pytest.approx(2.88e-6, rel=0.05)
        assert result.torus.reachable == 48
        table = fig10.rows(result)[0]
        assert table.rows[-1][:2] == ("torus", "48")


class TestFig6Module:
    def test_small_run(self):
        result = fig06.run(load_points=(0.5, 1.0), queries=300)
        assert set(result.curves) == {"software", "fpga"}
        assert result.latency_target > 0
        assert result.max_load_under_target("fpga") >= 1.0


class TestFig12Module:
    def test_small_run(self):
        result = fig12.run(sweep=[(4, 4), (4, 2)],
                           requests_per_client=60)
        assert result.at_ratio(1.0).num_fpgas == 4
        assert result.at_ratio(2.0).num_fpgas == 2
        overheads = result.one_to_one_overheads()
        assert len(overheads) == 3
        with pytest.raises(KeyError):
            result.at_ratio(9.0)


class TestSec4Module:
    def test_rows(self):
        lookup = {row.suite: row for row in sec4.cost_table()}
        assert lookup["aes-gcm-128"].cores_full_duplex == \
            pytest.approx(5.25, abs=0.01)
        assert lookup["aes-cbc-128-sha1"].fpga_latency_1500B == \
            pytest.approx(11e-6, rel=0.01)
