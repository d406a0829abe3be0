"""Tests for the ``python -m repro`` experiment CLI."""

import io
from contextlib import redirect_stdout

from repro.__main__ import main
from repro.experiments import fig05, sec2_power
from repro.experiments.harness import render


def run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


class TestCli:
    def test_no_args_lists_registry(self):
        code, output = run_cli([])
        assert code == 0
        for key in ("E1", "E10", "E11", "A5", "chaos"):
            assert f"  {key}  " in output
        assert "Fig. 10" in output

    def test_unknown_id_errors(self, capsys):
        code = main(["E99"])
        assert code == 2
        assert "E99" in capsys.readouterr().err

    def test_runs_power_experiment(self):
        code, output = run_cli(["E10"])
        assert code == 0
        assert "=== §II — card power (W) ===" in output
        assert "power virus worst-case: 29.2 W vs TDP 32 W" in output

    def test_runs_area_experiment_rows(self):
        code, output = run_cli(["E1"])
        assert code == 0
        assert "Total Area Used" in output
        assert "131,350" in output
        # The block the pytest benchmark prints for E1, and nothing else.
        assert output == render(fig05.rows(fig05.run())) + "\n"

    def test_failed_check_exits_1_and_names_the_id(self, monkeypatch,
                                                   capsys):
        watts, envelope = sec2_power.run()
        monkeypatch.setattr(sec2_power, "run", lambda: (
            watts, dict(envelope, within_electrical_limit=False)))
        code = main(["E10", "E1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "E10 check failed" in err
        assert 'envelope["within_electrical_limit"]' in err
        assert "E1 " not in err
