"""scripts/simulation_study.py at its smallest replication counts: it runs
on the current API and prints one line for each of its four studies.  No
rate is asserted here; the tests' thresholds are ROADMAP item 10's."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "simulation_study.py"


def test_quick_run_prints_each_study(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("simulation_study", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--quick"])
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["coverage", "lr size", "lr power",
                                                        "vuong"]
