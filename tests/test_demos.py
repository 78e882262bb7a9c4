"""The scripts in demos/ are documented entry points: each runs against the
package in src/ and prints its walk-through."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import latcut

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs_and_prints(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_recurrence_fuzz_reports_a_failing_cutting(monkeypatch, capsys):
    # The demo names each cutting by the (bottom, top) pair cuttings()
    # lists; a failing check must print it and exit 1.
    monkeypatch.setattr(latcut, "check_q_recurrence",
                        lambda exp: "q=planted")
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(ROOT / "demos" / "recurrence_fuzz.py"),
                       run_name="__main__")
    assert stop.value.code == 1
    out = capsys.readouterr().out
    assert "FAIL seed=" in out and ": q=planted\n" in out
