"""The example scripts run to completion, each in a fresh interpreter.

Two of them import private task helpers, so a rename in src/ breaks them;
these smoke tests are what notices."""

import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def run_script(name, *args, cwd):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", ["dressed_states_demo.py",
                                  "fano_fit_demo.py"])
def test_demo_runs(name, tmp_path):
    done = run_script(name, cwd=tmp_path)
    assert done.returncode == 0, done.stderr


def test_figure_suite_script_passes(tmp_path):
    done = run_script("run_figure_suite.py", str(tmp_path / "suite"),
                      cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "all reference scalars pass" in done.stdout
    assert os.path.isfile(tmp_path / "suite" / "summary.json")
