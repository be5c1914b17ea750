"""The module entry points and `analyze` argument checks."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ipidlab
from ipidlab.cli import ANALYZE_HEADER, run

SRC = str(Path(ipidlab.__file__).resolve().parent.parent)


@pytest.mark.parametrize("module", ["ipidlab", "ipidlab.cli"])
def test_python_dash_m_runs_a_command(module, tmp_path):
    out = tmp_path / "c.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    argv = ["analyze", "--quantity", "correctness", "--methods", "global",
            "--lambda-log2", "0", "1", "1", "--out", str(out)]
    proc = subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[0] == ",".join(ANALYZE_HEADER)
    assert len(out.read_text().splitlines()) == 3


@pytest.mark.parametrize("quantity", ["security-uniform", "security-worst"])
@pytest.mark.parametrize("r", ["0", "-4"])
def test_analyze_rejects_r_below_one(quantity, r, tmp_path, capsys):
    code = run(["analyze", "--quantity", quantity, "--methods", "per-destination",
                "--r", r, "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "--r" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def _analyze_in_subprocess(tmp_path, *argv):
    out = tmp_path / "a.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "ipidlab", "analyze", *argv, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=60)
    return proc, out


def test_counter_analysis_past_the_rate_ceiling_is_rejected(tmp_path):
    # a Poisson window at 2^200 used to be searched without end
    proc, out = _analyze_in_subprocess(
        tmp_path, "--quantity", "security-uniform", "--methods", "global", "--lambda-log2", "200", "200", "1")
    assert proc.returncode == 2
    assert "2^32" in proc.stderr
    assert not out.exists()


def test_prng_collision_past_the_rate_ceiling_is_the_tail(tmp_path):
    proc, out = _analyze_in_subprocess(
        tmp_path, "--quantity", "correctness", "--methods", "prng-pure", "--lambda-log2", "200", "200", "1")
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[1:] == ["prng-pure,200.0,1.0,"]
