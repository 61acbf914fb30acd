"""The experiment scripts run end to end with small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# script -> (small arguments, CSVs it writes)
SCRIPTS = {
    "lorentz_vs_lindblad.py": (["--trajectories", "2000"], ["lorentz_vs_lindblad.csv"]),
    "ou_memory_sweep.py": (["--points", "20"], ["ou_memory_sweep.csv"]),
    "spinbath_gaussian_scaling.py": (
        ["--t-max", "1.0"], ["spinbath_scaling.csv", "spinbath_diagonal_n50.csv"]
    ),
}


def test_every_script_is_covered():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(SCRIPTS)


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_writes_its_csvs(tmp_path, script):
    args, outputs = SCRIPTS[script]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        header, *rows = (tmp_path / name).read_text().splitlines()
        assert header and rows
