"""The experiment scripts and the README's library example run end to end."""

import os
import re
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
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(
        [*SCRIPTS, "csv_digests.py"]
    )


def _run(script, *args, cwd=None):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=dict(os.environ, PYTHONPATH=path),
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_writes_its_csvs(tmp_path, script):
    args, outputs = SCRIPTS[script]
    proc = _run(script, *args, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        header, *rows = (tmp_path / name).read_text().splitlines()
        assert header and rows


def test_readme_library_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def test_csv_digests_prints_one_line_per_csv_of_the_workload(tmp_path):
    # the cheapest workload (five analytic and oracle runs), in a directory of its own
    proc = _run("csv_digests.py", "closed_forms", "--seeds", "3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    names = ["bath_surface", "bath_table", "lorentz_surface", "oracle_surface", "ou_surface"]
    for line, name in zip(proc.stdout.splitlines(), names, strict=True):
        assert re.fullmatch(rf"[0-9a-f]{{64}}  closed_forms/3/{name}\.csv", line), line
    assert list(tmp_path.iterdir()) == []  # the runs wrote only to their temporary directory
