"""What the output bits rest on: no BLAS call, and the numerics a manifest names."""

import ast
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cpfsim import cli

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

# Reruns every stored manifest under DATA (argv[1]) into argv[2], one CSV per
# manifest, named after its version directory and its file.
_RERUN_STORED = """
import sys
from pathlib import Path
from cpfsim import cli
data, out = Path(sys.argv[1]), Path(sys.argv[2])
for manifest in sorted(data.glob("manifests_*/*.csv.manifest.json")):
    csv = out / f"{manifest.parent.name}-{manifest.name.removesuffix('.manifest.json')}"
    code = cli.main(["run", "--config", str(manifest), "--output", str(csv), "--quiet"])
    assert code == 0, f"{manifest}: exit {code}"
"""


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 prints its config only
        return "unknown"


def _cpu_has(*features: str) -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return all(__cpu_features__.get(name, False) for name in features)


def _openblas_kernels() -> list[str]:
    """OpenBLAS kernels this CPU can run besides its own: Prescott (SSE3) on any
    x86-64, Haswell where the CPU has AVX2 and FMA."""
    return ["Prescott"] + (["Haswell"] if _cpu_has("AVX2", "FMA3") else [])


def _rerun_stored(out: Path, kernel: str | None) -> dict[str, bytes]:
    """CSV name -> bytes of every stored manifest rerun in a child process whose
    OpenBLAS kernel is forced to kernel (None: the CPU's own)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    out.mkdir()
    proc = subprocess.run([sys.executable, "-c", _RERUN_STORED, str(DATA), str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS kernels are forced by name on x86-64 only")
@pytest.mark.skipif("openblas" not in _blas_name().lower(),
                    reason=f"numpy's BLAS is {_blas_name()}, not OpenBLAS")
def test_stored_manifests_rerun_to_the_same_bytes_under_every_openblas_kernel(tmp_path):
    want = _rerun_stored(tmp_path / "default", None)
    assert len(want) == len(list(DATA.glob("manifests_*/*.csv.manifest.json")))
    for kernel in _openblas_kernels():
        got = _rerun_stored(tmp_path / kernel, kernel)
        assert got.keys() == want.keys()
        assert [name for name in want if got[name] != want[name]] == [], kernel


# numpy calls that can go through BLAS, by attribute name
_BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "cpfsim").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_calls_blas(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Attribute) and node.attr in _BLAS_CALLS
    ]
    assert found == [], f"{path.name}: a matrix product or BLAS call at lines {found}"


def test_manifest_names_the_numerics_it_was_written_on(tmp_path):
    config, out = tmp_path / "c.json", tmp_path / "out.csv"
    config.write_text(json.dumps({
        "model": {"kind": "white", "gamma_w": 0.4}, "quantity": "cpf", "method": "analytic",
        "t_grid": {"start": 0.1, "stop": 1.0, "count": 2}, "output_path": "out.csv",
    }))
    assert cli.main(["run", "--config", str(config), "--output", str(out), "--quiet"]) == 0
    numerics = json.loads((tmp_path / "out.csv.manifest.json").read_text())["numerics"]
    assert numerics == cli.numerics()
    assert numerics["numpy"] == np.__version__
    assert list(numerics["float64_loops"]) == ["tan", "exp", "expm1"]
    if hasattr(np.lib, "introspect"):  # numpy >= 2.0 says which loop runs
        assert all(isinstance(loop, str) for loop in numerics["float64_loops"].values())
