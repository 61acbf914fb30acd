"""BENCHMARK.json follows the benchmark contract and matches what run.py reports."""

import json
import re
from pathlib import Path

import pytest
import run
import workloads

DOC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_contract_shape():
    assert set(DOC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert DOC["command"] == ["python3", "perfbench/run.py"]
    assert DOC["paths"] == ["perfbench"]
    assert 1 <= DOC["run_seconds"] <= 60
    assert [w["name"] for w in DOC["workloads"]] == list(workloads.WORKLOADS)
    for w in DOC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in DOC["end_to_end"] + DOC["per_layer"]]
    assert len(names) == len(set(names))
    for m in DOC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in DOC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in DOC["end_to_end"] + DOC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in DOC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in DOC["end_to_end"])


def _fake_result():
    setup = {"numpy_import_s": 0.1, "cpfsim_import_s": 0.08, "parse_s": 0.001,
             "raw_s": 0.2, "setup_s": 0.181}
    return {"passes": {"untraced": [(1.0, 0.9), (1.1, 1.0)], "traced": [(1.5, 1.4)]},
            "setups": [setup, setup], "warm_rss_mb": 50.0}


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_every_declared_metric(tmp_path, trace):
    bench = run.Bench(run.load_cpfsim(), "mc_surface", 1, bool(trace), tmp_path)
    bench.probes = [0.018, 0.019]
    values, _ = (bench.per_layer if trace else bench.end_to_end)(_fake_result())
    declared = run.declared_metrics(bool(trace))
    assert set(declared) <= set(values)
    assert all(isinstance(values[name], (int, float)) for name in declared)
