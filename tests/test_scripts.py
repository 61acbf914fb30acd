"""The experiment scripts and the README's library example run end to end."""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cpfsim import cli

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
        [*SCRIPTS, "bench_pairs.py", "bench_record.py", "code_lines.py", "csv_digests.py",
         "job_rusage.py"]
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


def test_readme_sweep_example_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("This `scan.json` runs four legs", 1)[1]
    (tmp_path / "scan.json").write_text(section.split("```json\n", 1)[1].split("```", 1)[0])
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sweep", "--config", "scan.json", "--quiet"]) == 0
    legs = [f"scan__model.tau_c={tau_c}__yx={yx}.csv" for tau_c in (0.5, 2.0) for yx in (1, -1)]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["scan.json", "sweep_manifest.json", *legs, *(leg + ".manifest.json" for leg in legs)])


def test_csv_digests_prints_one_line_per_csv_of_the_workload(tmp_path):
    # the cheapest workload (five analytic and oracle runs), in a directory of its own
    proc = _run("csv_digests.py", "closed_forms", "--seeds", "3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    # the numerics the digests rest on, as a run manifest records them
    numerics = cli.numerics()
    loops = numerics["float64_loops"]
    assert header == (f"# numpy {numerics['numpy']}, float64 loops: tan={loops['tan']} "
                      f"exp={loops['exp']} expm1={loops['expm1']}")
    names = ["bath_surface", "bath_table", "lorentz_surface", "oracle_surface", "ou_surface"]
    for line, name in zip(lines, names, strict=True):
        assert re.fullmatch(rf"[0-9a-f]{{64}}  closed_forms/3/{name}\.csv", line), line
    assert list(tmp_path.iterdir()) == []  # the runs wrote only to their temporary directory


def test_job_rusage_prints_one_line_per_job_of_the_workload(tmp_path):
    # one pass of the cheapest workload, in a directory of its own
    proc = _run("job_rusage.py", "closed_forms", "--seed", "3", "--passes", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header.startswith("# closed_forms seed 3, 1 passes: job, median wall s")
    names = ["ou_surface", "bath_surface", "bath_table", "lorentz_surface", "oracle_surface"]
    assert sorted(line.split()[0] for line in lines) == sorted(names)
    for line in lines:
        assert re.fullmatch(r"\w+  \d+\.\d{4}  \d+  \d+\.\d  \d+\.\d", line), line
        first, last = map(float, line.split()[-2:])
        assert first <= last  # a high-water never falls
    assert list(tmp_path.iterdir()) == []  # the runs wrote only to their temporary directory


def test_job_runner_writes_each_config_and_stops_on_a_job_that_fails(tmp_path, capsys):
    # the runner csv_digests.py, job_rusage.py and bench_record.py share
    csv_digests = _load_script("csv_digests.py")
    jobs = csv_digests.write_jobs("closed_forms", 3, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{j.name}.json" for j, _ in jobs)
    job, argv = jobs[0]
    assert argv[:3] == [job.command, "--config", str(tmp_path / f"{job.name}.json")]
    (tmp_path / f"{job.name}.json").write_text("{}", encoding="utf-8")
    with pytest.raises(SystemExit, match=re.escape(f"cpfsim {job.command} --config ")) as exc:
        csv_digests.run_checked(argv)
    assert str(exc.value).endswith(" exited 2")
    assert "config error: model: required field is missing" in capsys.readouterr().err


def test_bench_record_quick_writes_every_section(tmp_path):
    # every case once at small sizes, and one closed_forms run untraced and traced
    out = tmp_path / "BENCH_quick.json"
    proc = _run("bench_record.py", "--quick", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert proc.stdout.startswith(f"wrote {out} ({len(doc['cases'])} cases, ")
    assert doc["kind"] == "cpfsim-bench" and doc["quick"]
    env = doc["environment"]
    assert env["numerics"] == cli.numerics() and env["cpu_count"] == os.cpu_count()
    assert env["code_lines"] == int(_run("code_lines.py").stdout.split()[-2])
    # the machine's speed at the start and at the end, beside the probe's reference
    probe = env["speed_probe"]
    assert probe["ref_s"] > 0.0
    assert all(0.0 < probe[key] < math.inf for key in ("start_s", "end_s"))
    runs = doc["workloads"]["closed_forms"]
    assert runs["untraced"]["1"]["correct"] and "wall_s" in runs["untraced"]["1"]["metrics"]
    assert runs["untraced"]["1"]["details"]["wall_s"]["raw"]["median"] > 0.0
    assert "cli.evaluate_s" in runs["traced"]["1"]["metrics"]
    cases = doc["cases"]
    assert {name.split(".")[0] for name in cases} == {
        "closed_forms", "monte_carlo", "oracle", "cli", "selftest"}
    assert all(case["repeats"] == 1 and case["iqr_s"] == 0.0 for case in cases.values())
    assert {"monte_carlo.mc_cpf_sampling.workers_1", "monte_carlo.mc_cpf_sampling.workers_2",
            "monte_carlo.two_chunk_map.workers_1", "monte_carlo.two_chunk_map.workers_2",
            "selftest.wall"} <= set(cases)
    assert cases["monte_carlo.two_chunk_map.workers_2"]["trajectories"] == 2048
    # each closed_forms job's cli.main call, with the stages its manifest recorded
    # in that same call, and the reused parser and the manifest timed on their own
    stages = ("main", "parse", "evaluate", "write_csv", "parser", "manifest")
    job_cases = {name for name in cases if name.startswith("cli.ou_surface.")}
    assert job_cases == {f"cli.ou_surface.{stage}" for stage in stages}
    ou = {stage: cases[f"cli.ou_surface.{stage}"] for stage in stages}
    assert all(case["rows"] == 40000 for case in ou.values())
    assert ou["parse"]["median_s"] + ou["evaluate"]["median_s"] + ou["write_csv"][
        "median_s"] <= ou["main"]["median_s"]
    assert all(peak > 0.0 for peak in doc["memory"].values()) and len(doc["memory"]) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_quick.json"]


def test_code_lines_counts_neither_blanks_nor_comments_nor_docstrings(tmp_path):
    (tmp_path / "b.py").write_text('''"""Module docstring,
over two lines."""

import math  # 1


class A:  # 2
    """Class docstring."""

    # a comment line
    x = (1,  # 3, 4: one statement over two lines
         2)

    def f(self):  # 5
        """Function
        docstring."""
        return """a string
that is code"""  # 6, 7


def g():
    return math.pi  # 8, 9
''', encoding="utf-8")
    (tmp_path / "a.py").write_text("# only a comment\n\nx = 1\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    proc = _run("code_lines.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["     1  a.py", "     9  b.py", "    10  total"]


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summarizes_fixture_pairs_without_running_a_benchmark():
    bench_pairs = _load_script("bench_pairs.py")
    assert bench_pairs.parse_seeds("1-3,7,9-10") == [1, 2, 3, 7, 9, 10]
    # five (parent, change) pairs: wall_s improves in four, peak_rss_mb in none
    walls = [(0.36, 0.25), (0.40, 0.26), (0.35, 0.24), (0.30, 0.31), (0.38, 0.27)]
    pairs = [({"wall_s": p, "peak_rss_mb": 50.0, "ops": 10.0},
              {"wall_s": c, "peak_rss_mb": 50.5, "ops": 12.0}) for p, c in walls]
    better = {"wall_s": "lower", "peak_rss_mb": "lower", "ops": "higher"}
    bounds = {"wall_s": 0.25, "peak_rss_mb": 0.1, "ops": 0.1}
    got = bench_pairs.summarize(pairs, better, bounds)
    wall = got["wall_s"]
    assert (wall["parent_median"], wall["change_median"]) == (0.36, 0.26)
    assert wall["improved"] == 4 and wall["pairs"] == 5
    # parent quartiles (exclusive method) 0.325 and 0.39
    assert wall["parent_iqr"] == pytest.approx(0.065) and wall["gain_beyond_iqr"]
    assert got["peak_rss_mb"]["improved"] == 0 and not got["peak_rss_mb"]["gain_beyond_iqr"]
    assert got["ops"]["improved"] == 5 and got["ops"]["gain_beyond_iqr"]
    # 4/5 pairs is short of 9/10, whatever the medians; 50.0 -> 50.5 MB is 1 %
    assert [got[name]["verdict"] for name in better] == ["within bound", "within bound", "gain"]

    # ten pairs: wall_s better in 9 and by more than the parent IQR; peak_rss_mb
    # 12 % worse against its 10 % bound; ops 11 % lower against 10 %, and then 9 %
    walls = [(0.30 + 0.01 * k, 0.20 + 0.01 * k) for k in range(9)] + [(0.30, 0.40)]
    pairs = [({"wall_s": p, "peak_rss_mb": 50.0, "ops": 10.0},
              {"wall_s": c, "peak_rss_mb": 56.0, "ops": 8.9}) for p, c in walls]
    got = bench_pairs.summarize(pairs, better, bounds)
    assert got["wall_s"]["improved"] == 9 and got["wall_s"]["gain_beyond_iqr"]
    assert [got[name]["verdict"] for name in better] == [
        "gain", "worse beyond bound", "worse beyond bound"]
    for pair in pairs:
        pair[1]["ops"] = 9.1
    assert bench_pairs.summarize(pairs, better, bounds)["ops"]["verdict"] == "within bound"
    # better in 9/10 pairs but by less than the parent IQR is no gain
    pairs = [({"wall_s": 0.30 + 0.01 * k}, {"wall_s": 0.30 + 0.01 * k - 0.001}) for k in range(9)]
    pairs.append(({"wall_s": 0.30}, {"wall_s": 0.31}))
    wall = bench_pairs.summarize(pairs, {"wall_s": "lower"}, {"wall_s": 0.25})["wall_s"]
    assert wall["improved"] == 9 and not wall["gain_beyond_iqr"]
    assert wall["verdict"] == "within bound"

    # a parent spread wider than the bound (IQR 0.2 on a median of 0.5, against
    # 0.25 x 0.5) leaves a change that is not better in every run unresolved,
    # whichever way its median moved; one whose every run beats every parent run
    # is resolved
    parent = [0.3, 0.7, 0.4, 0.6, 0.5, 0.35, 0.65, 0.45, 0.55, 0.5]
    for change, verdict in [([p + 0.01 for p in parent], "unresolved"),
                            ([p - 0.01 for p in parent], "unresolved"),
                            ([0.29 - 0.01 * k for k in range(10)], "gain"),
                            ([0.299] * 10, "within bound")]:
        pairs = [({"wall_s": p}, {"wall_s": c}) for p, c in zip(parent, change)]
        wall = bench_pairs.summarize(pairs, {"wall_s": "lower"}, {"wall_s": 0.25})["wall_s"]
        assert wall["parent_iqr"] > 0.25 * wall["parent_median"] and wall["verdict"] == verdict


@pytest.mark.parametrize("outcome", [{"correct": False, "failed": 0},
                                     {"correct": True, "failed": 2}])
def test_bench_scripts_refuse_a_run_that_is_not_correct(monkeypatch, outcome):
    # both scripts go through bench_pairs.perfbench: a run that exits 0 but fails its
    # correctness check, or reports failed operations, stops them, traced or not
    monkeypatch.setattr(sys, "path", [str(ROOT / "scripts"), *sys.path])  # bench_record's too
    bench_pairs, bench_record = _load_script("bench_pairs.py"), _load_script("bench_record.py")
    result = {**outcome, "metrics": {"wall_s": {"value": 0.1, "unit": "s"}}}
    details = {"details": {"wall_s": {"raw": {"median": 0.12}, "scaled": {"median": 0.1}}}}

    def fake_run(argv, **kwargs):
        return subprocess.CompletedProcess(
            argv, 0, stdout=f"log\n{json.dumps(details)}\n{json.dumps(result)}\n")

    monkeypatch.setattr(subprocess, "run", fake_run)
    with pytest.raises(SystemExit, match=r"closed_forms seed 1: correct \w+, \d failed"):
        bench_pairs.run_once(ROOT, "closed_forms", 1, 0.0)
    with pytest.raises(SystemExit, match=r"closed_forms seed 1: correct \w+, \d failed"):
        bench_pairs.perfbench(ROOT, "closed_forms", 1, 0.0, trace=1)
    with pytest.raises(SystemExit, match=r"closed_forms seed 1: correct \w+, \d failed"):
        bench_record.record_workloads(quick=True)
    result.update(correct=True, failed=0)  # a correct run passes through whole, with details
    assert bench_pairs.perfbench(ROOT, "closed_forms", 1, 0.0) == {**result, **details}
    assert bench_pairs.run_once(ROOT, "closed_forms", 1, 0.0) == {"wall_s": 0.1,
                                                                  "raw wall_s": 0.12}


def test_bench_pairs_help_runs_nothing(tmp_path):
    proc = _run("bench_pairs.py", "--help", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "PARENT" in proc.stdout.upper() and "--seeds" in proc.stdout
    assert list(tmp_path.iterdir()) == []


def test_bench_pairs_refuses_an_empty_seed_range_before_any_run(tmp_path, monkeypatch, capsys):
    bench_pairs = _load_script("bench_pairs.py")

    def run_once(*args):
        raise AssertionError("no run may start")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    for seeds in ("3-1", "1-2,5-4"):
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main([str(tmp_path), str(tmp_path), "--workload", "closed_forms",
                              "--seeds", seeds])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines()[-1].endswith(
            f"argument --seeds: seed range {seeds.split(',')[-1]!r} is empty")


def test_bench_pairs_alternates_which_checkout_runs_first(tmp_path, monkeypatch, capsys):
    bench_pairs = _load_script("bench_pairs.py")
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    runs = []

    def run_once(checkout, workload, seed, seconds):
        runs.append((checkout.name, seed))
        return {"wall_s": 0.2 if checkout == change else 0.3, "setup_s": 0.1,
                "peak_rss_mb": 40.0, "raw wall_s": 0.25 if checkout == change else 0.35}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main([str(parent), str(change), "--workload", "closed_forms",
                             "--seeds", "4-7", "--seconds", "1"]) == 0
    assert runs == [("parent", 4), ("change", 4), ("change", 5), ("parent", 5),
                    ("parent", 6), ("change", 6), ("change", 7), ("parent", 7)]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[1:5]] == [
        ["4", "parent"], ["5", "change"], ["6", "parent"], ["7", "change"]]
    # each pair reads parent -> change, whichever ran first, the raw wall_s last
    assert lines[0].split()[-2:] == ["raw", "wall_s"]
    assert all("0.3 -> 0.2" in line and line.split()[-3:] == ["0.35", "->", "0.25"]
               for line in lines[1:5])
    # one verdict per metric, against the bound of the change's BENCHMARK.json, and
    # the raw wall_s's medians without one
    assert [line.split(": ")[0] for line in lines[5:]] == [
        "wall_s", "setup_s", "peak_rss_mb", "raw wall_s"]
    assert lines[5].endswith(": gain (bound 0.25)")  # better in 4/4 pairs, IQR 0
    assert lines[6].endswith(": within bound (bound 0.25)")  # setup_s unchanged
    assert lines[8].startswith("raw wall_s: median 0.35 -> 0.25, parent IQR 0, better in 4/4")
    assert lines[8].endswith(": no verdict")
