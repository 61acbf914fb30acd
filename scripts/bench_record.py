"""Record the next BENCH_<n>.json: the environment, the perfbench workloads and
per-layer timings of cpfsim's public functions.

    PYTHONPATH=src python scripts/bench_record.py [--quick] [--out PATH]

Writes BENCH_<n>.json at the root of this checkout, n one past the highest
there, unless --out names the file.  The document holds:

  environment  CPU count, machine, Python, numpy, the git revision and whether
               the tree differs from it, cli.numerics(), PYTHONDONTWRITEBYTECODE,
               the scripts/code_lines.py total of src/cpfsim, and the seconds of
               perfbench's speed probe (speed.probe_median) at the start and at
               the end of the recording, with its reference time PROBE_REF_S;
  workloads    the metrics JSON that perfbench/run.py prints for each workload,
               with its details (raw and scaled wall_s, ...) under "details",
               at seeds 1-3 with --trace 0, and for one --trace 1 run of each
               at seed 1, each run checked by scripts/bench_pairs.py's runner
               (a run that fails or is not correct stops the recording);
  cases        per-layer cases, each timed in this process as the median and
               interquartile range (exclusive quartiles, as
               scripts/bench_pairs.py) of REPEATS calls: closed forms, Monte
               Carlo estimators at 1 and 2 workers, a map of two small chunks
               at 1 and 2 workers (its fixed cost), the dense oracle, each
               closed_forms job's cli.main call with the stages its manifest
               records, and `cpfsim selftest`;
  memory       tracemalloc peaks of a 1024 x 1024 OU surface (evaluate, write)
               and of writing a 2^20-point probability table of distinct values.

The 2-worker throughputs are recorded as measured.  On a shared machine a
2-worker run spreads widely (perfbench/README.md), so their ratio to the
1-worker throughput is no claim.  --quick runs every case once at small
sizes, and only the closed_forms workload, once untraced and once traced, at
--seconds 0 (its minimum of timed passes): a smoke test of the recorder, not
a recording.  The full recording takes about three minutes on a shared 2-core machine.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import code_lines  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from bench_pairs import perfbench  # noqa: E402
from csv_digests import run_checked, write_jobs  # noqa: E402

from cpfsim import acceptance, analytic, cli, spinbath, stochastic  # noqa: E402
from cpfsim._mc import McConfig  # noqa: E402

REPEATS = 5
WORKLOAD_SECONDS = 8.0
SEEDS = (1, 2, 3)


def summary(times: list[float]) -> dict:
    """Median and interquartile range of a case's seconds."""
    q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {"median_s": statistics.median(times), "iqr_s": q3 - q1, "repeats": len(times)}


def timed(call, repeats: int) -> dict:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return summary(times)


def environment() -> dict:
    def git(*args: str) -> str | None:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": git("rev-parse", "HEAD"),
        "tree_differs_from_revision": None if status is None else bool(status),
        "numerics": cli.numerics(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "code_lines": sum(code_lines.code_lines(path.read_text(encoding="utf-8"))
                          for path in (ROOT / "src" / "cpfsim").glob("*.py")),
        "speed_probe": {"ref_s": speed.PROBE_REF_S, "start_s": speed.probe_median()},
    }


def record_workloads(quick: bool) -> dict:
    names, seeds, seconds = ((["closed_forms"], SEEDS[:1], 0.0) if quick
                             else (list(workloads.WORKLOADS), SEEDS, WORKLOAD_SECONDS))
    return {name: {"seconds": seconds,
                   "untraced": {str(seed): perfbench(ROOT, name, seed, seconds) for seed in seeds},
                   "traced": {str(seeds[0]): perfbench(ROOT, name, seeds[0], seconds, 1)}}
            for name in names}


def closed_form_cases(quick: bool):
    """(name, call, values) of the closed forms: one point and a surface of every
    moment set, and the product formula of a large unbalanced bath."""
    side = 20 if quick else 200
    axis = np.linspace(0.0, 3.0, side)
    moment_sets = {
        "white": partial(analytic.moment_set, analytic.White(0.35)),
        "exp_corr_gauss": partial(analytic.moment_set, analytic.ExpCorrGauss(0.9, 1.3)),
        "static_gauss": partial(analytic.moment_set, analytic.StaticGauss(0.8)),
        "static_lorentz": partial(analytic.moment_set, analytic.StaticLorentz(0.6, 0.4)),
        "spin_bath": partial(spinbath.moment_set, spinbath.scaled_gaussian_bath(50, 0.9, 1.0)),
        "lorentz_coupling": partial(spinbath.lorentz_moment_set,
                                    spinbath.LorentzCouplingSpec(1.0, 0.5, n_spins=50)),
    }
    for name, moments in moment_sets.items():
        yield f"closed_forms.{name}.point", lambda m=moments: m(0.7, 0.4), 1
        yield (f"closed_forms.{name}.surface_{side}x{side}",
               lambda m=moments: m(axis[:, None], axis[None, :]), side * side)
    n = 10**3 if quick else 10**5
    bath = spinbath.scaled_gaussian_bath(n, 1.0, 3.0)
    for times in (1, 81):
        yield (f"closed_forms.scaled_bath_{n}.coherence_{times}_times",
               lambda k=times: spinbath.coherence(bath, np.linspace(0.1, 3.0, k)), times)


def monte_carlo_cases(quick: bool):
    """(name, call, trajectories) of every Monte Carlo read at 1 and 2 workers, a
    sampling point of two 1,024-trajectory chunks at 1 and 2 workers, the ensemble
    draw of a large bath, and a Cauchy-ensemble cpf_surface grid."""
    n, n_ensemble, n_path = (2**10, 2**8, 2**8) if quick else (2**18, 2**15, 2**13)
    ou = analytic.ExpCorrGauss(0.9, 1.3)
    ensemble = spinbath.LorentzCouplingSpec(1.0, 0.5, n_spins=50)
    # the case names are those of the earlier recordings, each the estimator it
    # timed; each now times its read of the family's one MomentStats entry
    estimators = {
        "mc_moments": (n, lambda c, w: stochastic.mc_moments(ou, 0.7, 0.4, c, w).moments()),
        "mc_cpf_semianalytic": (n, lambda c, w: stochastic.mc_moments(ou, 0.7, 0.4, c, w).cpf()),
        "mc_conditional_coherence": (n, lambda c, w: stochastic.mc_moments(
            ou, 0.7, 0.4, c, w).conditional_coherence(1)),
        "mc_cpf_sampling": (n, lambda c, w: stochastic.mc_cpf_sampling(ou, 0.7, 0.4, 1, c, w)),
        "ou_path_reference": (n_path, lambda c, w: stochastic.ou_path_reference(
            ou, 0.7, 0.4, c, w)),
        "lorentz_mc_coherence": (n_ensemble, lambda c, w: spinbath.lorentz_mc_moments(
            ensemble, 0.7, None, c, w).estimate(0)),
        "lorentz_mc_moments": (n_ensemble, lambda c, w: spinbath.lorentz_mc_moments(
            ensemble, 0.7, 0.4, c, w).moments()),
        "lorentz_mc_cpf": (n_ensemble, lambda c, w: spinbath.lorentz_mc_moments(
            ensemble, 0.7, 0.4, c, w).cpf()),
        "lorentz_mc_conditional_coherence": (n_ensemble, lambda c, w: spinbath.lorentz_mc_moments(
            ensemble, 0.7, 0.4, c, w).conditional_coherence(1)),
    }
    for name, (trajectories, estimate) in estimators.items():
        cfg = McConfig(trajectories, seed=1)
        for workers in (1, 2):
            yield (f"monte_carlo.{name}.workers_{workers}",
                   lambda e=estimate, c=cfg, w=workers: e(c, w), trajectories)
    # a map's fixed cost: a sampling point of two small chunks, as in mc_surface's
    # two-chunk sweep, where handing out the chunks weighs as much as drawing them
    two_chunks = McConfig(2 * 2**10, seed=1, chunk_size=2**10)
    for workers in (1, 2):
        yield (f"monte_carlo.two_chunk_map.workers_{workers}",
               lambda w=workers: stochastic.mc_cpf_sampling(ou, 0.7, 0.4, 1, two_chunks, w),
               two_chunks.n_trajectories)
    n_spins = 10**3 if quick else 10**5
    for amplitudes, (alpha, beta) in (("balanced", (0.5**0.5, 0.5**0.5)),
                                      ("unbalanced", (0.8, 0.6))):
        spec = spinbath.LorentzCouplingSpec(1.0, 0.5, n_spins=n_spins, alpha=alpha, beta=beta)
        yield (f"monte_carlo.ensemble_draw_{n_spins}x3.{amplitudes}",
               lambda s=spec: spinbath.lorentz_mc_moments(s, 0.7, 0.4, McConfig(3, seed=1)), 3)
    side, grid_n = (2, 2**10) if quick else (6, 2**16)
    config = cli.parse_config({
        "model": {"kind": "lorentz_coupling", "gamma": 1.0, "omega": 0.5, "n_spins": 50},
        "quantity": "cpf_surface", "method": "montecarlo",
        "t_grid": {"start": 0.2, "stop": 2.0, "count": side},
        "mc": {"n_trajectories": grid_n, "seed": 1}})
    yield (f"monte_carlo.lorentz_cpf_surface_{side}x{side}_n50",
           lambda: cli.evaluate_rows(config), side * side * grid_n)


def oracle_cases(quick: bool):
    """(name, call, taus) of oracle_protocol at one tau and at 16 taus a call."""
    plus, taus = spinbath.SystemInit.plus(), np.linspace(0.1, 1.6, 16)
    for n_spins in ((4, 6) if quick else (10, 12, 13, 14)):
        spec = spinbath.scaled_gaussian_bath(n_spins, 0.9, 1.0)
        for name, tau in (("one_tau", 0.4), ("taus_16", taus)):
            yield (f"oracle.n_{n_spins}.{name}",
                   lambda s=spec, u=tau: spinbath.oracle_protocol(s, plus, 0.7, u, 1), np.size(tau))


def record_cases(quick: bool) -> dict:
    repeats = 1 if quick else REPEATS
    cases = {}
    for make, per in ((closed_form_cases, "values"), (monte_carlo_cases, "trajectories"),
                      (oracle_cases, "taus")):
        for name, call, count in make(quick):
            case = timed(call, repeats)
            cases[name] = {**case, per: count, f"{per}_per_s": count / case["median_s"]}
    cases.update(cli_cases(repeats))
    return cases


def cli_cases(repeats: int) -> dict:
    """`cpfsim run` for each closed_forms job at seed 1: the whole cli.main call
    (main), and from the same calls the stages its manifest records (parse,
    evaluate, write_csv); the parse_args of the parser main reuses (parser) and
    write_manifest (manifest), timed on their own.  Then `cpfsim selftest` and
    each of its criteria."""
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        for job, argv in write_jobs("closed_forms", 1, base):
            csv_path = base / job.config["output_path"]
            runs = {"main": [], "parse": [], "evaluate": [], "write_csv": []}
            for _ in range(repeats):
                start = time.perf_counter()
                run_checked(argv)
                runs["main"].append(time.perf_counter() - start)
                manifest_path = csv_path.with_name(csv_path.name + ".manifest.json")
                stages = json.loads(manifest_path.read_text(encoding="utf-8"))["stages"]
                for stage in ("parse", "evaluate", "write_csv"):
                    runs[stage].append(stages[f"{stage}_s"])
            config = cli.load_config(manifest_path)
            times = {stage: summary(seconds) for stage, seconds in runs.items()}
            times["parser"] = timed(lambda a=argv: cli._parser().parse_args(a), repeats)
            times["manifest"] = timed(
                lambda c=config, p=csv_path, s=stages: cli.write_manifest(c, p, 0.0, s), repeats)
            rows = len(csv_path.read_bytes().splitlines()) - 1  # less the header
            for stage, case in times.items():
                cases[f"cli.{job.name}.{stage}"] = {**case, "rows": rows}
    walls, criteria = [], {}
    for _ in range(repeats):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            results = acceptance.run_all()
        walls.append(time.perf_counter() - start)
        for result in results:
            key = re.sub(r"\W+", "_", result.name.lower()).strip("_")
            criteria.setdefault(f"selftest.{result.number:02d}_{key}", []).append(result.elapsed_s)
    cases["selftest.wall"] = summary(walls)
    cases.update({name: summary(times) for name, times in criteria.items()})
    return cases


def record_memory(quick: bool) -> dict:
    """tracemalloc peaks in MiB: evaluate and write of an OU cpf_surface, and the
    write of a probability table whose values are all distinct."""
    side, points = (64, 2**12) if quick else (1024, 2**20)
    surface = f"ou_surface_{side}x{side}"
    peaks = {}
    with tempfile.TemporaryDirectory() as tmp:
        config = cli.parse_config({
            "model": {"kind": "exp_corr_gauss", "g": 0.9, "tau_c": 1.3},
            "quantity": "cpf_surface", "method": "analytic",
            "t_grid": {"start": 0.0, "stop": 3.0, "count": side}})
        tracemalloc.start()
        try:
            rows = cli.evaluate_rows(config)
            peaks[f"{surface}.evaluate_peak_mib"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            cli.write_csv(rows, Path(tmp) / "surface.csv")
            peaks[f"{surface}.write_peak_mib"] = tracemalloc.get_traced_memory()[1]
            del rows
            rng = np.random.default_rng(1)
            labels = cli.QUANTITIES["probability_table"].labels
            table = cli.Results(rng.random(points), rng.random(points), labels,
                                rng.random((points, len(labels))), None, None,
                                "spin_bath", "analytic")
            tracemalloc.reset_peak()
            cli.write_csv(table, Path(tmp) / "table.csv")
            peaks[f"probability_table_{points}.write_peak_mib"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return {name: peak / 2**20 for name, peak in peaks.items()}


def next_path() -> Path:
    numbers = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json")
               if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return ROOT / f"BENCH_{max(numbers, default=0) + 1}.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="every case once at small sizes, and closed_forms only")
    ap.add_argument("--out", type=Path, help="output file (default: the next BENCH_<n>.json)")
    args = ap.parse_args(argv)
    out = args.out or next_path()
    start = time.perf_counter()
    doc = {"kind": "cpfsim-bench", "quick": args.quick,
           "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "environment": environment()}
    doc["workloads"] = record_workloads(args.quick)
    doc["cases"] = record_cases(args.quick)
    doc["memory"] = record_memory(args.quick)
    doc["environment"]["speed_probe"]["end_s"] = speed.probe_median()
    doc["recording_s"] = time.perf_counter() - start
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out} ({len(doc['cases'])} cases, {doc['recording_s']:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
