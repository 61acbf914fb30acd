"""cpfsim benchmark: run one workload through ``cpfsim.cli.main`` and report.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job is one ``cpfsim run`` or ``cpfsim sweep`` invocation made through
``cpfsim.cli.main`` in this process, one after another (a closed loop with
one client).  A run

1. imports cpfsim from ``src/`` of the checkout and warms its bytecode cache;
2. runs one warm-up pass, reads the peak memory, and checks every output
   against ``reference``;
3. runs the pass again at the other thread count (1 <-> 2), whose CSVs must
   be byte-identical;
4. for ``--seconds``, repeats timed passes, each job between two speed
   probes, with fresh-interpreter set-up samples interleaved between passes.
   Every CSV of every pass must hash to the warm-up pass's bytes.

With ``--trace 1`` every other timed pass runs under ``tracing.Tracer`` and
the per-layer metrics are printed instead of the end-to-end ones.  The last
line of stdout is the JSON result; the line before it holds the details.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
SETUP_SCRIPT = Path(__file__).resolve().parent / "setup_sample.py"

MIN_PASSES = 3
# Fresh-interpreter set-up samples take this share of the timed window.
SETUP_SHARE = 0.25
SETUP_TIMEOUT_S = 60
JOB_TIMEOUT_S = 120


def load_cpfsim():
    """Import cpfsim from this checkout's src/, refusing any other copy."""
    if not (SRC / "cpfsim" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no cpfsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cpfsim
    from cpfsim import _mc, analytic, cli, core, spinbath, stochastic

    if Path(cpfsim.__file__).resolve().parent != SRC / "cpfsim":
        raise SystemExit(f"perfbench: imported cpfsim from {cpfsim.__file__}, not {SRC}")
    return {"cli": cli, "analytic": analytic, "core": core, "spinbath": spinbath,
            "stochastic": stochastic, "_mc": _mc}


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def top_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of n samples above it."""
    if n < 11:
        return None
    return math.floor(100.0 * (n - 10) / n)


def describe(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    out = {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}
    p = top_percentile(len(values))
    if p is not None:
        out[f"p{p}"] = sorted(values)[math.ceil(p / 100.0 * len(values)) - 1]
    return out


class Bench:
    def __init__(self, modules: dict, workload: str, seed: int, trace: bool, work: Path):
        self.cli = modules["cli"]
        self.jobs = workloads.jobs_for(workload, seed)
        self.work = work
        self.config_paths = {}
        for job in self.jobs:
            path = work / f"{job.name}.json"
            path.write_text(job.config_text(), encoding="utf-8")
            self.config_paths[job.name] = path
        self.expected: dict[str, dict[str, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.report = reference.Report()
        self.wrong: set[str] = set()
        self.probes: list[float] = []
        self.tracer = tracing.Tracer(modules) if trace else None

    # -- one job ----------------------------------------------------------

    def outputs(self, job, base: Path) -> dict[str, Path]:
        """name -> path of every deterministic output the job wrote under base."""
        out = base / job.config["output_path"]
        if job.command == "run":
            return {out.name: out}
        index = out.with_name("sweep_manifest.json")
        paths = {index.name: index}
        for leg in json.loads(index.read_text(encoding="utf-8"))["legs"]:
            paths[leg["output"]] = out.with_name(leg["output"])
        return paths

    def argv(self, job, threads: int) -> list[str]:
        return [job.command, "--config", str(self.config_paths[job.name]),
                "--threads", str(threads), "--quiet"]

    def run_job(self, job) -> float:
        """Run a job in this process at its own thread count; seconds taken."""
        if self.tracer is not None:
            self.tracer.job = job.name
        start = time.perf_counter()
        code = self.cli.main(self.argv(job, job.threads))
        elapsed = time.perf_counter() - start
        self.check(job, self.work, code, job.threads)
        return elapsed

    def run_job_other_threads(self, job) -> None:
        """Run a job at the other thread count (1 <-> 2) in a fresh interpreter,
        through ``python -m cpfsim.cli`` as a user would."""
        threads = 3 - job.threads
        base = self.work / f"threads{threads}"
        base.mkdir(exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-m", "cpfsim.cli", *self.argv(job, threads)],
                              cwd=base, env=env, timeout=JOB_TIMEOUT_S)
        self.check(job, base, proc.returncode, threads)

    def check(self, job, base: Path, code, threads: int) -> None:
        self.attempted += 1
        try:
            hashes = {k: reference.sha256(p) for k, p in self.outputs(job, base).items()}
        except (OSError, ValueError, KeyError) as exc:
            hashes, code = {}, code or f"unreadable outputs ({exc})"
        if code != 0:
            self.fail(f"{job.name}: exit {code} at --threads {threads}")
        elif job.name not in self.expected:
            self.expected[job.name] = hashes
        elif hashes != self.expected[job.name]:
            self.fail(f"{job.name}: outputs at --threads {threads} differ from the first pass")
        elif job.name in self.wrong:
            self.failed += 1  # same bytes as a pass that failed the reference check

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"perfbench: FAIL {message}", file=sys.stderr)

    def verify(self) -> None:
        """Check the first pass's outputs against the reference, job by job."""
        for job in self.jobs:
            if job.name not in self.expected:
                continue  # the job failed and was counted already
            out = self.work / job.config["output_path"]
            if job.command == "run":
                reference.check_run_output(job.name, job.config, out, self.report)
            else:
                self.verify_sweep(job, out)
        self.report.finish()
        for name, message in self.report.failures:
            self.errors.append(f"{name}: {message}")
            print(f"perfbench: FAIL {name}: {message}", file=sys.stderr)
        self.wrong = {name for name, _ in self.report.failures}
        self.failed += len(self.wrong)

    def verify_sweep(self, job, out: Path) -> None:
        base = copy.deepcopy(job.config)
        sweep = base.pop("sweep")
        legs = json.loads(out.with_name("sweep_manifest.json").read_text(encoding="utf-8"))["legs"]
        names = [leg["output"] for leg in legs]
        expected_legs = math.prod(len(v) for v in sweep.values())
        if len(legs) != expected_legs or len(set(names)) != len(names):
            self.report.fail(job.name, f"sweep wrote {len(set(names))} distinct files for "
                             f"{expected_legs} legs: {names}")
            return
        for leg in legs:
            config = copy.deepcopy(base)
            for dotted, value in leg["parameters"].items():
                *parents, last = dotted.split(".")
                node = config
                for part in parents:
                    node = node[part]
                node[last] = value
            reference.check_run_output(job.name, config, out.with_name(leg["output"]),
                                       self.report)

    # -- passes -----------------------------------------------------------

    def timed_pass(self) -> tuple[float, float]:
        """(raw, speed-scaled) seconds of one pass; each job between two probes."""
        raw = scaled = 0.0
        before = speed.probe()
        self.probes.append(before)
        for job in self.jobs:
            elapsed = self.run_job(job)
            after = speed.probe()
            self.probes.append(after)
            raw += elapsed
            scaled += elapsed * speed.PROBE_REF_S / (0.5 * (before + after))
            before = after
        return raw, scaled

    def setup_sample(self) -> dict:
        cmd = [sys.executable, str(SETUP_SCRIPT), str(SRC),
               *(str(self.config_paths[job.name]) for job in self.jobs)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                              cwd=self.work, check=True)
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(sample["cpfsim_file"]).resolve().parent != SRC / "cpfsim":
            raise RuntimeError(f"set-up sample imported {sample['cpfsim_file']}")
        scale = speed.PROBE_REF_S / sample["probe_s"]
        parts = ("numpy_import_s", "cpfsim_import_s", "parse_s")
        out = {p: sample[p] * scale for p in parts}
        out["raw_s"] = sum(sample[p] for p in parts)
        out["setup_s"] = sum(out[p] for p in parts)
        return out

    def run(self, seconds: float) -> dict:
        self.setup_sample()  # writes the bytecode cache of the checkout's sources
        for job in self.jobs:
            self.run_job(job)
        # Peak memory as a user running each job once sees it.  Later passes
        # add a few MB of allocator fragmentation at random, and how many of
        # them fit in the window depends on the machine's speed.
        warm_rss = max_rss_mb()
        self.verify()
        for job in self.jobs:
            self.run_job_other_threads(job)

        tracer = self.tracer
        passes = {"untraced": [], "traced": []}
        setups: list[dict] = []
        pass_time = setup_time = 0.0
        deadline = time.perf_counter() + seconds
        for i in itertools.count():
            if i >= MIN_PASSES and time.perf_counter() >= deadline:
                break
            traced = tracer is not None and i % 2 == 1
            with tracer if traced else contextlib.nullcontext():
                raw, scaled = self.timed_pass()
            passes["traced" if traced else "untraced"].append((raw, scaled))
            pass_time += raw
            while not setups or setup_time < SETUP_SHARE * pass_time:
                t0 = time.perf_counter()
                setups.append(self.setup_sample())
                setup_time += time.perf_counter() - t0
        return {"passes": passes, "setups": setups, "warm_rss_mb": warm_rss}

    # -- results ----------------------------------------------------------

    def end_to_end(self, result: dict) -> tuple[dict, dict]:
        raw = [r for r, _ in result["passes"]["untraced"]]
        scaled = [s for _, s in result["passes"]["untraced"]]
        setup = [s["setup_s"] for s in result["setups"]]
        metrics = {
            "wall_s": statistics.median(scaled),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["warm_rss_mb"],
        }
        details = {
            "wall_s": {"scaled": describe(scaled), "raw": describe(raw)},
            "setup_s": {"scaled": describe(setup),
                        "raw": describe([s["raw_s"] for s in result["setups"]])},
            "probe_s": describe(self.probes),
            "run_peak_rss_mb": max_rss_mb(),
        }
        return metrics, details

    def per_layer(self, result: dict) -> tuple[dict, dict]:
        tracer = self.tracer
        traced = [r for r, _ in result["passes"]["traced"]]
        untraced = [r for r, _ in result["passes"]["untraced"]]
        metrics = tracing.summarize(tracer.spans, len(traced), threading.main_thread().ident)
        for part in ("numpy_import_s", "cpfsim_import_s", "parse_s"):
            metrics[f"setup.{part}"] = statistics.median(s[part] for s in result["setups"])
        traced_mean = statistics.fmean(traced)
        metrics["trace.traced_pass_s"] = traced_mean
        metrics["trace.untraced_pass_s"] = statistics.fmean(untraced)
        metrics["trace.overhead_s"] = traced_mean - metrics["trace.untraced_pass_s"]
        metrics["trace.remainder_s"] = traced_mean - metrics.pop("trace.self_sum_s")
        sampling = self.report.std_errors.get("sampling", [0, 0, 1.0])
        metrics["stochastic.sampling_rows"] = sampling[0]
        metrics["stochastic.se_underestimated_rows"] = sampling[1]
        metrics["stochastic.se_worst_ratio"] = sampling[2]
        for estimator, layer in (("semianalytic", "stochastic"), ("ensemble", "spinbath")):
            under = self.report.std_errors.get(estimator, [0, 0, 1.0])[1]
            metrics[f"{layer}.{estimator}_se_underestimated_rows"] = under
        details = {"traced_passes": len(traced), "untraced_passes": len(untraced),
                   "spans": len(tracer.spans)}
        return metrics, details


def declared_metrics(trace: bool) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_to_one_cpu() -> None:
    """Run this process, and every thread and child it starts, on one CPU.

    The speed probe runs on the main thread.  Unpinned, a chunk handed to a
    pool thread at --threads 2 may land on the other core, whose share the
    neighbours decide and the probe never sees; mc_surface then spread by
    up to 0.28 between ten-run sets.  Pinned, the pool is still built and
    handed work per point, on the core the probe measures.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    units = declared_metrics(bool(args.trace))
    pin_to_one_cpu()
    modules = load_cpfsim()
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=False)
    old_cwd = Path.cwd()
    try:
        os.chdir(work)
        bench = Bench(modules, args.workload, args.seed, bool(args.trace), work)
        result = bench.run(args.seconds)
        values, details = (bench.per_layer if args.trace else bench.end_to_end)(result)
    finally:
        os.chdir(old_cwd)
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
    summary = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    details["errors"] = bench.errors[:20]
    details["other_metrics"] = {k: v for k, v in values.items() if k not in units}
    print(json.dumps({"details": details}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
