"""Print the sha256 of every CSV that the named perfbench workloads write.

Runs every job of each workload at each seed through cpfsim.cli.main, at the
job's own thread count, in a temporary directory, and prints one line per
CSV: its sha256 and workload/seed/path, after one leading "#" line naming
the numerics the bits rest on (numpy's version and its float64 tan, exp and
expm1 loops, as in a run manifest).  Checkouts whose CSVs are byte-identical
on the same numerics print the same lines, so comparing two is one diff:

    PYTHONPATH=src python scripts/csv_digests.py mc_surface mc_ensemble \\
        --seeds 1 2 > digests.txt

The jobs come from perfbench/workloads.py of this checkout; cpfsim is
imported as usual, so PYTHONPATH picks the tree under test.  write_jobs and
run_checked are the in-process job runner of scripts/job_rusage.py and
scripts/bench_record.py too.
"""

import argparse
import hashlib
import shlex
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

from cpfsim import cli  # noqa: E402


def write_jobs(workload: str, seed: int, base: Path) -> list[tuple[workloads.Job, list[str]]]:
    """(job, its cpfsim argv) of each job of the workload at seed, in workload order,
    with its config written into base and its output going there too."""
    jobs = []
    for job in workloads.jobs_for(workload, seed):
        config = base / f"{job.name}.json"
        config.write_text(job.config_text(), encoding="utf-8")
        jobs.append((job, [job.command, "--config", str(config), "--threads", str(job.threads),
                           "--output", str(base / job.config["output_path"]), "--quiet"]))
    return jobs


def run_checked(argv: list[str]) -> None:
    """cli.main(argv) in this process; SystemExit naming the command unless it exits 0."""
    code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"cpfsim {shlex.join(argv)} exited {code}")


def digests(workload: str, seed: int) -> list[str]:
    """'sha256  workload/seed/path' of each CSV the workload's jobs write."""
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        for _, argv in write_jobs(workload, seed, base):
            run_checked(argv)
        return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
                f"{workload}/{seed}/{path.relative_to(base).as_posix()}"
                for path in sorted(base.rglob("*.csv"))]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="+", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2],
                    help="workload seeds (default 1 2)")
    args = ap.parse_args()
    print(f"cpfsim from {Path(cli.__file__).parent}", file=sys.stderr)
    numerics = cli.numerics()
    loops = " ".join(f"{name}={loop}" for name, loop in numerics["float64_loops"].items())
    print(f"# numpy {numerics['numpy']}, float64 loops: {loops}")
    for workload in args.workloads:
        for seed in args.seeds:
            print("\n".join(digests(workload, seed)), flush=True)


if __name__ == "__main__":
    main()
