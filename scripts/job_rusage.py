"""Print each perfbench job's median wall time, minor page faults and RSS high-waters.

    PYTHONPATH=src python scripts/job_rusage.py mc_ensemble --seed 1 --passes 5

Runs the jobs of one workload of perfbench/workloads.py through cpfsim.cli.main
in this one process, at each job's own thread count, in a temporary directory,
PASSES times in workload order.  It prints one line per job: the median wall
seconds of its runs, the median minor page faults of a run (ru_minflt, the
pages the process had to map in for it) and the process's RSS high-water
(ru_maxrss) right after the job's first run and right after its last, so that
the job which sets the workload's peak memory is the first whose high-water
rises to it, and a job whose high-water still grows from pass to pass shows.

Counts are of this process only: other load on the machine does not enter
them, but the faults depend on the C allocator of the running Python.  The
jobs come from perfbench/ of this checkout; cpfsim is imported as usual, so
PYTHONPATH picks the tree under test.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from csv_digests import run_checked, write_jobs  # noqa: E402

from cpfsim import cli  # noqa: E402


def job_rusage(workload: str, seed: int, passes: int) -> list[tuple[str, float, int, float, float]]:
    """(job, median wall s, median minor faults a run, RSS high-water in MB after its
    first run and after its last) of each job of the workload, in workload order."""
    walls, faults, high = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        jobs = write_jobs(workload, seed, Path(tmp))
        for _ in range(passes):
            for job, argv in jobs:
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                start = time.perf_counter()
                run_checked(argv)
                walls.setdefault(job.name, []).append(time.perf_counter() - start)
                usage = resource.getrusage(resource.RUSAGE_SELF)
                faults.setdefault(job.name, []).append(usage.ru_minflt - before)
                high.setdefault(job.name, []).append(usage.ru_maxrss / 1024.0)  # KiB on Linux
    return [(job.name, statistics.median(walls[job.name]),
             round(statistics.median(faults[job.name])), high[job.name][0], high[job.name][-1])
            for job, _ in jobs]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    ap.add_argument("--passes", type=int, default=5, help="runs of each job (default 5)")
    args = ap.parse_args()
    if args.passes < 1:
        ap.error("--passes must be >= 1")
    print(f"cpfsim from {Path(cli.__file__).parent}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}, {args.passes} passes: "
          "job, median wall s, median minor faults a run, "
          "RSS high-water MB after its first run and after its last")
    for name, wall, minflt, first, last in job_rusage(args.workload, args.seed, args.passes):
        print(f"{name}  {wall:.4f}  {minflt}  {first:.1f}  {last:.1f}")


if __name__ == "__main__":
    main()
