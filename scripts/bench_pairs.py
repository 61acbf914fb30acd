"""Alternate perfbench runs between two checkouts and compare their end-to-end metrics.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload mc_surface \\
        --seeds 1-10 --seconds 30

For each seed it runs ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0`` in PARENT_DIR and in CHANGE_DIR, and reads the JSON
result on the last line of each run's stdout and the details on the line
before it.  The parent runs first in odd pairs and the change in even ones, so
that neither side always meets the machine as the other left it.  It prints
every pair's order and end-to-end metrics, and beside them the median raw
wall_s, the seconds of a pass before run.py divides them by its speed probe
(the probe runs in the same process, so what a side imports can move it).
Then for each metric it prints the two medians, the interquartile range of the
parent's runs, how many pairs the change improved and a verdict: "gain"
(better in at least 9/10 of the pairs, median gain beyond the parent's IQR),
"unresolved" (the parent's IQR is wider than the metric's relative bound of
its median, and not every change run beats every parent run), "worse beyond
bound" (median worse than the parent's by more than the bound) or "within
bound".  The raw wall_s gets the same line with no verdict: it is no declared
metric.  Which way is better, and each bound, come from CHANGE_DIR's
BENCHMARK.json; nothing is imported from perfbench/.  It exits 1 when a run
fails, fails its correctness check or reports a failed operation;
scripts/bench_record.py runs perfbench through the same check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]; a backwards range such as '3-1' holds no seed and
    is refused, so that argparse names --seeds before any run starts."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        span = range(int(lo), int(hi or lo) + 1)
        if not span:
            raise argparse.ArgumentTypeError(f"seed range {part!r} is empty")
        seeds.extend(span)
    return seeds


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str],
              bounds: dict[str, float]) -> dict[str, dict]:
    """Per metric of better: medians, the parent's quartile spread, the pairs won
    and a verdict.

    pairs holds (parent, change) metric dicts, name -> value, one per seed;
    better maps a metric name to "lower" or "higher", bounds to the relative
    amount by which its median may worsen.  The verdict is "gain" when the
    change is better in at least 9/10 of the pairs and its median gain exceeds
    the parent's interquartile range; "unresolved" when that range is more than
    the bound times the parent's median, unless every change run is better than
    every parent run; "worse beyond bound" when the change's median is worse than
    the parent's by more than the bound, and "within bound" otherwise.
    """
    out = {}
    for name, way in better.items():
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = 1.0 if way == "lower" else -1.0
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (parent[0],) * 3
        p_med, c_med = statistics.median(parent), statistics.median(change)
        gain = sign * (p_med - c_med)
        improved = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        beyond_iqr = gain > q3 - q1
        every_run_better = min(sign * p for p in parent) > max(sign * c for c in change)
        if 10 * improved >= 9 * len(pairs) and beyond_iqr:
            verdict = "gain"
        elif q3 - q1 > bounds[name] * abs(p_med) and not every_run_better:
            verdict = "unresolved"
        elif -gain > bounds[name] * abs(p_med):
            verdict = "worse beyond bound"
        else:
            verdict = "within bound"
        out[name] = {
            "parent_median": p_med,
            "change_median": c_med,
            "parent_iqr": q3 - q1,
            "improved": improved,
            "pairs": len(pairs),
            "gain_beyond_iqr": beyond_iqr,
            "verdict": verdict,
        }
    return out


RAW_WALL = "raw wall_s"  # the median of a run's passes before speed scaling


def perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The JSON result that ``perfbench/run.py`` prints for one run in checkout,
    with the details it prints on the line before under "details".  A run that
    exits non-zero, fails its correctness check or reports a failed operation
    raises SystemExit: its numbers are no measurement."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout} {workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    *_, details, last = proc.stdout.splitlines()
    result = json.loads(last)
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout} {workload} seed {seed}: correct {result['correct']}, "
                         f"{result['failed']} failed operations")
    return {**result, **json.loads(details)}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metric values of one untraced perfbench run in checkout, and its RAW_WALL."""
    result = perfbench(checkout, workload, seed, seconds)
    return {**{name: m["value"] for name, m in result["metrics"].items()},
            RAW_WALL: result["details"]["wall_s"]["raw"]["median"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                    help="seeds as ranges, e.g. 1-10 or 1-3,7 (default 1-10)")
    ap.add_argument("--seconds", type=float, default=30.0, help="timed window per run")
    args = ap.parse_args(argv)
    declared = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    columns = [*better, RAW_WALL]
    pairs = []
    print("seed  first   " + "  ".join(f"{name:>23}" for name in columns))
    for number, seed in enumerate(args.seeds, 1):
        order = ["parent", "change"] if number % 2 else ["change", "parent"]
        got = {side: run_once(sides[side], args.workload, seed, args.seconds) for side in order}
        pair = (got["parent"], got["change"])
        pairs.append(pair)
        print(f"{seed:>4}  {order[0]}  " + "  ".join(
            f"{pair[0][name]:>10.4g} -> {pair[1][name]:<10.4g}" for name in columns), flush=True)
    for name, s in summarize(pairs, {**better, RAW_WALL: "lower"},
                             {**bounds, RAW_WALL: bounds["wall_s"]}).items():
        verdict = "no verdict" if name == RAW_WALL else f"{s['verdict']} (bound {bounds[name]:g})"
        print(f"{name}: median {s['parent_median']:.4g} -> {s['change_median']:.4g}, "
              f"parent IQR {s['parent_iqr']:.3g}, better in {s['improved']}/{s['pairs']} pairs, "
              f"median gain {'beyond' if s['gain_beyond_iqr'] else 'within'} the parent IQR: "
              f"{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
