"""Benchmark two checkouts alternately and record the runs in one JSON file.

    python3 tools/bench_record.py PARENT CHANGE --workloads verify sweep \
        --pairs 10 [--out BENCH.json]

For each workload, pair i runs ``perfbench/run.py --workload W --seed i
--seconds N --trace 0`` once in each checkout, N being that checkout's
``run_seconds`` in its BENCHMARK.json; odd pairs run PARENT first, even
pairs CHANGE first.  Each run's JSON result is read from the last line of
its output.  The file keeps every run in the order run, and per workload and
end-to-end metric each side's median and quartiles, the number of pairs in
which CHANGE was better, and whether the parent's median lies outside
CHANGE's interquartile range, with both commits, the core count and the
Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def commit_of(checkout: Path) -> str:
    """The checkout's commit, marked ``-dirty`` when tracked files differ
    from it; ``unknown`` outside git."""
    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            ["git", "-C", str(checkout), *args], capture_output=True, text=True,
        )

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return "unknown"
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One run of the checkout's benchmark, which ends itself at its own
    deadline; its last line of output."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=checkout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"bench_record: {checkout} {workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    """Median and quartiles, by the inclusive method; one value is all three."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(runs: list[dict], better: dict[str, str]) -> dict:
    """Per end-to-end metric: both sides' summaries, the pairs CHANGE won
    and whether the parent's median lies outside CHANGE's quartiles."""
    values = {side: {} for side in SIDES}
    for run in runs:
        for name, value in run["metrics"].items():
            values[run["side"]].setdefault(name, {})[run["pair"]] = value
    metrics = {}
    for name, direction in better.items():
        parent, change = values["parent"][name], values["change"][name]
        sign = 1 if direction == "lower" else -1
        stats = {side: summary(list(values[side][name].values())) for side in SIDES}
        metrics[name] = {
            "better": direction,
            **stats,
            "change_better_pairs": sum(sign * (change[i] - parent[i]) < 0 for i in parent),
            "pairs": len(parent),
            "outside_change_quartiles": not (
                stats["change"]["q1"] <= stats["parent"]["median"] <= stats["change"]["q3"]
            ),
        }
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = parser.parse_args(argv)
    checkouts = {side: getattr(args, side).resolve() for side in SIDES}
    benchmarks = {}
    for side, checkout in checkouts.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py in {checkout}")
        benchmarks[side] = json.loads((checkout / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmarks["change"]["end_to_end"]}
    data = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        **{side: {"commit": commit_of(checkouts[side]),
                  "run_seconds": benchmarks[side]["run_seconds"]} for side in SIDES},
        "workloads": {},
    }
    for workload in args.workloads:
        runs = []
        for pair in range(1, args.pairs + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                result = run_once(checkouts[side], workload, pair, data[side]["run_seconds"])
                runs.append({
                    "pair": pair,
                    "side": side,
                    "correct": result["correct"],
                    "failed": result["failed"],
                    "attempted": result["attempted"],
                    "metrics": {name: m["value"] for name, m in result["metrics"].items()},
                })
                print(workload, pair, side, file=sys.stderr, flush=True)
        data["workloads"][workload] = {"runs": runs, "metrics": compare(runs, better)}
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
