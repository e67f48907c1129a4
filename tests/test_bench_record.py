"""Tests for tools/bench_record.py, on stand-in benchmark runners."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

# a runner whose first_output_s is its seed times SCALE and whose wall_s is
# the run length it was given, printed after a line of prose
RUNNER = '''
import argparse, json
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
print(args.workload, "ran")
print(json.dumps({"correct": True, "attempted": 2, "failed": 0, "metrics": {
    "first_output_s": {"value": float(args.seed) * SCALE, "unit": "s"},
    "wall_s": {"value": float(args.seconds), "unit": "s"},
    "ok_ratio": {"value": 1.0, "unit": "1"}}}))
'''


def checkout(root: Path, scale: float, seconds: int) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(RUNNER.replace("SCALE", repr(scale)))
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": seconds, "end_to_end": [
        {"name": "first_output_s", "better": "lower"},
        {"name": "wall_s", "better": "lower"},
        {"name": "ok_ratio", "better": "higher"},
    ]}))
    return root


def test_pairs_alternate_and_are_summarised_by_median_and_quartiles(tmp_path):
    parent = checkout(tmp_path / "parent", 1.0, 3)
    change = checkout(tmp_path / "change", 0.5, 2)
    out = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--workloads", "verify", "--pairs", "4", "--out", str(out)]
    assert bench_record.main(argv) == 0
    data = json.loads(out.read_text())
    assert data["parent"] == {"commit": "unknown", "run_seconds": 3}
    assert data["change"]["run_seconds"] == 2 and data["cpu_count"] >= 1
    runs = data["workloads"]["verify"]["runs"]
    assert [(run["pair"], run["side"]) for run in runs] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
        (3, "parent"), (3, "change"), (4, "change"), (4, "parent"),
    ]
    assert all(run["correct"] and run["failed"] == 0 for run in runs)
    # each side runs at its own benchmark's length
    assert {run["side"]: run["metrics"]["wall_s"] for run in runs} == {"parent": 3.0, "change": 2.0}
    metrics = data["workloads"]["verify"]["metrics"]
    first = metrics["first_output_s"]
    assert first["parent"] == {"q1": 1.75, "median": 2.5, "q3": 3.25}
    assert first["change"] == {"q1": 0.875, "median": 1.25, "q3": 1.625}
    assert first["change_better_pairs"] == 4 and first["pairs"] == 4
    assert first["outside_change_quartiles"]
    # a tie is no win, and a median inside the quartiles is unresolved
    assert metrics["ok_ratio"]["change_better_pairs"] == 0
    assert not metrics["ok_ratio"]["outside_change_quartiles"]
