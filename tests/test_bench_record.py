"""Tests for tools/bench_record.py, on stand-in benchmark runners."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

# a runner whose first_output_s is its seed times SCALE, whose wall_s is
# the run length it was given, and whose peak_rss_mb reads high on the
# first run in its checkout, printed after a line of prose
RUNNER = '''
import argparse, json, pathlib
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
warm = pathlib.Path("warm")
peak = 20.0 if warm.exists() else 22.2
warm.touch()
print(args.workload, "ran")
print(json.dumps({"correct": True, "attempted": 2, "failed": 0, "metrics": {
    "first_output_s": {"value": float(args.seed) * SCALE, "unit": "s"},
    "wall_s": {"value": float(args.seconds), "unit": "s"},
    "peak_rss_mb": {"value": peak, "unit": "MB"},
    "ok_ratio": {"value": 1.0, "unit": "1"}}}))
'''


def checkout(root: Path, scale: float, seconds: int) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(RUNNER.replace("SCALE", repr(scale)))
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": seconds, "end_to_end": [
        {"name": "first_output_s", "better": "lower"},
        {"name": "wall_s", "better": "lower"},
        {"name": "peak_rss_mb", "better": "lower"},
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
    # a gap of 1.25 within the parent's quartiles, 1.5 apart, is unresolved
    assert not first["gap_exceeds_parent_iqr"]
    # a gap of 1.0 beyond quartiles that coincide is resolved
    assert metrics["wall_s"]["gap_exceeds_parent_iqr"]
    # a tie is no win, and no gap
    assert metrics["ok_ratio"]["change_better_pairs"] == 0
    assert not metrics["ok_ratio"]["gap_exceeds_parent_iqr"]


def test_each_checkout_warms_up_once_outside_the_summaries(tmp_path):
    parent = checkout(tmp_path / "parent", 1.0, 3)
    change = checkout(tmp_path / "change", 0.5, 2)
    out = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--workloads", "verify", "sweep", "--pairs", "2",
            "--out", str(out)]
    assert bench_record.main(argv) == 0
    workloads = json.loads(out.read_text())["workloads"]
    # the first workload's warm-up takes each checkout's high first run
    warmup = workloads["verify"]["warmup"]
    assert [(run["pair"], run["side"]) for run in warmup] == [(0, "parent"), (0, "change")]
    assert [run["metrics"]["peak_rss_mb"] for run in warmup] == [22.2, 22.2]
    assert [run["metrics"]["first_output_s"] for run in warmup] == [0.0, 0.0]
    assert [run["metrics"]["peak_rss_mb"] for run in workloads["sweep"]["warmup"]] == [20.0, 20.0]
    for workload in workloads.values():
        assert [(run["pair"], run["side"]) for run in workload["runs"]] == [
            (1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
        ]
        # no summary reads a warm-up run: seed 0 would pull the quartiles
        # of first_output_s down, and its peak would pull the others up
        peak = workload["metrics"]["peak_rss_mb"]
        assert peak["parent"] == peak["change"] == {"q1": 20.0, "median": 20.0, "q3": 20.0}
        assert workload["metrics"]["first_output_s"]["parent"]["q1"] == 1.25
        assert workload["metrics"]["first_output_s"]["pairs"] == 2


def test_pairs_below_one_are_refused_before_any_run(tmp_path, capsys):
    parent = checkout(tmp_path / "parent", 1.0, 3)
    change = checkout(tmp_path / "change", 0.5, 2)
    out = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--workloads", "verify", "--pairs", "0", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        bench_record.main(argv)
    assert exc.value.code == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err
    # not even a warm-up ran, and nothing was written
    assert not (parent / "warm").exists() and not (change / "warm").exists()
    assert not out.exists()
