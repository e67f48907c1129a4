"""The cuspcensus benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see NOTES.md for why each was chosen):

    verify   `cuspcensus verify --suite all --oracle-max-t 16` in a fresh process
    sweep    two `cuspcensus count` runs, each in a fresh process
    session  one long-lived process answering a seeded stream of library
             queries in a closed loop with one client

The package is run from the checkout's ``src`` through PYTHONPATH, with
compiled bytecode kept under ``.bench_build``.  With ``--trace 0`` a run
repeats the workload (fresh processes each time, same inputs) while
another repetition still fits in ``--seconds``, at least once, runs a
group of set-up probes before the first repetition and after each one,
and reports medians.  With ``--trace 1`` it runs the workload
once in process untraced and once traced, and reports per-layer figures.
Every output is checked after its process ends; the last line of stdout
is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

# explicit, so that the harness imports even under PYTHONSAFEPATH
sys.path.insert(0, str(HERE))
from checks import (  # noqa: E402
    COMMANDS, DIGESTS, OPENING_QUERY, check_answer, check_command, session_queries,
)


WORKLOADS = ("verify", "sweep", "session")
PROBES_PER_GROUP = 12
#: a session probe answers the opening query too, which takes about 1 s
SESSION_PROBES_PER_GROUP = 6
SESSION_QUERIES = 1000
#: every child is killed if it is still running this long after
#: ``--seconds`` have passed; the checks and a last repetition that
#: overran fit in it, and at ``--seconds 40`` the run still ends within
#: 180 s
DEADLINE_MARGIN_S = 130.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "first_output_s": "s",
    "peak_rss_mb": "MB",
    "query_p99_ms": "ms",
    "ok_ratio": "1",
}

SUITE_NAMES = (
    "bijection", "partition", "closed-form", "double-sum",
    "thm32", "thm34", "lemma33", "matrices",
)
PER_LAYER = {
    **{
        f"{layer}.{figure}": unit
        for layer in ("words", "matrices", "compositions", "spectral", "census", "cli")
        for figure, unit in (
            ("self_s", "s"), ("calls", "count"), ("errors", "count"), ("rss_growth_mb", "MB"),
        )
    },
    "compositions.result_bits": "bit",
    "spectral.closed_form_count.self_s": "s",
    "spectral.poly_value.calls": "count",
    "words.projectivize.calls": "count",
    "words.canonical_cyclic_form.calls": "count",
    "matrices.evaluate.calls": "count",
    "census.oracle_census.self_s": "s",
    **{f"census.suite.{name}.wall_s": "s" for name in SUITE_NAMES},
    "cli.bytes_out": "byte",
    "cli.records": "count",
    "trace.spans": "count",
    "trace.overhead_ratio": "1",
}

_START = time.perf_counter()
_deadline: float | None = None  # set by main


@dataclass
class Child:
    stdout: bytes
    stderr: str
    returncode: int
    spawned: float
    first_byte: float
    exited: float
    rss_mb: float


def _env() -> dict:
    """The caller's environment without its PYTHON* settings (unbuffered
    output or no bytecode would change what is measured), plus ours."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str]) -> Child:
    """Run workers.py ARGS to completion, draining stdout as it comes."""
    with open(BUILD / "stderr.txt", "w+b") as err:
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "workers.py"), *args],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
            env=_env(), cwd=ROOT,
        )
        timer = None
        if _deadline is not None:
            timer = threading.Timer(max(1.0, _deadline - spawned), proc.kill)
            timer.start()
        try:
            chunks, first = [], None
            while chunk := proc.stdout.read1(1 << 16):
                if first is None:
                    first = time.perf_counter()
                chunks.append(chunk)
            _, status, usage = os.wait4(proc.pid, 0)
            exited = time.perf_counter()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            if timer:
                timer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    # the worker's own peak; ru_maxrss also holds this process's resident
    # set at the spawn (see workers._write_peak) and is only a fallback
    peak_kb = _marker(stderr, "peak-kb") or usage.ru_maxrss
    return Child(
        b"".join(chunks), stderr, proc.returncode, spawned,
        exited if first is None else first, exited, peak_kb / 1024,
    )


def _marker(text: str, what: str = "ready") -> float | None:
    """The timestamp a worker printed as ``perfbench-WHAT T``."""
    for line in text.splitlines():
        if line.startswith(f"perfbench-{what} "):
            return float(line.split()[1])
    return None


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by nearest rank: the smallest value with at least
    q*n of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tally:
    """Counts operations and failures.  A verdict is kept per output, so
    an output repeated in a later repetition is not checked twice."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.verdicts: dict = {}

    def record(self, what: str, key, check) -> None:
        """Count one operation; check() gives its problem or None, and is
        called once per key (every time when key is None)."""
        if key is None:
            problem = check()
        else:
            if key not in self.verdicts:
                self.verdicts[key] = check()
            problem = self.verdicts[key]
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(f"{what}: {problem}")


def _library():
    sys.pycache_prefix = str(BUILD / "pycache")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cuspcensus

    return cuspcensus


def _queries_file(queries: list) -> Path:
    path = BUILD / "session-queries.json"
    path.write_text(json.dumps(queries))
    return path


def _check_session(queries: list, answers: list | None, tally: Tally, failure: str = "") -> None:
    api = _library()
    for i, query in enumerate(queries):
        if answers is None:
            tally.record(f"query {i}", None, lambda: f"session process failed: {failure}")
        else:
            tally.record(
                f"query {i} {query}", json.dumps([query, answers[i]]),
                lambda q=query, a=answers[i]: check_answer(api, q, a),
            )


def cli_repetition(workload: str, tally: Tally) -> dict:
    rep = {"setups": [], "wall_s": 0.0, "first_output_s": 0.0, "latencies": [], "rss": []}
    for argv in COMMANDS[workload]:
        c = run_child(["cli", *argv])
        ready = _marker(c.stderr)
        if ready is not None:
            rep["setups"].append(ready - c.spawned)
        rep["wall_s"] += c.exited - (ready if ready is not None else c.spawned)
        rep["first_output_s"] += c.first_byte - c.spawned
        rep["latencies"].append(c.exited - c.spawned)
        rep["rss"].append(c.rss_mb)
        digest = hashlib.sha256(c.stdout).hexdigest()
        key = (*argv, c.returncode, digest, "Traceback" in c.stderr)
        tally.record(
            " ".join(argv), key,
            lambda: check_command(argv, c.returncode, c.stdout, c.stderr),
        )
    return rep


def session_repetition(queries: list, tally: Tally) -> dict:
    c = run_child(["session", str(_queries_file(queries))])
    try:
        report = json.loads(c.stdout) if c.returncode == 0 else None
    except ValueError:
        report = None
    failure = f"exit code {c.returncode}, {c.stderr.strip()[-300:]}"
    _check_session(queries, report and report["answers"], tally, failure)
    if report is None:
        took = c.exited - c.spawned
        return {
            "setups": [], "wall_s": took, "first_output_s": took,
            "latencies": [took], "rss": [c.rss_mb],
        }
    setup = _marker(c.stderr) - c.spawned
    return {
        "setups": [setup], "wall_s": report["wall_s"],
        # process start to the answer of the stream's opening query
        "first_output_s": setup + report["latencies"][0],
        "latencies": report["latencies"], "rss": [c.rss_mb],
    }


def probe() -> float:
    """Time a fresh interpreter that imports the package and its CLI."""
    c = run_child(["ready"])
    ready = _marker(c.stderr)
    if c.returncode != 0 or ready is None:
        raise SystemExit(f"perfbench: the package did not import:\n{c.stderr}")
    return ready - c.spawned


def probe_group(workload: str, tally: Tally) -> list[dict]:
    """Set-up probes.  The session's are sessions whose stream is the
    opening query alone, so that they time its first answer as well: one
    cold answer per run spread across runs by up to 0.27."""
    if workload == "session":
        return [session_repetition([OPENING_QUERY], tally) for _ in range(SESSION_PROBES_PER_GROUP)]
    return [{"setups": [probe()]} for _ in range(PROBES_PER_GROUP)]


def timed_run(workload: str, seed: int, seconds: int, tally: Tally) -> dict:
    # the set-up probes run in groups, before the first repetition and
    # after each one, so that their median, with the set-up of every
    # workload process, spans the run rather than one moment of a host
    # whose speed drifts
    started = time.perf_counter()
    probes = probe_group(workload, tally)
    reps, longest = [], 0.0
    while True:
        t0 = time.perf_counter()
        if workload == "session":
            reps.append(session_repetition(session_queries(seed, SESSION_QUERIES), tally))
        else:
            reps.append(cli_repetition(workload, tally))
        probes += probe_group(workload, tally)
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now - started + longest > seconds:
            break
    samples = len(reps[0]["latencies"])
    setups = [s for r in probes + reps for s in r["setups"]]
    firsts = [r["first_output_s"] for r in reps + (probes if workload == "session" else [])]
    # the median latency is shown but not a metric: on a noisy host its
    # spread across runs is the widest of all timings (see NOTES.md)
    p50_ms = 1000 * statistics.median(nearest_rank(r["latencies"], 0.50) for r in reps)
    print(f"{workload}: {len(reps)} repetition(s), {samples} query sample(s) each, "
          f"{len(probes)} set-up probes, set-up timed in {len(setups)} processes; "
          f"query p50 {p50_ms:.4g} ms")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "first_output_s": statistics.median(firsts),
        "peak_rss_mb": statistics.median(max(r["rss"]) for r in reps),
        "query_p99_ms": 1000 * statistics.median(nearest_rank(r["latencies"], 0.99) for r in reps),
        "ok_ratio": (tally.attempted - tally.failed) / max(1, tally.attempted),
    }
    return metrics


def traced_run(workload: str, seed: int, tally: Tally) -> dict:
    spans = BUILD / f"spans-{workload}.bin"
    if workload == "session":
        queries = session_queries(seed, SESSION_QUERIES)
        path = _queries_file(queries)
        ops = [("session", [str(path)])]
    else:
        ops = [("cli", argv) for argv in COMMANDS[workload]]
    layers = dict.fromkeys(PER_LAYER, 0)
    walls = {"0": 0.0, "1": 0.0}
    for kind, args in ops:
        for traced in ("0", "1"):
            c = run_child(["inproc", traced, str(spans), kind, *args])
            try:
                report = json.loads(c.stdout)
            except ValueError:
                report = None
            if c.returncode != 0 or report is None:
                tally.record(f"{kind} {args}", None, lambda: f"run failed: {c.stderr[-500:]}")
                continue
            walls[traced] += report["wall_s"]
            if kind == "cli":
                command = " ".join(args)
                problem = None
                if report["returncode"] != 0:
                    problem = f"exit code {report['returncode']}"
                elif report["digest"] != DIGESTS[command]:
                    problem = "output digest differs from the pinned one"
                tally.record(command, None, lambda: problem)
            else:
                _check_session(queries, report["answers"], tally)
            if traced == "1":
                for name, value in report["layers"].items():
                    if name in layers:
                        layers[name] += value
                if kind == "cli":
                    layers["cli.bytes_out"] += report["bytes_out"]
                    layers["cli.records"] += report["lines"] - (args[-1] == "csv")
    layers["trace.overhead_ratio"] = walls["1"] / walls["0"] if walls["0"] else 0.0
    print(f"{workload}: traced wall {walls['1']:.3f} s, untraced {walls['0']:.3f} s, "
          f"spans in {spans.relative_to(ROOT)}")
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cuspcensus" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'cuspcensus'}", file=sys.stderr)
        return 2
    global _deadline
    _deadline = _START + args.seconds + DEADLINE_MARGIN_S
    BUILD.mkdir(parents=True, exist_ok=True)
    probe()  # compiles bytecode on a fresh checkout
    tally = Tally()
    if args.trace:
        values, units = traced_run(args.workload, args.seed, tally), PER_LAYER
    else:
        values, units = timed_run(args.workload, args.seed, args.seconds, tally), END_TO_END
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
