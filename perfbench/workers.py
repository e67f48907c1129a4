"""Entry points that run inside a fresh interpreter, one per workload process.

    workers.py ready                      import the package and its CLI, say so
    workers.py cli ARGS...                the console script: cli.main(ARGS)
    workers.py session QUERIES            closed loop over a query file
    workers.py inproc TRACED SPANS KIND ARGS...
                                          one CLI command or session, in process,
                                          with or without the tracer

The parent finds the package through PYTHONPATH.  Children report on
stdout as one JSON line, except ``cli``, whose stdout is the CLI's own.
Timestamps are ``time.perf_counter`` readings, which on Linux come from
the system-wide monotonic clock and so compare across processes.
"""

from __future__ import annotations

import atexit
import hashlib
import io
import json
import sys
import time


def _write_peak() -> None:
    """Write this process's peak resident set to stderr as
    ``perfbench-peak-kb N``.

    The ru_maxrss the parent gets from wait4 is no use here: exec carries
    the parent's resident set at the moment of the spawn into the child's
    figure, so a harness holding a large output would show as the
    workload's memory.  VmHWM belongs to the address space exec made.
    """
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                sys.stderr.write(f"perfbench-peak-kb {line.split()[1]}\n")


def _import_package():
    """Import the package and its CLI, as the console script does, and
    write the moment the imports were done to stderr as
    ``perfbench-ready T``; the peak resident set follows at exit."""
    import cuspcensus
    import cuspcensus.cli  # noqa: F401

    sys.stderr.write(f"perfbench-ready {time.perf_counter()!r}\n")
    sys.stderr.flush()
    atexit.register(_write_peak)
    return cuspcensus


def cli(argv: list[str]) -> int:
    _import_package()
    from cuspcensus.cli import main

    return main(argv)


def _run_session(api, queries: list) -> dict:
    from checks import call_query, encode_answer

    latencies, answers = [], []
    clock = time.perf_counter
    start = clock()
    for query in queries:
        t0 = clock()
        answer = call_query(api, query)
        latencies.append(clock() - t0)
        answers.append(answer)
    wall = clock() - start
    return {
        "wall_s": wall,
        "latencies": latencies,
        "answers": [encode_answer(q[0], a) for q, a in zip(queries, answers)],
    }


def session(path: str) -> int:
    api = _import_package()
    with open(path, encoding="utf-8") as f:
        queries = json.load(f)
    report = _run_session(api, queries)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


class _Sink(io.TextIOBase):
    """Stands in for stdout: hashes and counts what the CLI writes."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.bytes = 0
        self.lines = 0

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        data = s.encode("utf-8")
        self.sha.update(data)
        self.bytes += len(data)
        self.lines += data.count(b"\n")
        return len(s)


def inproc(traced: bool, spans_path: str, kind: str, args: list[str]) -> int:
    import cuspcensus
    import cuspcensus.cli
    from tracing import Tracer

    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    report: dict = {}
    if kind == "cli":
        sink, real = _Sink(), sys.stdout
        sys.stdout = sink
        start = time.perf_counter()
        try:
            report["returncode"] = cuspcensus.cli.main(args)
        finally:
            report["wall_s"] = time.perf_counter() - start
            sys.stdout = real
        report.update(digest=sink.sha.hexdigest(), bytes_out=sink.bytes, lines=sink.lines)
    else:
        with open(args[0], encoding="utf-8") as f:
            queries = json.load(f)
        report.update(_run_session(cuspcensus, queries))
        del report["latencies"]
    if tracer:
        tracer.uninstall()
        report["layers"] = tracer.layer_metrics()
        tracer.write(spans_path)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "ready":
        _import_package()
        sys.exit(0)
    if mode == "cli":
        sys.exit(cli(rest))
    if mode == "session":
        sys.exit(session(rest[0]))
    if mode == "inproc":
        sys.exit(inproc(rest[0] == "1", rest[1], rest[2], rest[3:]))
    sys.exit(f"unknown mode {mode!r}")
