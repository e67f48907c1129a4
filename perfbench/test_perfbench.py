"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import cuspcensus  # noqa: E402
import cuspcensus.cli  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

HARNESS = sorted(p for p in HERE.glob("*.py") if p.name != Path(__file__).name)


def violations(source: str) -> list[str]:
    """Uses of private cuspcensus names, of --threads, or of a way round
    the int-to-str digit cap, in a harness source file."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cuspcensus"):
            found += [f"imports {a.name}" for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Import):
            found += [
                f"imports {a.name}" for a in node.names
                if a.name.startswith("cuspcensus") and "._" in a.name
            ]
        elif isinstance(node, ast.Attribute):
            private = node.attr.startswith("_") and not node.attr.startswith("__")
            if private and not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                found.append(f"reads .{node.attr}")
            if node.attr == "set_int_max_str_digits":
                found.append("lifts the digit cap")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value == "--threads" or "set_int_max_str_digits" in node.value:
                found.append(f"uses {node.value!r}")
            elif re.fullmatch(r"_[A-Za-z0-9]\w*", node.value):
                found.append(f"names {node.value!r}")
    return found


@pytest.mark.parametrize("path", HARNESS, ids=lambda p: p.name)
def test_harness_uses_public_api_only(path):
    assert violations(path.read_text()) == []


@pytest.mark.parametrize("snippet", [
    "from cuspcensus.compositions import _bounded",
    "import cuspcensus.spectral as s\ns._alpha_cache.clear()",
    "getattr(census, '_oracle_runs_cache')",
    "argv = ['verify', '--threads', '2']",
    "sys.set_int_max_str_digits(0)",
])
def test_scanner_catches_private_use(snippet):
    assert violations(snippet)


def _cli_output(argv: list[str]) -> bytes:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cuspcensus.cli.main(argv) == 0
    return buffer.getvalue().encode()


def _change_one_digit(data: bytes, line: int) -> bytes:
    lines = data.split(b"\n")
    row = bytearray(lines[line])
    at = max(i for i, c in enumerate(row) if chr(c).isdigit())
    row[at] = ord("1") if row[at] != ord("1") else ord("2")
    lines[line] = bytes(row)
    return b"\n".join(lines)


def test_checker_passes_the_real_output_and_flags_a_changed_digit():
    argv = checks.COMMANDS["sweep"][1]
    out = _cli_output(argv)
    assert checks.check_command(argv, 0, out, "") is None
    bad = _change_one_digit(out, 100)
    assert "sum" in checks.check_command(argv, 0, bad, "")
    # a change the row sums cannot see is still caught by the pinned digest
    swapped = out.replace(b"2000,3,0,", b"2000,3,0,0", 1)
    assert "digest" in checks.check_command(argv, 0, swapped, "")


def test_checker_flags_a_nonzero_exit_and_a_traceback():
    argv = checks.COMMANDS["verify"][0]
    assert checks.check_command(argv, 1, b"", "") == "exit code 1"
    assert checks.check_command(argv, 0, b"", "Traceback (most recent call last):")


@pytest.mark.parametrize("query", [
    ["count_exact_excursions", 40, 3, 1],
    ["count_exact_excursions", 40, 1, 3],
    ["count_exact_excursions", 40, 0, 3],
    ["count_exact_excursions", 40, 2, 3],
    ["closed_form_count", 300, 5],
])
def test_session_checker_flags_a_changed_digit(query):
    answer = checks.encode_answer(query[0], checks.call_query(cuspcensus, query))
    assert checks.check_answer(cuspcensus, query, answer) is None
    changed = answer[:-1] + ("1" if answer[-1] != "1" else "2")
    assert checks.check_answer(cuspcensus, query, changed)


def test_session_checker_flags_wrong_rows_and_enclosures():
    rows = checks.encode_answer("excursion_census", cuspcensus.excursion_census(30, 2))
    rows[1][3] = str(int(rows[1][3]) + 10)
    assert checks.check_answer(cuspcensus, ["excursion_census", 30, 2], rows)
    enc = checks.encode_answer("solve_alpha", cuspcensus.solve_alpha(3))
    assert checks.check_answer(cuspcensus, ["solve_alpha", 12, 3], enc) is None
    assert checks.check_answer(cuspcensus, ["solve_alpha", 12, 3], [3, enc[2], enc[1]])


def test_same_seed_gives_the_same_stream():
    assert checks.session_queries(7, 1000) == checks.session_queries(7, 1000)


def test_other_seed_gives_another_stream_that_passes_every_check():
    first, other = checks.session_queries(7, 1000), checks.session_queries(8, 1000)
    assert first != other
    assert first[0] == other[0] == checks.OPENING_QUERY
    kinds = [q[0] for q in other[1:]]
    assert {k: kinds.count(k) for k, _ in checks.QUERY_MIX} == {
        k: 10 * share for k, share in checks.QUERY_MIX
    }
    # D is spread over the sizes: each run of 11 sizes holds D = 2..12 once
    closed = sorted(q[1:] for q in other[1:] if q[0] == "closed_form_count")
    for i in range(0, len(closed) - len(closed) % 11, 11):
        assert sorted(D for _, D in closed[i:i + 11]) == list(range(2, 13))
    for query in other[:120]:
        answer = checks.encode_answer(query[0], checks.call_query(cuspcensus, query))
        assert checks.check_answer(cuspcensus, query, answer) is None, query


def test_tracer_sees_calls_between_layers_and_restores_them():
    original = cuspcensus.census.count_exact_excursions
    tracer = Tracer()
    tracer.install()
    try:
        assert cuspcensus.census.count_exact_excursions is not original
        cuspcensus.excursion_census(12, 1)
    finally:
        tracer.uninstall()
    assert cuspcensus.census.count_exact_excursions is original
    layers = tracer.layer_metrics()
    assert layers["census.calls"] == 1
    assert layers["compositions.calls"] == 7
    assert layers["trace.spans"] == 8
    assert layers["compositions.result_bits"] > 0


def test_metric_lists_match_the_benchmark_file():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert set(run.SUITE_NAMES) == set(cuspcensus.SUITES)
