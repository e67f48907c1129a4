"""Command-line interface: exit codes, formats, determinism."""

import argparse
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from cuspcensus.census import SUITES
from cuspcensus.cli import Emitter, build_parser, main
from cuspcensus.words import GroupWord, epsilon_of, run_sequence


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_count_human_table():
    code, out, _ = run(["count", "--t", "7", "--D", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["t", "D", "n", "count", "source"]
    counts = [line.split()[3] for line in lines[1:]]
    assert counts == ["1", "21", "35", "7"]


def test_count_csv_exact():
    code, out, _ = run(["count", "--t", "7", "--D", "1", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,D,n,count,source"
    assert lines[1:] == [
        "7,1,0,1,dp", "7,1,1,21,dp", "7,1,2,35,dp", "7,1,3,7,dp",
    ]


def test_count_json_lines_round_trip():
    code, out, _ = run(
        ["count", "--t", "40", "--D", "1", "--n", "20", "--format", "json-lines"]
    )
    assert code == 0
    (rec,) = [json.loads(line) for line in out.splitlines()]
    assert isinstance(rec["count"], str)
    assert int(rec["count"]) == math.comb(40, 40)


def test_count_range():
    code, out, _ = run(
        ["count", "--t", "1", "--t-max", "4", "--D", "2", "--format", "json-lines"]
    )
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["t"] for r in recs] == [1, 2, 3, 3, 4, 4]
    by_t = {}
    for r in recs:
        by_t[r["t"]] = by_t.get(r["t"], 0) + int(r["count"])
    assert by_t == {1: 1, 2: 2, 3: 4, 4: 8}


def test_alpha_encloses_golden_ratio():
    code, out, _ = run(["alpha", "--D", "2", "--digits", "12", "--format", "json-lines"])
    assert code == 0
    rec = json.loads(out)
    assert rec["lo"] == "1.618033988749"
    assert rec["hi"] == "1.618033988750"
    assert rec["digits"] == 12
    golden = (1 + Fraction(math.isqrt(5 * 10**40), 10**20)) / 2
    assert Fraction(rec["lo"]) < golden < Fraction(rec["hi"])


def test_constants_depth_one_exact():
    code, out, _ = run(
        ["constants", "--D", "2", "--n", "3", "--format", "json-lines"]
    )
    assert code == 0
    recs = {r["kind"]: r for r in map(json.loads, out.splitlines())}
    assert Fraction(recs["depth_one_limit"]["lo"]) == Fraction(1, 720)
    assert recs["coefficient_d"]["lo"] == "0.723606797749"
    assert recs["coefficient_d"]["hi"] == "0.723606797750"


def test_table1_families():
    code, out, _ = run(["table1", "--t", "8", "--D", "2", "--format", "json-lines"])
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["family"] for r in recs] == [
        "all", "low_lying", "depth_one", "depth_one", "depth_one", "two_excursions",
    ]
    assert recs[0]["exact"] == "128"
    assert recs[0]["approx"] is None
    assert recs[1]["approx_digits"] == 12


def test_table1_prints_twelve_digits_below_the_float_range():
    # 10^308/308! is about 4.4e-327, below the least subnormal double
    code, out, _ = run(["table1", "--t", "10", "--D", "2", "--n", "154", "--format", "csv"])
    assert code == 0
    (line,) = [line for line in out.splitlines() if line.startswith("depth_one,10,1,154,")]
    exact = Context(prec=12).divide(Decimal(10**308), math.factorial(308))
    assert line.split(",")[5] == f"{exact:.12g}" == "4.42177813417e-327"


def test_table1_prints_a_double_to_its_fifteen_digits():
    # past sys.float_info.dig a double's digits are its binary expansion's:
    # 2000^4/4! is 666666666666.666..., the double 666666666666.66662597...
    code, out, _ = run(["table1", "--t", "2000", "--D", "2", "--digits", "50", "--format", "csv"])
    assert code == 0
    rows = [line.split(",")[5:] for line in out.splitlines()[3:6]]
    assert rows == [["2000000", "15"], ["666666666666.667", "15"],
                    ["8.88888888888889e+16", "15"]]


def test_verify_prints_a_double_to_its_fifteen_digits():
    code, out, _ = run(["verify", "--suite", "thm34", "--digits", "30", "--format", "json-lines"])
    assert code == 0
    floats = [v for r in map(json.loads, out.splitlines()) for v in r.values()
              if "." in v and "/" not in v]
    assert floats
    for v in floats:
        assert len(v.split("e")[0].replace(".", "").lstrip("0")) <= 15
    assert "0.00306524756129916" in floats


def test_bounds_sandwich_rendered_outward():
    code, out, _ = run(
        ["bounds", "--t", "10", "--t-max", "14", "--D", "2", "--format", "json-lines"]
    )
    assert code == 0
    for rec in map(json.loads, out.splitlines()):
        assert rec["ok"] == "true"
        assert Fraction(rec["lower"]) <= int(rec["count"]) <= Fraction(rec["upper"])


# (digest, command line) of each pin in pinned_outputs.txt, the table that
# CI checks through the console script
PINS = [
    tuple(line.split(maxsplit=1))
    for line in Path(__file__).with_name("pinned_outputs.txt").read_text().splitlines()
    if line.strip() and not line.lstrip().startswith("#")
]


@pytest.mark.parametrize("digest, command", PINS, ids=[command for _, command in PINS])
def test_bounds_output_pinned(digest, command):
    code, out, _ = run(command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_pinned_outputs_are_well_formed():
    # a typo in the table fails here, not by dropping a pin from both checks
    parser = build_parser()
    (subcommands,) = [a.choices for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)]
    commands = [command for _, command in PINS]
    assert len(set(commands)) == len(commands)
    formats = set()
    for digest, command in PINS:
        assert re.fullmatch("[0-9a-f]{64}", digest), command
        argv = command.split()
        assert command == " ".join(argv), command
        assert argv[0] in subcommands, command
        assert argv.count("--format") == 1, command
        formats.add(parser.parse_args(argv).format)
    assert {command.split()[0] for command in commands} == set(subcommands)
    assert formats == {"table", "json-lines", "csv"}


def test_enumerate_order_and_words():
    code, out, _ = run(["enumerate", "--t", "3", "--format", "json-lines"])
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["parts"] for r in recs] == ["1+1+1", "2+1", "1+2", "3"]
    assert recs[1]["eps"] == "++-"
    assert recs[1]["word"] == "ababaBabaBaB"


@pytest.mark.parametrize("argv", [
    # 512 records, two blocks
    ["enumerate", "--t", "10"],
    ["enumerate", "--t", "14", "--n", "2", "--D", "2"],
])
def test_enumerate_records_invert_through_the_word_layer(argv):
    # each record's signs are read back from its word, and its parts from
    # its signs, by the word layer's own inverses
    code, out, _ = run(argv + ["--format", "json-lines"])
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert len(recs) > 256
    assert [r["index"] for r in recs] == list(range(len(recs)))
    for r in recs:
        eps = epsilon_of(GroupWord(r["word"]))
        assert "".join("+" if s == 1 else "-" for s in eps.signs) == r["eps"]
        assert "+".join(map(str, run_sequence(eps).parts)) == r["parts"]


def test_enumerate_filter():
    code, out, _ = run(
        ["enumerate", "--t", "6", "--n", "2", "--D", "2", "--format", "csv"]
    )
    assert code == 0
    rows = out.splitlines()[1:]
    assert all(
        sum(1 for p in r.split(",")[2].split("+") if int(p) > 2) == 2 for r in rows
    )
    from cuspcensus.compositions import count_exact_excursions

    assert len(rows) == count_exact_excursions(6, 2, 2)


def test_enumerate_lists_in_output_time():
    # t = 60 has 2^59 compositions, and 1 200 ones is the only composition
    # of 1 200 with no part bigger than 1
    from cuspcensus.compositions import count_exact_excursions

    code, out, err = run(["enumerate", "--t", "60", "--n", "2", "--D", "25", "--format", "csv"])
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1 + count_exact_excursions(60, 2, 25)
    code, out, err = run(["enumerate", "--t", "1200", "--n", "0", "--D", "1", "--format", "csv"])
    assert (code, err) == (0, "")
    (_, record) = out.splitlines()
    assert record.split(",")[:3] == ["0", "1200", "+".join(["1"] * 1200)]


def test_verify_single_suite_exit_zero():
    code, out, _ = run(["verify", "--suite", "thm34"])
    assert code == 0
    assert " FAIL " not in out
    assert "final_relative_error" in out


def test_verify_failing_tolerance_exit_one():
    code, out, _ = run(["verify", "--suite", "thm34", "--tolerance", "1/100000"])
    assert code == 1
    assert "FAIL" in out


def test_verify_json_records_carry_comparison():
    code, out, _ = run(["verify", "--suite", "lemma33", "--format", "json-lines"])
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert any(r["comparison"] == "within-relative" for r in recs)
    assert all(r["status"] == "pass" for r in recs)


# each rejected command line and its message, which names the flags the
# user gave, not the library's parameters
USAGE_ERRORS = (
    (["count", "--D", "2"], "count needs --t or --t-max"),
    (["count", "--t", "0", "--D", "1"], "--t must be >= 1, got 0"),
    (["alpha", "--D", "1"], "--D must be >= 2, got 1"),
    (["bounds", "--D", "2"], "bounds needs --t or --t-max"),
    (["verify", "--suite", "thm32", "--tolerance", "junk"],
     "--tolerance must be a number such as 1/1000, got junk"),
    (["verify", "--suite", "thm32", "--tolerance", "1/0"],
     "--tolerance 1/0 has a zero denominator"),
    (["verify", "--suite", "thm32", "--tolerance", "-1"], "--tolerance must be >= 0, got -1"),
    (["count", "--t", "5", "--t-max", "3", "--D", "2"],
     "empty t-range: --t 5 is above --t-max 3"),
    (["bounds", "--t", "5", "--t-max", "3", "--D", "2"],
     "empty t-range: --t 5 is above --t-max 3"),
    (["verify", "--suite", "partition", "--oracle-max-t", "-3"],
     "--oracle-max-t must be >= 1, got -3"),
    (["verify", "--suite", "partition", "--oracle-max-t", "0"],
     "--oracle-max-t must be >= 1, got 0"),
    (["count", "--t", "3", "--D", "2", "--n", "-1"], "--n must be >= 0, got -1"),
    (["count", "--t", "3", "--D", "2", "--n", "2"], "--n must be <= 1 for t <= 3, got 2"),
    (["count", "--t", "3", "--D", "-1", "--n", "0"], "--D must be >= 1, got -1"),
    (["enumerate", "--t", "3", "--n", "5", "--D", "1"], "--n must be <= 1 for t <= 3, got 5"),
    (["enumerate", "--t", "0"], "--t must be >= 1, got 0"),
    (["enumerate", "--t", "3", "--n", "0", "--D", "-1"], "--D must be >= 1, got -1"),
    (["table1", "--t", "5", "--D", "2", "--n", "0"], "--n must be >= 1, got 0"),
    (["table1", "--t", "5", "--D", "2", "--n", "-1"], "--n must be >= 1, got -1"),
    (["count", "--t-max", "0", "--D", "1"], "--t-max must be >= 1, got 0"),
    (["bounds", "--t-max", "0", "--D", "2"], "--t-max must be >= 1, got 0"),
    (["constants", "--D", "2", "--n", "-1"], "--n must be >= 0, got -1"),
    (["enumerate", "--t", "5", "--n", "1"], "--n and --D go together: give both or neither"),
    (["enumerate", "--t", "5", "--D", "2"], "--n and --D go together: give both or neither"),
    (["alpha", "--D", "0"], "--D must be >= 2, got 0"),
    (["constants", "--D", "1"], "--D must be >= 2, got 1"),
    (["bounds", "--t", "3", "--D", "0"], "--D must be >= 2, got 0"),
    (["table1", "--t", "5", "--D", "0"], "--D must be >= 2, got 0"),
    (["table1", "--t", "0", "--D", "2"], "--t must be >= 1, got 0"),
    (["count", "--t", "3", "--D", "1", "--digits", "0"], "--digits must be >= 1, got 0"),
)


def test_usage_errors_exit_two():
    for argv, message in USAGE_ERRORS:
        assert run(argv) == (2, "", f"error: {message}\n"), argv


def test_usage_errors_keep_the_out_file(tmp_path):
    # every flag is checked before --out is opened, so a rejected command
    # leaves an existing file as it was
    path = tmp_path / "kept.txt"
    for argv, message in USAGE_ERRORS:
        path.write_bytes(b"precious\n")
        assert run([*argv, "--out", str(path)]) == (2, "", f"error: {message}\n"), argv
        assert path.read_bytes() == b"precious\n", argv


_INTS = st.integers(-2, 12).map(str)
# each subcommand's flags and the text each takes
_FLAGS = {
    "count": {"--t": _INTS, "--t-max": _INTS, "--D": _INTS, "--n": _INTS},
    "alpha": {"--D": _INTS},
    "constants": {"--D": _INTS, "--n": _INTS},
    "table1": {"--t": _INTS, "--D": _INTS, "--n": _INTS},
    "bounds": {"--t": _INTS, "--t-max": _INTS, "--D": _INTS},
    "enumerate": {"--t": _INTS, "--n": _INTS, "--D": _INTS},
    "verify": {
        "--suite": st.sampled_from(["all", *SUITES]),
        "--oracle-max-t": _INTS,
        "--tolerance": st.sampled_from(["1/1000", "0", "0.02", "junk", "1/0", "-1", "-1/2", ""]),
    },
}
_COMMON = {"--format": st.sampled_from(["table", "json-lines", "csv"]), "--digits": _INTS}
# mostly true, so that most lines get past the parser to the command's checks
_MOSTLY = (True,) * 7 + (False,)
# one rejected flag, last on the line, so that verify runs no suite
_VERIFY_REJECTED = st.one_of(
    st.tuples(st.sampled_from(["--oracle-max-t", "--digits"]), st.integers(-2, 0).map(str)),
    st.tuples(st.just("--tolerance"), st.sampled_from(["junk", "1/0", "-1", "-1/2", ""])),
    st.tuples(st.sampled_from(["--suite", "--oracle-max-t", "--tolerance", "--digits"])),
    st.just(("--suite", "nope")),
)


@st.composite
def _argv(draw):
    """A command line of one subcommand: its flags, each given a value or
    left out, in any order, now and then one of them without its value."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    words = draw(st.permutations([
        [flag, draw(values)] for flag, values in {**_FLAGS[command], **_COMMON}.items()
        if draw(st.sampled_from(_MOSTLY))
    ]))
    if words and not draw(st.sampled_from(_MOSTLY)):
        words[0] = words[0][:1]
    argv = [command, *(word for flag in words for word in flag)]
    if command == "verify":
        argv += draw(_VERIFY_REJECTED)
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=_argv(), with_out=st.sampled_from(_MOSTLY))
def test_every_command_line_keeps_the_exit_contract(argv, with_out):
    # 0 ran, 1 a suite failed, 2 usage or input error: never a traceback,
    # and an input error, argparse's own included, is one line of stderr
    # and leaves --out alone
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "kept.txt"
        path.write_bytes(b"precious\n")
        if with_out:
            argv = [*argv, "--out", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own usage errors
                code = exc.code
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
            assert path.read_bytes() == b"precious\n", argv


def test_precision_exhausted_exits_two(monkeypatch):
    # a certified value that cannot be resolved is reported, not a
    # traceback, and not the status of a failed suite
    import cuspcensus.cli as cli
    from cuspcensus.spectral import PrecisionExhausted

    def exhausted(kind, parameter, tol=None):
        raise PrecisionExhausted("limit constant did not converge")

    monkeypatch.setattr(cli, "limit_constant", exhausted)
    code, _, err = run(["constants", "--D", "3"])
    assert code == 2
    assert err == "error: limit constant did not converge\n"


def test_memory_error_exits_two_with_one_error_line(monkeypatch):
    # running out of memory is not a failed suite: exit 2 and one named
    # error line in place of a traceback; the kernel raises, allocating
    # nothing
    import cuspcensus.cli as cli

    def exhausted(kind, parameter, tol=None):
        raise MemoryError

    monkeypatch.setattr(cli, "limit_constant", exhausted)
    code, _, err = run(["constants", "--D", "3"])
    assert code == 2
    assert err == "error: out of memory\n"


def test_zero_tolerance_is_legal():
    # zero tolerance is a strict request, not an input error: the suite
    # runs and reports its checks
    code, out, err = run(["verify", "--suite", "lemma33", "--tolerance", "0"])
    assert code in (0, 1)
    assert err == ""
    assert out.splitlines()[0].split()[0] == "suite"


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--t", "5", "--D", "1", "--bogus"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: unrecognized arguments: --bogus\n"


def test_unknown_suite_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: argument --suite: invalid choice: 'nope'")


def test_byte_identical_repeats():
    argv = ["count", "--t", "1", "--t-max", "30", "--D", "3", "--format", "json-lines"]
    outs = {run(argv)[1] for _ in range(3)}
    assert len(outs) == 1


def test_out_file(tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run(
        ["count", "--t", "9", "--D", "2", "--format", "csv", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    lines = target.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,D,n,count,source"
    assert sum(int(line.split(",")[3]) for line in lines[1:]) == 2**8


def test_table1_counts_beyond_int_digit_limit():
    # 2^19999 has 6021 digits, past str(int)'s default 4300-digit limit
    code, out, err = run(["table1", "--t", "20000", "--D", "2", "--format", "json-lines"])
    assert code == 0, err
    exact = json.loads(out.splitlines()[0])["exact"]
    assert len(exact) == 6021
    assert exact[-50:] == str(pow(2, 19999, 10**50)).zfill(50)


def test_table1_approx_beyond_float_range():
    # d alpha^t at t = 20000, D = 2 is about 4.1e4179, past the float range
    code, out, err = run(["table1", "--t", "20000", "--D", "2", "--format", "json-lines"])
    assert code == 0, err
    low = json.loads(out.splitlines()[1])
    assert low["family"] == "low_lying"
    mantissa, exponent = low["approx"].split("e+")
    assert len(mantissa.replace(".", "")) <= 12
    assert int(exponent) == len(low["exact"]) - 1
    # the count is d alpha^t to within 1/2, so all 12 printed digits are
    # the count's, correctly rounded
    assert Decimal(low["approx"]) == Context(prec=12).plus(Decimal(low["exact"]))


def test_table1_prints_fifty_certified_digits():
    # d alpha^2000 at D = 2 is 6.83570225957580664704539654917058010705540802936552...e417
    # and at --digits 60 it prints those 50, and says so
    for digits in ("50", "60"):
        code, out, err = run(["table1", "--t", "2000", "--D", "2", "--digits", digits,
                              "--format", "csv"])
        assert code == 0, err
        assert out.splitlines()[2].endswith(
            ",6.8357022595758066470453965491705801070554080293655e+417,50")


SRC = Path(__file__).resolve().parents[1] / "src"


def cli_process(*argv, **kwargs):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.Popen(
        [sys.executable, "-m", "cuspcensus.cli", *argv],
        stderr=subprocess.PIPE, env=env, **kwargs,
    )


def test_unwritable_out_path_exits_two(tmp_path):
    proc = cli_process(
        "count", "--t", "3", "--D", "1", "--out", str(tmp_path / "missing" / "x.csv")
    )
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert out == b""
    assert err.startswith(b"error:") and b"Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("to_out", [True, False], ids=["out", "stdout"])
def test_full_device_exits_two(to_out):
    argv = ["count", "--t", "7", "--D", "1", "--format", "csv"]
    with open("/dev/full", "w") as full:
        if to_out:
            proc = cli_process(*argv, "--out", "/dev/full")
        else:
            proc = cli_process(*argv, stdout=full)
        out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err.startswith(b"error:") and err.count(b"\n") == 1
    assert b"Traceback" not in err


def test_reader_closing_the_pipe_ends_quietly():
    proc = cli_process("count", "--t-max", "3000", "--D", "1", "--format", "csv")
    assert proc.stdout.readline() == b"t,D,n,count,source\n"
    proc.stdout.close()  # what `| head -1` does after its line
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_point_count_reads_one_cell():
    # the whole row of t = 20000 would walk the kernel for minutes
    proc = cli_process("count", "--t", "20000", "--D", "2", "--n", "1", "--format", "csv")
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 0, err
    header, row = out.decode().splitlines()
    assert header == "t,D,n,count,source"
    assert row.startswith("20000,2,1,") and row.endswith(",dp")


@pytest.mark.parametrize("fmt", ["table", "json-lines", "csv"])
def test_point_count_equals_the_filtered_row(fmt):
    from cuspcensus.compositions import census_row

    row = census_row(40, 2)
    for n, count in enumerate(row):
        expected = io.StringIO()
        emitter = Emitter(fmt, expected)
        emitter.emit({"t": 40, "D": 2, "n": n, "count": str(count), "source": "dp"})
        emitter.close()
        code, out, _ = run(["count", "--t", "40", "--D", "2", "--n", str(n), "--format", fmt])
        assert code == 0
        assert out == expected.getvalue(), n


@pytest.mark.parametrize("fmt", ["table", "json-lines", "csv"])
@pytest.mark.parametrize("D", [1, 2, 5])
def test_point_row_equals_its_lines_of_a_range(monkeypatch, fmt, D):
    # one t is served by census_row, a range by the kernel's walk
    import cuspcensus.cli as cli

    def no_walk(*args):
        raise AssertionError("a single t walked the kernel")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "census_rows", no_walk)
        code, point, _ = run(["count", "--t", "300", "--D", str(D), "--format", fmt])
    assert code == 0
    code, ranged, _ = run(
        ["count", "--t", "299", "--t-max", "300", "--D", str(D), "--format", fmt]
    )
    assert code == 0
    lines = ranged.splitlines()
    if fmt == "json-lines":
        expected = [line for line in lines if json.loads(line)["t"] == 300]
    else:
        sep = "," if fmt == "csv" else None
        expected = lines[:1] + [line for line in lines[1:] if line.split(sep)[0] == "300"]
    assert point.splitlines() == expected
    assert len(expected) > 300 // (D + 1)


def test_json_lines_equal_json_dumps():
    records = [
        {"t": 3, "D": None, "ok": True, "bad": False, "x": 0.1, "big": -10**30,
         "count": "123", "word": "abaB"},
        {'q"uote': 'a"b', "per%cent": "%s%d", "naïve": "☃é", "t": 3},
        {'q"uote': "again", "per%cent": "%", "naïve": "", "t": -1},
        {"t": 3, "D": None, "ok": True, "bad": False, "x": 1e300, "big": 7,
         "count": "", "word": "\n\t\\"},
        {},
    ]
    out = io.StringIO()
    emitter = Emitter("json-lines", out)
    for record in records:
        emitter.emit(record)
    assert out.getvalue().splitlines() == [
        json.dumps(record, separators=(", ", ": ")) for record in records
    ]


def hostile_blocks():
    """Blocks whose shared fields and columns hold the values of
    test_json_lines_equal_json_dumps, ending in a block of scalars."""
    from cuspcensus.cli import _Decimals

    many = range(600)  # more records than one slice
    return [
        {'q"uote': 'a"b', "per%cent": ["%s%d", "%", "%%", "x%"], "naïve": "☃é",
         "D": None, "x": [0.1, 1e300, -0.0, 2.5], "ok": [True, 1, False, 0],
         "big": -10**30},
        {'q"uote': ["again", '"', "", "☃"], "per%cent": "%", "naïve": [None, "é", "%d", "\\"],
         "D": [None, 1, "1", 2.0], "x": 0.1, "ok": True, "big": [-10**30, 7, 10**40, 0]},
        # the keys in another order, and a one-record block
        {"big": _Decimals([-10**30]), 'q"uote': ("one",), "naïve": "", "per%cent": ["%"],
         "D": range(5, 6), "x": [None], "ok": False},
        {'q"uote': "many", "per%cent": many, "naïve": [str(i) * (i % 7) for i in many],
         "D": 3, "x": [i / 7 for i in many], "ok": [i % 3 == 0 for i in many],
         "big": _Decimals([(-1) ** i * 10 ** (i % 40) for i in many])},
        {'q"uote': "%s", "per%cent": "%%", "naïve": "ü", "D": None, "x": 1e-300,
         "ok": True, "big": 10**30},
    ]


def records_of(block):
    """The records of a block, one dict each; a decimal column gives its
    strings."""
    from cuspcensus.cli import _COLUMNS

    sizes = {len(v) for v in block.values() if type(v) in _COLUMNS}
    size = sizes.pop() if sizes else 1
    return [
        {k: v[i:i + 1][0] if type(v) in _COLUMNS else v for k, v in block.items()}
        for i in range(size)
    ]


@pytest.mark.parametrize("fmt", ["table", "json-lines", "csv"])
def test_a_block_writes_the_bytes_of_its_records(fmt):
    blocks, one_by_one = io.StringIO(), io.StringIO()
    emitter = Emitter(fmt, blocks)
    for block in hostile_blocks():
        emitter.emit(block)
    emitter.close()
    emitter = Emitter(fmt, one_by_one)
    for block in hostile_blocks():
        for record in records_of(block):
            emitter.emit(record)
    emitter.close()
    assert blocks.getvalue() == one_by_one.getvalue()
    lines = blocks.getvalue().splitlines()
    assert len(lines) == 4 + 4 + 1 + 600 + 1 + (fmt != "json-lines")
    if fmt == "json-lines":
        records = [r for block in hostile_blocks() for r in records_of(block)]
        assert lines == [json.dumps(r, separators=(", ", ": ")) for r in records]
        # an int column with a bool in it keeps the bool
        assert [json.loads(line)["ok"] for line in lines[:4]] == [True, 1, False, 0]
        assert '"ok": true' in lines[0] and '"ok": 1' in lines[1]


@pytest.mark.parametrize("fmt", ["table", "json-lines", "csv"])
def test_a_block_with_columns_of_two_lengths_is_refused(fmt):
    out = io.StringIO()
    emitter = Emitter(fmt, out)
    with pytest.raises(ValueError, match="differ in length"):
        emitter.emit({"t": [1, 2], "D": 1, "n": range(3)})
    emitter.close()
    assert out.getvalue() == ""


class LargestWrite:
    """A stream, or a table spool that reads back nothing, that keeps the
    count of lines and the most lines of any one write."""

    def __init__(self):
        self.lines = self.most = 0

    def write(self, text):
        lines = text.count("\n") if isinstance(text, str) else text.count(b"\n")
        self.lines += lines
        self.most = max(self.most, lines)

    def flush(self):
        pass

    def seek(self, offset):
        pass

    def __iter__(self):
        return iter(())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


@pytest.mark.parametrize("fmt", ["table", "json-lines", "csv"])
def test_a_long_block_is_written_a_slice_at_a_time(monkeypatch, fmt):
    import cuspcensus.cli as cli

    # the table's rows go to its spool, not to the sink, until close; the
    # emitter imports tempfile when it opens the spool
    spool = LargestWrite()
    monkeypatch.setattr(tempfile, "SpooledTemporaryFile",
                        lambda size, mode, encoding, newline: spool)
    sink = LargestWrite()
    emitter = Emitter(fmt, sink)
    emitter.emit({"t": 7, "D": 1, "n": range(100_000),
                  "count": cli._Decimals(range(100_000)), "source": "dp"})
    emitter.close()
    written = spool if fmt == "table" else sink
    assert written.lines == 100_000 + (fmt == "csv")
    assert written.most == cli._BLOCK_RECORDS < 1000


def test_table_close_writes_a_slice_at_a_time():
    import cuspcensus.cli as cli

    # with the real spool, moved to a file by now: close reads it back and
    # pads it _BLOCK_RECORDS lines at a time, and writes each slice at once
    sink = LargestWrite()
    emitter = Emitter("table", sink)
    emitter.emit({"t": 7, "D": 1, "n": range(100_000),
                  "count": cli._Decimals(range(100_000)), "source": "dp"})
    assert sink.lines == 0
    emitter.close()
    assert sink.lines == 1 + 100_000
    assert sink.most == cli._BLOCK_RECORDS


def test_table_equals_a_row_by_row_reference():
    import cuspcensus.cli as cli

    # hostile cells: an empty last cell, trailing spaces, a carriage
    # return, non-ASCII text, a "wide" cell wider than its header only in
    # the last record, and "carriage" cells all narrower than their header;
    # enough records that the spool moves to a file
    size = 50_000
    block = {
        "t": range(size),
        "word": ["☃é" * (i % 4) + " " * (i % 3) for i in range(size)],
        "carriage": ["a\rb" if i % 5 else "\r" for i in range(size)],
        "wide": "ab",
        "last": ["" if i % 2 else "end  " for i in range(size)],
    }
    last = {"t": size, "word": "ü", "carriage": "", "wide": "w" * 9, "last": ""}
    out = io.StringIO()
    emitter = Emitter("table", out)
    emitter.emit(block)
    emitter.emit(last)
    emitter.close()

    keys = list(block)
    rows = [[str(i), block["word"][i], block["carriage"][i], "ab", block["last"][i]]
            for i in range(size)] + [[str(v) for v in last.values()]]
    widths = [max(map(len, column)) for column in zip(keys, *rows)]
    assert widths[keys.index("wide")] == 9 > len("wide")
    assert sum(len(cli._UNIT.join(row).encode()) + 1 for row in rows) > cli._TABLE_SPOOL_BYTES
    expected = ["  ".join(map(str.ljust, keys, widths))] + [
        "  ".join(map(str.ljust, row, widths)).rstrip() for row in rows
    ]
    # compared line by line, so that a failure names the lines that differ
    lines = out.getvalue().split("\n")
    assert lines.pop() == ""
    assert len(lines) == len(expected)
    assert [i for i, (got, want) in enumerate(zip(lines, expected)) if got != want] == []


def test_machine_formats_stream_and_table_waits_for_close():
    for fmt, expected in (("json-lines", '{"t": 1, "n": null}\n'), ("csv", "t,n\n1,\n")):
        out = io.StringIO()
        Emitter(fmt, out).emit({"t": 1, "n": None})
        assert out.getvalue() == expected, fmt
    out = io.StringIO()
    emitter = Emitter("table", out)
    emitter.emit({"t": 1, "n": None})
    assert out.getvalue() == ""
    emitter.close()
    assert out.getvalue() == "t  n\n1  -\n"


def test_table_aligns_to_the_widest_cell_of_any_row():
    # the header keeps its padding; each row is stripped on the right
    out = io.StringIO()
    emitter = Emitter("table", out)
    emitter.emit({"t": 1, "word": "ab", "n": None})
    emitter.emit({"t": 1234, "word": "abaBab", "n": 2})
    emitter.close()
    assert out.getvalue() == (
        "t     word    n\n"
        "1     ab      -\n"
        "1234  abaBab  2\n"
    )


class HashingSink:
    """A stdout that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text):
        self.hash.update(text.encode())

    def flush(self):
        pass


def test_table_spills_its_rows_and_keeps_its_bytes():
    # 2^15 aligned rows, about 4 MB of output: the table used to hold every
    # row until close (a traced peak of 5.6 MB); now at most the spool's
    # memory part is held, and the bytes are those of the list it replaced
    sink = HashingSink()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            code = main(["enumerate", "--t", "16"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.hash.hexdigest() == (
        "ff1ac3904aed88ae673f6884d54afa76dac406fb991744a08ffe4d7e7ca21f7e"
    )
    assert peak < 2_500_000, peak


@pytest.mark.parametrize("D", [2, 40])
def test_constants_certify_both_rows_to_the_printed_digits(D):
    code, out, _ = run(["constants", "--D", str(D), "--digits", "60", "--format", "json-lines"])
    assert code == 0
    recs = {r["kind"]: r for r in map(json.loads, out.splitlines())}
    for kind in ("coefficient_d", "two_excursions_limit"):
        width = Fraction(recs[kind]["hi"]) - Fraction(recs[kind]["lo"])
        assert 0 < width <= Fraction(2, 10**60), kind


class FlushLog(io.StringIO):
    """A stdout that keeps the text written up to its last flush."""

    flushed = ""

    def flush(self):
        super().flush()
        self.flushed = self.getvalue()


def fake_suites(monkeypatch, failing=(), size=1):
    """Replace every verification suite with a generator of `size` fake
    checks, which fail for the suites named in failing.  Return its log:
    calls holds (name, keywords) as each suite starts, and asked holds
    (name, k, the text flushed to stdout so far) as check k is asked for."""
    import cuspcensus.cli as cli
    from cuspcensus.census import SUITES, Check

    log = SimpleNamespace(calls=[], asked=[])

    def fake(name):
        def checks(**kwargs):
            log.calls.append((name, kwargs))
            for k in range(size):
                log.asked.append((name, k, getattr(sys.stdout, "flushed", None)))
                yield Check("fake", (k,), 0, 0, 0, False, "within", name not in failing)
        return checks

    monkeypatch.setattr(cli, "SUITES", {name: fake(name) for name in SUITES})
    return log


@pytest.mark.parametrize("fmt", ["json-lines", "csv"])
def test_verify_flushes_each_check_before_the_next_starts(monkeypatch, fmt):
    log = fake_suites(monkeypatch, failing={"thm32"}, size=3)
    out, err = FlushLog(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", "--suite", "all", "--format", fmt])
    assert (code, err.getvalue()) == (1, "")
    header = 1 if fmt == "csv" else 0
    lines = out.getvalue().splitlines()
    records = [json.loads(line) for line in lines] if fmt == "json-lines" else [
        dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]
    ]
    assert [(r["suite"], r["parameters"]) for r in records] == [
        (name, str(k)) for name, k, _ in log.asked
    ]
    assert len(records) == 3 * len(SUITES)
    # asked for check i, the lines of checks 0..i-1 are all flushed, and
    # nothing more (a csv header goes out with the first line)
    for i, (_, _, flushed) in enumerate(log.asked):
        assert flushed.splitlines() == (lines[: header + i] if i else [])
    assert out.flushed == out.getvalue()


def test_verify_stops_when_the_reader_closes_early(monkeypatch, tmp_path):
    log = fake_suites(monkeypatch, size=3)

    class ClosedAfterOneLine(io.StringIO):
        """A pipe whose reader goes away once it has one line, as
        `| head -n 1` does."""

        def flush(self):
            if self.getvalue():
                raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            # main points the broken output at the null device, by its fd
            return sink

    sink = os.open(tmp_path / "sink", os.O_WRONLY | os.O_CREAT)
    out, err = ClosedAfterOneLine(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", "--suite", "all", "--format", "json-lines"])
    finally:
        os.close(sink)
    assert (code, err.getvalue()) == (0, "")
    assert len(out.getvalue().splitlines()) == 1
    # nothing past the check whose line could not be passed on is computed
    assert log.calls == [("bijection", {})]
    assert [(name, k) for name, k, _ in log.asked] == [("bijection", 0)]


@pytest.mark.parametrize("extra, tolerance", [
    ([], {}),
    (["--tolerance", "1/3"], {"tolerance": Fraction(1, 3)}),
])
def test_verify_passes_each_suite_its_options(monkeypatch, extra, tolerance):
    log = fake_suites(monkeypatch)
    code, _, _ = run(["verify", "--oracle-max-t", "7", "--format", "csv", *extra])
    assert code == 0
    expected = dict.fromkeys(
        ["bijection", "closed-form", "double-sum", "matrices"], {}
    ) | {"partition": {"oracle_max_t": 7}} | dict.fromkeys(
        ["thm32", "thm34", "lemma33"], tolerance
    )
    assert dict(log.calls) == expected
