"""Command-line interface: exit codes, formats, determinism."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cuspcensus.census import SUITES
from cuspcensus.cli import Emitter, main


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


def test_bounds_sandwich_rendered_outward():
    code, out, _ = run(
        ["bounds", "--t", "10", "--t-max", "14", "--D", "2", "--format", "json-lines"]
    )
    assert code == 0
    for rec in map(json.loads, out.splitlines()):
        assert rec["ok"] == "true"
        assert Fraction(rec["lower"]) <= int(rec["count"]) <= Fraction(rec["upper"])


@pytest.mark.parametrize("argv, digest", [
    (["bounds", "--t", "5000", "--D", "2"],
     "1e7d99a8e4741b627a8c482b180b011f73e2584a885d9b52631022df5db2b847"),
    (["bounds", "--t", "1", "--t-max", "600", "--D", "3"],
     "ca54b97c4eff44ae70f2d23cfd7685cb0b6c92c068c4422b7c804bfc0feef0c1"),
    (["alpha", "--D", "2"],
     "2f5a7687abe09b0f901b260685efe271743935ae5a617bfae70630723f6fa574"),
    (["alpha", "--D", "3"],
     "7758c06fe8b2b78a5f3a083cd998602edb8c3ec71085b4797dc09d5d8d30c90c"),
    (["alpha", "--D", "5"],
     "bc9216910c5b3669841fa747e2399044c5e2c01210d778dc62d0c8521477afa8"),
    (["alpha", "--D", "12"],
     "6996b72b8d06a37ced79b28a196292d143d36623c763725610f563ac144bd716"),
    (["alpha", "--D", "40"],
     "6cc3ba0907f30d731262f3f5e097b481668bd59b7a5bcd62ba2883a4cb4bcedb"),
    (["constants", "--D", "2", "--n", "2"],
     "14a38e6bdfeedffa1525419984c0b53f529d86b223b0b338e1ef51285577c7fa"),
    (["constants", "--D", "3", "--n", "2"],
     "94030b3f4020d07790a7c0a9a980b692150e7f3b3f2cf1e21b574950febedf83"),
    (["constants", "--D", "5", "--n", "2"],
     "36552270c2a483c4f0f434f455c477b4dab1505c176f74f1cadf560579e04df6"),
    (["constants", "--D", "12", "--n", "2"],
     "d5afcc10e74f144c4a34e37a926a83a20edba657f582d30c1077fed771b8660e"),
    (["constants", "--D", "40", "--n", "2"],
     "c7001dffce2bd326fea2f4ca45706ee445e749472626dd5689f1d31f93963384"),
    (["count", "--t-max", "1000", "--D", "1", "--format", "json-lines"],
     "cde8e188e3e7886b12c3d6080b07437f94e9bb6728f1183216477acc8784eec4"),
    (["count", "--t", "2000", "--D", "3", "--format", "csv"],
     "5cd62ea1b36a2795da4f0c84054caf7eb5f2da918fd186936252e35e99a2b919"),
    (["verify", "--suite", "bijection", "--format", "json-lines"],
     "906f509a7928bbf92cd7e627e283eced4ed3da94d0c0836987900b87188d8c8f"),
    (["verify", "--suite", "partition", "--oracle-max-t", "16",
      "--format", "json-lines"],
     "4a3ed6bc07ee4421ac75e3453cb65870221e5a3aae7343898bf0b4831cddb7e4"),
    (["verify", "--suite", "double-sum", "--format", "json-lines"],
     "5195cc6a6ebf9c21d3ff7029b3d42653bfeedff31d13589a4959a440fd26e6f2"),
    (["verify", "--suite", "matrices", "--format", "json-lines"],
     "2bc140634840ad1e0d2bae5d2d46f5bb69ebc1b38b268138dbaf4778dca81087"),
    (["count", "--t", "1", "--t-max", "800", "--D", "2", "--n", "2", "--format", "csv"],
     "6487ba2c2128d69f263293dd43e6712af75b6932c6a279c17b5e3889e34b8a32"),
    (["count", "--t", "1", "--t-max", "600", "--D", "5", "--n", "1",
      "--format", "json-lines"],
     "9ae82a3ecf8a2773ce889c8b724bf57a4251ba1349cec9f29bb0aee0ce3b0095"),
    (["count", "--t", "1", "--t-max", "300", "--D", "3", "--format", "table"],
     "dcd973ea1c262b7a356cba1f4472fc7fd4d13f98b3f310ba110aa85a32287ac4"),
    (["count", "--t", "1", "--t-max", "300", "--D", "3", "--format", "csv"],
     "63045a344fb34f10e513147cd8b658da91d403a189357bfc638cc2366334a564"),
    (["count", "--t", "1", "--t-max", "2000", "--D", "2", "--n", "1", "--format", "table"],
     "b8c0900efe2975b255ce69615bb79fce9772d520e018de5a698f75c03d0bcd9a"),
    (["alpha", "--D", "3", "--digits", "300"],
     "1d00bdd344081dcf12ac134a19ca541519f77e4600dce01f23d8148e24481a41"),
    (["alpha", "--D", "12", "--digits", "60"],
     "ef8890c988cb84f34699159f60bd05029c69a2811f155e644c4756e227ab1719"),
    (["constants", "--D", "3", "--n", "2", "--digits", "60"],
     "06e384ad3565d8b6dda37d87bfb6e85edfc08d6af6cc20acf2e44222ca3dcfe6"),
    (["table1", "--t", "20", "--D", "2"],
     "567e1f23cb33e69b59b24ba5a9d500a8ead67b4032975d1bff4f28d8fc207f62"),
    # beyond the float range the approximations print as decimals
    (["table1", "--t", "2000", "--D", "2"],
     "a581d6c1aac6e082b17acfaf3917ed475d0bf7458c91d31966fa6c4b378bc36d"),
    # and at 50 digits, each of them certified
    (["table1", "--t", "2000", "--D", "2", "--digits", "50"],
     "36735457367bdac3a40b96af98b793ad86896521ef981110dadd31c8a3a86feb"),
    # the words the word layer prints: every normal form of t = 12, and a
    # filtered run in the other format
    (["enumerate", "--t", "12"],
     "6a2b6399e2721f9bfed1d2cdaff6418df23e8445924ae9f7005709e1b2ce402e"),
    (["enumerate", "--t", "10", "--n", "2", "--D", "2", "--format", "json-lines"],
     "3910a8a829abbf915256ccaf8b54195cc651d745937ddf2665bd3f5addd5c2d3"),
    # one bound far out: the closed forms need one power of alpha per t
    (["bounds", "--t", "20000", "--D", "2"],
     "ff91cfa3434162dcc84caeed418a9a43b03e5ec25e868392e2531bfafdc16e1a"),
])
def test_bounds_output_pinned(argv, digest):
    # the printed bounds, growth rates and constants are certified
    # values, and counts and suite reports are exact: all are pinned here
    # to the byte, in csv unless the case names its format
    if "--format" not in argv:
        argv = argv + ["--format", "csv"]
    code, out, _ = run(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_order_and_words():
    code, out, _ = run(["enumerate", "--t", "3", "--format", "json-lines"])
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["parts"] for r in recs] == ["1+1+1", "2+1", "1+2", "3"]
    assert recs[1]["eps"] == "++-"
    assert recs[1]["word"] == "ababaBabaBaB"


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


USAGE_ERRORS = (
    ["count", "--D", "2"],
    ["count", "--t", "0", "--D", "1"],
    ["alpha", "--D", "1"],
    ["bounds", "--D", "2"],
    ["verify", "--suite", "thm32", "--tolerance", "junk"],
    ["verify", "--suite", "thm32", "--tolerance", "1/0"],
    ["verify", "--suite", "thm32", "--tolerance", "-1"],
    ["count", "--t", "5", "--t-max", "3", "--D", "2"],
    ["bounds", "--t", "5", "--t-max", "3", "--D", "2"],
    ["verify", "--suite", "partition", "--oracle-max-t", "-3"],
    ["verify", "--suite", "partition", "--oracle-max-t", "0"],
    ["count", "--t", "3", "--D", "2", "--n", "-1"],
    ["count", "--t", "3", "--D", "2", "--n", "2"],
    ["count", "--t", "3", "--D", "-1", "--n", "0"],
    ["enumerate", "--t", "3", "--n", "5", "--D", "1"],
    ["enumerate", "--t", "0"],
    ["enumerate", "--t", "3", "--n", "0", "--D", "-1"],
    ["table1", "--t", "5", "--D", "2", "--n", "0"],
    ["table1", "--t", "5", "--D", "2", "--n", "-1"],
    ["count", "--t-max", "0", "--D", "1"],
    ["bounds", "--t-max", "0", "--D", "2"],
    ["constants", "--D", "2", "--n", "-1"],
    ["enumerate", "--t", "5", "--n", "1"],
    ["enumerate", "--t", "5", "--D", "2"],
    ["alpha", "--D", "0"],
    ["constants", "--D", "1"],
    ["bounds", "--t", "3", "--D", "0"],
    ["table1", "--t", "5", "--D", "0"],
    ["table1", "--t", "0", "--D", "2"],
    ["count", "--t", "3", "--D", "1", "--digits", "0"],
)


def test_usage_errors_exit_two():
    for argv in USAGE_ERRORS:
        code, _, err = run(argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv
    # the message names the flags the user gave, not the library's parameters
    for argv, message in (
        (["table1", "--t", "5", "--D", "2", "--n", "0"], "--n must be >= 1, got 0"),
        (["count", "--t-max", "0", "--D", "1"], "--t-max must be >= 1, got 0"),
        (["bounds", "--t-max", "0", "--D", "2"], "--t-max must be >= 1, got 0"),
        (["constants", "--D", "2", "--n", "-1"], "--n must be >= 0, got -1"),
        (["count", "--t", "0", "--D", "1"], "--t must be >= 1, got 0"),
        (["count", "--t", "3", "--D", "-1", "--n", "0"], "--D must be >= 1, got -1"),
        (["enumerate", "--t", "5", "--n", "1"], "--n and --D go together: give both or neither"),
        (["enumerate", "--t", "5", "--D", "2"], "--n and --D go together: give both or neither"),
        (["alpha", "--D", "0"], "--D must be >= 2, got 0"),
        (["constants", "--D", "1"], "--D must be >= 2, got 1"),
        (["bounds", "--t", "3", "--D", "0"], "--D must be >= 2, got 0"),
        (["table1", "--t", "5", "--D", "0"], "--D must be >= 2, got 0"),
        (["table1", "--t", "0", "--D", "2"], "--t must be >= 1, got 0"),
        (["count", "--t", "3", "--D", "1", "--digits", "0"], "--digits must be >= 1, got 0"),
        (["verify", "--suite", "thm32", "--tolerance", "junk"],
         "--tolerance must be a number such as 1/1000, got junk"),
    ):
        assert run(argv) == (2, "", f"error: {message}\n"), argv


def test_usage_errors_keep_the_out_file(tmp_path):
    # every flag is checked before --out is opened, so a rejected command
    # leaves an existing file as it was
    path = tmp_path / "kept.txt"
    for argv in USAGE_ERRORS:
        path.write_bytes(b"precious\n")
        assert run([*argv, "--out", str(path)])[0] == 2, argv
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
    code, out, err = run(["table1", "--t", "2000", "--D", "2", "--digits", "50", "--format", "csv"])
    assert code == 0, err
    assert out.splitlines()[2].endswith(",6.8357022595758066470453965491705801070554080293655e+417,50")


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

    # the table's rows go to its spool, not to the sink, until close
    spool = LargestWrite()
    monkeypatch.setattr(cli.tempfile, "SpooledTemporaryFile",
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


def fake_suites(monkeypatch, failing=()):
    """Replace every verification suite with a one-check fake; return the
    log of (name, keywords, stdout so far) for each call."""
    import cuspcensus.cli as cli
    from cuspcensus.census import SUITES, Check, VerificationReport

    calls = []

    def fake(name):
        def suite(**kwargs):
            calls.append((name, kwargs, sys.stdout.getvalue()))
            check = Check("fake", (1,), 0, 0, 0, False, "within", name not in failing)
            return VerificationReport(name, (check,))
        return suite

    monkeypatch.setattr(cli, "SUITES", {name: fake(name) for name in SUITES})
    return calls


def test_verify_writes_each_suite_before_the_next_starts(monkeypatch):
    calls = fake_suites(monkeypatch, failing={"thm32"})
    code, out, _ = run(["verify", "--suite", "all", "--format", "json-lines"])
    assert code == 1
    lines = out.splitlines()
    assert [json.loads(line)["suite"] for line in lines] == [name for name, _, _ in calls]
    for i, (_, _, seen) in enumerate(calls):
        assert seen.splitlines() == lines[:i]


@pytest.mark.parametrize("extra, tolerance", [
    ([], {}),
    (["--tolerance", "1/3"], {"tolerance": Fraction(1, 3)}),
])
def test_verify_passes_each_suite_its_options(monkeypatch, extra, tolerance):
    calls = fake_suites(monkeypatch)
    code, _, _ = run(["verify", "--oracle-max-t", "7", "--format", "csv", *extra])
    assert code == 0
    expected = dict.fromkeys(
        ["bijection", "closed-form", "double-sum", "matrices"], {}
    ) | {"partition": {"oracle_max_t": 7}} | dict.fromkeys(
        ["thm32", "thm34", "lemma33"], tolerance
    )
    assert {name: kwargs for name, kwargs, _ in calls} == expected
