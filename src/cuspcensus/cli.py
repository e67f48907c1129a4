"""Command-line front end.

Subcommands: count, alpha, constants, table1, bounds, verify, enumerate.
Three output formats: a human-readable aligned table (default), json-lines,
and csv.  Exact counts are serialized as decimal strings in the machine
formats so they round-trip losslessly; floating-point fields carry an
explicit digits-of-precision companion field.  Output is byte-identical
across runs with the same arguments.  Each subcommand declares the least
value of each of its integer flags next to its arguments, and
_check_flags checks those, by the size check every library entry point
uses, and the rules that tie flags together before any output is opened,
naming the flag in its message; no command checks a flag itself.
Commands hand records to the Emitter in blocks: a census row is one
block, its t, D and source shared by every record and its n and count one
column each.  One pass over a
block's keys encodes its shared values into a record template, and the
block is written in slices of a fixed number of records, each encoded
column-wise as one string.  Json-lines and csv records are written as
they are emitted, so `verify` prints each suite as it finishes, and the
lines of the suites before one that fails with exit 2 are already
written; the table's records go to a spool that moves to a temporary
file beyond a fixed size, and at the end it is read back a slice at a
time, once for the column widths and once to pad the cells a column at
a time.
"""

from __future__ import annotations

import argparse
import decimal
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from itertools import islice, repeat
from typing import Optional

from ._contract import check_least
from .census import DEFAULT_ORACLE_CAP, SUITES, table1
from .compositions import census_column, census_row, census_rows, enumerate_compositions
from .spectral import (
    PrecisionExhausted, bounds_two_excursions_range, coefficient_d, limit_constant,
    solve_alpha,
)
from .words import EpsilonSeq, reciprocal_word


_JSON = json.JSONEncoder(separators=(", ", ": "))
# JSONEncoder's own string encoder under ensure_ascii
_JSON_STR = json.encoder.encode_basestring_ascii
_UNIT = "\x1f"
# bytes of joined table rows held in memory before they spill to a file
_TABLE_SPOOL_BYTES = 1 << 20
# records of a block encoded and written at a time
_BLOCK_RECORDS = 256


def _int_str(n: int) -> str:
    """Exact decimal digits of n.

    str() refuses integers longer than the interpreter's digit limit
    (4300 digits by default); Decimal converts any integer exactly, so
    large counts are serialized without changing that process-wide limit.
    """
    try:
        return str(n)
    except ValueError:
        return str(decimal.Decimal(n))


def _fixed_point(q: int, digits: int) -> str:
    """q / 10^digits as a fixed-point string with exactly digits decimals."""
    sign, q = ("-", -q) if q < 0 else ("", q)
    whole, frac = divmod(q, 10**digits)
    return f"{sign}{_int_str(whole)}.{_int_str(frac).zfill(digits)}"


def _decimal_floor(x: Fraction, digits: int) -> str:
    """Largest multiple of 10^-digits at most x, as a fixed-point string."""
    return _fixed_point(math.floor(x * 10**digits), digits)


def _decimal_ceil(x: Fraction, digits: int) -> str:
    return _fixed_point(math.ceil(x * 10**digits), digits)


def _enclosure_fields(enc, digits: int) -> dict:
    """An enclosure's lo and hi, rounded outward to `digits` decimals."""
    return {"lo": _decimal_floor(enc.lo, digits), "hi": _decimal_ceil(enc.hi, digits),
            "digits": digits}


def _general_format(value, digits: int) -> str:
    """A float, or a Decimal beyond the float range, in the style of
    format(value, f".{digits}g"): rounded to `digits` significant digits,
    trailing zeros dropped."""
    if isinstance(value, decimal.Decimal):
        value = decimal.Context(prec=digits).normalize(value)
    return f"{value:.{digits}g}"


class _Decimals:
    """A column of the exact decimal strings of some integers, made a
    slice at a time as the emitter writes it, so the strings of a long
    row are never held at once."""

    def __init__(self, values):
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, part: slice) -> list[str]:
        values = self.values[part]
        try:
            return list(map(str, values))
        except ValueError:  # a value past str's digit limit
            return list(map(_int_str, values))


def _number_token(value, digits: int) -> str:
    """Serialize for output: ints and rationals exactly, floats at the
    declared precision."""
    if isinstance(value, (int, Fraction)):
        value = Fraction(value)
        if value.denominator == 1:
            return _int_str(value.numerator)
        return f"{_int_str(value.numerator)}/{_int_str(value.denominator)}"
    return _general_format(value, digits)


def _csv_token(value) -> str:
    return "" if value is None else str(value)


def _table_token(value) -> str:
    return "-" if value is None else str(value)


# per format: the text before, between and after the cells of a record;
# the C-level function that gives the cell of a value of each of some
# types, and the function for any other value; and the quote around a
# decimal string, which needs no escape in any format.  A json-lines
# line is the one JSONEncoder writes: int.__repr__ only for an exact int,
# so a bool is written "true".
_FORMATS = {
    "json-lines": ("{", ", ", "}\n", {str: _JSON_STR, int: int.__repr__}, _JSON.encode, '"'),
    "csv": ("", ",", "\n", {str: str, int: int.__repr__}, _csv_token, ""),
    "table": ("", _UNIT, "\n", {str: str, int: int.__repr__}, _table_token, ""),
}
# the types of a block's columns; a value of any other type is shared
_COLUMNS = frozenset((list, tuple, range, _Decimals))


def _cells(values, by_type, token) -> list[str]:
    """The cells of a column: one C-level map where its values share a
    type that has one, else token of each value."""
    kinds = set(map(type, values))
    return list(map(by_type.get(kinds.pop(), token) if len(kinds) == 1 else token, values))


def _join(fixed: list[str], cells: list[list[str]]) -> str:
    """The text of the records whose cells of column i stand between
    fixed[i] and fixed[i + 1]; with no column, the one record fixed[0]."""
    if not cells:
        return fixed[0]
    parts = [cells[0]]
    for text, column in zip(fixed[1:-1], cells[1:]):
        parts += [repeat(text), column]
    records = cells[0] if len(cells) == 1 else map("".join, zip(*parts))
    return fixed[0] + (fixed[-1] + fixed[0]).join(records) + fixed[-1]


class Emitter:
    """Writes blocks of records with a fixed column set in the requested
    format.

    emit takes one block: a dict whose key order is the column order.  A
    value that is a list, tuple or range is a column, one value per record,
    and every column of a block has the same length (a block whose columns
    differ in length is a ValueError, raised before anything is written);
    any other value is shared, written in every record of the block.  A
    dict of scalars alone is a block of one record.  A _Decimals column
    holds the exact decimal strings of a list of integers, made a slice at
    a time; no format escapes them.  Emitting a block writes the bytes that
    emitting its records one at a time would.

    One pass over the block's keys builds the record template: each shared
    value is encoded once into the text, and at each column the text so far
    is closed, with the format's decimal quote when the column is a
    _Decimals.  Each column is encoded once, column-wise: by one C-level map
    where all its values have one type with a C-level encoder (an exact str
    or int), else value by value.  A block is written in slices of at most
    _BLOCK_RECORDS records, each slice as one string, so the text held at
    once does not grow with the block.  A json-lines line is the one
    JSONEncoder writes.

    Json-lines and csv are written to the output as they are emitted, so
    output starts at once and memory does not grow with the record count;
    csv writes its header with the first block.  The human table is written
    at close, because its columns are aligned to the widest cell: emit
    writes its records, cells joined by the ASCII unit separator, to a text
    spool that stays in memory up to _TABLE_SPOOL_BYTES and then moves to a
    temporary file, so memory does not grow with the record count either.
    close reads the spool back twice, _BLOCK_RECORDS lines at a time: first
    for each column's widest cell, seeded with the lengths of the keys, then
    to pad the cells a column at a time and write each slice as one string,
    every row stripped on the right.  No cell contains the unit separator or
    a newline.
    """

    def __init__(self, fmt: str, out):
        self.fmt = fmt
        self.out = out
        self.prefix, self.sep, self.suffix, self.by_type, self.token, self.quote = _FORMATS[fmt]
        self.keys: Optional[tuple[str, ...]] = None
        self.rows: Optional[tempfile.SpooledTemporaryFile] = None

    def emit(self, block: dict) -> None:
        json_lines = self.fmt == "json-lines"
        keys = tuple(block) if json_lines or self.keys is None else self.keys
        # the record's text around its columns: fixed[0], column 0, fixed[1], ...
        fixed, columns, text = [], [], self.prefix
        for i, key in enumerate(keys):
            value = block[key]
            text += (self.sep if i else "") + (_JSON_STR(key) + ": " if json_lines else "")
            if type(value) not in _COLUMNS:
                text += self.by_type.get(type(value), self.token)(value)
                continue
            # decimal strings need no escape: their cells are the strings
            quote = self.quote if type(value) is _Decimals else ""
            fixed.append(text + quote)
            columns.append(value)
            text = quote
        fixed.append(text + self.suffix)
        sizes = set(map(len, columns)) or {1}
        if len(sizes) > 1:
            raise ValueError(f"the columns of a block differ in length: {sorted(sizes)}")
        size = sizes.pop()
        if size == 0:
            return
        if self.keys is None and not json_lines:
            self.keys = keys
            if self.fmt == "csv":
                self.out.write(",".join(keys) + "\n")
            else:
                self.rows = tempfile.SpooledTemporaryFile(
                    _TABLE_SPOOL_BYTES, "w+", encoding="utf-8", newline="\n")
        write = self.out.write if self.rows is None else self.rows.write
        for lo in range(0, size, _BLOCK_RECORDS):
            part = slice(lo, lo + _BLOCK_RECORDS)
            write(_join(fixed, [column[part] if type(column) is _Decimals
                                else _cells(column[part], self.by_type, self.token)
                                for column in columns]))

    def _slices(self):
        """The spooled records, _BLOCK_RECORDS at a time, as columns of cells."""
        self.rows.seek(0)
        for lines in iter(lambda: list(islice(self.rows, _BLOCK_RECORDS)), []):
            # each line ends in a newline: read as a separator, the slice is
            # its cells in row order
            cells = "".join(lines).replace("\n", _UNIT).split(_UNIT)
            yield [cells[i:-1:len(self.keys)] for i in range(len(self.keys))]

    def close(self) -> None:
        if self.rows is None:
            return
        with self.rows:
            widths = list(map(len, self.keys))
            for columns in self._slices():
                widths = [max(width, *map(len, column)) for width, column in zip(widths, columns)]
            self.out.write("  ".join(map(str.ljust, self.keys, widths)) + "\n")
            for columns in self._slices():
                padded = [map(str.ljust, column, repeat(width))
                          for column, width in zip(columns, widths)]
                self.out.write("\n".join(map(str.rstrip, map("  ".join, zip(*padded)))) + "\n")
        self.rows = None


def _t_range(args) -> tuple[int, int]:
    """First and last t of --t and --t-max (--t 1 when only --t-max is
    given)."""
    return (args.t if args.t is not None else 1,
            args.t_max if args.t_max is not None else args.t)


def _cmd_count(args, emitter: Emitter) -> int:
    """Census rows of a t-range; with --n, only cell n of each row that
    has one, that is of each t >= n(D+1).  A range is one pass of the
    kernel, and one t its row alone by census_row, not the kernel's walk
    up to t; each row is one block, t shared and n and count columns.  With
    --n, one t or a range is one walk of census_column, emitted in blocks of
    _BLOCK_RECORDS values of t."""
    t_lo, t_hi = _t_range(args)

    def block(t, n, counts):
        return {"t": t, "D": args.D, "n": n, "count": _Decimals(counts), "source": "dp"}

    if args.n is not None:
        column = census_column(max(t_lo, args.n * (args.D + 1)), t_hi, args.n, args.D)
        for chunk in iter(lambda: list(islice(column, _BLOCK_RECORDS)), []):
            ts, counts = zip(*chunk)
            emitter.emit(block(ts, args.n, counts))
        return 0
    rows = census_rows(t_lo, t_hi, args.D) if t_lo < t_hi else [(t_lo, census_row(t_lo, args.D))]
    for t, row in rows:
        emitter.emit(block(t, range(len(row)), row))
    return 0


def _cmd_alpha(args, emitter: Emitter) -> int:
    enc = solve_alpha(args.D, Fraction(1, 10 ** (args.digits + 2)))
    emitter.emit({"D": args.D, **_enclosure_fields(enc, args.digits)})
    return 0


def _cmd_constants(args, emitter: Emitter) -> int:
    tol = Fraction(1, 10 ** (args.digits + 2))
    for kind, enc in (
        ("coefficient_d", coefficient_d(args.D, tol)),
        ("two_excursions_limit", limit_constant("two_excursions_D", args.D, tol)),
    ):
        emitter.emit({"kind": kind, "D": args.D, "n": None,
                      **_enclosure_fields(enc, args.digits)})
    if args.n is not None:
        exact = limit_constant("depth_one_2n", args.n)
        emitter.emit(
            {
                "kind": "depth_one_limit", "D": None, "n": args.n,
                "lo": _number_token(exact.lo, args.digits),
                "hi": _number_token(exact.hi, args.digits), "digits": None,
            }
        )
    return 0


def _cmd_table1(args, emitter: Emitter) -> int:
    for row in table1(args.t, args.D, args.n):
        known = row.approx is not None
        emitter.emit(
            {
                "family": row.family, "t": row.t, "D": row.D, "n": row.n,
                "exact": _int_str(row.exact),
                "approx": _general_format(row.approx, args.digits) if known else None,
                "approx_digits": args.digits if known else None,
            }
        )
    return 0


def _cmd_bounds(args, emitter: Emitter) -> int:
    """The certified sandwich of each t of the range, next to its count,
    read from one walk of the census column n = 1."""
    t_lo, t_hi = _t_range(args)
    bounds = bounds_two_excursions_range(t_lo, t_hi, args.D)
    column = census_column(t_lo, t_hi, 1, args.D)
    for (t, lo, hi), (_, count) in zip(bounds, column, strict=True):
        emitter.emit(
            {
                "t": t, "D": args.D,
                "lower": _decimal_floor(lo, args.digits),
                "count": _int_str(count),
                "upper": _decimal_ceil(hi, args.digits),
                "lower_digits": args.digits, "upper_digits": args.digits,
                "ok": "true" if lo <= count <= hi else "false",
            }
        )
    return 0


def _cmd_verify(args, emitter: Emitter) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    tolerance = {} if args.tolerance is None else {"tolerance": args.tolerance}
    # the keywords each suite is called with; the others run at their defaults
    options = {"partition": {"oracle_max_t": args.oracle_max_t},
               "thm32": tolerance, "thm34": tolerance, "lemma33": tolerance}
    all_passed = True
    for name in names:
        report = SUITES[name](**options.get(name, {}))
        for check in report.checks:
            all_passed &= check.passed
            emitter.emit(
                {
                    "suite": report.name,
                    "check": check.name,
                    "parameters": ":".join(map(str, check.parameters)) or "-",
                    "status": "pass" if check.passed else "FAIL",
                    "measured": _number_token(check.measured, args.digits),
                    "expected": _number_token(check.expected, args.digits),
                    "tolerance": _number_token(check.tolerance, args.digits),
                    "comparison": check.comparison
                    + ("-relative" if check.relative else ""),
                }
            )
        # stdout to a pipe is block-buffered: pass each suite on when it ends
        emitter.out.flush()
    return 0 if all_passed else 1


def _cmd_enumerate(args, emitter: Emitter) -> int:
    for index, comp in enumerate(enumerate_compositions(args.t, args.n, args.D)):
        signs = []
        sign = 1
        for part in comp.parts:
            signs.extend([sign] * part)
            sign = -sign
        eps = EpsilonSeq(tuple(signs))
        emitter.emit(
            {
                "index": index,
                "t": args.t,
                "parts": "+".join(map(str, comp.parts)),
                "eps": "".join("+" if s == 1 else "-" for s in eps.signs),
                "word": str(reciprocal_word(eps).word),
            }
        )
    return 0


def _check_flags(args) -> None:
    """Raise a ValueError that names the flag at the first input error of
    args: first an integer flag below the least value its subcommand
    declares, then a rule that ties flags together.  Parses --tolerance into a
    Fraction in place."""
    check_least(**{f"--{dest.replace('_', '-')}": (getattr(args, dest), least)
                   for dest, least in args.least.items()})
    if args.command in ("count", "bounds"):
        if args.t is None and args.t_max is None:
            raise ValueError(f"{args.command} needs --t or --t-max")
        t_lo, t_hi = _t_range(args)
        if t_lo > t_hi:
            raise ValueError(f"empty t-range: --t {t_lo} is above --t-max {t_hi}")
    if args.command == "enumerate" and (args.n is None) != (args.D is None):
        raise ValueError("--n and --D go together: give both or neither")
    # n of count and enumerate is a cell of the census row of each t
    if args.command in ("count", "enumerate") and args.n is not None:
        t_hi = args.t if args.command == "enumerate" else _t_range(args)[1]
        n_max = t_hi // (args.D + 1)
        if args.n > n_max:
            raise ValueError(f"--n must be <= {n_max} for t <= {t_hi}, got {args.n}")
    if args.command == "verify" and args.tolerance is not None:
        text = args.tolerance
        try:
            args.tolerance = Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"--tolerance {text} has a zero denominator") from None
        except ValueError:
            raise ValueError(f"--tolerance must be a number such as 1/1000, got {text}") from None
        if args.tolerance < 0:
            raise ValueError(f"--tolerance must be >= 0, got {text}")


class _Parser(argparse.ArgumentParser):
    """Usage errors in one line, as every input error; subparsers inherit it."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cuspcensus",
        description="Exact census of reciprocal geodesics on the modular "
        "surface, by word length and cusp-excursion depth.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, func, **least):
        """The flags of every subcommand, its function, and the least value
        of each of its integer flags by dest, which _check_flags reads."""
        p.add_argument("--format", choices=("table", "json-lines", "csv"),
                       default="table")
        p.add_argument("--out", metavar="PATH", default=None)
        p.add_argument("--digits", type=int, default=12)
        p.set_defaults(func=func, least={**least, "digits": 1})

    p = sub.add_parser("count", help="census rows for one t or a t-range")
    p.add_argument("--t", type=int)
    p.add_argument("--t-max", dest="t_max", type=int)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--n", type=int)
    add_common(p, _cmd_count, t=1, t_max=1, D=1, n=0)

    p = sub.add_parser("alpha", help="certified enclosure of the growth rate")
    p.add_argument("--D", type=int, required=True)
    add_common(p, _cmd_alpha, D=2)

    p = sub.add_parser("constants", help="d_D and the limit constants")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--n", type=int)
    add_common(p, _cmd_constants, D=2, n=0)

    p = sub.add_parser("table1", help="the four census families at one (t, D)")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--n", type=int, default=3, help="largest n for the depth-one rows")
    add_common(p, _cmd_table1, t=1, D=2, n=1)

    p = sub.add_parser("bounds", help="certified sandwich for one-excursion counts")
    p.add_argument("--t", type=int)
    p.add_argument("--t-max", dest="t_max", type=int)
    p.add_argument("--D", type=int, required=True)
    add_common(p, _cmd_bounds, t=1, t_max=1, D=2)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", choices=("all",) + tuple(SUITES), default="all")
    p.add_argument("--oracle-max-t", dest="oracle_max_t", type=int,
                   default=DEFAULT_ORACLE_CAP)
    p.add_argument("--tolerance", type=str)
    add_common(p, _cmd_verify, oracle_max_t=1)

    p = sub.add_parser("enumerate", help="compositions and their normal forms")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--D", type=int)
    add_common(p, _cmd_enumerate, t=1, D=1, n=0)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one subcommand.  Exit status: 0 when it ran (also when the
    reader of stdout closed it early, as `| head` does), 1 when a
    verification suite failed, 2 on a usage or input error, when a
    certified value could not be resolved (PrecisionExhausted), or when the
    output could not be written.  Every flag is checked before --out is
    opened, so an input error leaves an existing --out file as it was."""
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emitter = Emitter(args.format, out)
    try:
        code = args.func(args, emitter)
        emitter.close()
        out.flush()
        return code
    except (ValueError, PrecisionExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # nothing more can be written; point the output at the null device
        # so its close and the interpreter's flush at exit do not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        if isinstance(exc, BrokenPipeError):
            return 0
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.out:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
