"""Workload inputs and the checks on their outputs.

Every answer is checked outside the timed region by a route other than
the one that produced it: CLI output against binomials, row sums and a
pinned digest; session answers against a second, independent function
of the library or against exact arithmetic done here.  Only public names
of ``cuspcensus`` are used, so the checks survive internal rewrites.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

#: CLI commands per workload, each run in a fresh process
COMMANDS = {
    "verify": [
        ["verify", "--suite", "all", "--oracle-max-t", "16", "--format", "json-lines"],
    ],
    "sweep": [
        ["count", "--t-max", "1000", "--D", "1", "--format", "json-lines"],
        ["count", "--t", "2000", "--D", "3", "--format", "csv"],
    ],
}

#: sha256 of each command's stdout; the CLI promises byte-identical output
DIGESTS = {
    "verify --suite all --oracle-max-t 16 --format json-lines":
        "89f4952a8655ec52ac6ab803aa60b8fd99c99b2c8b84d8012a414d3a3633f05f",
    "count --t-max 1000 --D 1 --format json-lines":
        "cde8e188e3e7886b12c3d6080b07437f94e9bb6728f1183216477acc8784eec4",
    "count --t 2000 --D 3 --format csv":
        "5cd62ea1b36a2795da4f0c84054caf7eb5f2da918fd186936252e35e99a2b919",
}

VERIFY_LINES = 279

#: session query kinds with their share of the stream, in percent
QUERY_MIX = (
    ("count_exact_excursions", 35),
    ("excursion_census", 15),
    ("closed_form_count", 20),
    ("bounds_two_excursions", 15),
    ("solve_alpha", 10),
    ("oracle_census", 5),
)

#: argument ranges per kind, inclusive, the size of the query first and
#: D last; solve_alpha's size is the exponent k of its tolerance 10^-k
QUERY_ARGS = {
    "count_exact_excursions": ((1, 800), (0, 4), (1, 6)),  # t, n, D
    "excursion_census": ((1, 300), (1, 6)),  # t, D
    "closed_form_count": ((0, 1200), (2, 12)),  # t, D
    "bounds_two_excursions": ((1, 600), (2, 6)),  # t, D
    "solve_alpha": ((10, 200), (2, 12)),  # k, D
    "oracle_census": ((1, 12), (1, 6)),  # t, D
}

#: every session opens with the costliest closed form of its range, so the
#: time to its first answer is a cold answer of the kind that dominates a
#: session, the same for every seed
OPENING_QUERY = ["closed_form_count", 1200, 12]


def _spread(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """count values covering lo..hi evenly, one drawn from each of count
    equal strata, in shuffled order."""
    width = (hi - lo + 1) / count
    values = [lo + int((i + rng.random()) * width) for i in range(count)]
    rng.shuffle(values)
    return values


def _columns(rng: random.Random, ranges: tuple, count: int) -> list[list[int]]:
    """count values of each argument, one column per range.

    Every column is spread evenly over its range.  D is also spread evenly
    over the sizes: with the rows sorted by size, each run of as many rows
    as there are values of D holds every D once.  The library caches its
    work per D and size band, so with D paired at random the bands a seed
    happened to cover would set the cost of the stream.
    """
    (lo, hi), *middle, (d_lo, d_hi) = ranges
    depths: list[int] = []
    while len(depths) < count:
        block = list(range(d_lo, d_hi + 1))
        rng.shuffle(block)
        depths += block
    return [
        sorted(_spread(rng, lo, hi, count)),
        *(_spread(rng, a, b, count) for a, b in middle),
        depths[:count],
    ]


def session_queries(seed: int, count: int) -> list[list]:
    """The opening query, then a seeded stream of count point queries,
    each [kind, *arguments].

    Each kind gets its exact share of the stream and each argument is
    spread evenly over its range (stratified sampling, see _columns), so
    that seeds differ in the values and their order but not in the shape
    of the load; a seed that drew mostly cheap or mostly costly queries
    would otherwise move the median and the tail on its own.
    """
    rng = random.Random(seed)
    queries = []
    for kind, share in QUERY_MIX:
        columns = _columns(rng, QUERY_ARGS[kind], count * share // 100)
        queries.extend([kind, *args] for args in zip(*columns))
    rng.shuffle(queries)
    return [OPENING_QUERY] + queries


def call_query(api, query: list):
    """Answer one query through the public library API."""
    kind, *args = query
    if kind == "solve_alpha":
        exponent, D = args
        return api.solve_alpha(D, Fraction(1, 10**exponent))
    return getattr(api, kind)(*args)


def encode_answer(kind: str, answer) -> list | str:
    """JSON-safe form of an answer; integers travel as decimal strings."""
    if kind in ("excursion_census", "oracle_census"):
        return [[row.t, row.D, row.n, str(row.count)] for row in answer]
    if kind == "bounds_two_excursions":
        return [str(answer[0]), str(answer[1])]
    if kind == "solve_alpha":
        return [answer.D, str(answer.lo), str(answer.hi)]
    return str(answer)


def _poly_value(D: int, z: Fraction) -> Fraction:
    """p_D(z) = z^D - z^(D-1) - ... - 1, evaluated here, not in the library."""
    return z**D - sum(z**k for k in range(D))


def _check_rows(api, t: int, D: int, rows: list) -> str | None:
    expected_n = list(range(t // (D + 1) + 1))
    if [r[:3] for r in rows] != [[t, D, n] for n in expected_n]:
        return "wrong row layout"
    counts = [int(r[3]) for r in rows]
    if sum(counts) != 1 << (t - 1):
        return "rows do not sum to 2^(t-1)"
    for n, count in enumerate(counts):
        if D == 1 and count != math.comb(t, 2 * n):
            return f"n={n} differs from C(t, 2n)"
        if n == 1 and count != api.two_excursion_sum(t, D):
            return "n=1 differs from two_excursion_sum"
    return None


def check_answer(api, query: list, encoded) -> str | None:
    """None if the answer is right, else what is wrong with it."""
    kind, *args = query
    if kind == "count_exact_excursions":
        t, n, D = args
        value = int(encoded)
        if D == 1:
            expected = math.comb(t, 2 * n)
        elif n * (D + 1) > t:
            expected = 0
        elif n == 0:
            expected = api.closed_form_count(t, D)
        elif n == 1:
            expected = api.two_excursion_sum(t, D)
        else:
            row = api.excursion_census(t, D)
            if sum(r.count for r in row) != 1 << (t - 1):
                return "census row does not sum to 2^(t-1)"
            expected = row[n].count
        return None if value == expected else f"{value} != {expected}"
    if kind == "excursion_census":
        return _check_rows(api, *args, encoded)
    if kind == "oracle_census":
        t, D = args
        dp = [[r.t, r.D, r.n, str(r.count)] for r in api.excursion_census(t, D)]
        return None if encoded == dp else "oracle differs from the DP census"
    if kind == "closed_form_count":
        t, D = args
        expected = api.count_bounded(t, D)
        return None if int(encoded) == expected else f"{encoded} != {expected}"
    if kind == "bounds_two_excursions":
        t, D = args
        lo, hi = map(Fraction, encoded)
        count = api.count_exact_excursions(t, 1, D)
        return None if lo <= count <= hi else f"{count} outside [{lo}, {hi}]"
    if kind == "solve_alpha":
        exponent, D = args
        got_d, lo, hi = encoded[0], Fraction(encoded[1]), Fraction(encoded[2])
        if got_d != D or not 0 < hi - lo <= Fraction(1, 10**exponent):
            return "enclosure has the wrong D or width"
        if not _poly_value(D, lo) < 0 < _poly_value(D, hi):
            return "enclosure does not bracket the root"
        return None
    return f"unknown query kind {kind!r}"


def _check_verify(text: str) -> str | None:
    lines = text.splitlines()
    if len(lines) != VERIFY_LINES:
        return f"{len(lines)} lines, expected {VERIFY_LINES}"
    failed = [line for line in lines if json.loads(line)["status"] != "pass"]
    return f"{len(failed)} checks did not pass" if failed else None


def _check_depth_one_sweep(text: str) -> str | None:
    expected = ((t, n) for t in range(1, 1001) for n in range(t // 2 + 1))
    lines = text.splitlines()
    for line, (t, n) in zip(lines, expected):
        rec = json.loads(line)
        if (rec["t"], rec["D"], rec["n"]) != (t, 1, n):
            return f"row {rec['t']},{rec['D']},{rec['n']} out of place"
        if int(rec["count"]) != math.comb(t, 2 * n):
            return f"t={t} n={n}: count differs from C(t, 2n)"
    if len(lines) != 251000:
        return f"{len(lines)} rows, expected 251000"
    return None


def _check_row_sum(text: str) -> str | None:
    header, *rows = text.splitlines()
    if header != "t,D,n,count,source":
        return "unexpected csv header"
    cells = [row.split(",") for row in rows]
    if [c[:3] for c in cells] != [["2000", "3", str(n)] for n in range(501)]:
        return "wrong row layout"
    if sum(int(c[3]) for c in cells) != 1 << 1999:
        return "counts do not sum to 2^1999"
    return None


_CONTENT_CHECKS = {
    "verify": _check_verify,
    "count --t-max 1000": _check_depth_one_sweep,
    "count --t 2000": _check_row_sum,
}


def check_command(argv: list[str], returncode: int, stdout: bytes, stderr: str) -> str | None:
    """None if a CLI run succeeded with the right output, else why not."""
    command = " ".join(argv)
    if returncode != 0:
        return f"exit code {returncode}"
    if "Traceback" in stderr:
        return "traceback on stderr"
    check = next(fn for prefix, fn in _CONTENT_CHECKS.items() if command.startswith(prefix))
    problem = check(stdout.decode())
    if problem:
        return problem
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != DIGESTS[command]:
        return f"output digest {digest} differs from the pinned one"
    return None
