"""Exact census of reciprocal geodesics on the modular surface.

Counts reciprocal classes by word length and by the number of cusp
excursions deeper than a threshold, with exact integer arithmetic
throughout and certified interval enclosures for every real constant.

The package splits into:

- ``words``: reciprocal normal forms, sign tuples, and run-length
  compositions of word shapes.
- ``matrices``: exact 2x2 integer matrices over the projective group,
  trace classification, and the conjugation symmetry check.
- ``compositions``: the counting engine (all compositions, bounded
  parts, exact excursion counts), one generating function read several
  ways: a t-range of census rows by a recurrence holding the last D+1
  rows, O(D * row) memory; one row alone from its (y-1)-basis
  coefficients, packed into one integer; a census column or cell by a
  recurrence in t holding O(D) integers; and the positional double sum
  the kernel is checked against, one t or one column at a time.  Memory
  is bounded by the request; no state outlives a call.
- ``spectral``: growth rates as certified root enclosures, closed-form
  counts, limit constants, and rigorous two-sided bounds.
- ``census``: the verification harness tying enumeration oracles to the
  fast counters, plus ratio checks against the limiting constants.
- ``cli``: the command-line front end.
"""

from .census import (
    CensusRow,
    Check,
    SUITES,
    Table1Row,
    VerificationReport,
    excursion_census,
    oracle_census,
    table1,
    verify_theorem_2n_depth1,
    verify_theorem_two_excursions,
)
from .compositions import (
    count_all,
    count_bounded,
    count_exact_excursions,
    enumerate_compositions,
    two_excursion_column,
    two_excursion_sum,
)
from .matrices import (
    GEN_A,
    GEN_B,
    Mat2Z,
    PSL2Element,
    classify,
    evaluate,
    reciprocity_check,
)
from .spectral import (
    AlphaEnclosure,
    ConstantEnclosure,
    PrecisionExhausted,
    bounds_two_excursions,
    bounds_two_excursions_range,
    closed_form_count,
    coefficient_d,
    excursion_term_report,
    limit_constant,
    solve_alpha,
)
from .words import (
    Composition,
    EpsilonSeq,
    GroupWord,
    NotNormalForm,
    ReciprocalNormalForm,
    canonical_cyclic_form,
    epsilon_of,
    excursion_parts,
    projectivize,
    reciprocal_word,
    run_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaEnclosure",
    "CensusRow",
    "Check",
    "Composition",
    "ConstantEnclosure",
    "EpsilonSeq",
    "GEN_A",
    "GEN_B",
    "GroupWord",
    "Mat2Z",
    "NotNormalForm",
    "PSL2Element",
    "PrecisionExhausted",
    "ReciprocalNormalForm",
    "SUITES",
    "Table1Row",
    "VerificationReport",
    "bounds_two_excursions",
    "bounds_two_excursions_range",
    "canonical_cyclic_form",
    "classify",
    "closed_form_count",
    "coefficient_d",
    "count_all",
    "count_bounded",
    "count_exact_excursions",
    "enumerate_compositions",
    "epsilon_of",
    "evaluate",
    "excursion_census",
    "excursion_parts",
    "excursion_term_report",
    "limit_constant",
    "oracle_census",
    "projectivize",
    "reciprocal_word",
    "reciprocity_check",
    "run_sequence",
    "solve_alpha",
    "table1",
    "two_excursion_column",
    "two_excursion_sum",
    "verify_theorem_2n_depth1",
    "verify_theorem_two_excursions",
    "__version__",
]
