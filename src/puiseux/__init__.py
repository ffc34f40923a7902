"""Exact factorization theory for additive submonoids of the nonnegative
rationals (Puiseux monoids), their internal sums, and the rank-2 lattice
counterparts where the sum theorems break down.

All arithmetic is arbitrary-precision and exact; there are no floats and no
tolerances anywhere.
"""

from .errors import (
    BudgetExceededError,
    InputError,
    NeedsBoundError,
    NotAMemberError,
    PuiseuxError,
)
from .qarith import (
    Rational,
    as_rational,
    format_rational,
    is_prime,
    lcm_den,
    nth_prime,
    padic,
    parse_rational,
    reduce,
)
from .monoid import (
    Budget,
    CyclicExtension,
    Factorization,
    FactorizationSet,
    FgMonoid,
    LengthSet,
    add_cyclic,
    factorizations_via_offsets,
    fg_new,
    internal_sum,
    max_cyclic_divisor,
    mcd_via_extension,
    refactor_atom,
)
from .families import (
    FamilyMonoid,
    Witness,
    antimatter_witness,
    divisor_candidates,
    family,
    family_factorizations,
    family_generator,
    family_member,
    family_properties,
    grams_companion,
    interval_length_factorizations,
    interval_lengths,
    truncate,
)
from .lattice2 import (
    LatticePoint,
    lat_atomic_elements_in_box,
    lat_atoms_in_box,
    lat_contains,
    lat_factorizations_in_box,
    lex_sum_check,
)
from .dsl import Evaluator, ParseError, parse, print_program, render
from .reports import EXAMPLE_IDS, PaperReport, run_paper_example

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "BudgetExceededError",
    "CyclicExtension",
    "EXAMPLE_IDS",
    "Evaluator",
    "Factorization",
    "FactorizationSet",
    "FamilyMonoid",
    "FgMonoid",
    "InputError",
    "LatticePoint",
    "LengthSet",
    "NeedsBoundError",
    "NotAMemberError",
    "PaperReport",
    "ParseError",
    "PuiseuxError",
    "Rational",
    "Witness",
    "add_cyclic",
    "antimatter_witness",
    "as_rational",
    "divisor_candidates",
    "factorizations_via_offsets",
    "family",
    "family_factorizations",
    "family_generator",
    "family_member",
    "family_properties",
    "fg_new",
    "format_rational",
    "grams_companion",
    "internal_sum",
    "interval_length_factorizations",
    "interval_lengths",
    "is_prime",
    "lat_atomic_elements_in_box",
    "lat_atoms_in_box",
    "lat_contains",
    "lat_factorizations_in_box",
    "lcm_den",
    "lex_sum_check",
    "max_cyclic_divisor",
    "mcd_via_extension",
    "nth_prime",
    "padic",
    "parse",
    "parse_rational",
    "print_program",
    "reduce",
    "refactor_atom",
    "render",
    "run_paper_example",
    "truncate",
]
