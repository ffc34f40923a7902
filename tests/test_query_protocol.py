"""One query protocol: every DSL query head is answered by a method that
FgMonoid and FamilyMonoid both have, so the evaluator needs one table."""

from fractions import Fraction

import pytest

from conftest import oracle_exaexb_factorizations, oracle_primes_from
from puiseux import (
    BudgetExceededError,
    FgMonoid,
    NeedsBoundError,
    PuiseuxError,
    family,
    family_factorizations,
    family_member,
    interval_lengths,
)
from puiseux.dsl import QUERY_HEADS, Evaluator
from puiseux.families import KINDS
from puiseux.monoid import Budget

F = Fraction

# small literals for each head's arguments
_ARGS = {"atoms": "", "props": "", "Z": ", 2", "L": ", 2", "member": ", 2", "Zl": ", 2, 2",
         "mcd": ", 2, 3", "divides": ", 1, 2"}

_MONOIDS = ["pm(2,3)"] + [f"family({kind})" for kind in KINDS] + [
    f"family({kind}, window=3, den_bound=4)" for kind in KINDS]


@pytest.mark.parametrize("expr", _MONOIDS)
@pytest.mark.parametrize("head", QUERY_HEADS)
def test_every_head_answers_or_raises_a_puiseux_error(head, expr):
    assert set(_ARGS) == set(QUERY_HEADS)
    try:
        (_, value), = Evaluator(budget=10**5).run_text(f"{head}({expr}{_ARGS[head]})")
    except PuiseuxError:
        return
    assert value is not None


@pytest.mark.parametrize("q", [F(0), F(9, 8), F(3, 2), F(2), F(20), F(45, 4)])
def test_family_methods_are_the_module_procedures(q):
    sqden = family("sqden")
    assert sqden.factorizations(q) == family_factorizations("sqden", q)
    assert sqden.lengths(q).lengths == family_factorizations("sqden", q).lengths()
    assert sqden.contains(q) == family_member("sqden", q)
    assert family("interval1_sqden").contains(q) == family_member("interval1_sqden", q)
    if q == 0 or q >= 1:
        assert family("interval1").lengths(q).lengths == interval_lengths(q)


def test_family_divides_draws_on_one_allowance():
    # the three membership checks cost 129 + 1864 + 129 units in all
    sqden = family("sqden")
    assert sqden.divides(20, 40, 2122) is True
    with pytest.raises(BudgetExceededError):
        sqden.divides(20, 40, 2121)
    budget = Budget(10**7)
    assert sqden.divides(20, 40, budget) is True
    assert budget.left == 10**7 - 2122


@pytest.mark.parametrize("c, b", [(-1, 2), (1, -2), (-2, -1), (3, 2), (F(1, 2), F(1, 3))])
def test_family_divides_refuses_what_fg_divides_refuses(c, b):
    assert FgMonoid([2, 3]).divides(c, b) is False
    for kind in ("sqden", "interval1", "interval1_sqden"):
        assert family(kind).divides(c, b) is False


def test_a_finitely_generated_summand_leaves_a_family_sum_to_the_family():
    for left, right in ((FgMonoid([2]), family("grams")), (family("grams"), FgMonoid([2]))):
        with pytest.raises(NeedsBoundError, match="cannot sum a finitely generated monoid"):
            left.internal_sum(right)
    with pytest.raises(NeedsBoundError, match="cannot sum a finitely generated monoid"):
        FgMonoid([2]) + family("sqden")
    summed = family("exA", window=3).internal_sum(family("exB", window=4))
    assert summed == family("exAexB", window=4)


@pytest.mark.parametrize("q", [F(0), F(2), F(3), F(4), F(8), F(12, 11), F(24, 7), F(46, 7),
                               F(172, 35), F(31, 35), F(6, 5), F(12, 25), F(14, 13)])
def test_exaexb_member_and_lengths_match_a_window_past_the_core(q):
    # no factorization has more than 5q/4 parts, so past 5q/4 and the
    # denominator's primes only balanced pairs fit, and one such prime
    # holds all of them: its window has every length
    primes = oracle_primes_from(5, 12)
    top = max([q * 5 / 4] + [p for p in primes if q.denominator % p == 0])
    window = sum(1 for p in primes if p <= top) + 1
    lengths = tuple(sorted({sum(m for _, m in z) for z in oracle_exaexb_factorizations(q, window)}))
    assert family("exAexB", window=window).factorizations(q).lengths() == lengths
    for fam in (family("exAexB"), family("exAexB", window=1)):
        assert fam.lengths(q).lengths == lengths
        assert fam.contains(q) == bool(lengths)


def test_exaexb_factorizations_need_a_window():
    # the lengths are finite (a BFM), the factorization sets are not (no FFM)
    for query in (lambda fam: fam.factorizations(2), lambda fam: fam.factorizations_of_length(2, 2)):
        with pytest.raises(NeedsBoundError, match="window="):
            query(family("exAexB"))
