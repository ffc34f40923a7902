import math
import time
from fractions import Fraction

import pytest

from conftest import oracle_atoms, oracle_fraction_member, oracle_primes_from
from puiseux import (
    BudgetExceededError,
    InputError,
    NeedsBoundError,
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
    run_paper_example,
    truncate,
)
from puiseux.families import _exaexb_core, _sqden_solutions, family_prime
from puiseux.monoid import Budget

F = Fraction


def test_family_generators():
    assert family_generator("grams", 2) == F(1, 20)
    assert family_generator("exA", 1) == F(4, 5)
    assert family_generator("exB", 1) == F(6, 5)
    assert family_generator("sqden", 1) == F(3, 4)
    assert family_generator("sqden", 2) == F(4, 9)
    with pytest.raises(InputError):
        family_generator("interval1", 1)
    with pytest.raises(InputError):
        family_generator("companion", 1)
    with pytest.raises(InputError):
        family_generator("grams", 0)


def test_generator_monotonicity_and_bounds():
    for n in range(1, 50):
        assert family_generator("exA", n) < family_generator("exA", n + 1)
        assert family_generator("exB", n) > family_generator("exB", n + 1)
        assert family_generator("grams", n) > family_generator("grams", n + 1)
        assert F(3, 4) < family_generator("exA", n) < 1
        assert 1 < family_generator("exB", n) < F(5, 4)


def test_truncations():
    g3 = truncate("grams", 3)
    assert g3.generators == (F(1, 56), F(1, 20), F(1, 6))
    assert g3.atoms == g3.generators

    ab2 = truncate("exAexB", 2)
    assert ab2.atoms == (F(4, 5), F(6, 7), F(8, 7), F(6, 5))

    s2 = truncate("sqden", 2)
    assert s2.generators == (F(4, 9), F(3, 4))
    assert s2.atoms == s2.generators

    gc2 = truncate("gramscompanion", 2)
    gens = [family_generator("grams", 1), family_generator("grams", 2), *grams_companion(1, 2).b]
    scale = math.lcm(*(g.denominator for g in gens))
    expected = tuple(F(a, scale) for a in oracle_atoms(sorted(int(g * scale) for g in gens)))
    assert gc2.atoms == expected == (F(1, 20), F(29, 336), F(25, 168), F(1, 6))

    with pytest.raises(InputError):
        truncate("interval1", 3)


def test_a_composite_truncation_passes_n_to_its_parts():
    # grams' first two generators, then the first two steps of the staircases
    # under n = 2 and n = 1
    gens = truncate(family("gramscompanion", n=2), 2).generators
    assert gens == (F(1007, 29440), F(1467, 29440), F(1, 20), F(29, 336), F(25, 168), F(1, 6))
    assert set(gens) == {family_generator("grams", 1), family_generator("grams", 2),
                         *grams_companion(2, 2).b, *grams_companion(1, 2).b}


def test_truncation_too_large_to_index_is_a_budget_error():
    # the scaled grams generators have hundreds of bits, so neither an
    # Apéry table nor a bitmask over them can be indexed, budget or not
    with pytest.raises(BudgetExceededError, match="too large"):
        truncate("grams", 40)


def test_grams_companion_first_steps():
    seq = grams_companion(1, 2)
    assert seq.f_index == 3
    assert seq.b[0] == F(25, 168)
    assert seq.c[0] == 4
    assert seq.b[1] == F(29, 336)
    assert seq.b[1] > F(1, 12) == F(28, 336)

    assert grams_companion(2, 1).f_index == 8
    assert family_prime("grams", 8) == 23


def test_grams_companion_charges_its_prime_scan():
    # threshold 2^3 * 7 = 56: one unit per odd number below 57
    assert grams_companion(3, 1, Budget(28)).f_index == 16
    with pytest.raises(BudgetExceededError):
        grams_companion(3, 1, Budget(27))
    # thresholds 6 and 20 lie below the free floor of 41
    assert grams_companion(2, 1, Budget(1)).f_index == 8


def test_a_prime_scan_is_charged_once_per_budget():
    # the query searches one root per copy of 1, and many of them look up
    # the index of p = 1009; the scan to it is paid once, on top of the
    # searches' nodes, and so is the trial division of the denominator
    # 1009^2 (162 units), done once per query, not once per copy
    q = F(20) + F(1010, 1009**2)
    meter = Budget(10**9)
    assert len(family_factorizations("interval1_sqden", q, budget=meter)) == 78
    assert 10**9 - meter.left == 1354 + 1009 // 2


def test_companion_band_bounds():
    for n in (1, 2, 3):
        a_n = family_generator("grams", n)
        seq = grams_companion(n, 4)
        for b in seq.b:
            assert a_n / 2 < b < a_n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_each_companion_step_subtracts_the_largest_power_of_a_half_that_fits(n):
    half = family_generator("grams", n) / 2
    seq = grams_companion(n, 300)
    assert len(seq.b) == 300 and len(seq.c) == 299
    for b, c, after in zip(seq.b, seq.c, seq.b[1:]):
        assert after == b - F(1, 2**c) > half
        # the next larger power would not keep the step above a_n / 2
        assert b - F(1, 2 ** (c - 1)) <= half


def test_companion_evidence_charges_its_depth_before_it_builds():
    with pytest.raises(BudgetExceededError):
        family_properties(family("companion", K=1600), budget=Budget(10))
    meter = Budget(10**6)
    family_properties(family("companion", K=40), budget=meter)
    assert 10**6 - meter.left == 40


@pytest.mark.parametrize("call", [
    lambda: family("bogus"),
    lambda: family_prime("bogus", 0),
    lambda: family_generator("bogus", 0),
    lambda: truncate("bogus", 0),
    lambda: divisor_candidates("bogus", -1),
    lambda: family_factorizations("bogus", -1),
    lambda: family_member("bogus", 0),
    lambda: family_properties("bogus", budget=Budget(1)),
], ids=["family", "family_prime", "family_generator", "truncate", "divisor_candidates",
        "family_factorizations", "family_member", "family_properties"])
def test_an_unknown_family_name_is_refused_before_any_other_check(call):
    with pytest.raises(InputError, match=r"^unknown family 'bogus'; known: grams, companion, "):
        call()


def test_a_composite_has_no_generator_sequence():
    with pytest.raises(InputError, match="exAexB = exA \\+ exB: a composite has no generator sequence"):
        family_generator("exAexB", 1)


def test_antimatter_witnesses():
    w = antimatter_witness(1)
    assert w.target == F(1, 6)
    assert dict(w.parts[0:]) == {"b_1(n=1)": F(25, 168), "a_3": F(1, 56)}
    assert w.holds()

    wb = antimatter_witness(1, 1)
    assert wb.target == F(25, 168)
    assert [v for _, v in wb.parts] == [F(29, 336), F(1, 16)]
    assert wb.holds()
    # grams certificate for the power of 1/2: eleven copies of 1/176
    assert 11 * F(1, 176) == F(1, 16)

    w2 = antimatter_witness(2)
    assert w2.parts[1][0] == "a_8"
    assert w2.holds()


def test_divisor_candidates():
    assert divisor_candidates("exB", F(12, 5)) == (1,)
    assert divisor_candidates("sqden", F(9, 8)) == (1,)
    assert divisor_candidates("exB", 2) == ()
    assert divisor_candidates("sqden", F(7, 4)) == (1,)
    assert divisor_candidates("sqden", 4) == (1, 2)
    with pytest.raises(InputError):
        divisor_candidates("grams", 2)


def test_divisor_candidates_never_discard_real_divisors():
    # spot check against the independent exhaustive search (full sweep in acceptance)
    for kind, q in (("exB", F(12, 5)), ("sqden", F(9, 8)), ("sqden", F(7, 4))):
        keep = set(divisor_candidates(kind, q))
        gens = [family_generator(kind, n) for n in range(1, 11)]
        for n in range(1, 11):
            if n in keep:
                continue
            rest = q - gens[n - 1]
            assert rest < 0 or not oracle_fraction_member(gens, rest)


def test_exaexb_window_counts():
    for w in range(1, 8):
        zs = family_factorizations("exAexB", 2, window=w)
        length2 = [z for z in zs if z.length == 2]
        assert len(length2) == w
        for z in length2:
            (a, _), (b, _) = z.parts
            assert a + b == 2 and a.denominator == b.denominator
    with pytest.raises(NeedsBoundError):
        family_factorizations("exAexB", 2)
    # a negative window would credit the per-atom charge
    with pytest.raises(InputError):
        family_factorizations("exAexB", 2, window=-3)


@pytest.mark.parametrize("q, window, units", [
    (F(2), 1, 4), (F(2), 10, 31), (F(2), 3000, 9001), (F(4), 7, 109), (F(24, 7), 5, 10),
    (F(12, 11), 7, 10), (F(0), 3, 4), (F(12, 25), 7, 7), (F(122, 35), 5, 10), (F(12), 2, 119),
    (F(24, 5), 2, 17),
])
def test_exaexb_search_charges_a_pinned_number_of_units(q, window, units):
    # one unit per window prime, then one per node of the core search, and
    # one per part of each factorization emitted (none for 0's empty one)
    family_factorizations("exAexB", q, window=window, budget=Budget(units))
    with pytest.raises(BudgetExceededError):
        family_factorizations("exAexB", q, window=window, budget=Budget(units - 1))


class _PartsPerUnit(Budget):
    """A Budget that sums the amounts it is asked to spend."""
    __slots__ = ("charged",)

    def __init__(self, limit=None):
        super().__init__(limit)
        self.charged = 0

    def spend(self, amount=1):
        self.charged += amount
        super().spend(amount)


@pytest.mark.parametrize("window", [60, 600])
def test_exaexb_search_builds_at_most_one_part_per_unit(window):
    # each factorization pays for its parts before it is built, so the
    # units bound the memory of Z, not only its count: window 600 gives
    # 180,301 factorizations of 4
    budget = _PartsPerUnit()
    zs = family_factorizations("exAexB", 4, window=window, budget=budget)
    assert sum(len(z.parts) for z in zs) <= budget.charged == budget.spent


def test_exaexb_length_slice_spreads_only_the_core_solutions_of_its_length():
    # neither of 4's two core solutions has length 2: the window and the core
    # cost 603 units at window 600, and no factorization is built
    budget = Budget(10**4)
    zs = family("exAexB", window=600).factorizations_of_length(4, 2, budget)
    assert len(zs) == 0 and budget.spent == 603


def test_exaexb_core_lists_each_d_vector_once_at_its_least_parts():
    # 4 = 5·4/5 (d_5 = -5) or two balanced pairs (d = 0); 4/5 + 6/5 on 5 is
    # one of those pairs, placed by the spread, not a core solution of its own
    primes = oracle_primes_from(5, 600)
    assert _exaexb_core(Fraction(4), primes, Budget()) == [(((5, 5, 0),), 0), ((), 2)]


def test_exaexb_family_factorizations_read_the_family_window():
    assert family_factorizations(family("exAexB", window=3), 2) == family_factorizations("exAexB", 2, window=3)
    assert len(family_factorizations(family("exAexB", window=3), 2)) == 3


@pytest.mark.parametrize("fam", [family("exAexB", window=3), family("exAexB"), family("sqden")])
def test_window_argument_beside_a_family_is_refused(fam):
    # a family's window lives in its params; a second spelling would have to
    # pick a winner silently
    with pytest.raises(InputError, match="window"):
        family_factorizations(fam, 2, window=5)


def test_interval_sqden_sum_is_not_atomic_at_9_8():
    budget = Budget()
    budget.trace = trace = []
    zs = family_factorizations("interval1_sqden", F(9, 8), budget=budget)
    assert len(zs) == 0
    assert family_member("interval1_sqden", F(9, 8))
    assert trace and trace[0]["residual"] == "9/8"


def test_traced_sqden_search_pays_for_its_prime_scans():
    # each traced node lists the candidate indices up to its residual, about
    # 10^7 here; the prime scan is charged before it runs, so 100 units run
    # out at once instead of after a minute of scanning
    budget = Budget(100)
    budget.trace = []
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        family_factorizations("sqden", F(4 * 10**7 + 1, 4), budget=budget)
    assert time.perf_counter() - start < 1
    # one unit per odd number up to the scan's bound, 999 = floor(q - 1) here
    meter = Budget(10**6)
    assert divisor_candidates("sqden", F(4001, 4), meter) == divisor_candidates("sqden", F(4001, 4))
    assert 10**6 - meter.left == 999 // 2


def test_interval_sqden_factorizations():
    zs = family_factorizations("interval1_sqden", F(7, 4))
    assert [dict(z.parts) for z in zs] == [{F(1): 1, F(3, 4): 1}]
    zs = family_factorizations("interval1_sqden", F(3, 2))
    assert [dict(z.parts) for z in zs] == [{F(3, 4): 2}]
    zs = family_factorizations("sqden", F(3, 2))
    assert [dict(z.parts) for z in zs] == [{F(3, 4): 2}]
    assert len(family_factorizations("sqden", F(9, 8))) == 0


@pytest.mark.parametrize("kind", ["sqden", "interval1_sqden", "exAexB"])
def test_family_factorizations_of_zero_and_below(kind):
    # 0 has exactly the empty factorization; a negative target is refused
    assert [z.parts for z in family_factorizations(kind, 0, window=3)] == [()]
    with pytest.raises(InputError):
        family_factorizations(kind, F(-1, 2), window=3)


@pytest.mark.parametrize("q, nodes", [
    (F(43, 36), 3), (F(6), 8), (F(15, 2), 8), (F(25, 12), 3), (F(99, 4), 242), (F(1001, 100), 9),
])
def test_sqden_search_visits_a_pinned_number_of_nodes(q, nodes):
    # one unit per node: the tree is pinned node for node
    _sqden_solutions(q, Budget(nodes))
    with pytest.raises(BudgetExceededError):
        _sqden_solutions(q, Budget(nodes - 1))


def test_budget_outcome_does_not_depend_on_earlier_queries():
    # the same query with the same budget fails the same way before and
    # after an unbudgeted run of it in this process; it costs 3 units
    with pytest.raises(BudgetExceededError):
        family_factorizations("sqden", F(43, 36), budget=2)
    assert len(family_factorizations("sqden", F(43, 36))) == 1
    with pytest.raises(BudgetExceededError):
        family_factorizations("sqden", F(43, 36), budget=2)


def test_paper_scenario_spends_one_budget_over_all_its_windows():
    window = 6
    costs = []
    for w in range(1, window + 1):
        meter = Budget(10**7)
        family_factorizations("exAexB", 2, window=w, budget=meter)
        costs.append(10**7 - meter.left)
    # each window fits in the allowance alone, but not all of them together
    allowance = max(costs)
    assert sum(costs) > allowance
    assert run_paper_example("4.2", window=window, budget=sum(costs)).ok
    with pytest.raises(BudgetExceededError):
        run_paper_example("4.2", window=window, budget=allowance)


def test_family_membership():
    assert family_member("interval1", F(7, 2))
    assert family_member("interval1", 0)
    assert not family_member("interval1", F(1, 2))
    assert family_member("sqden", F(3, 2))
    assert not family_member("sqden", 1)
    assert not family_member("sqden", F(1, 2))
    assert family_member("interval1_sqden", F(9, 8))
    assert not family_member("interval1_sqden", F(1, 2))
    with pytest.raises(NeedsBoundError):
        family_member("grams", F(1, 6))


def test_interval_lengths():
    assert interval_lengths(3) == (2, 3)
    assert interval_lengths(1) == (1,)
    assert interval_lengths(2) == (2,)
    assert interval_lengths(F(7, 2)) == (2, 3)
    assert interval_lengths(0) == (0,)
    with pytest.raises(InputError):
        interval_lengths(F(1, 2))


def test_interval_lengths_charge_one_unit_per_length_first():
    meter = Budget(10)
    assert interval_lengths(F(21, 2), meter) == (6, 7, 8, 9, 10)
    assert meter.left == 5
    with pytest.raises(BudgetExceededError):
        interval_lengths(22, Budget(10))   # 11 lengths
    with pytest.raises(BudgetExceededError, match="too large"):
        interval_lengths(10**40)   # refused even on an unlimited budget


def test_interval_length_factorizations():
    pairs = interval_length_factorizations(3, 2, 12)
    for n in range(3, 13):
        expected = {F(3, 2) - F(1, n): 1, F(3, 2) + F(1, n): 1}
        assert any(dict(z.parts) == expected for z in pairs)

    assert [dict(z.parts) for z in interval_length_factorizations(3, 2, 2)] == [{F(3, 2): 2}]
    assert [dict(z.parts) for z in interval_length_factorizations(2, 2, 4)] == [{F(1): 2}]

    counts = [len(interval_length_factorizations(3, 2, d)) for d in (4, 8, 12)]
    assert counts[0] < counts[1] < counts[2]


@pytest.mark.parametrize("q, ell, den_bound, units", [
    # the kernel's need-2 nodes are leaves that pay one unit per candidate part
    (F(3), 2, 12, 102), (F(7, 2), 3, 8, 70), (F(3), 2, 18, 223), (F(3), 2, 60, 2382),
    # the scale, lcm(1..den_bound) here, has 123 bits at 88 and 130 at 89:
    # at 89 each of its 4,005 grid atoms costs two units
    (F(3), 2, 88, 5101), (F(3), 2, 89, 5234 + 4005),
])
def test_interval_sample_spends_a_pinned_number_of_units(q, ell, den_bound, units):
    meter = Budget(10**9)
    interval_length_factorizations(q, ell, den_bound, meter)
    assert 10**9 - meter.left == units


def test_family_properties_reports():
    grams = family_properties(family("grams", K=4))
    assert grams["flags"]["atomic"] == {"value": True, "provenance": "paper"}
    assert grams["flags"]["bbm"]["value"] is False
    assert grams["evidence"]["all_generators_are_atoms"] is True
    assert "odd primes" in grams["primes"]

    ab = family_properties(family("exAexB", window=4))
    assert ab["flags"]["ffm"]["value"] is False
    assert ab["flags"]["bfm"]["value"] is True
    assert ab["evidence"]["length2_counts_of_2"] == [1, 2, 3, 4]
    assert ab["evidence"]["strictly_increasing"] is True

    interval = family_properties(family("interval1", den_bound=9))
    assert interval["flags"]["bbm"]["value"] is True
    assert interval["flags"]["ffm"]["value"] is False
    assert interval["evidence"]["strictly_increasing"] is True

    companion = family_properties("companion")
    a_1, staircase = family_generator("grams", 1), grams_companion(1, 6).b
    assert companion["evidence"]["staircase_n1"] == [str(b) for b in staircase]
    assert all(a_1 / 2 < b < a_1 for b in staircase)
    assert companion["evidence"]["band_respected"] is True

    antimatter = family_properties("gramscompanion")
    assert antimatter["flags"]["antimatter"]["value"] is True
    assert antimatter["evidence"]["all_hold"] is True

    sum_report = family_properties("interval1_sqden")
    assert sum_report["flags"]["atomic"]["value"] is False
    assert sum_report["evidence"]["member_9/8"] is True
    assert sum_report["evidence"]["factorizations_9/8"] == 0


def test_property_diagram_corners():
    # the four corners of the finiteness diagram, each witnessed by a family:
    # finitely generated implies everything; bounded-below without finite
    # factorizations; finite factorizations without bounded-below; bounded
    # factorizations without finite ones
    def flag(kind, name):
        return family_properties(family(kind, K=3, window=3, den_bound=6))["flags"][name]["value"]

    assert flag("interval1", "bbm") and not flag("interval1", "ffm")
    assert flag("sqden", "ffm") and not flag("sqden", "bbm")
    assert flag("exAexB", "bfm") and not flag("exAexB", "ffm")
    from puiseux import FgMonoid

    fg_flags = FgMonoid([2, 3]).classify()["flags"]
    assert all(fg_flags[name]["value"] for name in ("atomic", "bbm", "bfm", "ffm", "lffm"))


def test_family_descriptor():
    fam = family("exAexB", window=10)
    assert fam.param("window") == 10
    assert fam.param("K") is None
    with pytest.raises(InputError):
        family("nosuch")
    with pytest.raises(InputError):
        family("grams", bogus=3)
