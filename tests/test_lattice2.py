import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puiseux import (
    BudgetExceededError,
    InputError,
    LatticePoint,
    lat_atomic_elements_in_box,
    lat_atoms_in_box,
    lat_contains,
    lat_factorizations_in_box,
    lex_sum_check,
)
from puiseux.lattice2 import (LATTICE_KINDS, _member_count, _row_runs, lat_factorization_count,
                              lat_factorizations_over, lat_members_in_box)
from puiseux.monoid import Budget

P = LatticePoint


def test_membership_closed_forms():
    assert lat_contains("upperhalf", P(-5, 2))
    assert not lat_contains("upperhalf", P(1, 0))
    assert lat_contains("upperhalf", P(0, 0))

    assert not lat_contains("lexcone", P(-3, 0))
    assert lat_contains("lexcone", P(-3, 1))
    assert lat_contains("lexcone", P(3, 0))

    assert lat_contains("quadrant", P(0, 0))
    assert not lat_contains("quadrant", P(-1, 2))

    with pytest.raises(InputError):
        lat_contains("cone", P(0, 0))


def test_unknown_kind_is_an_input_error_in_every_search():
    with pytest.raises(InputError):
        lat_atoms_in_box("cone", 3)
    with pytest.raises(InputError):
        lat_factorizations_in_box("cone", P(0, 1), 3)


@pytest.mark.parametrize("bound", range(9))
def test_members_in_box_match_the_membership_filter_of_the_box(bound):
    box = [(x, y) for x in range(-bound, bound + 1) for y in range(-bound, bound + 1)]
    for kind in LATTICE_KINDS:
        budget = Budget(10**6)
        members = lat_members_in_box(kind, bound, budget)
        assert members == [v for v in box if lat_contains(kind, v)]
        assert 10**6 - budget.left == len(box)
        assert _member_count(kind, bound) == len(members)


def _maximal_runs(points):
    """The distinct points as maximal runs (x, y, n) of consecutive x in a row, by row."""
    cells = sorted({(y, x) for x, y in points})
    runs = []
    for y, x in cells:
        if runs and runs[-1][1] == y and runs[-1][0] + runs[-1][2] == x:
            runs[-1] = (runs[-1][0], y, runs[-1][2] + 1)
        else:
            runs.append((x, y, 1))
    return runs


@given(kind=st.sampled_from(LATTICE_KINDS), bound=st.integers(0, 12), origin=st.booleans())
@settings(max_examples=200, deadline=None)
def test_row_runs_are_the_maximal_runs_of_the_box_members(kind, bound, origin):
    # the members by the membership filter of the box, not through the runs
    box = [(x, y) for x in range(-bound, bound + 1) for y in range(-bound, bound + 1)]
    members = [v for v in box if lat_contains(kind, v) and (origin or v != (0, 0))]
    assert _row_runs(kind, bound, origin) == _maximal_runs(members)
    assert sorted(members) == [v for v in lat_members_in_box(kind, bound, Budget()) if origin or v != (0, 0)]


@pytest.mark.parametrize("kind", LATTICE_KINDS)
@pytest.mark.parametrize("origin", [True, False])
def test_banded_row_runs_match_a_membership_scan_at_every_bound(kind, origin):
    # rows 2..bound are copies of row 1: checked against a scan of every box point
    for bound in range(1, 26):
        box = [(x, y) for x in range(-bound, bound + 1) for y in range(-bound, bound + 1)]
        members = [v for v in box if lat_contains(kind, v) and (origin or v != (0, 0))]
        assert _row_runs(kind, bound, origin) == _maximal_runs(members)


def test_atoms_in_box():
    assert lat_atoms_in_box("quadrant", 2) == (P(0, 1), P(1, 0))
    assert lat_atoms_in_box("upperhalf", 3) == tuple(
        sorted(P(n, 1) for n in range(-3, 4))
    )
    assert lat_atoms_in_box("lexcone", 10) == (P(1, 0),)


def test_lexcone_atom_set_is_stable_in_the_box():
    for bound in range(1, 7):
        assert lat_atoms_in_box("lexcone", bound) == (P(1, 0),)


def test_lex_sum_check():
    assert lex_sum_check(1)
    assert lex_sum_check(5)
    assert lex_sum_check(10)


def test_atomic_elements():
    assert lat_atomic_elements_in_box(5) == tuple(P(m, 0) for m in range(6))
    assert lat_atomic_elements_in_box(1) == (P(0, 0), P(1, 0))
    assert P(0, 1) not in lat_atomic_elements_in_box(8)


def test_quadrant_factorizations_are_unique():
    for x in range(4):
        for y in range(4):
            zs = lat_factorizations_in_box("quadrant", P(x, y), 4)
            assert len(zs) == 1
            assert zs[0] == tuple(sorted([P(0, 1)] * y + [P(1, 0)] * x))


def test_upperhalf_length_sets_are_singletons():
    for v in (P(0, 1), P(2, 2), P(-1, 3)):
        zs = lat_factorizations_in_box("upperhalf", v, 5)
        assert {len(z) for z in zs} == {v.y}


def test_upperhalf_factorization_counts_grow_with_box():
    counts = [
        len(lat_factorizations_in_box("upperhalf", P(0, 2), bound))
        for bound in (2, 4, 6)
    ]
    assert counts == [3, 5, 7]  # pairs (n,1) + (-n,1) for |n| <= bound


def _common_divisors_in_box(kind, a, b, bound):
    out = []
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            d = P(x, y)
            if all(lat_contains(kind, v) for v in (d, a - d, b - d)):
                out.append(d)
    return out


def test_upperhalf_lower_point_is_maximal_common_divisor():
    # strong atomicity sample: for y1 < y2, u1 divides u2, and the residual
    # pair {0, u2 - u1} has no nonzero common divisor, so u1 is a maximal
    # common divisor of {u1, u2}
    bound = 6
    for u1 in (P(-1, 1), P(2, 1), P(0, 2)):
        for u2 in (P(0, 3), P(-2, 4)):
            assert lat_contains("upperhalf", u2 - u1)
            residual_divisors = _common_divisors_in_box("upperhalf", P(0, 0), u2 - u1, bound)
            assert residual_divisors == [P(0, 0)]


def test_lexcone_factorizations():
    assert lat_factorizations_in_box("lexcone", P(3, 0), 5) == ((P(1, 0),) * 3,)
    assert lat_factorizations_in_box("lexcone", P(0, 1), 5) == ()
    with pytest.raises(InputError):
        lat_factorizations_in_box("lexcone", P(-1, 0), 5)


# each search with the units it spends at box 10: box points, sumset shift-ors,
# reached sums, and (the last) the atom search, then the integer kernel's nodes,
# two-part candidates and two-atom solutions over the box's 21 atoms of height 1,
# and one unit per part of the 60 factorizations of three parts each (180)
_SEARCH_UNITS = [
    (lambda budget: lat_atoms_in_box("lexcone", 10, budget=budget), 793),
    (lambda budget: lex_sum_check(10, budget=budget), 4244),
    (lambda budget: lat_atomic_elements_in_box(10, budget=budget), 804),
    (lambda budget: lat_factorizations_in_box("upperhalf", P(-1, 3), 10, budget=budget), 912),
]


@pytest.mark.parametrize("search", [search for search, _ in _SEARCH_UNITS])
def test_lattice_searches_charge_the_budget(search):
    # each search spends its pinned units every time: exactly that many
    # suffice, one fewer runs out; at box 10 it is far below the default 10^7
    meter = Budget(10**7)
    search(meter)
    spent = 10**7 - meter.left
    assert 0 < spent < 10**5
    assert spent == dict(_SEARCH_UNITS)[search]
    search(Budget(spent))
    with pytest.raises(BudgetExceededError):
        search(Budget(spent - 1))


@pytest.mark.parametrize("atoms, v, units", [
    # two atoms, encoded: the kernel's two-atom root solves in closed form,
    # the node and its one solution, then the solution's five parts
    ((P(0, 1), P(1, 0)), P(3, 2), 1 + 1 + 5),
    # the origin: psi(v) = 0 drops both atoms, and the root alone emits ()
    ((P(0, 1), P(1, 0)), P(0, 0), 1),
    # one height: the integer kernel's two-atom root finds no solution, the node alone
    ((P(-1, 1), P(2, 1)), P(0, 2), 1),
    # a parallel pair, encoded: the same two-atom root has two solutions,
    # (2,2) and (1,1) + (1,1); then the parts, one and two
    ((P(1, 1), P(2, 2)), P(2, 2), 1 + 2 + 3),
    # a single atom, encoded: the kernel's one-atom root divides, then three parts
    ((P(2, 0),), P(6, 0), 1 + 3),
    ((P(2, 0),), P(5, 0), 1),
    # one height 2 does not divide y = 3: the root's one unit, no search
    ((P(0, 2), P(1, 2), P(2, 2)), P(1, 3), 1),
    # one height: the integer kernel's root has one part left and looks the
    # rest up among the atoms, so the root alone, and the one part
    (tuple(P(n, 1) for n in range(-3, 4)), P(-3, 1), 1 + 1),
])
def test_search_charges_one_unit_per_node_and_closed_form_solution(atoms, v, units):
    # and one per part of each factorization, before it is built
    meter = Budget(10**6)
    lat_factorizations_over(atoms, v, meter)
    assert 10**6 - meter.left == units


def test_upperhalf_sample_and_quadrant_units():
    # the samples paper scenario 4.4 searches at box 10
    upper, quadrant = lat_atoms_in_box("upperhalf", 10), lat_atoms_in_box("quadrant", 10)
    meter = Budget(10**7)
    for v in (P(x, y) for x in (-2, 0, 1) for y in (1, 2, 3)):
        zs = lat_factorizations_over(upper, v, meter)
        assert {len(z) for z in zs} == {v.y}
    # the integer kernel's nodes, two-part candidates and two-atom solutions,
    # then one unit per part of the 215 factorizations (608 parts)
    assert 10**7 - meter.left == 281 + 608
    meter = Budget(10**7)
    for v in lat_members_in_box("quadrant", 10, meter):
        assert len(lat_factorizations_over(quadrant, v, meter)) == 1
    # the box's 441 points, then per nonzero member the kernel's two-atom root
    # and its one solution, the origin's root alone, and each member's x + y
    # parts: 2 * 11 * (0 + 1 + ... + 10) in all
    assert 10**7 - meter.left == 441 + 2 * 120 + 1 + 1210


@pytest.mark.parametrize("atoms", [
    (P(0, 1), P(1, 0)), (P(-1, 1), P(2, 1)), (P(1, 0), P(1, 3)), (P(-2, 1), P(1, 1), P(3, 2)),
    (P(1, 1), P(2, 2)),
])
def test_factorization_count_is_the_number_of_factorizations(atoms):
    for v in (P(x, y) for x in range(-6, 7) for y in range(7)):
        assert lat_factorization_count(atoms, v, Budget()) == len(lat_factorizations_over(atoms, v, Budget()))


def test_quadrant_count_charges_one_unit_per_member():
    # paper scenario 4.4's check at box 10: the box's 441 points, then one
    # Cramer count per member, 0 or 1, with no factorization or part built
    quadrant, meter = lat_atoms_in_box("quadrant", 10), Budget(10**7)
    for v in lat_members_in_box("quadrant", 10, meter):
        assert lat_factorization_count(quadrant, v, meter) == 1
    assert 10**7 - meter.left == 441 + 121
    assert lat_factorization_count(quadrant, P(-1, 3), meter) == 0
    assert 10**7 - meter.left == 441 + 122


def test_atoms_left_of_and_on_the_x_axis_give_every_factorization():
    # y = 3 takes one (-9,3), so the x-axis atoms cover x = 11: a parts (1,0)
    # and b parts (2,0) with a + 2b = 11, one factorization for each b in 0..5
    atoms = (P(-9, 3), P(1, 0), P(2, 0))
    want = tuple(sorted((P(-9, 3), *[P(1, 0)] * a, *[P(2, 0)] * ((11 - a) // 2)) for a in range(1, 12, 2)))
    assert len(want) == 6
    assert lat_factorizations_over(atoms, P(2, 3), Budget()) == want


@pytest.mark.parametrize("atoms", [
    (),                       # no atom
    (P(0, 0), P(1, 1)),       # the origin
    (P(-1, 1), P(1, -1)),     # an atom below the x-axis
    (P(-1, 0), P(1, 0)),      # an x-axis atom with x <= 0
    (P(0, 1), P(1, -1)),      # not parallel, so Cramer's rule alone would count 1
])
def test_atom_sets_outside_the_domain_are_input_errors(atoms):
    # outside the domain a factorization set can be infinite: the origin
    # repeats, and the other sets hold parts that cancel; the count refuses
    # the same sets as the search
    for search in (lat_factorizations_over, lat_factorization_count):
        with pytest.raises(InputError):
            search(atoms, P(1, 1), Budget())


def test_factorization_search_is_not_limited_by_recursion():
    # 1,201 atoms: the integer kernel's root has one part left and looks it up
    atoms = tuple(P(n, 1) for n in range(-600, 601))
    assert lat_factorizations_over(atoms, P(0, 1), Budget()) == ((P(0, 1),),)
    # two parts of (0,2) are a leaf at the root: one unit for it, one per
    # candidate larger part (n,1) with 0 <= n <= 5000, and two per factorization
    atoms = tuple(P(n, 1) for n in range(-5000, 5001))
    want = tuple(sorted((P(-n, 1), P(n, 1)) for n in range(5001)))
    meter = Budget(10**7)
    assert lat_factorizations_over(atoms, P(0, 2), meter) == want
    assert 10**7 - meter.left == 1 + 5001 + 2 * 5001
    # three parts of (2200,3): each atom (n,1) with 1000 <= n <= 2199 may be
    # the largest, so the kernel's nodes that take none of their atom chain
    # through 1,200 open levels, beyond the default recursion limit
    atoms = tuple(P(n, 1) for n in (0, 1, *range(1000, 2200)))
    xs = {a.x for a in atoms}
    want = tuple(sorted((P(a, 1), P(b, 1), P(c, 1)) for a in xs for b in xs
                        if a <= b <= (c := 2200 - a - b) and c in xs))
    start = time.perf_counter()
    assert lat_factorizations_over(atoms, P(2200, 3), Budget(10**7)) == want
    assert time.perf_counter() - start < 2
    assert len(want) == 203


def _best_of_three_until_out_of_budget(search, h):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            search(h, Budget(10**4))
        times.append(time.perf_counter() - start)
    return min(times)


def test_time_per_unit_does_not_grow_with_the_target_height():
    # over one height every part count the integer kernel visits is a charged
    # node, so running out of 10^4 units takes as long at any height
    def search(h, budget):
        lat_factorizations_in_box("upperhalf", P(-3, h), 3, budget=budget)

    best_of_three = _best_of_three_until_out_of_budget
    assert best_of_three(search, 10_000) <= 3 * best_of_three(search, 1_000)


def test_mixed_height_output_is_charged_per_part():
    # (0,h) over (-1,1), (0,1), (1,2) has ~h/3 factorizations of h/2 to h
    # parts each; each part is charged before its tuple is built, so the
    # output cannot outgrow the budget: the kernel lists the 3,334 paths of
    # (0,10^4) in 7,335 units, but their 2.8 * 10^7 parts do not fit 10^4
    atoms = (P(-1, 1), P(0, 1), P(1, 2))

    def search(h, budget):
        lat_factorizations_over(atoms, P(0, h), budget)

    meter = Budget(10**6)
    zs = lat_factorizations_over(atoms, P(0, 100), meter)
    assert 10**6 - meter.left > sum(len(z) for z in zs) > 0
    with pytest.raises(BudgetExceededError):
        search(10**4, Budget(10**4))
    # at heights 10^5 and 10^6 the kernel itself runs out of the 10^4 units,
    # one per node, as fast at either height
    best_of_three = _best_of_three_until_out_of_budget
    assert best_of_three(search, 10**6) <= 3 * best_of_three(search, 10**5)


def test_a_last_atom_tries_only_the_part_count_that_can_leave_zero():
    # (1,0) is lexcone's one box atom: encoded, the target is no multiple of
    # it, found by the kernel's one-atom root instead of one node per part count
    meter = Budget(10**6)
    start = time.perf_counter()
    assert lat_factorizations_in_box("lexcone", P(10**7, 1), 3, budget=meter) == ()
    assert time.perf_counter() - start < 0.5
    assert 10**6 - meter.left == 122   # the atom search at box 3, then the root
    assert lat_factorizations_in_box("lexcone", P(5, 0), 3) == ((P(1, 0),) * 5,)
