import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import oracle_atoms, oracle_value_buckets, oracle_vectors
from puiseux import (
    BudgetExceededError,
    Factorization,
    FgMonoid,
    InputError,
    NotAMemberError,
)
from puiseux.dsl import Evaluator
from puiseux.monoid import Budget, _depth_first, _solve_int

F = Fraction


@pytest.fixture
def m23():
    return FgMonoid([2, 3])


def parts_of(zs):
    return [dict(z.parts) for z in zs]


def test_fg_monoid_computes_atoms():
    assert FgMonoid([2, 3, 4]).atoms == (F(2), F(3))
    assert FgMonoid([F(1, 2), F(3, 4)]).atoms == (F(1, 2), F(3, 4))
    assert FgMonoid([2, 3]).atoms == (F(2), F(3))
    assert FgMonoid(["3/4", 2, 2]).generators == (F(3, 4), F(2))


def test_fg_monoid_rejects_nonpositive():
    with pytest.raises(InputError):
        FgMonoid([2, 0])
    with pytest.raises(InputError):
        FgMonoid([])


def test_integerization(m23):
    m = FgMonoid([F(1, 2), F(3, 4)])
    assert m.scale == 4
    assert m.int_gens == (2, 3)
    assert m23.scale == 1


def test_contains(m23):
    assert not m23.contains(1)
    assert m23.contains(7)
    assert m23.contains(0)
    assert not FgMonoid([F(1, 2), F(3, 4)]).contains(F(1, 3))
    with pytest.raises(InputError):
        m23.contains(-1)


def test_divides(m23):
    assert m23.divides(2, 6)
    assert not m23.divides(3, 4)
    assert m23.divides(0, 5)
    assert not m23.divides(6, 2)


def test_divisors(m23):
    assert m23.divisors(6) == (F(0), F(2), F(3), F(4), F(6))
    assert m23.divisors(4) == (F(0), F(2), F(4))
    assert m23.divisors(0) == (F(0),)
    with pytest.raises(NotAMemberError):
        m23.divisors(1)


def test_factorizations(m23):
    assert parts_of(m23.factorizations(6)) == [{F(2): 3}, {F(3): 2}]
    halves = FgMonoid([F(1, 2), F(3, 4)])
    assert parts_of(halves.factorizations(F(3, 2))) == [
        {F(1, 2): 3},
        {F(3, 4): 2},
    ]
    assert parts_of(m23.factorizations(2)) == [{F(2): 1}]
    assert parts_of(m23.factorizations(0)) == [{}]
    with pytest.raises(NotAMemberError):
        m23.factorizations(F(1, 2))


def test_factorization_set_is_canonically_ordered(m23):
    zs = m23.factorizations(12)
    # largest atom's multiplicity counts up: 6*2 first, then 3*2 + 2*3, then 4*3
    assert parts_of(zs) == [{F(2): 6}, {F(2): 3, F(3): 2}, {F(3): 4}]
    assert zs.to_json() == {
        "target": "12",
        "items": [
            {"parts": [["2", 6]], "length": 6},
            {"parts": [["2", 3], ["3", 2]], "length": 5},
            {"parts": [["3", 4]], "length": 4},
        ],
    }


def test_lengths(m23):
    assert m23.lengths(12).lengths == (4, 5, 6)
    assert m23.lengths(6).lengths == (2, 3)
    assert m23.lengths(0).lengths == (0,)


def test_factorizations_of_length(m23):
    assert parts_of(m23.factorizations_of_length(12, 5)) == [{F(2): 3, F(3): 2}]
    assert len(m23.factorizations_of_length(12, 7)) == 0
    assert parts_of(m23.factorizations_of_length(6, 2)) == [{F(3): 2}]
    with pytest.raises(InputError):
        m23.factorizations_of_length(6, 0)


def test_mcd_set(m23):
    assert m23.mcd_set(4, 6) == (F(4),)
    assert m23.mcd_set(2, 3) == (F(0),)
    assert m23.mcd_set(6, 6) == (F(6),)
    assert m23.mcd_set(0, 5) == (F(0),)


def test_is_mcd(m23):
    assert m23.is_mcd(4, 6, 4)
    assert not m23.is_mcd(4, 6, 2)
    assert not m23.is_mcd(4, 6, 0)
    assert not m23.is_mcd(4, 6, 1)  # 1 is not even a member
    with pytest.raises(NotAMemberError):
        m23.is_mcd(1, 6, 0)


def test_every_mcd_satisfies_the_predicate(m23):
    for x in (0, 2, 3, 4, 5, 6, 7, 12):
        for y in (0, 2, 3, 4, 5, 6, 7, 12):
            for d in m23.mcd_set(x, y):
                assert m23.is_mcd(x, y, d)


def test_internal_sum():
    s = FgMonoid([2]).internal_sum(FgMonoid([3]))
    assert s.atoms == (F(2), F(3))
    assert not s.contains(1)
    m = FgMonoid([2, 3])
    assert m.internal_sum(m) == m
    third = FgMonoid([F(1, 2)]).internal_sum(FgMonoid([F(1, 3)]))
    assert third.atoms == (F(1, 3), F(1, 2))
    assert (FgMonoid([2]) + FgMonoid([3])).atoms == (F(2), F(3))


def test_classify(m23):
    report = m23.classify()
    assert report["min_positive"] == "2"
    assert report["atom_count"] == 2
    assert report["scale"] == 1
    assert report["flags"]["ffm"] == {"value": True, "provenance": "paper"}
    assert report["flags"]["bbm"]["value"] is True
    assert report["evidence"]["all_finite"] is True

    cyclic = FgMonoid([F(1, 2)])
    assert cyclic.classify()["evidence"]["unique_factorization_observed"] is True
    assert m23.classify()["evidence"]["unique_factorization_observed"] is False


def test_budget_guard(m23):
    with pytest.raises(BudgetExceededError):
        FgMonoid([2, 3], budget=1).factorizations(60, budget=1)
    # a sane budget is not consumed across independent calls
    assert len(m23.factorizations(24, budget=10**6)) == 5


def test_construction_charges_each_word_of_the_denominators_before_scaling():
    def spent(gens):
        meter = Budget(10**6)
        FgMonoid(gens, meter)
        return 10**6 - meter.left

    # both scale to the generators 1 and 2; the denominators take 127 bits,
    # then 129: two 64-bit words, one unit per generator for the second
    assert spent([F(1, 2**62), F(1, 2**63)]) == 3
    assert spent([F(1, 2**63), F(1, 2**64)]) == 3 + 2


@pytest.mark.parametrize("gens, generators, int_gens, atoms, scale, units", [
    # equal values in every spelling collapse to one generator
    ([1, "1", F(2, 2), "3/2", F(3, 2)], (F(1), F(3, 2)), (2, 3), (F(1), F(3, 2)), 2, 4),
    (["7/12", F(1, 3), 2, "1/3", F(7, 12), "5/4"], (F(1, 3), F(7, 12), F(5, 4), F(2)),
     (4, 7, 15, 24), (F(1, 3), F(7, 12)), 12, 7),
    # 143 bits of denominators: one unit per generator for the second word
    ([F(1, 2**70), "1/2", F(3, 2**69), F(2, 2**71)], (F(1, 2**70), F(3, 2**69), F(1, 2)),
     (1, 6, 2**69), (F(1, 2**70),), 2**70, 4),
])
def test_construction_dedups_and_sorts_on_the_integer_side(gens, generators, int_gens, atoms, scale, units):
    meter = Budget(10**6)
    m = FgMonoid(gens, meter)
    assert (m.generators, m.int_gens, m.atoms, m.scale) == (generators, int_gens, atoms, scale)
    assert all(type(g) is Fraction for g in m.generators + m.atoms)
    assert 10**6 - meter.left == units


@pytest.mark.parametrize("gens, message", [
    ([], "at least one generator is required"),
    (iter([]), "at least one generator is required"),
    ([1, 0, -1], "generator 0 is not positive"),
    ([2, "-3", "y"], "generator -3 is not positive"),
    (["x", 0], "not a rational literal: 'x'"),
    ([1.5], "cannot interpret 1.5 as a rational"),
])
def test_construction_reports_the_first_bad_generator(gens, message):
    with pytest.raises(InputError) as err:
        FgMonoid(gens)
    assert str(err.value) == message


def test_divides_matches_divisor_sets(m23):
    for b in (0, 2, 4, 6, 7, 9, 12):
        divs = set(m23.divisors(b))
        for c in (0, 1, 2, 3, 4, 5, 6, 7):
            assert m23.divides(c, b) == (F(c) in divs)


def test_oracle_equivalence_spot_checks():
    for gens in ([2, 3], [3, 5, 7], [4, 6, 9], [2, 3, 4]):
        m = FgMonoid(gens)
        assert [int(a) for a in m.atoms] == oracle_atoms(list(gens))
        buckets = oracle_value_buckets(list(m.int_atoms), 40)
        for q in range(41):
            if q in buckets:
                got = sorted(
                    tuple(z.multiplicity(a) for a in m.atoms)
                    for z in m.factorizations(q)
                )
                assert got == sorted(buckets[q])
            else:
                assert not m.contains(q)


small_gens = st.lists(
    st.fractions(min_value=F(1, 8), max_value=6, max_denominator=8),
    min_size=1,
    max_size=3,
)


@given(gens=small_gens, t=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_scaling_invariance(gens, t):
    m = FgMonoid(gens)
    scaled = FgMonoid([t * g for g in gens])
    assert scaled.atoms == tuple(t * a for a in m.atoms)
    q = sum(m.atoms, F(0))
    zs = m.factorizations(q)
    zs_scaled = scaled.factorizations(t * q)
    assert [
        [(t * a, k) for a, k in z.parts] for z in zs
    ] == [list(z.parts) for z in zs_scaled]


@given(gens=small_gens)
@settings(max_examples=60, deadline=None)
def test_atoms_generate_the_monoid(gens):
    m = FgMonoid(gens)
    assert set(m.atoms) <= set(m.generators)
    for g in m.generators:
        assert len(m.factorizations(g)) >= 1


def test_concurrent_queries_share_one_monoid():
    import sys
    from concurrent.futures import ThreadPoolExecutor

    def probe(m, t):
        q = F(t, 12)
        inside = m.contains(q)
        if inside:
            assert all(z.value == q for z in m.factorizations(q))
        # far targets make the threads grow the shared cover concurrently,
        # and the farthest make them switch to the Apéry table while other
        # threads still read or grow the bitmask through divisors
        near = F(97 * t, 12)
        divisors = len(m.divisors(near)) if t % 8 == 0 and m.contains(near) else 0
        return inside, m.contains(near), divisors, m.contains(F(10**7 * t, 36))

    def run(m, workers):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda t: probe(m, t), range(1, 200), timeout=60))

    m = FgMonoid([F(5, 4), F(7, 6)])
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = run(m, 8)
    finally:
        sys.setswitchinterval(switch)
    assert m._table is not None
    # same answers as a fresh, single-threaded monoid
    assert results == run(FgMonoid([F(5, 4), F(7, 6)]), 1)
    # 10^7 t / 3 lies far above the Frobenius number 181 of <14, 15>
    assert [r[3] for r in results] == [t % 3 == 0 for t in range(1, 200)]


def test_far_membership_stays_within_a_small_budget():
    # an Apéry table of O(a) entries answers where a bitmask up to the
    # target would cost ~10^5 units per shift-or step
    assert FgMonoid([F(1000003, 7), F(999983, 11), F(1, 3)]).contains(10**8, budget=10_000)
    program = ("let M = pm(17/40, 3884361/8, 1942183/4); mcd(M, 68/5, 629/40); props(M); "
               "member(M, 2272033); Z(M, 22720327/10); L(M, 2272033); "
               "divides(M, 39883293/20, 15953319/8)")
    values = [v for _, v in Evaluator(budget=10_000).run_text(program)]
    assert values[2] is True and values[-1] is False
    assert [str(z) for z in values[3]] == ["1918579·17/40 + 1·3884361/8 + 2·1942183/4"]
    assert values[4].lengths == (5345960,)


@given(int_gens=st.lists(st.integers(2, 25), min_size=1, max_size=3, unique=True), data=st.data())
@settings(max_examples=100, deadline=None)
def test_sieve_seeded_cover_answers_membership_in_any_order(int_gens, data):
    m = FgMonoid(int_gens)
    limit = m.int_gens[-1]
    # the atom sieve left its closure as the first cover
    assert m._table is None and m._state[0] == limit
    members = set(oracle_value_buckets(sorted(int_gens), 2 * limit))
    order = data.draw(st.permutations(range(2 * limit + 1)))
    assert [m.contains(t) for t in order] == [t in members for t in order]
    assert m._reach(2 * limit, Budget()) == "".join("1" if t in members else "0" for t in range(2 * limit + 1))


def test_first_growth_past_the_sieve_cover_spends_what_growth_from_nothing_spends():
    def spent(m, t):
        meter = Budget(10**6)
        m.contains(t, meter)
        return 10**6 - meter.left

    seeded, empty = FgMonoid([3000, 3001]), FgMonoid([3000, 3001])
    assert seeded._table is None and seeded._state[0] == 3001
    empty._state = (0, 1, 0)
    # inside the sieve's cover: free
    assert spent(seeded, 2999) == 0
    # one unit to allot and one shift per atom up to 3500; doubling the
    # sieve's cover instead would close up to 6002, two shifts per atom
    assert spent(seeded, 3500) == spent(empty, 3500) == 3
    # the next growth doubles the cover the query grew, to 7000
    assert spent(seeded, 4000) == spent(empty, 4000) == 5
    assert seeded._state == empty._state
    assert seeded.contains(6002) and not seeded.contains(6003)


def test_factorization_value_and_length():
    z = Factorization(((F(3, 4), 4), (F(2), 1)))
    assert z.length == 5
    assert z.value == 5
    assert z.multiplicity(F(3, 4)) == 4
    assert z.multiplicity(7) == 0
    assert str(z) == "4·3/4 + 1·2"


def dense_key(atoms_desc):
    """The canonical order as first defined: the multiplicity vector over
    every atom that occurs, largest atom first."""
    def key(z):
        mults = dict(z.parts)
        return tuple(mults.get(a, 0) for a in atoms_desc)

    return key


# few distinct atoms, so that random factorizations share most of them
_factorization_lists = st.lists(
    st.dictionaries(st.fractions(min_value=F(1, 3), max_value=2, max_denominator=3),
                    st.integers(1, 3), max_size=4).map(lambda d: Factorization(tuple(sorted(d.items())))),
    max_size=12,
    unique=True,
)


@given(zs=_factorization_lists)
@settings(max_examples=300, deadline=None)
def test_sparse_key_sorts_as_the_dense_vector(zs):
    atoms_desc = tuple(sorted({a for z in zs for a, _ in z.parts}, reverse=True))
    assert sorted(zs, key=lambda z: z.parts[::-1]) == sorted(zs, key=dense_key(atoms_desc))


@given(atoms=st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True).map(sorted),
       target=st.integers(0, 40), ell=st.none() | st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_kernel_paths_are_sparse_distinct_and_canonically_ordered(atoms, target, ell):
    paths = _solve_int(target, tuple(atoms), ell, Budget())
    for p in paths:
        indices = [i for i, _ in p]
        assert indices == sorted(set(indices))
        assert all(m > 0 for _, m in p)
    # dense vectors over the atoms, largest first: ascending and distinct
    dense = [tuple(dict(p).get(i, 0) for i in reversed(range(len(atoms)))) for p in paths]
    assert dense == sorted(set(dense))
    want = [xs for xs in oracle_vectors(atoms, target) if ell is None or sum(xs) == ell]
    assert sorted(xs[::-1] for xs in dense) == want


@st.composite
def _kernel_cases(draw):
    """2-5 distinct atoms below 61 whose two smallest often share a factor,
    and a target past a0 * a1 as far as product enumeration stays small."""
    g = draw(st.sampled_from([1, 1, 2, 3, 4, 6]))
    pair = draw(st.lists(st.integers(1, 60 // g), min_size=2, max_size=2, unique=True))
    rest = draw(st.lists(st.integers(1, 60), max_size=3))
    atoms = tuple(sorted({g * x for x in pair} | set(rest)))
    hi = 2 * atoms[0] * atoms[1] + atoms[-1]
    while math.prod(hi // a + 1 for a in atoms) > 20_000:
        hi = hi * 4 // 5
    return atoms, draw(st.integers(0, hi))


@given(case=_kernel_cases(), data=st.data())
@example(case=((2, 3), 600), data=None)
@example(case=((4, 6), 598), data=None)
@example(case=((9, 15, 40), 402), data=None)
@settings(max_examples=400, deadline=None)
def test_kernel_emits_the_oracle_vectors_in_canonical_order(case, data):
    # exact emitted order, not sorted: dense vectors ascending with the
    # largest atom's multiplicity first, zero multiplicities dropped
    atoms, target = case
    vectors = sorted(oracle_vectors(list(atoms), target), key=lambda xs: xs[::-1])
    lengths = sorted({sum(xs) for xs in vectors})
    ells = [None, *lengths, 0, 1, 7] if data is None else [
        data.draw(st.none() | st.sampled_from(lengths or [0]) | st.integers(0, 12))]
    for ell in ells:
        want = [tuple((i, x) for i, x in enumerate(xs) if x)
                for xs in vectors if ell is None or sum(xs) == ell]
        assert _solve_int(target, atoms, ell, Budget()) == want


def _kernel_units(target, atoms, ell=None):
    meter = Budget(10**9)
    _solve_int(target, atoms, ell, meter)
    return 10**9 - meter.left


def test_two_atom_kernel_spends_one_unit_per_solution():
    # the root is the two-atom node: one unit for it, one per solution
    assert len(_solve_int(600, (2, 3), None, Budget())) == 101
    assert _kernel_units(600, (2, 3)) == 1 + 101
    _solve_int(600, (2, 3), None, Budget(102))
    with pytest.raises(BudgetExceededError):
        _solve_int(600, (2, 3), None, Budget(101))
    # under a length there is at most one solution
    assert _solve_int(600, (2, 3), 250, Budget()) == [((0, 150), (1, 100))]
    assert _kernel_units(600, (2, 3), 250) == 1 + 1
    assert _kernel_units(600, (2, 3), 100) == 1
    # gcd 2 does not divide 601: no solution, no unit beyond the node
    assert _kernel_units(601, (4, 6)) == 1


@pytest.mark.parametrize("atoms, target", [((6, 9, 20), 400), ((7, 11, 13), 300), ((4, 6, 15), 211)])
def test_kernel_units_are_nodes_above_two_atoms_plus_solutions(atoms, target):
    a0, _, a2 = atoms
    vectors = oracle_vectors(list(atoms), target)
    # the root, each child it keeps (residue zero or at least a0), and one
    # unit per solution read off at a two-atom node (residue not zero there)
    kept = sum(1 for m in range(target // a2 + 1) if target - m * a2 == 0 or target - m * a2 >= a0)
    read_off = sum(1 for xs in vectors if xs[0] or xs[1])
    assert _kernel_units(target, atoms) == 1 + kept + read_off


@pytest.mark.parametrize("atoms, target", [((2, 3), 600), ((6, 9, 20), 400), ((7, 11, 13), 300)])
@pytest.mark.parametrize("shift", [60, 120, 200, 1000])
def test_kernel_charges_wide_targets_per_word_past_the_second(atoms, target, shift):
    # scaling atoms and target by 2^shift keeps the search tree and its
    # solutions; each node then costs one more unit per 64-bit word of the
    # target past the second, so nothing changes below 192 bits
    w = 2**shift
    wide_atoms = tuple(a * w for a in atoms)
    assert _solve_int(target * w, wide_atoms, None, Budget()) == _solve_int(target, atoms, None, Budget())
    read_off = sum(1 for xs in oracle_vectors(list(atoms), target) if xs[0] or xs[1])
    nodes = _kernel_units(target, atoms) - read_off
    words = (target * w).bit_length() // 64
    assert _kernel_units(target * w, wide_atoms) == nodes * max(1, words - 1) + read_off


def test_kernel_node_on_a_1010_bit_target_costs_14_units():
    # 15 words, one unit for the node and 13 for the words past the second
    w = 2**1000
    assert _kernel_units(600 * w, (2 * w, 3 * w)) == 14 + 101


def _preorder(tree, node, out):
    out.append(node)
    for child in tree[node]:
        _preorder(tree, child, out)
    return out


@given(picks=st.lists(st.integers(0, 10**6), max_size=60))
@settings(max_examples=300, deadline=None)
def test_depth_first_visits_a_tree_in_preorder_one_unit_per_node(picks):
    # node i > 0 hangs under one of the nodes before it, children in id order
    tree = {0: []}
    for i, pick in enumerate(picks, 1):
        tree[pick % i].append(i)
        tree[i] = []
    want = _preorder(tree, 0, [])
    seen = []

    def expand(node):
        seen.append(node)
        # a leaf returns None or, as a search may, an empty iterator
        return iter(tree[node]) if tree[node] or node % 2 else None

    _depth_first(0, expand, Budget(len(want)))
    assert seen == want
    if len(want) > 1:
        seen.clear()
        with pytest.raises(BudgetExceededError):
            _depth_first(0, expand, Budget(len(want) - 1))
        assert seen == want[:-1]


def test_depth_first_is_not_bounded_by_the_recursion_limit():
    depth = 100_000
    seen = []

    def expand(node):
        seen.append(node)
        return iter((node + 1,)) if node < depth else None

    _depth_first(0, expand, Budget(depth + 1))
    assert seen == list(range(depth + 1))


@pytest.mark.parametrize("query, count, units", [
    (lambda m, budget: m.factorizations(600, budget=budget), 101, 4 + 1 + 101),
    (lambda m, budget: m.factorizations_of_length(600, 250, budget=budget), 1, 4 + 1 + 1),
])
def test_z_and_zl_on_two_atoms_pin_their_units(query, count, units):
    # 4 units of membership, then the kernel: its node and one per solution
    assert len(query(FgMonoid([2, 3]), Budget(units))) == count
    with pytest.raises(BudgetExceededError):
        query(FgMonoid([2, 3]), Budget(units - 1))


@given(gens=small_gens)
@settings(max_examples=60, deadline=None)
def test_factorizations_come_in_the_kernel_order(gens):
    m = FgMonoid(gens)
    zs = m.factorizations(sum(m.atoms, F(0)) * 2)
    assert list(zs.items) == sorted(zs.items, key=dense_key(tuple(reversed(m.atoms))))


@given(gens=small_gens, count=st.integers(0, 12))
@settings(max_examples=100, deadline=None)
def test_smallest_members_are_the_first_members(gens, count):
    m = FgMonoid(gens)
    limit = count * min(m.int_gens)
    members = sorted(v for v in oracle_value_buckets(list(m.int_gens), limit) if v > 0)
    assert m.smallest_members(count) == [F(v, m.scale) for v in members[:count]]
