"""Cross-validation between independent computation routes.

Each test pits two implementations with different logic against each other:
the valuation-pruned family search vs the elementary exhaustive search, the
windowed and interval searches vs product enumeration over the same atoms,
the bitset divisor, MCD-set and cyclic-divisor scans and the Apéry-table and
bitset membership and atoms vs product enumeration, the bitmask lattice
sumsets and the pruned lattice factorization search vs pairwise search and
product enumeration,
the inductive extension MCD vs the complete MCD-set enumeration, and the
canonical printer vs the parser on generated syntax trees.  The same
generated programs also run through the CLI, which must end each in one of
its documented exit codes.
"""

import contextlib
import io
import itertools
import math
import random
import sys
import time
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from conftest import (oracle_atoms, oracle_exaexb_factorizations, oracle_fraction_member,
                      oracle_lattice_atoms, oracle_lattice_factorizations, oracle_lex_sum_matches,
                      oracle_primes_from, oracle_sqden_solutions, oracle_value_buckets,
                      oracle_vectors, random_extension_instances, random_member)
from puiseux import (
    FgMonoid,
    add_cyclic,
    family,
    family_factorizations,
    family_generator,
    family_member,
    interval_length_factorizations,
    lat_atoms_in_box,
    lat_contains,
    lat_factorizations_in_box,
    lex_sum_check,
    max_cyclic_divisor,
    mcd_via_extension,
    parse,
    print_program,
)
from puiseux.cli import main
from puiseux.dsl import Family, FgLiteral, Ident, Let, Query, Sum
from puiseux.families import _sqden_solutions
from puiseux.lattice2 import LATTICE_KINDS, LatticePoint, _points, _sumset, lat_factorizations_over
from puiseux.monoid import Budget

F = Fraction


def test_sqden_membership_matches_exhaustive_search():
    # targets over the first five prime squares: the pruned search must
    # agree with the elementary search on the covering truncation
    gens = [family_generator("sqden", n) for n in range(1, 6)]
    rng = random.Random(31)
    checked = agreed = 0
    while checked < 250:
        num = rng.randint(1, 60)
        den = rng.choice([1, 2, 3, 4, 6, 9, 12, 18, 25, 36, 50, 100])
        q = F(num, den)
        if q > 4:
            continue
        fast = family_member("sqden", q)
        slow = oracle_fraction_member(gens, q)
        # the pruned search sees the whole family; the oracle only the first
        # five generators, so it may miss members needing a later index
        if fast:
            sols = _sqden_solutions(q, Budget())
            assert all(sum(family_generator("sqden", n) * m for n, m in sol.items()) == q
                       for sol in sols)
        if slow:
            assert fast, f"pruned search missed the member {q}"
            agreed += 1
        checked += 1
    assert agreed > 5


def test_sqden_solutions_within_truncation_match_oracle_set():
    # for targets whose candidates stay inside the truncation, the two
    # routes must produce identical solution sets, not just membership
    import itertools

    gens = [family_generator("sqden", n) for n in range(1, 5)]

    def oracle_solutions(target):
        # bounded complete enumeration over the four generators
        tops = [int(target // g) for g in gens]
        out = []
        for mults in itertools.product(*(range(t + 1) for t in tops)):
            if sum(m * g for m, g in zip(mults, gens)) == target:
                out.append({n + 1: m for n, m in enumerate(mults) if m})
        return sorted(out, key=lambda s: sorted(s.items()))

    for q in (F(3, 4), F(3, 2), F(9, 4), F(4, 9), F(31, 36), F(43, 36), F(2), F(25, 12)):
        pruned = _sqden_solutions(q, Budget())
        # all candidate indices for these targets lie within the truncation
        assert all(max(sol, default=0) <= 4 for sol in pruned)
        assert sorted(pruned, key=lambda s: sorted(s.items())) == oracle_solutions(q)


def test_sqden_solutions_with_many_copies_sum_to_their_target():
    # these solutions take p^2 or more copies at several indices, so a
    # multiplicity left over from a finished branch would change the sum
    for q in (F(6), F(15, 2), F(8)):
        sols = _sqden_solutions(q, Budget())
        assert len(sols) > 1
        assert all(sum(family_generator("sqden", n) * m for n, m in sol.items()) == q for sol in sols)


# targets q <= 4 whose denominators are built from 2, 3, 5, 7 with exponents
# <= 2: any such rational (mostly not a member), or a sum of the first four
# generators (always one)
_SQDEN_TARGETS = st.one_of(
    st.tuples(*[st.integers(0, 2)] * 4).map(
        lambda e: 2**e[0] * 3**e[1] * 5**e[2] * 7**e[3]).flatmap(
        lambda den: st.integers(1, 4 * den).map(lambda num: F(num, den))),
    st.tuples(*[st.integers(0, 4)] * 4).map(
        lambda ms: sum(m * F(p + 1, p * p) for m, p in zip(ms, (2, 3, 5, 7)))).filter(
        lambda q: 0 < q <= 4),
)


def _solution_set(sols):
    return {tuple(sorted(sol.items())) for sol in sols}


@settings(max_examples=40, deadline=None)
@given(_SQDEN_TARGETS)
def test_sqden_search_matches_product_enumeration(q):
    sols = _sqden_solutions(q, Budget())
    assert len(_solution_set(sols)) == len(sols)
    assert _solution_set(sols) == _solution_set(oracle_sqden_solutions(q))


@pytest.mark.parametrize("q", [F(3, 2), F(7, 4), F(31, 36), F(154, 225), F(83, 49), F(27, 8), F(9, 8)])
def test_sqden_search_ends_at_a_denominator_exponent_above_2(q):
    # a denominator exponent above 2 (27/8, 9/8) cannot be absorbed and ends
    # the search at its root; squares and single primes are cleared
    sols = _sqden_solutions(q, Budget())
    assert _solution_set(sols) == _solution_set(oracle_sqden_solutions(q))


@settings(max_examples=40, deadline=None)
@given(_SQDEN_TARGETS, st.sampled_from(["sqden", "interval1_sqden"]))
@example(F(15, 2), "sqden")
@example(F(15, 2), "interval1_sqden")
def test_interval1_sqden_factorizations_match_product_enumeration(q, kind):
    # copies of 1 (in the sum only) plus a sqden solution of the rest, every
    # part an atom of the sum: 1 iff it has no sqden solution, a generator iff
    # it has only itself
    def is_atom(a):
        return len(oracle_sqden_solutions(a)) == (0 if a == 1 else 1)

    expected = []
    for copies in range(int(q) + 1 if kind == "interval1_sqden" else 1):
        rest = q - copies
        for sol in oracle_sqden_solutions(rest) if rest else [{}]:
            parts = {family_generator("sqden", n): m for n, m in sol.items()}
            if copies:
                parts[F(1)] = copies
            if all(is_atom(a) for a in parts):
                expected.append(frozenset(parts.items()))
    zs = family_factorizations(kind, q)
    assert {frozenset(z.parts) for z in zs} == set(expected)
    assert len(zs) == len(expected)
    # canonical order: the parts compared largest atom first
    assert list(zs) == sorted(zs, key=lambda z: z.parts[::-1])


# targets q <= 8 whose denominators are built from primes <= 41, exponents
# <= 3: factoring them and looking up their primes' indices is free, so a
# query's units are its search nodes alone
_FREE_DENOMINATORS = st.lists(
    st.tuples(st.sampled_from((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)), st.integers(1, 3)),
    max_size=3).map(lambda pes: math.prod(p**e for p, e in dict(pes).items())).filter(
    lambda den: den <= 10**4)


@settings(max_examples=60, deadline=None)
@given(_FREE_DENOMINATORS.flatmap(lambda den: st.integers(1, 8 * den).map(lambda num: F(num, den))))
@example(F(9, 8))
@example(F(6))
@example(F(15, 2))
@example(F(1010, 41**2) + 3)
def test_copies_of_one_spend_what_separate_sqden_searches_spend(q):
    # interval1 + sqden searches its copies c = 0..floor(q) of 1 under one
    # set-up; each root must cost what Z(q - c) in sqden costs on its own
    # budget, and give its factorizations with c copies of 1 added
    meter = Budget(10**9)
    zs = family_factorizations("interval1_sqden", q, budget=meter)
    units, expected = 0, []
    for c in range(int(q) + 1):
        own = Budget(10**9)
        rest = family_factorizations("sqden", q - c, budget=own)
        units += 10**9 - own.left
        expected += [z.parts + ((F(1), c),) if c else z.parts for z in rest]
    assert 10**9 - meter.left == units
    assert [z.parts for z in zs] == expected


@pytest.mark.parametrize("kind", ["sqden", "interval1_sqden"])
def test_sqden_factorizations_come_in_canonical_order(kind):
    # targets with many factorizations, several of them using p^2 copies
    for q in (F(6), F(15, 2), F(8)):
        zs = family_factorizations(kind, q)
        assert len(zs) > 1
        assert list(zs) == sorted(set(zs), key=lambda z: z.parts[::-1])


def _oracle_set(atoms, q, ell=None):
    """Multiplicity vectors over atoms summing to q (with ell parts, if
    given), by product enumeration over the atoms integerized here."""
    scale = math.lcm(*(a.denominator for a in atoms))
    t = q * scale
    if t.denominator != 1:
        return []
    vectors = oracle_vectors([int(a * scale) for a in atoms], int(t))
    return [xs for xs in vectors if ell is None or sum(xs) == ell]


def _as_vectors(zs, atoms):
    assert all(a in atoms for z in zs for a, _ in z.parts)
    return sorted(tuple(z.multiplicity(a) for a in atoms) for z in zs)


@pytest.mark.parametrize("window", [1, 2, 3])
def test_exaexb_windowed_sets_match_product_enumeration(window):
    atoms = sorted([family_generator("exA", i) for i in range(1, window + 1)]
                   + [family_generator("exB", i) for i in range(1, window + 1)])
    # 7/3: the denominator 3 divides no atom's, so the set is empty
    for q in (F(1), F(2), F(12, 5), F(8, 5), F(13, 7), F(24, 7), F(3), F(7, 3)):
        zs = family_factorizations("exAexB", q, window=window)
        assert _as_vectors(zs, atoms) == _oracle_set(atoms, q)
    assert len(family_factorizations("exAexB", F(7, 3), window=window)) == 0


@st.composite
def _exaexb_targets(draw):
    window = draw(st.integers(1, 7))
    # 25 is a square of a window prime, never cleared; the first prime past
    # the window divides no atom's denominator
    past = oracle_primes_from(5, window + 1)[-1]
    den = draw(st.sampled_from([1, 5, 7, 11, 35, 25, past]))
    # a target q needs up to 5q/4 parts: fewer atoms admit larger targets,
    # up to 12, the least with two factorizations that differ only in
    # their parts (p-1)/p (15·4/5 and 14·6/7)
    top = {1: 12, 2: 12, 3: 8}.get(window, 5)
    return F(draw(st.integers(0, top * den)), den), window


@given(case=_exaexb_targets())
@settings(max_examples=150, deadline=None)
@example(case=(F(0), 3))
@example(case=(F(4), 7))
@example(case=(F(12, 11), 7))
@example(case=(F(24, 7), 2))
@example(case=(F(172, 35), 7))
@example(case=(F(12, 25), 7))
@example(case=(F(14, 13), 3))
@example(case=(F(8), 3))
@example(case=(F(12), 2))
@example(case=(F(24, 5), 2))
def test_exaexb_search_lists_the_product_enumeration_in_order(case):
    q, window = case
    zs = family_factorizations("exAexB", q, window=window)
    assert [z.parts for z in zs] == oracle_exaexb_factorizations(q, window)


@given(case=_exaexb_targets(), ell=st.integers(1, 16))
@settings(max_examples=100, deadline=None)
@example(case=(F(4), 7), ell=4)
@example(case=(F(12), 2), ell=14)
def test_exaexb_length_slice_is_the_factorization_set_cut_to_it(case, ell):
    q, window = case
    m = family("exAexB", window=window)
    assert m.factorizations_of_length(q, ell).items == tuple(z for z in m.factorizations(q) if z.length == ell)


@pytest.mark.parametrize("q, ell, den_bound", [
    (F(3), 2, 1), (F(3), 2, 2), (F(3), 2, 3), (F(3), 2, 4), (F(2), 2, 4),
    (F(5, 2), 2, 3), (F(7, 2), 3, 3), (F(4), 3, 3), (F(1), 1, 3),
])
def test_interval_length_samples_match_product_enumeration(q, ell, den_bound):
    # the sample's atoms: the points of [1, 2) at offset j/d from q/ell, d <= den_bound
    center = q / ell
    atoms = sorted({center + F(j, d) for d in range(1, den_bound + 1)
                    for j in range(-2 * d, 2 * d + 1) if 1 <= center + F(j, d) < 2})
    zs = interval_length_factorizations(q, ell, den_bound)
    assert _as_vectors(zs, atoms) == _oracle_set(atoms, q, ell)


@given(q=st.builds(F, st.integers(1, 42), st.integers(1, 6)).filter(lambda q: q >= 1),
       ell=st.integers(1, 3), den_bound=st.integers(1, 7))
@settings(max_examples=150, deadline=None)
def test_interval_samples_match_length_enumeration_in_emitted_order(q, ell, den_bound):
    # the Fraction grid: every j/d, d <= den_bound, with q/ell + j/d in [1, 2)
    center = q / ell
    atoms = sorted({center + F(j, d) for d in range(1, den_bound + 1)
                    for j in range(math.floor((1 - center) * d), math.ceil((2 - center) * d) + 1)
                    if 1 <= center + F(j, d) < 2})
    # products of ell parts: up to 28 atoms put the full product of
    # _oracle_set out of reach; canonical order puts the largest atom's
    # multiplicity first
    want = sorted((tuple(parts.count(i) for i in range(len(atoms)))
                   for parts in itertools.combinations_with_replacement(range(len(atoms)), ell)
                   if sum(atoms[i] for i in parts) == q), key=lambda xs: xs[::-1])
    zs = interval_length_factorizations(q, ell, den_bound)
    assert [tuple(z.multiplicity(a) for a in atoms) for z in zs] == want


def test_lengths_length_slices_and_classify_counts_match_product_enumeration():
    # L, Zl at lengths 1-4 (the kernel's last part is a lookup) and the
    # factorization counts behind classify's evidence, on small random
    # monoids with rational generators; the atoms and every set come from
    # product enumeration over generators integerized here
    rng = random.Random(53)
    for _ in range(30):
        gens = {F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(rng.randint(2, 3))}
        m = FgMonoid(gens)
        scale = math.lcm(*(g.denominator for g in gens))
        atoms = oracle_atoms(sorted(int(g * scale) for g in gens))
        limit = max(30, 10 * atoms[0])
        buckets = oracle_value_buckets(atoms, limit)
        for t in sorted(buckets):
            q = F(t, scale)
            vectors = buckets[t]
            assert m.lengths(q).lengths == tuple(sorted({sum(xs) for xs in vectors}))
            for ell in range(1, 5):
                # canonical order: multiplicity vectors over the atoms, largest first
                want = sorted((xs for xs in vectors if sum(xs) == ell), key=lambda xs: xs[::-1])
                assert [z.parts for z in m.factorizations_of_length(q, ell)] == [
                    tuple((F(a, scale), x) for a, x in zip(atoms, xs) if x) for xs in want
                ]
        evidence = m.classify()["evidence"]
        members = sorted(t for t in buckets if t)[:10]
        assert evidence["sampled_members"] == [str(F(t, scale)) for t in members]
        assert evidence["factorization_counts"] == [len(buckets[t]) for t in members]


def test_extension_mcd_belongs_to_the_full_mcd_set():
    # the inductive construction and the divisor-lattice enumeration are
    # independent routes; the constructed value must appear in the full set
    rng = random.Random(37)
    for m, r in random_extension_instances(seed=41, count=40):
        s = add_cyclic(m, r).monoid
        x, y = random_member(rng, s, 3), random_member(rng, s, 3)
        d = mcd_via_extension(m, r, x, y)
        assert d in s.mcd_set(x, y)


def test_divisor_sets_match_product_enumeration():
    # membership from product enumeration up to a bound decides every
    # divisor, common divisor and r-multiple below that bound
    rng = random.Random(11)
    several_maximal = 0
    for _ in range(25):
        gens = sorted({F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(rng.randint(2, 3))})
        scale = math.lcm(*(g.denominator for g in gens))
        reach = set(oracle_value_buckets([int(g * scale) for g in gens], 48))
        m = FgMonoid(gens)
        members = rng.sample(sorted(reach), 4)

        def divisors(t):
            return {d for d in reach if d <= t and t - d in reach}

        for t in members:
            assert m.divisors(F(t, scale)) == tuple(F(d, scale) for d in sorted(divisors(t)))
        for tx, ty in itertools.combinations(members, 2):
            common = divisors(tx) & divisors(ty)
            maximal = [d for d in sorted(common) if not any(e > d and e - d in reach for e in common)]
            assert m.mcd_set(F(tx, scale), F(ty, scale)) == tuple(F(d, scale) for d in maximal)
            several_maximal += len(maximal) > 1
        for t in members:
            r = F(rng.randint(1, 9), rng.randint(1, 6))
            x = F(t, scale)
            expected = max(k for k in range(int(x / r) + 1)
                           if ((x - k * r) * scale).denominator == 1 and (x - k * r) * scale in reach)
            assert max_cyclic_divisor(m, x, r) == expected
    assert several_maximal  # the sets checked include ones with several maximal elements


@pytest.mark.parametrize("path", ["table at construction", "table on a far query", "bitmask only"])
def test_membership_and_atoms_match_product_enumeration(path):
    # the same answers whichever structure gives them: an Apéry table taken
    # at construction (a huge multiple of the smallest generator makes the
    # bitmask up to it dearer), one each far query builds for itself, or the
    # bitmask alone; below the bound, product enumeration decides
    # membership, and far above it a target is a member iff the gcd of the
    # scaled generators divides it
    rng = random.Random(23)
    checked = 0
    while checked < 25:
        gens = sorted({F(rng.randint(5, 12), rng.randint(1, 6)) for _ in range(rng.randint(2, 3))})
        scale = math.lcm(*(g.denominator for g in gens))
        ints = [int(g * scale) for g in gens]
        if len(ints) < 2 or ints[0] < 5:
            continue  # the bitmask stays the cheaper structure only from two generators and a >= 5
        checked += 1
        bound = 2 * ints[-1]
        reach = set(oracle_value_buckets(ints, bound))
        far = [10**8 * scale + j for j in range(ints[0] + 1)]
        m = FgMonoid(gens + [10**6 * gens[0]] if path == "table at construction" else gens)
        assert (m._table is not None) == (path == "table at construction")
        if path == "table on a far query":
            m.contains(F(far[0], scale))
            assert m._table is None
        assert m.atoms == tuple(F(a, scale) for a in oracle_atoms(ints))
        assert [m.contains(F(t, scale)) for t in range(bound + 1)] == [t in reach for t in range(bound + 1)]
        assert not m.contains(F(2 * ints[0] + 1, 2 * scale))
        if path != "bitmask only":
            g = math.gcd(*ints)
            assert [m.contains(F(t, scale)) for t in far] == [t % g == 0 for t in far]
        assert (m._table is None) == (path != "table at construction")



_lattice_points = st.lists(st.builds(LatticePoint, st.integers(-7, 7), st.integers(-7, 7)), max_size=12)


@given(a_points=_lattice_points, b_points=_lattice_points, bound=st.integers(0, 16))
@settings(max_examples=300, deadline=None)
def test_bitmask_sumset_matches_pairwise_sums(a_points, b_points, bound):
    # two independent sets with negative coordinates, each point a run of
    # one; bounds both below and above the largest coordinate sum (14) cut
    # the read-back box
    want = {
        (a.x + b.x, a.y + b.y)
        for a in a_points for b in b_points
        if abs(a.x + b.x) <= bound and abs(a.y + b.y) <= bound
    }
    runs = [[(x, y, 1) for x, y in points] for points in (a_points, b_points)]
    assert set(_points(_sumset(*runs, 7), bound, 7)) == want


@pytest.mark.parametrize("bound", range(1, 9))
def test_lattice_box_searches_match_pairwise_search(bound):
    for kind in LATTICE_KINDS:
        assert lat_atoms_in_box(kind, bound) == tuple(oracle_lattice_atoms(kind, bound))
    assert lex_sum_check(bound) == oracle_lex_sum_matches(bound)


@pytest.mark.parametrize("kind", LATTICE_KINDS)
def test_pruned_lattice_factorizations_match_product_enumeration(kind):
    # every part either raises y by at least one or is an x-axis atom, which
    # has x >= 1 and occurs only beside parts with x >= 0, so a factorization
    # of (x, y) has at most y + max(x, 0) parts
    for bound in (2, 4, 6, 8):
        atoms = lat_atoms_in_box(kind, bound)
        for x in (-3, -1, 0, 2):
            for y in range(4):
                if not lat_contains(kind, (x, y)):
                    continue
                want = oracle_lattice_factorizations(atoms, (x, y), y + max(x, 0))
                assert lat_factorizations_in_box(kind, (x, y), bound) == tuple(want)


@pytest.mark.parametrize("pair, extra", [
    ((LatticePoint(1, 1), LatticePoint(2, 2)), LatticePoint(3, 1)),
    ((LatticePoint(0, 1), LatticePoint(0, 2)), LatticePoint(1, 0)),
    ((LatticePoint(1, 0), LatticePoint(2, 0)), LatticePoint(2, 1)),
])
def test_parallel_last_pairs_match_product_enumeration(pair, extra):
    # det = 0 for the two lowest atoms, so Cramer's rule cannot solve them;
    # the extra atom sorts after them
    for atoms in (pair, (*pair, extra)):
        for x in range(-2, 8):
            for y in range(5):
                want = oracle_lattice_factorizations(atoms, (x, y), y + max(x, 0))
                assert lat_factorizations_over(atoms, (x, y), Budget()) == tuple(want)


# atom sets shaped like the upper half-plane's (every y >= 1, any x) or the
# quadrant's (nonnegative coordinates), the two shapes of the box searches
_lifted_atoms = st.sets(st.builds(LatticePoint, st.integers(-3, 3), st.integers(1, 3)),
                        min_size=1, max_size=5)
_quadrant_atoms = st.sets(st.builds(LatticePoint, st.integers(0, 3), st.integers(0, 3)),
                          min_size=1, max_size=5).map(lambda atoms: atoms - {(0, 0)}).filter(bool)


@given(atoms=_lifted_atoms | _quadrant_atoms,
       v=st.builds(LatticePoint, st.integers(-6, 6), st.integers(0, 5)))
@settings(max_examples=300, deadline=None)
def test_pruned_factorizations_of_generated_atoms_match_product_enumeration(atoms, v):
    atoms = tuple(sorted(atoms))
    want = oracle_lattice_factorizations(atoms, v, v.y + max(v.x, 0))
    assert lat_factorizations_over(atoms, v, Budget()) == tuple(want)


# atoms with x < 0 above the x-axis beside x-axis atoms with x > 0, which the
# factorization search serves although no box search meets them
_left_atoms = st.sets(st.builds(LatticePoint, st.integers(-9, -1), st.integers(1, 3)), min_size=1, max_size=2)
_axis_atoms = st.sets(st.builds(LatticePoint, st.integers(1, 4), st.just(0)), min_size=1, max_size=2)


@given(atoms=st.builds(set.union, _left_atoms, _axis_atoms),
       v=st.builds(LatticePoint, st.integers(-10, 10), st.integers(-1, 4)))
@example(atoms={LatticePoint(-9, 3), LatticePoint(1, 0), LatticePoint(2, 0)}, v=LatticePoint(2, 3))
@settings(max_examples=200, deadline=None)
def test_factorizations_of_atoms_left_of_and_on_the_x_axis_match_product_enumeration(atoms, v):
    # the part bound: with k = max(0, ceil(-x / y) over the atoms with y >= 1),
    # phi(x, y) = x + (k + 1) y is additive, and on every atom phi >= 1: for
    # y >= 1, k y >= -x gives phi >= y >= 1, and for y = 0, phi = x >= 1; so a
    # factorization of v has at most phi(v) parts, and none if phi(v) < 0.
    # (2,3) over (-9,3), (1,0), (2,0) has one of 12 parts; y + max(x, 0) is 5
    k = max([0, *[-(x // y) for x, y in atoms if y]])
    atoms = tuple(sorted(atoms))
    want = oracle_lattice_factorizations(atoms, v, max(0, v.x + (k + 1) * v.y))
    assert lat_factorizations_over(atoms, v, Budget()) == tuple(want)


# atoms of one height h, the sets sent to the integer kernel: a target of
# height not divisible by h, the origin, one whose shifted target
# x + (y / h) (1 - x_0) is at most 0, and one below the x-axis
@given(h=st.integers(1, 3), xs=st.sets(st.integers(-5, 5), min_size=1, max_size=5),
       v=st.builds(LatticePoint, st.integers(-20, 20), st.integers(-1, 12)))
@example(h=2, xs={0, 1, 2}, v=LatticePoint(1, 3))
@example(h=2, xs={-1, 3}, v=LatticePoint(0, 0))
@example(h=1, xs={2, 5}, v=LatticePoint(-4, 2))
@example(h=1, xs={2}, v=LatticePoint(-2, -1))
@settings(max_examples=300, deadline=None)
def test_one_height_factorizations_match_product_enumeration(h, xs, v):
    atoms = tuple(LatticePoint(x, h) for x in sorted(xs))
    want = oracle_lattice_factorizations(atoms, v, max(v.y, 0))
    assert lat_factorizations_over(atoms, v, Budget()) == tuple(want)


# small rationals, and literals of up to ~5,000 digits (no longer than the
# int-string digit limit lets the printer write), far past any bitmask's reach
_DIGITS = min(5000, getattr(sys, "get_int_max_str_digits", lambda: 0)() or 5000)
_long = st.integers(1, 10**_DIGITS - 1)
_rat = (st.fractions(min_value=F(1, 12), max_value=8, max_denominator=12)
        | st.builds(F, _long, st.integers(1, 12) | _long))

_leaves = st.one_of(
    st.builds(FgLiteral, st.tuples(_rat) | st.tuples(_rat, _rat)),
    st.builds(Ident, st.sampled_from(["M", "N", "S1", "total"])),
    st.builds(
        Family,
        st.sampled_from(["grams", "exA", "sqden", "interval1", "exAexB"]),
        st.one_of(
            st.just(()),
            st.tuples(st.tuples(st.just("K"), st.integers(1, 9))),
            st.tuples(st.tuples(st.just("window"), st.integers(1, 9))),
        ),
    ),
)


def _fold_sum(terms):
    node = terms[0]
    for term in terms[1:]:
        node = Sum(node, term)
    return node


# the grammar has no parentheses, so printable sums are exactly the
# left-associated ones the parser itself produces
_mexprs = st.lists(_leaves, min_size=1, max_size=3).map(_fold_sum)

_stmts = st.one_of(
    st.builds(Let, st.sampled_from(["M", "N", "S1", "total"]), _mexprs),
    st.builds(Query, st.sampled_from(["atoms", "props"]), _mexprs, st.just(())),
    st.builds(
        Query, st.sampled_from(["Z", "L", "member"]), _mexprs, st.tuples(_rat)
    ),
    st.builds(Query, st.just("Zl"), _mexprs, st.tuples(_rat, st.integers(1, 9))),
    st.builds(
        Query, st.sampled_from(["mcd", "divides"]), _mexprs, st.tuples(_rat, _rat)
    ),
)


@given(stmts=st.lists(_stmts, min_size=1, max_size=5))
@settings(max_examples=300, deadline=None)
def test_printer_parser_round_trip_on_generated_trees(stmts):
    text = print_program(stmts)
    assert parse(text) == stmts
    assert print_program(parse(text)) == text


@given(stmts=st.lists(_stmts, min_size=1, max_size=5))
@settings(max_examples=300, deadline=None)
# 22,149 common divisors: a pairwise maximality scan over them took > 5 s
@example(stmts=[Query("mcd", Family("grams", (("K", 4),)), (Fraction(13, 6), Fraction(11, 6)))])
def test_generated_programs_end_in_a_documented_exit_code(stmts):
    # 0 success, 2 usage or input error, 3 budget exhausted; never a
    # traceback, and never a run that outlasts its budget
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(["eval", "--budget", "20000", print_program(stmts)])
    assert time.perf_counter() - start < 5
    assert code in (0, 2, 3)
