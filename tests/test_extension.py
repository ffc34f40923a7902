import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_atoms,
    oracle_common_divisors,
    oracle_extension_tables,
    oracle_fraction_member,
    oracle_mcd_via_extension,
    oracle_r_multiple,
    oracle_value_buckets,
    oracle_vectors,
    random_extension_instances,
    random_member,
)
from puiseux import (
    Budget,
    BudgetExceededError,
    FgMonoid,
    InputError,
    NotAMemberError,
    add_cyclic,
    factorizations_via_offsets,
    max_cyclic_divisor,
    mcd_via_extension,
    refactor_atom,
)

F = Fraction
_big = 2**64 + 1


@pytest.fixture
def m23():
    return FgMonoid([2, 3])


def test_add_cyclic(m23):
    ext = add_cyclic(m23, F(1, 2))
    assert ext.monoid.atoms == (F(1, 2),)
    assert not ext.r_in_base

    ext = add_cyclic(m23, F(3, 4))
    assert ext.monoid.atoms == (F(3, 4), F(2))

    unchanged = add_cyclic(m23, 2)
    assert unchanged.r_in_base
    assert unchanged.monoid is m23

    with pytest.raises(InputError):
        add_cyclic(m23, 0)


@st.composite
def _cyclic_cases(draw, count=1, outside=True):
    # generators over a shared denominator: past 64 bits each, their
    # denominators charge the scale's words; then count distinct r, outside M
    # unless outside is False
    big = draw(st.sampled_from([1, 2**64 + 1, 3**41]))
    frac = st.builds(lambda n, d: F(n, d * big), st.integers(1, 30), st.integers(1, 4))
    gens = draw(st.lists(frac, min_size=1, max_size=4))
    rs = draw(st.lists(frac, min_size=count, max_size=count, unique=True))
    assume(not outside or not any(oracle_fraction_member(gens, r) for r in rs))
    return gens, *rs


@given(case=_cyclic_cases(outside=False))
# r inside M, and r one of M's generators
@example(case=([F(2), F(3)], F(7)))
@example(case=([F(2, _big), F(3, _big)], F(3, _big)))
@settings(max_examples=150, deadline=None)
def test_add_cyclic_builds_what_the_generators_build(case):
    # add_cyclic charges what FgMonoid(M.generators + (r,)) charges, and that
    # monoid is M itself exactly when r lies in M
    gens, r = case
    meter, front = Budget(10**6), Budget(10**6)
    m = FgMonoid(gens)
    ext = add_cyclic(m, r, meter)
    t = FgMonoid(m.generators + (r,), front)
    assert meter.left == front.left
    if oracle_fraction_member(gens, r):
        assert ext.r_in_base and ext.monoid is m and t == m
        return
    s = ext.monoid
    assert not ext.r_in_base and r in s.atoms
    assert (s.generators, s.int_gens, s.atoms, s.scale) == (t.generators, t.int_gens, t.atoms, t.scale)
    assert (s._table is None, s._state[0]) == (t._table is None, t._state[0])


def _outcome(build, limit):
    """The monoid build(Budget(limit)) returns, or BudgetExceededError, and
    what is left of the budget either way."""
    budget = Budget(limit)
    try:
        return build(budget), budget.left
    except BudgetExceededError:
        return BudgetExceededError, budget.left


def _fields(s):
    # the Apéry table or None, and the first cover
    return s.generators, s.int_gens, s.atoms, s.scale, s._table, s._state


def _fresh(m, r):
    return lambda budget: FgMonoid(m.generators + (r,), budget)


def _units(build):
    return 10**9 - _outcome(build, 10**9)[1]


@given(case=_cyclic_cases(count=2),
       slack=st.lists(st.none() | st.integers(-2, 2), min_size=4, max_size=4),
       grow=st.lists(st.booleans(), min_size=4, max_size=4))
# built on an unlimited budget, then reused on one that just pays or just does not
@example(case=([F(2), F(3)], F(1, 2), F(3, 4)), slack=[None, None, None, 0], grow=[True] * 4)
@example(case=([F(2), F(3)], F(1, 2), F(3, 4)), slack=[None, 2, None, -1], grow=[False, True, True, False])
@settings(max_examples=150, deadline=None)
def test_reused_extension_matches_a_fresh_build(case, slack, grow):
    # M extended by r1, r2, r1, r1, each on an unlimited budget or on one a
    # fresh build's units plus slack, so that some builds run out
    gens, r1, r2 = case
    m = FgMonoid(gens)
    for r, extra, grown in zip((r1, r2, r1, r1), slack, grow):
        limit = None if extra is None else max(1, _units(_fresh(m, r)) + extra)
        want, want_left = _outcome(_fresh(m, r), limit)
        got, got_left = _outcome(lambda budget: m._extended(r, budget), limit)
        assert got_left == want_left
        if want is BudgetExceededError:
            assert got is BudgetExceededError
            continue
        assert _fields(got) == _fields(want)
        if grown:
            # a cover this S grows is its own: the next one starts at the sieve's
            got._reach(4 * got.int_gens[-1] + 300, Budget())


@pytest.mark.parametrize("gens, r", [
    # bitset sieve, a 12-unit scale charge and nine closure steps
    ([F(20, 3 * _big), F(29, 3 * _big), F(31, 3 * _big)], F(7, 2 * _big)),
    # Apéry table: scale, allotment and one round-robin lap
    ([F(7, _big), F(100000, _big)], F(9, 2 * _big)),
])
def test_budget_exhaustion_is_unchanged_by_reuse(gens, r):
    warm = FgMonoid(gens)
    units = _units(_fresh(warm, r))
    warm._extended(r, Budget())
    for limit in range(1, units + 2):
        want = _outcome(_fresh(warm, r), limit)
        got = _outcome(lambda budget: warm._extended(r, budget), limit)
        assert (got[0] is BudgetExceededError, got[1]) == (want[0] is BudgetExceededError, want[1])
        assert (want[0] is BudgetExceededError) == (limit < units)
    for limit in range(1, units):
        cold = FgMonoid(gens)
        with pytest.raises(BudgetExceededError):
            cold._extended(r, Budget(limit))
        # a build that ran out fills no slot, so the next call builds afresh
        assert cold._extension is None
        meter = Budget(units)
        assert _fields(cold._extended(r, meter)) == _fields(_fresh(cold, r)(Budget()))
        assert meter.left == 0 and cold._extension is not None


@pytest.mark.parametrize("gens, r", [
    ([F(20, 3), F(29, 3), F(31, 3)], F(7, 2)),
    ([F(20, 3 * _big), F(29, 3 * _big), F(31, 3 * _big)], F(7, 2 * _big)),
    ([F(7, _big), F(100000, _big)], F(9, 2 * _big)),
])
def test_extension_built_unlimited_is_reused_for_a_fresh_builds_units(gens, r):
    # the slot keeps what the first build spent, though its budget had no limit
    m = FgMonoid(gens)
    units = _units(_fresh(m, r))
    first = Budget()
    s = m._extended(r, first)
    meter = Budget(10**9)
    assert m._extended(r, meter) is s
    assert first.spent == meter.spent == 10**9 - meter.left == units


def test_threads_extending_one_monoid_get_what_a_fresh_build_gets():
    m = FgMonoid([F(20, 3), F(29, 3), F(31, 3)])
    rs = (F(7, 2), F(5, 4))
    want = {r: (_fields(_fresh(m, r)(Budget())), _units(_fresh(m, r))) for r in rs}
    wrong = []

    def work(phase):
        # runs of three calls with one r, so that each thread both reuses
        # the slot and replaces what others left there
        for k in range(300):
            r = rs[(k // 3 + phase) % 2]
            meter = Budget(10**6)
            s = m._extended(r, meter)
            if (_fields(s), 10**6 - meter.left) != want[r]:
                wrong.append(r)
            s._reach(500, Budget())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        # more threads than cores, in both phases
        threads = [threading.Thread(target=work, args=(phase,)) for phase in (0, 1, 2, 3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_max_cyclic_divisor(m23):
    s = add_cyclic(m23, F(3, 4)).monoid
    assert max_cyclic_divisor(s, 3, F(3, 4)) == 4
    assert max_cyclic_divisor(s, 2, F(3, 4)) == 0
    assert max_cyclic_divisor(s, 0, F(3, 4)) == 0
    with pytest.raises(NotAMemberError):
        max_cyclic_divisor(s, F(1, 4), F(3, 4))


def test_refactor_atom(m23):
    z = refactor_atom(m23, F(3, 4), 3)
    assert dict(z.parts) == {F(3, 4): 4}

    z = refactor_atom(m23, F(3, 4), 2)
    assert dict(z.parts) == {F(2): 1}

    # r far above the atom forces multiple 0 and leaves the atom alone
    z = refactor_atom(m23, F(7, 2), 3)
    assert dict(z.parts) == {F(3): 1}


def test_refactor_atom_rejects_bad_input(m23):
    with pytest.raises(InputError):
        refactor_atom(m23, 7, 3)  # 7 = 2+2+3 already lies in the monoid
    with pytest.raises(InputError):
        refactor_atom(m23, F(3, 4), 4)  # 4 is not an atom
    # an r inside M is reported before an a that is no atom
    with pytest.raises(InputError, match="7 already lies in"):
        refactor_atom(m23, 7, 4)


def test_mcd_via_extension(m23):
    r = F(3, 4)
    assert mcd_via_extension(m23, r, 2, 4) == 2
    assert mcd_via_extension(m23, r, F(3, 4), F(3, 2)) == F(3, 4)
    assert mcd_via_extension(m23, r, 2, 3) == 0
    with pytest.raises(InputError):
        mcd_via_extension(m23, 2, 2, 4)  # r inside the base monoid
    with pytest.raises(NotAMemberError):
        mcd_via_extension(m23, r, F(1, 2), 2)


def test_mcd_via_extension_result_satisfies_predicate(m23):
    r = F(3, 4)
    s = add_cyclic(m23, r).monoid
    for x in (0, F(3, 4), 2, 3, F(15, 4), 6):
        for y in (0, F(3, 4), F(3, 2), 2, 5):
            d = mcd_via_extension(m23, r, x, y)
            assert s.is_mcd(x, y, d)


def test_factorizations_via_offsets(m23):
    r = F(3, 4)
    zs = factorizations_via_offsets(m23, r, 5)
    assert [dict(z.parts) for z in zs] == [{F(3, 4): 4, F(2): 1}]

    zs = factorizations_via_offsets(m23, r, F(3, 4))
    assert [dict(z.parts) for z in zs] == [{F(3, 4): 1}]

    zs = factorizations_via_offsets(m23, F(5, 2), 2)
    assert [dict(z.parts) for z in zs] == [{F(2): 1}]

    with pytest.raises(NotAMemberError):
        factorizations_via_offsets(m23, r, F(1, 2))
    with pytest.raises(InputError):
        factorizations_via_offsets(m23, 2, 4)


def test_offsets_visit_only_the_offsets_on_the_grid_of_m():
    # S's grid is 10^12 times finer than M's, and only c = 0 and c = 10^12
    # leave 1 - c/10^12 on it: two offsets, one unit each, beside S's
    # one-unit Apéry table and one kernel node
    budget = Budget(100)
    zs = factorizations_via_offsets(FgMonoid([3]), F(1, 10**12), 1, budget)
    assert [dict(z.parts) for z in zs] == [{F(1, 10**12): 10**12}]
    assert budget.left == 96


def test_offsets_match_direct_enumeration_randomized():
    rng = random.Random(7)
    for m, r in random_extension_instances(seed=11, count=25):
        s = add_cyclic(m, r).monoid
        target = random_member(rng, s)
        assert factorizations_via_offsets(m, r, target) == s.factorizations(target)


def test_refactor_atom_randomized():
    for m, r in random_extension_instances(seed=13, count=25):
        s = add_cyclic(m, r).monoid
        s_atoms = set(s.atoms)
        for a in m.atoms:
            z = refactor_atom(m, r, a)
            assert z.value == a
            assert all(atom in s_atoms for atom, _ in z.parts)
            assert z.multiplicity(r) == max_cyclic_divisor(s, a, r)
            for atom, _ in z.parts:
                if atom != r:
                    assert not s.divides(r, atom)


def test_mcd_randomized():
    rng = random.Random(17)
    for m, r in random_extension_instances(seed=19, count=25):
        s = add_cyclic(m, r).monoid
        x, y = random_member(rng, s, 4), random_member(rng, s, 4)
        d = mcd_via_extension(m, r, x, y)
        assert s.is_mcd(x, y, d)
        bx, by = random_member(rng, m, 4), random_member(rng, m, 4)
        for d in m.mcd_set(bx, by):
            assert m.is_mcd(bx, by, d)


def test_extension_preserves_atomicity_of_generators():
    # every generator of M + N factors over the recomputed atoms
    rng = random.Random(23)
    for _ in range(20):
        gens_m = {F(rng.randint(1, 8), rng.randint(1, 6)) for _ in range(rng.randint(1, 3))}
        gens_n = {F(rng.randint(1, 8), rng.randint(1, 6)) for _ in range(rng.randint(1, 2))}
        s = FgMonoid(gens_m) + FgMonoid(gens_n)
        for g in s.generators:
            assert len(s.factorizations(g)) >= 1


# -- the integer-grid procedures against the oracle tables -----------------------


def canonical(vectors):
    # canonical order compares vectors over the atoms in descending order
    return sorted(vectors, key=lambda v: v[::-1])


def test_mcd_via_extension_is_the_documented_construction():
    rng = random.Random(47)
    for m, r in random_extension_instances(seed=53, count=120):
        s = add_cyclic(m, r).monoid
        x, y = (random_member(rng, s, 3) + rng.randint(0, 2) * r for _ in range(2))
        assert mcd_via_extension(m, r, x, y) == oracle_mcd_via_extension(m.generators, r, x, y)


def test_refactor_atom_strips_the_oracle_r_multiple():
    for m, r in random_extension_instances(seed=59, count=120):
        scale, in_m, in_s = oracle_extension_tables(m.generators, r, max(m.generators))
        step = int(r * scale)
        m_atoms = oracle_atoms([int(g * scale) for g in m.generators])
        s_atoms = oracle_atoms(sorted([int(g * scale) for g in m.generators] + [step]))
        for a in m_atoms:
            z = refactor_atom(m, r, F(a, scale))
            k = oracle_r_multiple(in_s, a, step)
            assert z.multiplicity(r) == k
            rest = a - k * step
            assert rest in in_m
            # the remainder's factorization is the first over M's atoms in canonical order
            first = canonical(oracle_vectors(m_atoms, rest))[0]
            assert dict(z.parts) == {**{F(b, scale): n for b, n in zip(m_atoms, first) if n},
                                     **({r: k} if k else {})}
            assert all(int(p * scale) in s_atoms for p, _ in z.parts)


def test_offsets_are_the_oracle_vectors_over_the_atoms_of_s():
    rng = random.Random(61)
    for m, r in random_extension_instances(seed=67, count=120):
        target = random_member(rng, add_cyclic(m, r).monoid, 4)
        scale = math.lcm(r.denominator, *(g.denominator for g in m.generators))
        s_atoms = oracle_atoms(sorted([int(g * scale) for g in m.generators] + [int(r * scale)]))
        want = canonical(oracle_vectors(s_atoms, int(target * scale)))
        got = factorizations_via_offsets(m, r, target)
        assert [dict(z.parts) for z in got] == [
            {F(a, scale): n for a, n in zip(s_atoms, v) if n} for v in want]


def test_last_maximal_common_divisor_is_the_largest_common_divisor():
    # mcd_via_extension takes the largest common divisor in M for m.mcd_set(x, y)[-1]
    rng = random.Random(71)
    for m, _ in random_extension_instances(seed=73, count=120):
        x, y = random_member(rng, m, 4), random_member(rng, m, 4)
        scale = math.lcm(*(g.denominator for g in m.generators))
        members = set(oracle_value_buckets([int(g * scale) for g in m.generators], int(max(x, y) * scale)))
        largest = oracle_common_divisors(members, int(x * scale), int(y * scale))[-1]
        assert m.mcd_set(x, y)[-1] == F(largest, scale)
