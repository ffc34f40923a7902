import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
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
    FgMonoid,
    InputError,
    NotAMemberError,
    add_cyclic,
    factorizations_via_offsets,
    fg_new,
    max_cyclic_divisor,
    mcd_via_extension,
    refactor_atom,
)

F = Fraction


@pytest.fixture
def m23():
    return fg_new([2, 3])


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
def _cyclic_cases(draw):
    # generators over a shared denominator: past 64 bits each, their
    # denominators charge the scale's words
    big = draw(st.sampled_from([1, 2**64 + 1, 3**41]))
    frac = st.builds(lambda n, d: F(n, d * big), st.integers(1, 30), st.integers(1, 4))
    gens, r = draw(st.lists(frac, min_size=1, max_size=4)), draw(frac)
    assume(not oracle_fraction_member(gens, r))
    return gens, r


@given(case=_cyclic_cases())
@settings(max_examples=150, deadline=None)
def test_add_cyclic_builds_what_the_generators_build(case):
    gens, r = case
    meter, front = Budget(10**6), Budget(10**6)
    s = add_cyclic(FgMonoid(gens), r, meter).monoid
    m = FgMonoid(gens)
    m.contains(r, front)
    t = FgMonoid(m.generators + (r,), front)
    assert (s.generators, s.int_gens, s.atoms, s.scale) == (t.generators, t.int_gens, t.atoms, t.scale)
    assert (s._table is None, s._state[0]) == (t._table is None, t._state[0])
    assert meter.left == front.left


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
