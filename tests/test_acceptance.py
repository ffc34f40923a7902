"""Acceptance gate: one test per criterion, each printed as a pass/fail line.

Every check is exact (no numeric tolerances exist anywhere); the only stated
tolerances are wall-clock bounds, asserted where the criterion gives one.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import itertools
import random
import time
from fractions import Fraction

from conftest import (
    oracle_atoms,
    oracle_fraction_member,
    oracle_value_buckets,
    random_extension_instances,
    random_member,
)
from puiseux import (
    FgMonoid,
    add_cyclic,
    antimatter_witness,
    divisor_candidates,
    family_factorizations,
    family_generator,
    family_member,
    grams_companion,
    interval_length_factorizations,
    lat_atomic_elements_in_box,
    lat_atoms_in_box,
    lex_sum_check,
    max_cyclic_divisor,
    mcd_via_extension,
    parse,
    print_program,
    refactor_atom,
    truncate,
)
from puiseux.cli import main as cli_main
from puiseux.families import family_prime
from puiseux.lattice2 import LatticePoint
from test_dsl import ROUND_TRIP_CORPUS

F = Fraction


def _done(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


def test_criterion_01_fg_core_oracle_equivalence():
    started = time.perf_counter()
    limit = 60
    pool = range(2, 13)
    checked = 0
    for size in (1, 2, 3):
        for gens in itertools.combinations(pool, size):
            m = FgMonoid(gens)
            assert [int(a) for a in m.atoms] == oracle_atoms(list(gens))
            atom_buckets = oracle_value_buckets(list(m.int_atoms), limit)
            gen_buckets = oracle_value_buckets(list(gens), limit)
            members = sorted(gen_buckets)
            assert members == sorted(atom_buckets)
            for q in range(limit + 1):
                assert m.contains(q) == (q in gen_buckets)
            for q in members:
                zs = m.factorizations(q)
                got = sorted(tuple(z.multiplicity(a) for a in m.atoms) for z in zs)
                assert got == sorted(atom_buckets[q])
                expected_lengths = sorted({sum(xs) for xs in atom_buckets[q]})
                assert list(m.lengths(q).lengths) == expected_lengths
                for ell in expected_lengths + [max(expected_lengths) + 1]:
                    zl = m.factorizations_of_length(q, ell) if ell else None
                    want = sorted(xs for xs in atom_buckets[q] if sum(xs) == ell)
                    if ell:
                        got_l = sorted(
                            tuple(z.multiplicity(a) for a in m.atoms) for z in zl
                        )
                        assert got_l == want
                divisors = tuple(
                    F(d) for d in range(q + 1) if d in gen_buckets and (q - d) in gen_buckets
                )
                assert m.divisors(q) == divisors
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _done(1, f"oracle equivalence on 231 monoids, {checked} members, {elapsed:.1f}s < 10s")


def test_criterion_02_baseline_sum():
    s = FgMonoid([2]).internal_sum(FgMonoid([3]))
    assert s.atoms == (F(2), F(3))
    assert not s.contains(1)
    assert all(s.contains(n) for n in (0, 2, 3, 4, 5, 6, 7))
    _done(2, "sum of the cyclic monoids on 2 and 3 is the naturals without 1")


def test_criterion_03_atom_refactorization_suite():
    started = time.perf_counter()
    instances = random_extension_instances(seed=20817, count=100)
    assert len(instances) == 100
    refactored = 0
    for m, r in instances:
        s = add_cyclic(m, r).monoid
        s_atoms = set(s.atoms)
        for a in m.atoms:
            z = refactor_atom(m, r, a)
            assert z.value == a
            assert all(atom in s_atoms for atom, _ in z.parts)
            assert z.multiplicity(r) == max_cyclic_divisor(s, a, r)
            refactored += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _done(3, f"{refactored} atom refactorizations over 100 instances, {elapsed:.1f}s < 30s")


def test_criterion_04_mcd_cross_validation():
    rng = random.Random(20817)
    for m, r in random_extension_instances(seed=20817, count=100):
        s = add_cyclic(m, r).monoid
        x, y = random_member(rng, s, 4), random_member(rng, s, 4)
        d = mcd_via_extension(m, r, x, y)
        assert s.is_mcd(x, y, d)
        bx, by = random_member(rng, m, 4), random_member(rng, m, 4)
        for d_base in m.mcd_set(bx, by):
            assert m.is_mcd(bx, by, d_base)
    _done(4, "extension MCDs and base MCD sets all satisfy the definitional predicate")


def test_criterion_05_offset_decomposition():
    rng = random.Random(4242)
    for m, r in random_extension_instances(seed=4242, count=100):
        s = add_cyclic(m, r).monoid
        target = random_member(rng, s)
        assert factorizations_via_offsets_equal(m, r, s, target)
    _done(5, "offset-assembled factorization sets equal direct enumeration, 100 instances")


def factorizations_via_offsets_equal(m, r, s, target):
    from puiseux import factorizations_via_offsets

    return factorizations_via_offsets(m, r, target) == s.factorizations(target)


def test_criterion_06_grams_truncations_atomic():
    for k in range(1, 7):
        trunc = truncate("grams", k)
        assert len(trunc.generators) == k
        assert trunc.atoms == trunc.generators
    _done(6, "grams truncations K=1..6 keep every generator irreducible")


def test_criterion_07_antimatter_witnesses():
    for n in (1, 2, 3):
        w = antimatter_witness(n)
        assert w.holds()
        seq = grams_companion(n, 3)
        a_n = family_generator("grams", n)
        assert w.target == a_n
        assert w.parts[0][1] == seq.b[0]
        for k in (1, 2):
            wb = antimatter_witness(n, k)
            assert wb.holds()
            assert wb.target == seq.b[k - 1]
            c = seq.c[k - 1]
            assert F(1, 2**c) == wb.parts[1][1]
            # the grams certificate: p_c copies of a_c give exactly 1/2^c
            assert family_prime("grams", c) * family_generator("grams", c) == F(1, 2**c)
    assert 11 * F(1, 176) == F(1, 16)
    _done(7, "witness identities for n<=3, depth<=3 hold with exact arithmetic")


def test_criterion_08_exaexb_window_counts():
    counts = []
    for window in range(1, 11):
        zs = family_factorizations("exAexB", 2, window=window)
        counts.append(sum(1 for z in zs if z.length == 2))
    assert counts == list(range(1, 11))
    assert all(a < b for a, b in zip(counts, counts[1:]))
    _done(8, f"length-2 factorizations of 2 count the window exactly: {counts}")


def test_criterion_09_nonatomic_element():
    started = time.perf_counter()
    assert family_member("interval1_sqden", F(9, 8))
    assert len(family_factorizations("interval1_sqden", F(9, 8))) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _done(9, f"9/8 is a member with empty factorization set, {elapsed * 1000:.0f}ms < 1s")


def test_criterion_10_interval_monoid_growth():
    pairs = interval_length_factorizations(3, 2, 12)
    for n in range(3, 13):
        expected = {F(3, 2) - F(1, n): 1, F(3, 2) + F(1, n): 1}
        assert any(dict(z.parts) == expected for z in pairs)
    counts = [len(interval_length_factorizations(3, 2, d)) for d in (4, 8, 12)]
    assert counts[0] < counts[1] < counts[2]
    _done(10, f"all ten canonical splits of 3 found; counts {counts} grow with the bound")


def test_criterion_11_lattice_counterexamples():
    assert lex_sum_check(10)
    assert lat_atoms_in_box("lexcone", 10) == (LatticePoint(1, 0),)
    atomic = lat_atomic_elements_in_box(20)
    assert LatticePoint(0, 1) not in atomic
    assert atomic == tuple(LatticePoint(m, 0) for m in range(21))
    _done(11, "lexicographic cone: sum check, single atom, and non-atomicity at box 20")


def test_criterion_12_divisor_candidate_soundness():
    targets = [F(2), F(12, 5), F(9, 8), F(7, 4)]
    for kind in ("exB", "sqden"):
        prime_cap = 0
        while family_prime(kind, prime_cap + 1) <= 100:
            prime_cap += 1
        gens = [family_generator(kind, n) for n in range(1, prime_cap + 1)]
        for q in targets:
            keep = set(divisor_candidates(kind, q))
            for n in range(1, prime_cap + 1):
                if n in keep:
                    continue
                rest = q - gens[n - 1]
                assert rest < 0 or not oracle_fraction_member(gens, rest), (
                    f"{kind} generator {n} divides {q} but was pruned"
                )
    _done(12, "no pruned index with prime <= 100 divides any of the four targets")


def test_criterion_13_dsl_and_cli(capsys):
    for program in ROUND_TRIP_CORPUS:
        stmts = parse(program)
        assert parse(print_program(stmts)) == stmts
    for example in ("4.2", "4.3", "3.3", "3.2", "5"):
        assert cli_main(["paper", example]) == 0
        first = capsys.readouterr().out
        assert cli_main(["paper", "--json", example]) == 0
        run_a = capsys.readouterr().out
        assert cli_main(["paper", "--json", example]) == 0
        run_b = capsys.readouterr().out
        assert run_a == run_b
        assert first.strip().endswith("PASS")
    _done(13, "grammar round-trip corpus passes; all five scenarios exit 0 with stable JSON")
