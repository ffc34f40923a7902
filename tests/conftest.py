"""Shared brute-force oracles and instance generators.

The oracles here are deliberately independent of the library's search
paths: factorization vectors come from plain cartesian-product enumeration,
and family membership from a depth-first scan whose only pruning is the
elementary fact that a residual's denominator must divide what the
remaining generators can produce.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from puiseux import FgMonoid

try:
    from hypothesis import settings
except ImportError:  # only the modules that use Hypothesis fail to collect
    pass
else:
    # Every Hypothesis failure prints a reproduction blob, so a failure found
    # under a random seed, on any machine, can be replayed elsewhere.
    settings.register_profile("repo", print_blob=True)
    settings.load_profile("repo")


def oracle_vectors(int_gens: list[int], target: int) -> list[tuple[int, ...]]:
    """All vectors x with sum x_i * g_i == target, by product enumeration."""
    ranges = [range(target // g + 1) for g in int_gens]
    return sorted(
        xs
        for xs in itertools.product(*ranges)
        if sum(x * g for x, g in zip(xs, int_gens)) == target
    )


def oracle_member(int_gens: list[int], target: int) -> bool:
    return target == 0 or bool(oracle_vectors(int_gens, target))


def oracle_atoms(int_gens: list[int]) -> list[int]:
    """Generators that are not combinations of the other generators."""
    out = []
    for g in int_gens:
        others = [h for h in int_gens if h != g]
        if not others or not oracle_member(others, g):
            out.append(g)
    return sorted(out)


def oracle_value_buckets(int_gens: list[int], limit: int) -> dict[int, list[tuple[int, ...]]]:
    """Every vector with value <= limit, bucketed by value."""
    buckets: dict[int, list[tuple[int, ...]]] = {}
    ranges = [range(limit // g + 1) for g in int_gens]
    for xs in itertools.product(*ranges):
        v = sum(x * g for x, g in zip(xs, int_gens))
        if v <= limit:
            buckets.setdefault(v, []).append(xs)
    return buckets


def oracle_fraction_member(gens: list[Fraction], target: Fraction) -> bool:
    """Exhaustive membership over rational generators.

    Complete: branches on every multiplicity of each generator in order.
    The only prunes are nonnegativity and that the residual's denominator
    must divide the lcm of the remaining generators' denominators.
    """
    gens = list(gens)
    suffix_den = [1] * (len(gens) + 1)
    for i in range(len(gens) - 1, -1, -1):
        suffix_den[i] = math.lcm(suffix_den[i + 1], gens[i].denominator)

    def descend(i: int, rest: Fraction) -> bool:
        if rest == 0:
            return True
        if rest < 0 or i == len(gens):
            return False
        if suffix_den[i] % rest.denominator != 0:
            return False
        top = int(rest // gens[i])
        return any(descend(i + 1, rest - m * gens[i]) for m in range(top + 1))

    return descend(0, target)


def oracle_sqden_solutions(q: Fraction, min_index: int = 1) -> list[dict[int, int]]:
    """Every multiset {index: multiplicity} of the sqden generators
    (p_n + 1)/p_n^2 with n >= min_index that sums to q > 0.

    Product enumeration over the generators whose prime divides the
    denominator of q or satisfies p + 1 <= q: for any other prime the
    multiplicity must be a multiple of p^2 to clear p from the sum, and p^2
    copies are worth p + 1 > q.  Primes come from a plain sieve.
    """
    limit = max(q.denominator, int(q))
    sieve = [True] * (limit + 1)
    primes = []
    for p in range(2, limit + 1):
        if sieve[p]:
            primes.append(p)
            sieve[p * p::p] = [False] * len(range(p * p, limit + 1, p))
    index = [n for n, p in enumerate(primes, 1)
             if n >= min_index and (q.denominator % p == 0 or p + 1 <= q)]
    gens = [Fraction(primes[n - 1] + 1, primes[n - 1] ** 2) for n in index]
    scale = math.lcm(q.denominator, *(g.denominator for g in gens))
    vectors = oracle_vectors([int(g * scale) for g in gens], int(q * scale))
    return [{n: x for n, x in zip(index, xs) if x} for xs in vectors]


def oracle_primes_from(lo: int, count: int) -> list[int]:
    """The first count primes >= lo, by trial division."""
    out, n = [], lo
    while len(out) < count:
        if n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1)):
            out.append(n)
        n += 1
    return out


def oracle_exaexb_factorizations(q: Fraction, window: int) -> list[tuple[tuple[Fraction, int], ...]]:
    """Every factorization of q over the atoms (p - 1)/p and (p + 1)/p of
    the first window primes p >= 5, as ascending (atom, multiplicity) parts,
    in canonical order: multiplicity vectors compared from the largest atom
    down.  Product enumeration of every multiset of at most 5q/4 atoms,
    since no atom is below 4/5."""
    atoms = sorted(Fraction(p + s, p) for p in oracle_primes_from(5, window) for s in (-1, 1))
    scale = math.lcm(q.denominator, *(a.denominator for a in atoms))
    ints, t = [int(a * scale) for a in atoms], int(q * scale)
    vectors = []
    for n in range(int(q * 5 / 4) + 1):
        for combo in itertools.combinations_with_replacement(range(len(atoms)), n):
            if sum(ints[i] for i in combo) == t:
                vectors.append(tuple(combo.count(i) for i in range(len(atoms))))
    vectors.sort(key=lambda xs: xs[::-1])
    return [tuple((a, x) for a, x in zip(atoms, xs) if x) for xs in vectors]


def random_extension_instances(seed: int, count: int) -> list[tuple[FgMonoid, Fraction]]:
    """Pairs (M, r) with M a small random monoid and r outside M."""
    rng = random.Random(seed)
    out: list[tuple[FgMonoid, Fraction]] = []
    while len(out) < count:
        k = rng.randint(2, 4)
        gens = {Fraction(rng.randint(1, 12), rng.randint(1, 10)) for _ in range(k)}
        m = FgMonoid(gens)
        r = Fraction(rng.randint(1, 12), rng.randint(1, 10))
        if m.contains(r):
            continue
        out.append((m, r))
    return out


def oracle_extension_tables(gens, r: Fraction, limit: Fraction) -> tuple[int, set[int], set[int]]:
    """The members of M = <gens> and of S = M + N_0*r up to limit, on the
    integer grid of scale, the lcm of the denominators of gens and r, as
    (scale, M's members, S's members): the values of the product
    enumeration."""
    scale = math.lcm(r.denominator, *(g.denominator for g in gens))
    ints, top = [int(g * scale) for g in gens], int(limit * scale)
    in_m = set(oracle_value_buckets(ints, top))
    return scale, in_m, set(oracle_value_buckets([*ints, int(r * scale)], top))


def oracle_r_multiple(in_s: set[int], t: int, step: int) -> int:
    """The largest k >= 0 with t - k*step a member, for a member t."""
    return max(k for k in range(t // step + 1) if t - k * step in in_s)


def oracle_common_divisors(members: set[int], x: int, y: int) -> list[int]:
    """Every d with d, x - d and y - d members, ascending."""
    return [d for d in range(min(x, y) + 1) if {d, x - d, y - d} <= members]


def oracle_mcd_via_extension(gens, r: Fraction, x: Fraction, y: Fraction) -> Fraction:
    """The construction mcd_via_extension documents, over oracle tables.

    Strip the shared multiple of r from x and y (x being the one with the
    smaller r-multiple); then, while y still holds a copy of r, add the
    largest common divisor d1 in M of x and y stripped of its r-multiple,
    and the smallest nonzero common divisor d2 in S of x - d1 and y - d1,
    and subtract both from x and y.
    """
    scale, in_m, in_s = oracle_extension_tables(gens, r, max(x, y))
    step, x, y = (int(v * scale) for v in (r, x, y))
    mx, my = oracle_r_multiple(in_s, x, step), oracle_r_multiple(in_s, y, step)
    if mx > my:
        x, y = y, x
    d = min(mx, my) * step
    x, y = x - d, y - d
    while True:
        stripped = y - oracle_r_multiple(in_s, y, step) * step
        d1 = oracle_common_divisors(in_m, x, stripped)[-1]
        later = oracle_common_divisors(in_s, x - d1, y - d1)[1:]
        if stripped == y or not later:
            return Fraction(d + d1, scale)
        d2 = later[0]
        d, x, y = d + d1 + d2, x - d1 - d2, y - d1 - d2


def random_member(rng: random.Random, m: FgMonoid, max_parts: int = 5) -> Fraction:
    """A random element of m as a small combination of its atoms."""
    total = Fraction(0)
    for _ in range(rng.randint(0, max_parts)):
        total += rng.choice(m.atoms)
    return total


# -- the rank-2 lattice monoids, by pairwise search over boxes ------------------

_LATTICE_MEMBER = {
    "quadrant": lambda x, y: x >= 0 and y >= 0,
    "upperhalf": lambda x, y: y >= 1 or (x, y) == (0, 0),
    "lexcone": lambda x, y: y >= 1 or (y == 0 and x >= 0),
}


def oracle_lattice_members(kind: str, bound: int) -> list[tuple[int, int]]:
    """Members of the lattice monoid with |x|, |y| <= bound, as plain pairs."""
    member = _LATTICE_MEMBER[kind]
    return [(x, y) for x in range(-bound, bound + 1) for y in range(-bound, bound + 1) if member(x, y)]


def oracle_lattice_atoms(kind: str, bound: int) -> list[tuple[int, int]]:
    """Nonzero box members that are no sum of two nonzero members of the box
    of twice the bound, by trying every first summand."""
    search = set(oracle_lattice_members(kind, 2 * bound)) - {(0, 0)}
    return sorted(
        (x, y) for x, y in oracle_lattice_members(kind, bound)
        if (x, y) != (0, 0) and not any((x - u, y - w) in search for u, w in search)
    )


def oracle_lex_sum_matches(bound: int) -> bool:
    """Do the pairwise sums of quadrant and upper half-plane points of the
    box of twice the bound give exactly the lexicographic cone on the box?"""
    quadrant = oracle_lattice_members("quadrant", 2 * bound)
    upper = oracle_lattice_members("upperhalf", 2 * bound)
    sums = {
        (x1 + x2, y1 + y2)
        for x1, y1 in quadrant for x2, y2 in upper
        if abs(x1 + x2) <= bound and abs(y1 + y2) <= bound
    }
    return sums == set(oracle_lattice_members("lexcone", bound))


def oracle_lattice_factorizations(atoms: list[tuple[int, int]], v: tuple[int, int],
                                  max_parts: int) -> list[tuple[tuple[int, int], ...]]:
    """Every multiset of at most max_parts atoms summing to v, each sorted."""
    return sorted(
        combo
        for n in range(max_parts + 1)
        for combo in itertools.combinations_with_replacement(sorted(atoms), n)
        if (sum(a[0] for a in combo), sum(a[1] for a in combo)) == tuple(v)
    )


def line_col(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of a character offset (len(text): one past
    the end), where only "\\n" ends a line, as in the query language.
    `splitlines` also breaks at "\\r", "\\x0c" and other separators, so a
    piece that does not end in "\\n" is joined to the next one."""
    lines = [""]
    for piece in text.splitlines(keepends=True):
        lines[-1] += piece
        if piece.endswith("\n"):
            lines.append("")
    start = 0
    for number, line in enumerate(lines, 1):
        if offset < start + len(line) or number == len(lines):
            return number, offset - start + 1
        start += len(line)
