"""Reference computations for the benchmark's answer checks.

Nothing here imports the library.  Each routine takes a different route
from the code it checks: primes come from trial division, reachability and
factorization counts from plain coin-change tables (and Schur's bound on
the Frobenius number), integer factorization sets from a search pruned by
those tables, rational factorization
sets from an exhaustive search whose only pruning is that a residual's
denominator must divide what the remaining generators can still produce.
"""

from __future__ import annotations

import math
from fractions import Fraction


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % f for f in range(2, math.isqrt(n) + 1))


def primes_from(floor: int, count: int) -> list[int]:
    """The first `count` primes that are >= floor."""
    out = []
    n = max(floor, 2)
    while len(out) < count:
        if is_prime(n):
            out.append(n)
        n += 1
    return out


TABLE_LIMIT = 50_000  # largest target for which coin-change tables are built


def reach_tables(gens: list[int], limit: int) -> list[bytearray]:
    """tables[i][t] == 1 iff t <= limit is a nonnegative integer combination
    of gens[:i] (coin change, one table per prefix)."""
    table = bytearray(limit + 1)
    table[0] = 1
    tables = [table]
    for g in gens:
        table = bytearray(table)
        for t in range(g, limit + 1):
            if table[t - g]:
                table[t] = 1
        tables.append(table)
    return tables


def reach(gens: list[int], limit: int) -> bytearray:
    """reach[t] == 1 iff t is a nonnegative integer combination of gens."""
    return reach_tables(gens, limit)[-1]


def count_ways(gens: list[int], limit: int) -> list[int]:
    """ways[t] = number of multisets of gens summing to t (coin change)."""
    ways = [0] * (limit + 1)
    ways[0] = 1
    for g in gens:
        for t in range(g, limit + 1):
            ways[t] += ways[t - g]
    return ways


def int_factorizations(target: int, atoms: list[int], first_only: bool = False) -> list[tuple[int, ...]]:
    """Every multiplicity vector over `atoms` (ascending, distinct) summing to
    target, or the first one found.

    Depth-first from the largest atom.  A branch is cut when the residual
    cannot be reached from the smaller atoms: read off coin-change tables up
    to TABLE_LIMIT (exact), above it from their gcd (necessary only).
    """
    k = len(atoms)
    if target <= TABLE_LIMIT:
        tables = reach_tables(atoms, target)

        def reachable(i: int, t: int) -> bool:
            return bool(tables[i][t])
    else:
        gcds = [0]
        for a in atoms:
            gcds.append(math.gcd(gcds[-1], a))

        def reachable(i: int, t: int) -> bool:
            return t % gcds[i] == 0 if gcds[i] else t == 0

    out: list[tuple[int, ...]] = []
    mults = [0] * k

    def descend(i: int, rest: int) -> bool:
        a = atoms[i - 1]
        if i == 1:
            mults[0] = rest // a
            out.append(tuple(mults))
            return first_only
        for m in range(rest // a + 1):
            left = rest - m * a
            if reachable(i - 1, left):
                mults[i - 1] = m
                if descend(i - 1, left):
                    return True
        mults[i - 1] = 0
        return False

    if k and reachable(k, target):
        descend(k, target)
    elif target == 0:
        out.append(tuple(mults))
    return out


def is_member(t: int, gens: list[int]) -> bool:
    """Is t a nonnegative integer combination of gens?"""
    if t == 0:
        return True
    gens = sorted({g for g in gens if g <= t})
    if not gens:
        return False
    g = math.gcd(*gens)
    if t % g:
        return False
    t, gens = t // g, [h // g for h in gens]
    if t >= (gens[0] - 1) * (gens[-1] - 1):  # Schur's bound on the Frobenius number
        return True
    return bool(int_factorizations(t, gens, first_only=True))


def int_atoms(gens: list[int]) -> list[int]:
    """Generators that are not combinations of the smaller generators."""
    gens = sorted(set(gens))
    return [g for i, g in enumerate(gens) if not is_member(g, gens[:i])]


def rational_multisets(gens: list[Fraction], target: Fraction,
                       first_only: bool = False) -> list[dict[Fraction, int]]:
    """Every multiset over `gens` (in the given order) with sum `target`.

    Complete: it branches on every multiplicity of each generator.  The
    only prunes are nonnegativity and that the residual's denominator must
    divide the lcm of the remaining generators' denominators.
    """
    suffix_den = [1] * (len(gens) + 1)
    for i in range(len(gens) - 1, -1, -1):
        suffix_den[i] = math.lcm(suffix_den[i + 1], gens[i].denominator)
    out: list[dict[Fraction, int]] = []
    chosen: dict[Fraction, int] = {}

    def descend(i: int, rest: Fraction) -> bool:
        if rest == 0:
            out.append(dict(chosen))
            return first_only
        if i == len(gens) or suffix_den[i] % rest.denominator:
            return False
        g = gens[i]
        for m in range(int(rest // g) + 1):
            if m:
                chosen[g] = m
            if descend(i + 1, rest - m * g):
                return True
        chosen.pop(g, None)
        return False

    descend(0, target)
    return out


def factorization_set_json(target: Fraction, items: list[dict[Fraction, int]]) -> dict:
    """The JSON a factorization set renders to, in its documented order:
    ascending by the multiplicity vector over the atoms used, largest atom
    first."""
    atoms_desc = sorted({a for z in items for a in z}, reverse=True)
    ordered = sorted(items, key=lambda z: tuple(z.get(a, 0) for a in atoms_desc))
    return {
        "target": str(target),
        "items": [
            {"parts": [[str(a), m] for a, m in sorted(z.items())], "length": sum(z.values())}
            for z in ordered
        ],
    }


def classify_json(gens: list[int], atoms: list[int], scale: int) -> dict:
    """The report `props` gives for a finitely generated monoid, from its
    scaled generators and atoms (both ascending).

    Its ten smallest positive members lie in [a, 10a] for the smallest atom
    a, so coin-change tables up to 10a give them and their factorization
    counts.
    """
    bound = 10 * atoms[0]
    table = reach(atoms, bound)
    sample = [t for t in range(1, bound + 1) if table[t]][:10]
    ways = count_ways(atoms, bound)
    counts = [ways[t] for t in sample]
    flag = {"value": True, "provenance": "paper"}
    return {
        "generators": [str(Fraction(g, scale)) for g in gens],
        "atoms": [str(Fraction(a, scale)) for a in atoms],
        "atom_count": len(atoms),
        "scale": scale,
        "min_positive": str(Fraction(atoms[0], scale)),
        "flags": {"atomic": flag, "bbm": flag, "bfm": flag, "ffm": flag, "lffm": flag,
                  "antimatter": {"value": False, "provenance": "paper"}},
        "evidence": {
            "sampled_members": [str(Fraction(t, scale)) for t in sample],
            "factorization_counts": counts,
            "all_finite": True,
            "unique_factorization_observed": all(c == 1 for c in counts),
        },
    }
