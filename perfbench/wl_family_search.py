"""family-search: one seeded DSL query over an infinite family.

The plan holds the same number of queries of each of seven kinds.  Within
a kind, the parameters that drive its cost are stratified over their
ranges, so every seed covers the ranges evenly and has the same few
expensive queries:

    Z(family(sqden), q)                    q in (0, 25]
    member(family(sqden), q)               q in (0, 25]
    Z(family(interval1_sqden), q)          q in (0, 20]
    member(family(interval1_sqden), q)     q in (0, 2]
    Z(family(exAexB, window=w), q)         w in 2..8, q in [1, 4], denominator 1, 5 or 7
    Zl(family(interval1, den_bound=d), q, ell)
                                           ell = 2: d in 4..18; ell = 3: d in 4..11;
                                           q = (floor(3 ell den / 2) + e) / den with
                                           den in 1..6 and e in {-1, 0, 1}
    props(family(kind, K=k))               grams K<=5, exA/exB/sqden K<=4, exAexB K<=3

sqden targets have denominators built from the primes 2, 3, 5, 7 with
exponents at most 2.  The ranges bound run length: Zl grows steeply with d,
props with the product of the truncation's primes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from oracles import (classify_json, factorization_set_json, int_atoms, is_prime, primes_from,
                     rational_multisets)
from wl_fg_eval import run  # the same op: parse, evaluate with a fresh Evaluator, render JSON

PER_KIND = 150
SMOKE_PER_KIND = 2
SQDEN_DENS = sorted({2**a * 3**b * 5**c * 7**d for a in range(3) for b in range(3)
                     for c in range(3) for d in range(3) if 2**a * 3**b * 5**c * 7**d <= 60})
PROPS_KINDS = (("grams", 5), ("exA", 4), ("exB", 4), ("sqden", 4), ("exAexB", 3))


@dataclass(frozen=True)
class Query:
    text: str
    kind: str                   # one of the seven kinds in the module docstring
    target: Fraction | None
    params: tuple[int, ...]     # window / (den_bound, ell) / (K,)
    family: str


def _query(rng: random.Random, kind: str, u: float, v: float) -> Query:
    """One query of the given kind; u and v in [0, 1) place it within its ranges."""
    if kind in ("Z-sqden", "member-sqden", "Z-interval1_sqden", "member-interval1_sqden"):
        head, fam = kind.split("-")
        top = {"Z-interval1_sqden": 20, "member-interval1_sqden": 2}.get(kind, 25)
        den = rng.choice(SQDEN_DENS)
        q = Fraction(max(1, round(u * top * den)), den)
        return Query(f"{head}(family({fam}), {q})", kind, q, (), fam)
    if kind == "Z-exAexB":
        # u sweeps q across [1, 4] once per window size, so every seed has
        # the same few expensive (large w, large q) queries
        w = 2 + int(u * 7)
        den = rng.choice((1, 1, 5, 7))
        q = Fraction(den + round(u * 7 % 1 * 3 * den), den)
        return Query(f"Z(family(exAexB, window={w}), {q})", kind, q, (w,), "exAexB")
    if kind == "Zl-interval1":
        # the cost peaks when q/ell is 3/2 (the atom window is symmetric), so
        # q stays within one step of it and u alone sets the size
        ell = 2 if u < 0.5 else 3
        d = 4 + int(2 * u % 1 * (15 if ell == 2 else 8))
        den = rng.randint(1, 6)
        q = Fraction(3 * ell * den // 2 + round(2 * v - 1), den)
        return Query(f"Zl(family(interval1, den_bound={d}), {q}, {ell})", kind, q, (d, ell), "interval1")
    fam, k_max = PROPS_KINDS[int(u * len(PROPS_KINDS))]
    k = 2 + int(v * (k_max - 1))
    return Query(f"props(family({fam}, K={k}))", kind, None, (k,), fam)


KINDS = ("Z-sqden", "member-sqden", "Z-interval1_sqden", "member-interval1_sqden",
         "Z-exAexB", "Zl-interval1", "props")


def generate(rng: random.Random, smoke: bool) -> list[Query]:
    n = SMOKE_PER_KIND if smoke else PER_KIND
    plan = []
    for kind in KINDS:
        second = list(range(n))
        rng.shuffle(second)
        plan += [_query(rng, kind, (i + rng.random()) / n, (j + rng.random()) / n)
                 for i, j in enumerate(second)]
    rng.shuffle(plan)
    return plan


def warmup(rng: random.Random) -> list[Query]:
    return [_query(rng, kind, 0.0, 0.0) for kind in KINDS]


# -- answer check -----------------------------------------------------------------


def _sqden_cover(q: Fraction) -> list[Fraction]:
    """Generators (p+1)/p^2 that can occur in a sum equal to q, largest p first.

    A generator whose prime does not divide the denominator of q must occur
    a multiple of p^2 times, contributing at least p + 1.
    """
    limit = max(int(q), q.denominator)
    primes = [p for p in range(limit, 1, -1) if is_prime(p)
              and (p + 1 <= q or q.denominator % p == 0)]
    return [Fraction(p + 1, p * p) for p in primes]


def _sum_atoms(q: Fraction) -> list[Fraction]:
    """Atoms of interval1 + sqden that can occur in a factorization of q.

    Below 1 the sum holds only sqden elements, so a sqden generator is an
    atom iff its only sqden representation is itself, and 1 is an atom iff
    it has no sqden representation.
    """
    atoms = [g for g in _sqden_cover(q) if rational_multisets(_sqden_cover(g), g) == [{g: 1}]]
    if q >= 1 and not rational_multisets(_sqden_cover(Fraction(1)), Fraction(1), first_only=True):
        atoms.append(Fraction(1))
    return atoms


def _expected(query: Query):
    q = query.target
    if query.kind == "member-sqden":
        return bool(rational_multisets(_sqden_cover(q), q, first_only=True))
    if query.kind == "member-interval1_sqden":
        return q >= 1 or bool(rational_multisets(_sqden_cover(q), q, first_only=True))
    if query.kind == "Z-sqden":
        atoms = [g for g in _sum_atoms(q) if g != 1]
        return factorization_set_json(q, rational_multisets(atoms, q))
    if query.kind == "Z-interval1_sqden":
        return factorization_set_json(q, rational_multisets(_sum_atoms(q), q))
    if query.kind == "Z-exAexB":
        (w,) = query.params
        gens = [Fraction(p + s, p) for p in reversed(primes_from(5, w)) for s in (-1, 1)]
        return factorization_set_json(q, rational_multisets(gens, q))
    if query.kind == "Zl-interval1":
        d, ell = query.params
        center = q / ell
        grid = {center + Fraction(j, e) for e in range(1, d + 1)
                for j in range(math.floor((1 - center) * e), math.ceil((2 - center) * e) + 1)}
        grid = sorted(v for v in grid if 1 <= v < 2)
        items = []
        for i, x in enumerate(grid):
            if ell == 2:
                if q - x in grid and x <= q - x:
                    items.append({x: 1, q - x: 1} if x != q - x else {x: 2})
                continue
            for y in grid[i:]:
                z = q - x - y
                if z >= y and z in grid:
                    part: dict[Fraction, int] = {}
                    for v in (x, y, z):
                        part[v] = part.get(v, 0) + 1
                    items.append(part)
        return factorization_set_json(q, items)
    return _props(query.family, query.params[0])


def _family_gens(fam: str, k: int) -> list[Fraction]:
    if fam == "grams":
        return [Fraction(1, 2**n * p) for n, p in enumerate(primes_from(3, k), start=1)]
    if fam == "exAexB":
        return _family_gens("exA", k) + _family_gens("exB", k)
    if fam == "sqden":
        return [Fraction(p + 1, p * p) for p in primes_from(2, k)]
    return [Fraction(p + (1 if fam == "exB" else -1), p) for p in primes_from(5, k)]


def _props(fam: str, k: int) -> dict:
    gens = sorted(set(_family_gens(fam, k)))
    scale = math.lcm(*(g.denominator for g in gens))
    ints = [int(g * scale) for g in gens]
    return classify_json(ints, int_atoms(ints), scale)


def check(query: Query, output: list[str]) -> str | None:
    want = _expected(query)
    got = json.loads(output[0]) if len(output) == 1 else None
    if got != want:
        return f"{query.text}: gave {str(got)[:200]}, expected {json.dumps(want)[:200]}"
    if query.kind == "Z-exAexB" and query.target == 2:
        # paper 4.2: 2 has exactly `window` factorizations, all of length 2
        if len(got["items"]) != query.params[0] or any(z["length"] != 2 for z in got["items"]):
            return f"{query.text}: expected exactly {query.params[0]} length-2 factorizations"
    return None
