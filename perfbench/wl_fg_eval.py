"""fg-eval: one seeded DSL program over a finitely generated monoid, run the
way `puiseux eval --json` runs it, minus process start.

Each program binds `M = pm(...)` with 2-5 rational generators over a common
scale L, then runs 3-6 queries.  Programs come in two shapes:

* spread (three in four): one small scaled generator g1 in [2, 30] and 1-4
  large ones in [T/8, T/2], about 30% of them with a large generator that
  is not an atom.  The scaled target T = q * L of the program's
  `member(M, T/L)` query, which sizes the membership bitset, is drawn
  log-uniformly over [1e3, 1e8].  Factorizations are few and large.
* dense (one in four): 2-5 generators n/d over one denominator d in
  [1, 12], with n in [3, 60], as in pm(6, 9, 20), at a moderate T,
  log-uniform over [1e3, 1e5].  Z/L/Zl targets stay below the size where
  about ENUM_VOLUME factorizations are expected, so each of those queries
  enumerates tens to hundreds of factorizations and the integer search
  visits many more nodes.

Within each shape T is stratified, so every seed covers its range evenly,
and the generator count and the queries cycle with the stratum.

Besides `member(M, T/L)` come 2-5 queries from
member/Z/L/Zl/mcd/divides/atoms/props, cycling through them.  `atoms`,
`props` and `mcd` are placed before the member query, the others after it
with targets at most T.  mcd_set compares common divisors pairwise, so its
cost grows with the square of their number: mcd arguments stay below
MCD_SPAN times the smallest generator for spread monoids (at most about
MCD_SPAN common divisors) and below DENSE_MCD_CAP for dense ones, which
hold nearly every integer there.

Answers are checked with the integer references in oracles.py:
membership from Schur's bound and a pruned search, factorization sets from
that search (pruned by coin-change tables below oracles.TABLE_LIMIT, by the
gcd above it), mcd and props from coin-change tables.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from oracles import classify_json, factorization_set_json, int_atoms, int_factorizations, is_member, reach

PLAN_SIZE = 384
SMOKE_PLAN_SIZE = 16
SPREAD_LOG_T_RANGE = (3.0, 8.0)
DENSE_LOG_T_RANGE = (3.0, 5.0)
DENSE_EVERY = 4  # one program in four is dense
JITTER = 0.25  # share of its stratum over which a program's log T is drawn
HEADS = ("member", "Z", "L", "Zl", "mcd", "divides", "atoms", "props")
MCD_SPAN = 40  # spread: mcd arguments stay below MCD_SPAN times the smallest generator
DENSE_MCD_CAP = 150  # dense: mcd arguments stay below this scaled size
ENUM_VOLUME = 200


@dataclass(frozen=True)
class Program:
    text: str
    scale: int
    gens: tuple[int, ...]               # scaled generators, ascending
    target: int                         # T, the scaled target of member(M, T/L)
    queries: tuple[tuple, ...]          # (head, scaled int args...)


def _member(rng: random.Random, gens: tuple[int, ...], cap: int) -> tuple[int, int]:
    """A member in (0, cap] built from the generators, with the length used:
    up to two copies of each larger generator, then the smallest one as
    often as fits."""
    total, length = 0, 0
    for g in gens[1:]:
        m = rng.randint(0, 2)
        if total + m * g <= cap:
            total += m * g
            length += m
    a = max((cap - total) // gens[0], 0 if total else 1)
    return total + a * gens[0], length + a


def _enum_cap(gens: tuple[int, ...]) -> int:
    """The target at which about ENUM_VOLUME multisets of gens are expected:
    t^(k-1) / ((k-1)! prod gens) = ENUM_VOLUME."""
    k = len(gens)
    if k == 1:
        return gens[0] * ENUM_VOLUME
    return int((ENUM_VOLUME * math.factorial(k - 1) * math.prod(gens)) ** (1 / (k - 1)))


def _program(rng: random.Random, log_t: float, k: int, dense: bool, extra_heads: list[str]) -> Program:
    t_star = round(10 ** log_t)
    if dense:
        nums: set[int] = set()
        while len(nums) < k:
            nums.add(rng.randint(3, 60))
        den = rng.randint(1, 12)
        fracs = sorted(Fraction(n, den) for n in nums)
    else:
        g1 = rng.randint(2, 30)
        lo, hi = math.log(t_star / 8), math.log(t_star / 2)
        bigs: set[int] = set()
        while len(bigs) < k - 1:
            bigs.add(round(math.exp(rng.uniform(lo, hi))))
        bigs_sorted = sorted(bigs)
        if k >= 3 and rng.random() < 0.3:
            # a generator that is not an atom: another one plus copies of g1
            candidate = bigs_sorted[0] + g1 * rng.randint(1, 5)
            if candidate not in bigs:
                bigs_sorted[-1] = candidate
        # g1 and the large ones over one scale, which stays the monoid's own
        scale = math.lcm(*(rng.randint(1, 12) for _ in range(k)))
        while math.gcd(g1, scale) != 1:
            g1 = rng.randint(2, 30)
        fracs = sorted({Fraction(g, scale) for g in [g1, *bigs_sorted]})
    scale = math.lcm(*(f.denominator for f in fracs))
    gens = tuple(int(f * scale) for f in fracs)
    enum_cap = min(t_star, _enum_cap(gens)) if dense else t_star
    mcd_cap = min(t_star, DENSE_MCD_CAP if dense else MCD_SPAN * gens[0])

    before, after = [], []
    for head in extra_heads:
        if head == "atoms" or head == "props":
            before.append((head,))
        elif head == "mcd":
            x, y = (_member(rng, gens, rng.randint(mcd_cap // 2, mcd_cap))[0] for _ in range(2))
            before.append(("mcd", x, y))
        elif head == "member":
            after.append(("member", rng.randint(t_star // 2, t_star)))
        elif head == "divides":
            b = rng.randint(t_star // 2, t_star)
            c = _member(rng, gens, b)[0] if rng.random() < 0.5 else rng.randint(1, b)
            after.append(("divides", c, b))
        elif head == "Zl":
            after.append(("Zl", *_member(rng, gens, enum_cap)))
        else:
            after.append((head, _member(rng, gens, enum_cap)[0]))
    queries = tuple(before + [("member", t_star)] + after)

    def rat(t: int) -> str:
        return str(Fraction(t, scale))

    parts = [f"let M = pm({', '.join(rat(g) for g in gens)})"]
    for head, *args in queries:
        if head == "Zl":
            parts.append(f"Zl(M, {rat(args[0])}, {args[1]})")
        else:
            parts.append(f"{head}({', '.join(['M'] + [rat(a) for a in args])})")
    return Program("; ".join(parts), scale, gens, t_star, queries)


def generate(rng: random.Random, smoke: bool) -> list[Program]:
    size = SMOKE_PLAN_SIZE if smoke else PLAN_SIZE
    plan = []
    for dense, n, (lo, hi) in ((False, size - size // DENSE_EVERY, SPREAD_LOG_T_RANGE),
                               (True, size // DENSE_EVERY, DENSE_LOG_T_RANGE)):
        if smoke:
            hi = min(hi, 5.0)
        for i in range(n):
            log_t = lo + (hi - lo) * (i + 0.5 + JITTER * (rng.random() - 0.5)) / n
            # the program's shape cycles with its stratum, so the few largest
            # programs, which set the tail and the peak RSS, have the same
            # shape under every seed
            k = 2 + i % 4
            extra = [HEADS[(i // 16 + 3 * j) % 8] for j in range(2 + i // 4 % 4)]
            plan.append(_program(rng, log_t, k, dense, extra))
    # The same order of bitset sizes under every seed, largest first: peak
    # RSS depends on the order in which the allocator gets and frees them.
    return sorted(plan, key=lambda prog: -prog.target)


def warmup(rng: random.Random) -> list[Program]:
    """Small programs that between them run every query head."""
    return [_program(rng, 3.5, 2 + i % 4, i % 2 == 1, [HEADS[i], HEADS[(i + 4) % 8]]) for i in range(8)]


def run(lib, prog: Program) -> list[str]:
    dsl = lib.dsl
    evaluator = dsl.Evaluator(budget=lib.cli.DEFAULT_BUDGET)
    return [dsl.render(value, json_mode=True) for _, value in evaluator.run(dsl.parse(prog.text))]


# -- answer check -----------------------------------------------------------------


def _expected(prog: Program) -> list:
    scale = prog.scale
    atoms = int_atoms(list(prog.gens))

    def rat(t: int) -> Fraction:
        return Fraction(t, scale)

    def factorizations(t: int) -> list[dict[Fraction, int]]:
        return [{rat(a): m for a, m in zip(atoms, vec) if m} for vec in int_factorizations(t, atoms)]

    expected = []
    for head, *args in prog.queries:
        if head == "member":
            expected.append(is_member(args[0], atoms))
        elif head == "divides":
            c, b = args
            expected.append(all(is_member(v, atoms) for v in (c, b, b - c)))
        elif head == "Z":
            expected.append(factorization_set_json(rat(args[0]), factorizations(args[0])))
        elif head == "L":
            lengths = sorted({sum(z.values()) for z in factorizations(args[0])})
            expected.append({"target": str(rat(args[0])), "lengths": lengths})
        elif head == "Zl":
            t, ell = args
            items = [z for z in factorizations(t) if sum(z.values()) == ell]
            expected.append(factorization_set_json(rat(t), items))
        elif head == "atoms":
            expected.append({"atoms": [str(rat(a)) for a in atoms]})
        elif head == "mcd":
            x, y = args
            table = reach(atoms, max(x, y))
            common = [d for d in range(min(x, y) + 1)
                      if table[d] and table[x - d] and table[y - d]]
            maximal = [d for d in common if not any(table[e - d] for e in common if e > d)]
            expected.append(str(rat(max(maximal))))
        elif head == "props":
            expected.append(classify_json(list(prog.gens), atoms, scale))
    return expected


def check(prog: Program, output: list[str]) -> str | None:
    expected = _expected(prog)
    if len(output) != len(expected):
        return f"{prog.text}: {len(output)} results for {len(expected)} queries"
    for (head, *args), got, want in zip(prog.queries, output, expected):
        if json.loads(got) != want:
            return f"{prog.text}: {head}{tuple(args)} gave {got[:200]}, expected {json.dumps(want)[:200]}"
    return None
