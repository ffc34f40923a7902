"""extensions: one seeded cyclic extension S = M + N0*r with r outside M.

One op builds M from 2-5 generators n/d (n in 1..20, d in 1..12), extends
it by r (same ranges, redrawn while r lies in M, which the operations
require), rewrites every atom of M over the atoms of S, takes a maximal
common divisor of two members of S and assembles the factorization set of
a third member from base-monoid slices.  Members are sums of 1-5 random
generators of S.  Every op builds several fresh monoids and makes many
small membership calls on cold covers.

The cost of an op grows fastest with the generator count, with how many
copies of r fit in the mcd pair (the construction strips r one copy at a
time, recursing once per copy), with the scaled size of the members,
scale * max(x, y, s), and with the number of factorizations of s.
Instances where the size exceeds SIZE_CAP, max(x, y) exceeds XY_SPAN times
the smallest generator of S or the estimated count exceeds VOLUME_CAP are
redrawn, to bound run length.  To keep the tail (the eleventh slowest op)
from swinging between seeds, the plan is a stratified sample: a pool of
POOL_FACTOR * n instances is sorted by an input-only cost weight and one
instance is drawn from each consecutive group, so every seed gets the same
spread of weights.  Drawing works on the scaled integers, so generating a
plan stays cheap.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from oracles import int_atoms, int_factorizations, is_member, reach

PLAN_SIZE = 1000
SMOKE_PLAN_SIZE = 20
SIZE_CAP = 5_000
VOLUME_CAP = 100
XY_SPAN = 40
POOL_FACTOR = 2


@dataclass(frozen=True)
class Instance:
    gens: tuple[Fraction, ...]
    r: Fraction
    x: Fraction
    y: Fraction
    s: Fraction


def _instance(rng: random.Random) -> Instance:
    draw = rng.random
    while True:
        # numerators 1..20 over denominators 1..12; the last one is r
        fracs = [(int(draw() * 20) + 1, int(draw() * 12) + 1) for _ in range(int(draw() * 4) + 3)]
        scale = math.lcm(*(d for _, d in fracs))
        ints = [n * scale // d for n, d in fracs]
        ints = sorted(set(ints[:-1])) + ints[-1:]
        x, y, s = (sum(rng.choice(ints) for _ in range(int(draw() * 5) + 1)) for _ in range(3))
        if max(x, y, s) <= SIZE_CAP and max(x, y) <= XY_SPAN * min(ints) \
                and _volume(ints, s, scale) <= VOLUME_CAP and not is_member(ints[-1], ints[:-1]):
            gens = tuple(Fraction(g, scale) for g in ints[:-1])
            r, xq, yq, sq = (Fraction(v, scale) for v in (ints[-1], x, y, s))
            return Instance(gens, r, xq, yq, sq)


def _volume(ints: list[int], s: int, scale: int) -> float:
    """About how many multisets of the generators sum to s, in the monoid's
    own units: s^(k-1) / ((k-1)! prod gens)."""
    k = len(ints)
    return (s / scale) ** (k - 1) / (math.factorial(k - 1) * math.prod(g / scale for g in ints))


def _weight(inst: Instance) -> float:
    """An input-only stand-in for an op's cost: k^2.4 * (max(x, y) / r + 1).

    A least-squares fit of log latency on input features over 3000 ops put
    nearly all the weight on the generator count k and on how many copies
    of r fit in the mcd pair, in this ratio (correlation 0.84).
    """
    return len(inst.gens) ** 2.4 * (max(inst.x, inst.y) / inst.r + 1)


def generate(rng: random.Random, smoke: bool) -> list[Instance]:
    n = SMOKE_PLAN_SIZE if smoke else PLAN_SIZE
    pool = sorted((_instance(rng) for _ in range(POOL_FACTOR * n)), key=_weight)
    plan = [rng.choice(pool[i:i + POOL_FACTOR]) for i in range(0, len(pool), POOL_FACTOR)]
    rng.shuffle(plan)
    return plan


def warmup(rng: random.Random) -> list[Instance]:
    return [_instance(rng) for _ in range(10)]


def run(lib, inst: Instance):
    mono, budget = lib.monoid, lib.cli.DEFAULT_BUDGET
    m = mono.FgMonoid(inst.gens, budget)
    ext = mono.add_cyclic(m, inst.r, budget)
    refactored = tuple(mono.refactor_atom(m, inst.r, a, budget) for a in m.atoms)
    d = mono.mcd_via_extension(m, inst.r, inst.x, inst.y, budget)
    zs = mono.factorizations_via_offsets(m, inst.r, inst.s, budget)
    return m.atoms, ext.r_in_base, ext.monoid.atoms, refactored, d, zs


# -- answer check -----------------------------------------------------------------


def check(inst: Instance, output) -> str | None:
    m_atoms, r_in_base, s_atoms, refactored, d, zs = output
    scale = math.lcm(*(v.denominator for v in inst.gens + (inst.r, inst.x, inst.y, inst.s)))

    def scaled(v: Fraction) -> int:
        return int(v * scale)

    want_m = [Fraction(a, scale) for a in int_atoms([scaled(g) for g in inst.gens])]
    want_s = [Fraction(a, scale) for a in int_atoms([scaled(g) for g in inst.gens + (inst.r,)])]
    label = f"M={[str(g) for g in inst.gens]}, r={inst.r}"
    if list(m_atoms) != want_m or list(s_atoms) != want_s or r_in_base:
        return f"{label}: atoms {m_atoms} / {s_atoms}, expected {want_m} / {want_s}"
    for a, z in zip(want_m, refactored):
        if sum(p * k for p, k in z.parts) != a or any(p not in want_s for p, _ in z.parts):
            return f"{label}: refactor_atom({a}) gave {z}"

    x, y = scaled(inst.x), scaled(inst.y)
    table = reach([scaled(a) for a in want_s], max(x, y))
    dd = d * scale
    if dd.denominator != 1 or not (0 <= dd <= min(x, y)):
        return f"{label}: mcd({inst.x}, {inst.y}) gave {d}, not a common divisor"
    dd = int(dd)
    if not (table[dd] and table[x - dd] and table[y - dd]):
        return f"{label}: mcd({inst.x}, {inst.y}) gave {d}, not a common divisor"
    if any(table[e] and table[x - dd - e] and table[y - dd - e] for e in range(1, min(x, y) - dd + 1)):
        return f"{label}: mcd({inst.x}, {inst.y}) gave {d}, which is not maximal"

    want_z = set(int_factorizations(scaled(inst.s), [scaled(a) for a in want_s]))
    got_z = {tuple(dict(z.parts).get(a, 0) for a in want_s) for z in zs}
    if got_z != want_z or len(zs) != len(want_z):
        return f"{label}: {len(zs)} factorizations of {inst.s}, expected {len(want_z)}"
    return None
