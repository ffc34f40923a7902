"""Finitely generated Puiseux monoids with exact factorization machinery.

A finitely generated additive submonoid of the nonnegative rationals
rescales, by the lcm of its generator denominators, to a submonoid of the
nonnegative integers.  Membership and enumeration questions are decided on
that integer side and mapped back, so every answer is exact.

Reachability on the integer side is kept in one of two structures.  A
bitmask (bit t set iff the integer t is a sum of scaled generators) is
closed under a generator g by shift-or steps with doubling offsets g, 2g,
4g, ..., which covers every multiple of g in O(log target) big-integer
operations; closing under each generator once, in any order, yields the
full monoid because sums commute.  An Apéry table with respect to the
smallest scaled atom a holds, per residue r mod a, the least member
congruent to r, so t is a member iff t >= table[t mod a]; the round-robin
algorithm (Böcker & Lipták, Algorithmica 48, 2007) builds it in O(k a)
steps for k generators, whatever the target.

Atoms and membership come from the table whenever its k a steps cost fewer
budget units than the bitmask closure they replace; that is decided at
construction for the largest generator, and again whenever a membership
query would grow the bitmask.  The range scans (divisors, mcd sets, cyclic
divisors, smallest members) read the bitmask, since they are O(target)
anyway.

The cyclic-extension procedures (the last section) run on the integers of
S = M + N_0*r too, and charge only these structures and the kernel's nodes.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import BudgetExceededError, InputError, NotAMemberError
from .qarith import RationalLike, as_rational


class Budget:
    """Mutable search-node allowance shared across one operation.

    A limit of None means unlimited.  Exhaustion raises instead of
    truncating, so callers can never mistake a partial answer for an
    exact one.
    """

    __slots__ = ("left", "primes_paid")

    def __init__(self, limit: int | None = None):
        if limit is not None and limit <= 0:
            raise InputError("budget must be positive")
        self.left = limit
        self.primes_paid = 0   # the bound up to which prime scans are charged

    def spend(self, amount: int = 1) -> None:
        if self.left is None:
            return
        self.left -= amount
        if self.left < 0:
            raise BudgetExceededError("search-node budget exhausted")


class _Tally(Budget):
    """Forwards each charge to budget and sums them, limit or not."""
    __slots__ = ("budget", "units")

    def __init__(self, budget: Budget):
        self.budget, self.units = budget, 0

    def spend(self, amount: int = 1) -> None:
        self.units += amount
        self.budget.spend(amount)


def _as_budget(budget: Budget | int | None) -> Budget:
    return budget if isinstance(budget, Budget) else Budget(budget)


def _depth_first(root: tuple, expand: Callable[[tuple], Iterator[tuple] | None], budget: Budget,
                 unit: int = 1) -> None:
    """Visit root and its descendants in preorder, charging unit budget
    units per node before expand(node), which handles a leaf (appending to
    its search's own output) and returns None, or returns the node's child
    iterator, visited before the next sibling.  The stack holds iterators,
    not Python frames, so depth is not bounded by the recursion limit."""
    spend, stack = budget.spend, [iter((root,))]
    while stack:
        for node in stack[-1]:
            spend(unit)
            if (children := expand(node)) is not None:
                stack.append(children)
                break
        else:
            stack.pop()


def _allot(budget: Budget, units: int, size: int) -> None:
    """Charge units for a structure of size entries before it is built; a
    size that no list or int can index fails here, even on an unlimited
    budget, instead of overflowing inside the allocation."""
    budget.spend(units)
    if size > sys.maxsize:
        raise BudgetExceededError(f"a structure of {size} entries is too large to build")


def _shift_units(limit: int) -> int:
    """Budget units of one shift-or step on a bitmask of limit + 1 bits."""
    return max(1, limit >> 13)


def _table_is_cheaper(k: int, a: int, limit: int) -> bool:
    """Does an Apéry table of k generators with respect to a cost fewer
    units than closing a bitmask up to limit under a alone?"""
    return k * a < (limit // a).bit_length() * _shift_units(limit)


def _close_bits(bits: int, gens: Iterable[int], limit: int, budget: Budget) -> int:
    """Close a reachable-set bitmask under adding each generator, up to limit.

    Charged against the budget before the mask is allocated, so an absurd
    limit fails fast instead of exhausting memory first.
    """
    unit = _shift_units(limit)
    _allot(budget, unit, limit + 1)
    mask = (1 << (limit + 1)) - 1
    bits &= mask
    for g in gens:
        step = g
        while step <= limit:
            budget.spend(unit)
            bits |= (bits << step) & mask
            step <<= 1
    return bits


def _round_robin(table: list, g: int, budget: Budget) -> list:
    """Add generator g to an Apéry table with respect to a = len(table), in place.

    Adding g maps residue r to r + g mod a, which splits the classes into
    gcd(a, g) cycles.  Walking a cycle once from its least entry, each
    entry becomes the smaller of itself and its predecessor plus g; the
    least entry cannot improve, so one lap settles the cycle.  Unreachable
    classes hold math.inf.
    """
    a = len(table)
    budget.spend(a)
    d = math.gcd(a, g)
    for r in range(d):
        n = min(table[r::d])
        if n == math.inf:
            continue
        for _ in range(a // d - 1):
            n += g
            p = n % a
            if table[p] < n:
                n = table[p]
            else:
                table[p] = n
    return table


def _sieve(gens: Iterable[int], reach, reached, add) -> tuple[list[int], object]:
    """The gens, walked in ascending order, that sums of the smaller ones
    do not reach, and the reach structure closed under them.

    In a reduced monoid the atoms are exactly the generators that are not
    nonnegative-integer combinations of the other generators: any
    nontrivial combination equal to g uses only generators < g.  So g is an
    atom iff the structure closed under the atoms below it does not reach g.
    """
    atoms = []
    for g in gens:
        if not reached(reach, g):
            atoms.append(g)
            reach = add(reach, g)
    return atoms, reach


def _apery(gens: Sequence[int], budget: Budget) -> tuple[list, list[int]]:
    """The Apéry table of the monoid generated by gens (ascending) with
    respect to a = gens[0], and the atoms among gens."""
    a = gens[0]
    _allot(budget, a, a)
    atoms, table = _sieve(gens[1:], [0] + [math.inf] * (a - 1),
                          lambda table, g: g >= table[g % a],
                          lambda table, g: _round_robin(table, g, budget))
    return table, [a] + atoms


def _grown_cover(base: int, t: int) -> int:
    # doubling from the last cover a query grew keeps the total closure work
    # within twice the last closure
    return max(t, 2 * base, 256)


def _scale_units(count: int, den_bits: int) -> int:
    """Budget units of scaling count generators whose denominators total
    den_bits bits: one per generator and 64-bit word of the scale past the
    first, with the scale bounded by that total; free below 128 bits."""
    return count * max(0, den_bits // 64 - 1)


def _common_divisors(reach: str, n: int, x: int, y: int) -> int:
    """The d <= n (n <= min(x, y)) with reach[d], reach[x - d] and
    reach[y - d] all "1", as the set bits of an int."""
    return int(reach[n::-1], 2) & int(reach[x - n:x + 1], 2) & int(reach[y - n:y + 1], 2)


def _ones(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, ascending."""
    bits = format(mask, "b")[::-1]
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


@dataclass(frozen=True)
class Factorization:
    """A multiset of atoms with multiplicities: parts sorted by atom ascending."""

    parts: tuple[tuple[Fraction, int], ...]

    @property
    def length(self) -> int:
        return sum(m for _, m in self.parts)

    @property
    def value(self) -> Fraction:
        return sum((a * m for a, m in self.parts), Fraction(0))

    def multiplicity(self, atom: RationalLike) -> int:
        atom = as_rational(atom)
        for a, m in self.parts:
            if a == atom:
                return m
        return 0

    def __str__(self) -> str:
        if not self.parts:
            return "0"
        return " + ".join(f"{m}·{a}" for a, m in self.parts)

    def to_json(self) -> dict:
        return {
            "parts": [[str(a), m] for a, m in self.parts],
            "length": self.length,
        }


@dataclass(frozen=True)
class FactorizationSet:
    """All factorizations of one target, distinct and in canonical order.

    Canonical order compares multiplicity vectors over the atoms in
    descending order; it is the order a depth-first search emits when it
    assigns multiplicities to the largest atom first, counting up from zero.
    The integer kernel is such a search and emits each factorization once,
    so the sets built from its paths take both properties from it.
    """

    target: Fraction
    items: tuple[Factorization, ...]

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Factorization]:
        return iter(self.items)

    def __contains__(self, z: Factorization) -> bool:
        return z in self.items

    def lengths(self) -> tuple[int, ...]:
        return tuple(sorted({z.length for z in self.items}))

    def to_json(self) -> dict:
        return {
            "target": str(self.target),
            "items": [z.to_json() for z in self.items],
        }


@dataclass(frozen=True)
class LengthSet:
    """The set of factorization lengths of one target."""

    target: Fraction
    lengths: tuple[int, ...]

    def __contains__(self, ell: int) -> bool:
        return ell in self.lengths

    def to_json(self) -> dict:
        return {"target": str(self.target), "lengths": list(self.lengths)}


def _json_text(value: object, nl: str = "\n") -> str:
    """`json.dumps(value, indent=2)`, ASCII-escaped by the same C function,
    for a tree of str-keyed dicts, lists, tuples, str, int, bool and None, and
    for a FactorizationSet as its to_json(), written straight from its parts;
    `nl` is the newline and indent of value's level.  Else an InputError."""
    inner = nl + "  "
    if isinstance(value, str):
        return _quote(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        items = [inner + _json_text(v, inner) for v in value]
        return f"[{','.join(items)}{nl}]" if items else "[]"
    if isinstance(value, dict):
        if not all(isinstance(k, str) for k in value):
            raise InputError(f"cannot serialize a non-string key in {value!r}")
        items = [f"{inner}{_quote(k)}: {_json_text(v, inner)}" for k, v in value.items()]
        return f"{{{','.join(items)}{nl}}}" if items else "{}"
    if isinstance(value, FactorizationSet):
        n2, n3, n4, n5 = (inner + "  " * k for k in range(1, 5))
        # part templates up to the multiplicity, by atom identity (hashing a
        # Fraction costs more than a template; the set keeps its atoms alive)
        heads: dict[int, str] = {}
        items = []
        for z in value.items:
            parts, length = [], 0
            for a, m in z.parts:
                head = heads.get(id(a))
                if head is None:
                    head = heads[id(a)] = f"{n4}[{n5}{_quote(str(a))},{n5}"
                parts.append(f"{head}{m}{n4}]")
                length += m
            parts_text = f"[{','.join(parts)}{n3}]" if parts else "[]"
            items.append(f'{n2}{{{n3}"parts": {parts_text},{n3}"length": {length}{n2}}}')
        items_text = f"[{','.join(items)}{inner}]" if items else "[]"
        return f'{{{inner}"target": {_quote(str(value.target))},{inner}"items": {items_text}{nl}}}'
    raise InputError(f"cannot serialize {value!r}")


def _positive_rational(value: RationalLike) -> Fraction:
    q = as_rational(value)
    if q.numerator <= 0:
        raise InputError(f"generator {q} is not positive")
    return q


class FgMonoid:
    """Additive submonoid of Q>=0 generated by finitely many positive rationals.

    Immutable after construction.  Membership is answered by an Apéry
    table once one is built, and by a reachability mask otherwise; the
    table is taken, at construction or by the first membership query that
    would grow the mask, whenever it costs fewer budget units than that
    mask.  When the atoms were sieved on a mask, its closure (exactly the
    members up to the largest generator) is the first cover.  The mask,
    which the range scans always read, grows on demand to at least twice
    the last cover a query grew (the base; none at first, so the first
    growth past the sieve's cover costs what growth from nothing costs)
    and is replaced by one assignment of a (cover, bits, base) triple; the
    table is published by one assignment and never changes.  So concurrent
    readers always observe a consistent structure; two threads that build
    one at once only repeat work.

    A cyclic extension M + N_0*r (add_cyclic) is built on M's grid, from
    M's scaled generators and r's step, by the builder __init__ ends in.
    M keeps the last one in one slot, assigned after the build returns (an
    exhausted build leaves it be) and read once per call, so threads see a
    whole entry and only rebuild; its fields never change (covers are
    replaced, not written), so each S sharing them grows its own cover.
    """

    def __init__(self, generators: Iterable[RationalLike], budget: Budget | int | None = None):
        # deduplicated on (numerator, denominator), sorted as scaled integers
        gens = {(q.numerator, q.denominator): q for q in map(_positive_rational, generators)}
        if not gens:
            raise InputError("at least one generator is required")
        budget = _as_budget(budget)
        den_bits = sum(d.bit_length() for _, d in gens)
        # charged before the scale is built
        budget.spend(_scale_units(len(gens), den_bits))
        scale = math.lcm(*(d for _, d in gens))
        scaled = sorted((n * (scale // d), q) for (n, d), q in gens.items())
        self._build(scale, tuple(t for t, _ in scaled), tuple(q for _, q in scaled), den_bits, budget)

    # -- construction -----------------------------------------------------

    def _build(self, scale: int, int_gens: tuple[int, ...], generators: tuple[Fraction, ...],
               den_bits: int, budget: Budget) -> None:
        """Finish a construction from distinct generators sorted on their grid:
        sieve the atoms and seed the membership structure."""
        self.scale, self.int_gens, self.generators = scale, int_gens, generators
        self._den_bits = den_bits   # what an extension's scale charge adds to
        # (r, units, fields) of the last cyclic extension built, as first built
        self._extension: tuple | None = None
        limit = int_gens[-1]
        # Apéry table with respect to int_atoms[0], once one is built
        self._table: list | None = None
        # (cover, bits, base): bit t decided for all 0 <= t <= cover, and the
        # last cover a query grew, which the next growth doubles
        if _table_is_cheaper(len(int_gens), int_gens[0], limit):
            self._table, atoms = _apery(int_gens, budget)
            self._state = (0, 1, 0)
        else:
            atoms, bits = _sieve(int_gens, 1, lambda bits, g: (bits >> g) & 1,
                                 lambda bits, g: _close_bits(bits, (g,), limit, budget))
            # closed under every atom, so exactly the members up to limit
            self._state = (limit, bits, 0)
        self.int_atoms = tuple(atoms)
        generator_of = dict(zip(int_gens, generators))
        self.atoms = tuple(generator_of[g] for g in self.int_atoms)

    def _extended(self, r: Fraction, budget: Budget) -> "FgMonoid":
        """FgMonoid(self.generators + (r,)) for a positive r that is no
        generator here, charged the same units, but built on this grid:
        nothing is re-validated, deduplicated or sorted as Fractions.  The
        slot's S is reused, its units charged in one spend, when budget can
        pay them; else the build runs and raises as a first build would."""
        s = FgMonoid.__new__(FgMonoid)
        last = self._extension
        if last is not None and last[0] == r and (budget.left is None or last[1] <= budget.left):
            budget.spend(last[1])
            s.__dict__.update(last[2])
            return s
        tally = _Tally(budget)
        den_bits = self._den_bits + r.denominator.bit_length()
        tally.spend(_scale_units(len(self.int_gens) + 1, den_bits))
        scale = math.lcm(self.scale, r.denominator)
        f = scale // self.scale
        step = r.numerator * (scale // r.denominator)
        int_gens = [g * f for g in self.int_gens]
        i = bisect_left(int_gens, step)
        int_gens.insert(i, step)
        s._build(scale, tuple(int_gens), self.generators[:i] + (r,) + self.generators[i:],
                 den_bits, tally)
        self._extension = (r, tally.units, dict(vars(s)))
        return s

    # -- membership -------------------------------------------------------

    def _ensure_cover(self, t: int, budget: Budget) -> int:
        """The bits of a cover of at least t."""
        cover, bits, base = self._state
        if t > cover:
            cover = _grown_cover(base, t)
            bits = _close_bits(bits, self.int_atoms, cover, budget)
            self._state = (cover, bits, cover)
        return bits

    def _reach(self, t: int, budget: Budget) -> str:
        """Membership of 0..t as a string: reach[d] == "1" iff d is reachable.

        The cover is masked to t + 1 bits before formatting, so the cost
        follows t rather than the cover.
        """
        bits = self._ensure_cover(t, budget)
        return format(bits & ((1 << (t + 1)) - 1), f"0{t + 1}b")[::-1]

    def contains(self, q: RationalLike, budget: Budget | int | None = None) -> bool:
        """Exact membership: is q a nonnegative-integer combination of generators?"""
        q = as_rational(q)
        if q.numerator < 0:
            raise InputError("membership is only defined for nonnegative rationals")
        # q * scale is an integer iff q's (reduced) denominator divides the scale
        d = q.denominator
        return self.scale % d == 0 and self._member(q.numerator * (self.scale // d), budget)

    def _member(self, t: int, budget: Budget | int | None) -> bool:
        """contains for an integer t >= 0 on this monoid's grid."""
        table = self._table
        if table is None:
            cover, bits, base = self._state
            if t > cover:
                budget = _as_budget(budget)
                atoms = self.int_atoms
                if _table_is_cheaper(len(atoms), atoms[0], _grown_cover(base, t)):
                    table = self._table = _apery(atoms, budget)[0]
                    return t >= table[t % len(table)]
                bits = self._ensure_cover(t, budget)
            return bool((bits >> t) & 1)
        return t >= table[t % len(table)]

    def __contains__(self, q: RationalLike) -> bool:
        return self.contains(q)

    def divides(self, c: RationalLike, b: RationalLike, budget: Budget | int | None = None) -> bool:
        """True iff c and b lie in the monoid and b - c does too."""
        c, b = as_rational(c), as_rational(b)
        if c < 0 or b < 0 or b < c:
            return False
        budget = _as_budget(budget)
        return self.contains(c, budget) and self.contains(b, budget) and self.contains(b - c, budget)

    def _int_target(self, q: RationalLike, budget: Budget) -> int:
        q = as_rational(q)
        if q.numerator < 0 or not self.contains(q, budget):
            raise NotAMemberError(f"{q} is not an element of {self}")
        return q.numerator * (self.scale // q.denominator)

    # -- divisibility structure --------------------------------------------

    def divisors(self, q: RationalLike, budget: Budget | int | None = None) -> tuple[Fraction, ...]:
        """The finite set {d in M : q - d in M}, ascending."""
        budget = _as_budget(budget)
        t = self._int_target(q, budget)
        # the divisors of t are its common divisors with itself
        common = _common_divisors(self._reach(t, budget), t, t, t)
        return tuple(Fraction(d, self.scale) for d in _ones(common))

    def mcd_set(self, x: RationalLike, y: RationalLike, budget: Budget | int | None = None) -> tuple[Fraction, ...]:
        """All maximal common divisors of {x, y}, ascending.

        Maximality is with respect to divisibility inside the monoid: d is
        kept iff no other common divisor d' satisfies d' - d in M.  Always
        nonempty here because divisor sets of finitely generated Puiseux
        monoids are finite.
        """
        budget = _as_budget(budget)
        tx, ty = self._int_target(x, budget), self._int_target(y, budget)
        common = _common_divisors(self._reach(max(tx, ty), budget), min(tx, ty), tx, ty)
        # a common divisor e above d with e - d in M gives one at d + a for
        # any atom a of e - d (x - d - a = (x - e) + (e - d - a)), so one
        # shift per atom decides maximality
        above = 0
        for a in self.int_atoms:
            above |= common >> a
        return tuple(Fraction(d, self.scale) for d in _ones(common & ~above))

    def is_mcd(self, x: RationalLike, y: RationalLike, d: RationalLike,
               budget: Budget | int | None = None) -> bool:
        """Definitional check: d divides x and y, and the only common divisor
        of {x - d, y - d} is 0."""
        budget = _as_budget(budget)
        x, y, d = as_rational(x), as_rational(y), as_rational(d)
        for v in (x, y):
            self._int_target(v, budget)   # NotAMemberError outside the monoid
        if not (self.divides(d, x, budget) and self.divides(d, y, budget)):
            return False
        residual_common = set(self.divisors(x - d, budget)) & set(self.divisors(y - d, budget))
        return residual_common == {Fraction(0)}

    # -- factorizations -----------------------------------------------------

    def _paths(self, q: RationalLike, ell: int | None, budget: Budget | int | None) -> list:
        budget = _as_budget(budget)
        return _checked_paths(self._int_target(q, budget), self.int_atoms, ell, budget)

    def factorizations(self, q: RationalLike, budget: Budget | int | None = None) -> FactorizationSet:
        """Complete enumeration of multisets of atoms summing to q."""
        return _paths_to_set(q, self.atoms, self._paths(q, None, budget))

    def factorizations_of_length(self, q: RationalLike, ell: int,
                                 budget: Budget | int | None = None) -> FactorizationSet:
        """The subset of factorizations of q with exactly ell parts."""
        if ell < 1:
            raise InputError("length must be a positive integer")
        return _paths_to_set(q, self.atoms, self._paths(q, ell, budget))

    def lengths(self, q: RationalLike, budget: Budget | int | None = None) -> LengthSet:
        """Exactly the set of lengths over all factorizations of q."""
        paths = self._paths(q, None, budget)
        return LengthSet(as_rational(q), tuple(sorted({sum(m for _, m in p) for p in paths})))

    # -- structure report ---------------------------------------------------

    def smallest_members(self, count: int, budget: Budget | int | None = None) -> list[Fraction]:
        """The count smallest positive elements, ascending."""
        # the multiples of the smallest atom alone give count of them by count * atom
        reach = self._reach(max(count, 0) * self.int_atoms[0], _as_budget(budget))
        members, t = [], reach.find("1", 1)
        while t > 0 and len(members) < count:
            members.append(Fraction(t, self.scale))
            t = reach.find("1", t + 1)
        return members

    def classify(self, sample_size: int = 10, budget: Budget | int | None = None) -> dict:
        """Structure report: cited flags plus enumeration evidence on a sample.

        Finitely generated monoids are atomic and have the finite, bounded,
        and length-finite factorization properties; being finitely generated
        also keeps 0 away from the nonzero elements.  The report re-evidences
        finiteness by completely enumerating the sample's factorization sets.
        """
        budget = _as_budget(budget)
        sample = self.smallest_members(sample_size, budget)
        counts = [len(self._paths(q, None, budget)) for q in sample]
        flag = lambda v: {"value": v, "provenance": "paper"}
        return {
            "generators": [str(g) for g in self.generators],
            "atoms": [str(a) for a in self.atoms],
            "atom_count": len(self.atoms),
            "scale": self.scale,
            "min_positive": str(self.atoms[0]),
            "flags": {
                "atomic": flag(True),
                "bbm": flag(True),
                "bfm": flag(True),
                "ffm": flag(True),
                "lffm": flag(True),
                "antimatter": flag(False),
            },
            "evidence": {
                "sampled_members": [str(q) for q in sample],
                "factorization_counts": counts,
                "all_finite": True,
                "unique_factorization_observed": all(c == 1 for c in counts),
            },
        }

    # -- algebra --------------------------------------------------------------

    def internal_sum(self, other, budget: Budget | int | None = None):
        """Smallest submonoid containing both: generated by the union.  A
        summand of another class (a family) forms the sum itself."""
        if not isinstance(other, FgMonoid):
            return other.internal_sum(self, budget)
        return FgMonoid(self.generators + other.generators, budget)

    def __add__(self, other: "FgMonoid") -> "FgMonoid":
        return self.internal_sum(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FgMonoid):
            return NotImplemented
        return self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        return f"FgMonoid({', '.join(str(g) for g in self.generators)})"


def _solve_int(target: int, atoms: Sequence[int], exact_length: int | None,
               budget: Budget) -> list[tuple[tuple[int, int], ...]]:
    """All ways to write target as a sum of multiples of atoms (ascending,
    distinct), each as a sparse path ((i, m), ...) of the nonzero
    multiplicities m of atoms[i], in ascending i.

    Depth-first over atoms from largest to smallest, counting multiplicities
    up from zero, so every solution is reached once and they are emitted
    distinct and already in canonical order (see FactorizationSet).
    Pruning: the residue must be divisible by the gcd of the remaining
    atoms, and under an exact-length constraint it must fit between
    length * min and length * max of the remaining atoms (without one, it
    must be zero or at least the smallest atom).  When exactly one part is
    left, the residue is looked up among the atoms not above the current
    one instead of searched for.  When two atoms a0 < a1 are left, the node
    has no children: a0*m0 + a1*m1 = rem is solved in closed form (Bezout's
    identity).  With g = gcd(a0, a1) dividing rem, the solutions are the m1
    congruent to (rem/g) * (a1/g)^-1 mod a0/g with m1 * a1 <= rem, taken
    ascending as the search would meet them; under a length l the only
    candidate is m1 = (rem - l*a0) / (a1 - a0), kept if it is an integer
    in [0, l].

    Work: a unit per node, plus one per 64-bit word of target past the
    second (free below 192 bits, where a node costs about what a one-word
    node does), and one per solution a two-atom node solves for, charged
    before that node emits them.
    """
    k = len(atoms)
    prefix_gcd = [0] * k
    g = 0
    for i, a in enumerate(atoms):
        g = math.gcd(g, a)
        prefix_gcd[i] = g
    index_of = {a: i for i, a in enumerate(atoms)}
    out: list[tuple[tuple[int, int], ...]] = []
    path: list[tuple[int, int]] = []   # nonzero multiplicities on the open path, largest index first

    def children(i: int, rem: int, need: int | None) -> Iterator[tuple[int, int, int | None]]:
        a = atoms[i]
        top = rem // a
        if need is not None:
            top = min(top, need)
        base = len(path)
        for m in range(top + 1):
            new_rem = rem - m * a
            if need is not None:
                left = need - m
                if new_rem < left * atoms[0] or new_rem > left * atoms[i - 1]:
                    continue
            elif 0 < new_rem < atoms[0]:
                continue
            if m:
                path[base:] = [(i, m)]
            yield i - 1, new_rem, None if need is None else need - m
        del path[base:]

    def expand(node: tuple[int, int, int | None]) -> Iterator[tuple[int, int, int | None]] | None:
        i, rem, need = node
        if rem == 0:
            if not need:
                out.append(tuple(reversed(path)))
        elif need == 1:
            j = index_of.get(rem, k)
            if j <= i:
                out.append(((j, 1), *reversed(path)))
        elif i == 1:
            # a0*m0 + a1*m1 = rem in closed form, m1 ascending
            a0, a1, g = atoms[0], atoms[1], prefix_gcd[1]
            if need is not None:
                m1, r = divmod(rem - need * a0, a1 - a0)
                m1s = range(m1, m1 + 1) if r == 0 and 0 <= m1 <= need else range(0)
            elif rem % g == 0:
                step = a0 // g
                m1s = range(rem // g * pow(a1 // g, -1, step) % step, rem // a1 + 1, step)
            else:
                m1s = range(0)
            # len(m1s) without len(), which overflows past sys.maxsize items
            budget.spend(max(0, -((m1s.start - m1s.stop) // m1s.step)))
            tail = tuple(reversed(path))
            for m1 in m1s:
                m0 = (rem - m1 * a1) // a0
                out.append(((0, m0), (1, m1), *tail) if m0 and m1
                           else ((0, m0), *tail) if m0 else ((1, m1), *tail))
        elif i == 0:
            m, r = divmod(rem, atoms[0])
            if r == 0 and (need is None or need == m):
                out.append(((0, m), *reversed(path)))
        elif i > 1 and need != 0 and rem % prefix_gcd[i] == 0:
            return children(i, rem, need)

    _depth_first((k - 1, target, exact_length), expand, budget, max(1, target.bit_length() // 64 - 1))
    return out


def _checked_paths(target: int, atoms: Sequence[int], exact_length: int | None,
                   budget: Budget) -> list[tuple[tuple[int, int], ...]]:
    """_solve_int's paths, each re-checked to sum to target."""
    paths = _solve_int(target, atoms, exact_length, budget)
    for p in paths:
        if sum(m * atoms[i] for i, m in p) != target:
            raise RuntimeError(f"the integer search returned a path that does not sum to {target}")
    return paths


def _paths_to_set(q: RationalLike, atoms: Sequence[Fraction] | Mapping[int, Fraction],
                  paths: Iterable[tuple[tuple[int, int], ...]]) -> FactorizationSet:
    """The factorizations of q given by kernel paths over atoms (ascending),
    indexed like the kernel's: a sequence, or a mapping from each index the
    paths use to its atom.

    Ascending indices give each factorization its sorted parts, and the
    kernel's order is already canonical and free of repeats.
    """
    return FactorizationSet(as_rational(q), tuple(
        Factorization(tuple((atoms[i], m) for i, m in p)) for p in paths))


# -- cyclic extensions: the constructive procedures behind the sum theorems --
# They run on S's scaled integers (r is step = r * S.scale; M's grid is S's
# divided by f = S.scale / M.scale) and charge S's construction, S's bitmask
# where they scan, M's table or bitmask per membership test, and kernel nodes.


@dataclass(frozen=True)
class CyclicExtension:
    """S = M + N_0*r, remembering whether r was already in M.

    When r lies outside M it is automatically an atom of S, because r is
    the least nonzero element of the cyclic part.
    """

    monoid: FgMonoid
    r_in_base: bool


def add_cyclic(m: FgMonoid, r: RationalLike, budget: Budget | int | None = None) -> CyclicExtension:
    """Extend by one cyclic generator; returns M itself when r is in M."""
    r = as_rational(r)
    if r <= 0:
        raise InputError("cyclic generator must be positive")
    budget = _as_budget(budget)
    in_base = m.contains(r, budget)
    s = m if in_base else m._extended(r, budget)
    return CyclicExtension(s, in_base)


def _r_multiple(reach: str, t: int, step: int) -> int:
    """Largest k >= 0 with reach[t - k*step] == "1", for reach[t] == "1"."""
    k = reach[t % step:t:step].find("1")
    return t // step - k if k >= 0 else 0


def max_cyclic_divisor(s: FgMonoid, a: RationalLike, r: RationalLike,
                       budget: Budget | int | None = None) -> int:
    """Largest m >= 0 with a - m*r in S; finite because r > 0."""
    a, r = as_rational(a), as_rational(r)
    if r <= 0:
        raise InputError("r must be positive")
    budget = _as_budget(budget)
    t = s._int_target(a, budget)
    # a - m*r stays on the integer grid of S only when den divides m
    step, den = (r * s.scale).as_integer_ratio()
    return den * _r_multiple(s._reach(t, budget), t, step)


def _extension(m: FgMonoid, r: Fraction, budget: Budget) -> tuple[FgMonoid, int, int]:
    """S = M + N_0*r for an r outside M, r on S's grid, and f = S.scale / M.scale."""
    if (ext := add_cyclic(m, r, budget)).r_in_base:
        raise InputError(f"{r} already lies in {m}")
    s = ext.monoid
    return s, r.numerator * (s.scale // r.denominator), s.scale // m.scale


def _lifter(m: FgMonoid, s: FgMonoid, step: int, f: int):
    """Lift a kernel path over M's atoms, plus c parts r, to a kernel path
    over S's atoms; None when one of its parts is no atom of S."""
    index_of = {a: j for j, a in enumerate(s.int_atoms)}
    index, r_index = [index_of.get(a * f) for a in m.int_atoms], index_of[step]

    def lift(p, c):
        q = [(index[i], k) for i, k in p]
        return None if any(j is None for j, _ in q) else tuple(sorted(q + [(r_index, c)] if c else q))
    return lift


def refactor_atom(m: FgMonoid, r: RationalLike, a: RationalLike,
                  budget: Budget | int | None = None) -> Factorization:
    """Rewrite an atom of M over the atoms of S = M + N_0*r.

    Strips the maximal multiple of r first; the remainder then factors over
    atoms of M, and maximality forces every part of that factorization to
    stay an atom of S.  This is the constructive witness that atomicity
    survives a cyclic extension.  The remainder's factorization is the
    kernel's first over M's atoms.
    """
    r, a = as_rational(r), as_rational(a)
    budget = _as_budget(budget)
    # an r in M is reported first; its cached membership makes the second check free
    if a not in m.atoms and not m.contains(r, budget):
        raise InputError(f"{a} is not an atom of {m}")
    s, step, f = _extension(m, r, budget)
    t = s._int_target(a, budget)
    mult = _r_multiple(s._reach(t, budget), t, step)
    rest = t - mult * step
    if rest % f or not m._member(rest // f, budget):
        raise RuntimeError("maximal r-multiple left a remainder outside the base monoid")
    p = _lifter(m, s, step, f)(_checked_paths(rest // f, m.int_atoms, None, budget)[0], mult)
    if p is None:
        raise RuntimeError("refactorization produced a part that is not an atom of the extension")
    return Factorization(tuple((s.atoms[j], k) for j, k in p))


def mcd_via_extension(m: FgMonoid, r: RationalLike, x: RationalLike, y: RationalLike,
                      budget: Budget | int | None = None) -> Fraction:
    """A maximal common divisor of {x, y} in S = M + N_0*r.

    Runs the inductive construction from the strong-atomicity argument: strip
    the shared multiple of r, then repeatedly take a maximal common divisor
    in the base monoid and peel off a smallest nonzero residual common
    divisor, which strictly decreases the r-multiple of the second element.
    The one taken in M is its largest common divisor, m.mcd_set(x, y)[-1]
    (one above it would be larger), the highest bit of M's common-divisor
    mask (as mcd_set builds it); the residual one is the lowest nonzero
    bit of S's.
    """
    r, x, y = as_rational(r), as_rational(x), as_rational(y)
    budget = _as_budget(budget)
    s, step, f = _extension(m, r, budget)
    # NotAMemberError outside S, before any search
    x, y = s._int_target(x, budget), s._int_target(y, budget)
    sr, mr = s._reach(max(x, y), budget), ""
    mx, my = _r_multiple(sr, x, step), _r_multiple(sr, y, step)
    if mx > my:
        x, y, mx, my = y, x, my, mx
    d = mx * step
    x, y = x - d, y - d
    # Invariant: r does not divide x in S, so every divisor of x lives in M.
    # Nor ys, by the maximality of its r-multiple.  Both are tested as
    # m.mcd_set(x, ys) tests them, so M's structures are charged as there.
    for _ in range(my - mx + 2):
        ys = y - _r_multiple(sr, y, step) * step
        xm, ym = x // f, ys // f
        if x % f or ys % f or not (m._member(xm, budget) and m._member(ym, budget)):
            raise RuntimeError("maximal-common-divisor construction left the base monoid")
        if len(mr) <= max(xm, ym):
            mr = m._reach(max(xm, ym), budget)
        # 0 is a common divisor, so the largest one is found
        d1 = (_common_divisors(mr, min(xm, ym), xm, ym).bit_length() - 1) * f
        if ys == y:
            return Fraction(d + d1, s.scale)
        d, x, y = d + d1, x - d1, y - d1
        # the nonzero common divisors in S, bit k - 1 for k
        later = _common_divisors(sr, min(x, y), x, y) >> 1
        if not later:
            return Fraction(d, s.scale)
        k = (later & -later).bit_length()
        d, x, y = d + k, x - k, y - k
    raise RuntimeError("maximal-common-divisor construction exceeded its proof bound")


def factorizations_via_offsets(m: FgMonoid, r: RationalLike, s_value: RationalLike,
                               budget: Budget | int | None = None) -> FactorizationSet:
    """Factorizations in S = M + N_0*r assembled from base-monoid slices.

    Enumerates the finitely many offsets c with s - c*r in M, lifts each
    base factorization by c copies of r, then filters to multisets whose
    parts are all atoms of S.  The filtered union equals the direct
    enumeration over S; unfiltered it may mention base atoms that stop
    being atoms after the extension.  Sorting the lifted kernel paths puts
    the union in canonical order (see FactorizationSet).
    """
    r, s_value = as_rational(r), as_rational(s_value)
    budget = _as_budget(budget)
    s, step, f = _extension(m, r, budget)
    t = s._int_target(s_value, budget)   # NotAMemberError outside S
    lift = _lifter(m, s, step, f)
    paths = []
    for c in range(t // step + 1):
        rest = t - c * step
        if rest % f == 0 and m._member(rest // f, budget):
            lifted = (lift(p, c) for p in _checked_paths(rest // f, m.int_atoms, None, budget))
            paths += (p for p in lifted if p is not None)
    return _paths_to_set(s_value, s.atoms, sorted(paths, key=lambda p: p[::-1]))
