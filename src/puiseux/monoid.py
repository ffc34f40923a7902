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
construction for the largest generator, and again by each membership query
past the construction's cover, for that query alone.  The range scans
(divisors, mcd sets, cyclic divisors) read the bitmask, since they are
O(target) anyway.

The cyclic-extension procedures (the last section) run on the integers of
S = M + N_0*r too, and charge only these structures and the kernel's nodes.
"""

from __future__ import annotations

import heapq
import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import BudgetExceededError, InputError, NotAMemberError
from .qarith import RationalLike, as_rational


class Budget:
    """One operation's search-node allowance (a limit of None, and then left,
    is unlimited) and the record of what it paid: spent, limited or not.
    Exhaustion raises instead of truncating, so callers can never mistake a
    partial answer for an exact one.  A list in trace records the nodes of
    every sqden search the budget pays for (the 4.3 pruning trace)."""

    __slots__ = ("limit", "spent", "primes_paid", "trace")

    def __init__(self, limit: int | None = None):
        if limit is not None and limit <= 0:
            raise InputError("budget must be positive")
        self.limit, self.spent, self.trace = limit, 0, None
        self.primes_paid = 0   # the bound up to which prime scans are charged

    @property
    def left(self) -> int | None:
        return None if self.limit is None else self.limit - self.spent

    def affords(self, amount: int) -> bool:
        return self.limit is None or self.spent + amount <= self.limit

    def spend(self, amount: int = 1) -> None:
        self.spent += amount
        if self.limit is not None and self.spent > self.limit:
            raise BudgetExceededError("search-node budget exhausted")


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

    No query changes the membership structures, so a query's answer,
    exception and budget units are those of the same query on a fresh
    monoid.  Construction keeps an Apéry table when it costs fewer budget
    units than a reachability mask up to the largest generator; otherwise
    the atom sieve's mask, exactly the members up to that generator, is
    the cover.  A query past the cover builds, for itself alone, a table
    or a mask closed to max(t, 256), whichever costs fewer units; the
    range scans always read a mask.

    A cyclic extension M + N_0*r (add_cyclic) is FgMonoid(M.generators +
    (r,)).  M keeps the last one in one slot, assigned after the build
    returns (an exhausted build leaves it be) and read once per call, so
    threads see a whole entry and only rebuild.
    """

    def __init__(self, generators: Iterable[RationalLike], budget: Budget | int | None = None):
        # deduplicated on (numerator, denominator), sorted as scaled integers
        gens = {(q.numerator, q.denominator): q for q in map(_positive_rational, generators)}
        if not gens:
            raise InputError("at least one generator is required")
        budget = _as_budget(budget)
        # charged before the scale is built
        budget.spend(_scale_units(len(gens), sum(d.bit_length() for _, d in gens)))
        self.scale = scale = math.lcm(*(d for _, d in gens))
        generator_of = dict(sorted((n * (scale // d), q) for (n, d), q in gens.items()))
        self.int_gens = int_gens = tuple(generator_of)
        self.generators = tuple(generator_of.values())
        # (r, units, S) of the last cyclic extension built, as first built
        self._extension: tuple | None = None
        limit = int_gens[-1]
        # Apéry table with respect to int_atoms[0], or None; and (cover, bits):
        # bit t decided for all 0 <= t <= cover
        self._table: list | None = None
        if _table_is_cheaper(len(int_gens), int_gens[0], limit):
            self._table, atoms = _apery(int_gens, budget)
            self._state = (0, 1)
        else:
            atoms, bits = _sieve(int_gens, 1, lambda bits, g: (bits >> g) & 1,
                                 lambda bits, g: _close_bits(bits, (g,), limit, budget))
            # closed under every atom, so exactly the members up to limit
            self._state = (limit, bits)
        self.int_atoms = tuple(atoms)
        self.atoms = tuple(generator_of[g] for g in self.int_atoms)

    def _extended(self, r: Fraction, budget: Budget) -> "FgMonoid":
        """FgMonoid(self.generators + (r,), budget) for a positive r.  The
        slot's S is reused, its units charged in one spend, when budget can
        pay them; else the build runs and raises as a first build would."""
        last = self._extension
        if last is not None and last[0] == r and budget.affords(last[1]):
            budget.spend(last[1])
            return last[2]
        spent = budget.spent
        s = FgMonoid(self.generators + (r,), budget)
        self._extension = (r, budget.spent - spent, s)
        return s

    # -- membership -------------------------------------------------------

    def _reach(self, t: int, budget: Budget) -> str:
        """Membership of 0..t as a string: reach[d] == "1" iff d is reachable.

        The mask is cut to t + 1 bits before formatting, so the cost
        follows t rather than the mask.
        """
        cover, bits = self._state
        if t > cover:
            bits = _close_bits(bits, self.int_atoms, max(t, 256), budget)
        return format(bits & ((1 << (t + 1)) - 1), f"0{t + 1}b")[::-1]

    def _membership(self, t: int, budget: Budget | int | None) -> Callable[[int], bool]:
        """A membership test for the integers 0..t on this monoid's grid,
        from the construction's structures or from one built for this call."""
        table, (cover, bits) = self._table, self._state
        if table is None and t > cover:
            atoms, limit, budget = self.int_atoms, max(t, 256), _as_budget(budget)
            if _table_is_cheaper(len(atoms), atoms[0], limit):
                table = _apery(atoms, budget)[0]
            else:
                bits = _close_bits(bits, atoms, limit, budget)
        if table is None:
            return lambda u: (bits >> u) & 1 == 1
        return lambda u: u >= table[u % len(table)]

    def _grid(self, q: Fraction) -> int | None:
        """q * scale, or None when q is negative or off this monoid's grid."""
        # q * scale is an integer iff q's (reduced) denominator divides the scale
        d = q.denominator
        return q.numerator * (self.scale // d) if q.numerator >= 0 and self.scale % d == 0 else None

    def contains(self, q: RationalLike, budget: Budget | int | None = None) -> bool:
        """Exact membership: is q a nonnegative-integer combination of generators?"""
        q = as_rational(q)
        if q.numerator < 0:
            raise InputError("membership is only defined for nonnegative rationals")
        t = self._grid(q)
        return t is not None and self._membership(t, budget)(t)

    def __contains__(self, q: RationalLike) -> bool:
        return self.contains(q)

    def divides(self, c: RationalLike, b: RationalLike, budget: Budget | int | None = None) -> bool:
        """True iff c and b lie in the monoid and b - c does too."""
        c, b = as_rational(c), as_rational(b)
        if c < 0 or b < 0 or b < c:
            return False
        ts = [self._grid(v) for v in (c, b, b - c)]
        return None not in ts and all(map(self._membership(ts[1], budget), ts))

    def _int_target(self, q: RationalLike, budget: Budget) -> int:
        q = as_rational(q)
        t = self._grid(q)
        if t is None or not self._membership(t, budget)(t):
            raise NotAMemberError(f"{q} is not an element of {self}")
        return t

    def _scan(self, qs: Iterable[RationalLike], budget: Budget) -> tuple[str, list[int]]:
        """The reach string up to the largest of qs, and their integers; a
        NotAMemberError names the first q outside the monoid."""
        qs = [as_rational(q) for q in qs]
        ts = [self._grid(q) for q in qs]
        reach = "" if None in ts else self._reach(max(ts), budget)
        for q, t in zip(qs, ts):
            if t is None or reach[t:t + 1] != "1":
                raise NotAMemberError(f"{q} is not an element of {self}")
        return reach, ts

    # -- divisibility structure --------------------------------------------

    def divisors(self, q: RationalLike, budget: Budget | int | None = None) -> tuple[Fraction, ...]:
        """The finite set {d in M : q - d in M}, ascending."""
        reach, (t,) = self._scan((q,), _as_budget(budget))
        # the divisors of t are its common divisors with itself
        common = _common_divisors(reach, t, t, t)
        return tuple(Fraction(d, self.scale) for d in _ones(common))

    def mcd_set(self, x: RationalLike, y: RationalLike, budget: Budget | int | None = None) -> tuple[Fraction, ...]:
        """All maximal common divisors of {x, y}, ascending.

        Maximality is with respect to divisibility inside the monoid: d is
        kept iff no other common divisor d' satisfies d' - d in M.  Always
        nonempty here because divisor sets of finitely generated Puiseux
        monoids are finite.
        """
        reach, (tx, ty) = self._scan((x, y), _as_budget(budget))
        common = _common_divisors(reach, min(tx, ty), tx, ty)
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

    def classify(self, budget: Budget | int | None = None) -> dict:
        """Structure report: cited flags plus enumeration evidence on the 10 smallest members.

        Finitely generated monoids are atomic and have the finite, bounded,
        and length-finite factorization properties; being finitely generated
        also keeps 0 away from the nonzero elements.  The report re-evidences
        finiteness by completely enumerating the sample's factorization sets.
        """
        sample = _smallest_with_counts(self.int_atoms, 10, _as_budget(budget))
        counts = [c for _, c in sample]
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
                "sampled_members": [_ratio_str(t, self.scale) for t, _ in sample],
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


def _ratio_str(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, without building the Fraction."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


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
    length * min and length * max of the remaining atoms, so a node's
    multiplicities are a closed-form interval, each one a charged child
    (without one, it must be zero or at least the smallest atom).  When
    exactly one part is left, the residue is looked up among the atoms not
    above the current one instead of searched for; when two are left, each
    candidate larger part a_j in [rem/2, rem - a0], ascending, has its
    partner rem - a_j looked up the same way.  When two atoms a0 < a1
    are left, the node has no children: a0*m0 + a1*m1 = rem is solved in
    closed form (Bezout's identity).  With g = gcd(a0, a1) dividing rem, the
    solutions are the m1 congruent to (rem/g) * (a1/g)^-1 mod a0/g with
    m1 * a1 <= rem, taken ascending as the search would meet them; under a
    length l the only candidate is m1 = (rem - l*a0) / (a1 - a0), kept if
    it is an integer in [0, l].  A node with three atoms left and no length
    solves its two-atom children in one loop instead of handing them to the
    driver: each is charged as the node it would be, then for its solutions,
    before the next, so the units and the point where a budget runs out are
    those of the tree.

    Work: a unit per node, plus one per 64-bit word of target past the
    second (free below 192 bits, where a node costs about what a one-word
    node does); as much again per candidate of a node with two parts left,
    and one per solution a two-atom node solves for, each charged before
    that node emits.  The prefix gcds are charged as one such node per atom
    past its first unit, before they are computed.
    """
    k = len(atoms)
    unit = max(1, target.bit_length() // 64 - 1)
    budget.spend(k * (unit - 1))
    prefix_gcd = [0] * k
    g = 0
    for i, a in enumerate(atoms):
        g = math.gcd(g, a)
        prefix_gcd[i] = g
    index_of = {a: i for i, a in enumerate(atoms)}
    spend = budget.spend
    if k > 1:   # the two-atom level a0*m0 + a1*m1 = rem, solvable when g divides rem
        a0, a1, g = atoms[0], atoms[1], prefix_gcd[1]
        step = a0 // g
    out: list[tuple[tuple[int, int], ...]] = []
    path: list[tuple[int, int]] = []   # nonzero multiplicities on the open path, largest index first

    def children(i: int, rem: int, need: int | None) -> Iterator[tuple[int, int, int | None]]:
        a, base = atoms[i], len(path)
        if need is None:
            low, top = 0, rem // a
        else:  # m leaves need - m parts between atoms[0] and atoms[i - 1], so m <= need, rem // a
            a0, b = atoms[0], atoms[i - 1]
            low, top = (rem - need * b - 1) // (a - b) + 1, (rem - need * a0) // (a - a0)
        for m in range(low if low > 0 else 0, top + 1):
            new_rem = rem - m * a
            if need is None and 0 < new_rem < atoms[0]:
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
        elif need == 2 and i > 1:
            # the larger part a_j >= rem - a_j >= atoms[0], j ascending as the search meets them
            lo = bisect_left(atoms, (rem + 1) // 2, 0, i + 1)
            hi = bisect_right(atoms, rem - atoms[0], 0, i + 1)
            spend(unit * (hi - lo))
            tail = tuple(reversed(path))
            for j in range(lo, hi):
                other = index_of.get(rem - atoms[j], k)
                if other < j:
                    out.append(((other, 1), (j, 1), *tail))
                elif other == j:
                    out.append(((j, 2), *tail))
        elif i == 2 and need is None:
            # each child (1, r1) is charged as a node and solved here, as the i == 1 branch would
            if rem % prefix_gcd[2]:
                return None
            a2, head, inv = atoms[2], tuple(reversed(path)), pow(a1 // g, -1, step)
            for m2 in range(rem // a2 + 1):
                r1 = rem - m2 * a2
                if 0 < r1 < a0:
                    continue
                spend(unit)
                if r1 == 0:
                    out.append(((2, m2), *head))
                elif r1 % g == 0:
                    start, stop = r1 // g * inv % step, r1 // a1 + 1
                    if start < stop:
                        spend(-((start - stop) // step))
                        tail = ((2, m2), *head) if m2 else head
                        for m1 in range(start, stop, step):
                            m0 = (r1 - m1 * a1) // a0
                            out.append(((0, m0), (1, m1), *tail) if m0 and m1
                                       else ((0, m0), *tail) if m0 else ((1, m1), *tail))
        elif i == 1:
            # a0*m0 + a1*m1 = rem in closed form, m1 ascending
            if need is not None:
                m1, r = divmod(rem - need * a0, a1 - a0)
                m1s = range(m1, m1 + 1) if r == 0 and 0 <= m1 <= need else range(0)
            elif rem % g == 0:
                m1s = range(rem // g * pow(a1 // g, -1, step) % step, rem // a1 + 1, step)
            else:
                m1s = range(0)
            # len(m1s) without len(), which overflows past sys.maxsize items
            spend(max(0, -((m1s.start - m1s.stop) // m1s.step)))
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

    _depth_first((k - 1, target, exact_length), expand, budget, unit)
    return out


def _smallest_with_counts(atoms: Sequence[int], count: int, budget: Budget) -> list[tuple[int, int]]:
    """The count smallest positive sums of atoms, ascending, each with its
    number of factorizations, from one best-first walk over multisets of
    atoms as (sum, index of the largest part).  A popped multiset is
    extended only by atoms at or above that index, so each is pushed once,
    at one unit; they pop in order of their sum, so at the first pop of one
    more sum every factorization of the count smallest has been counted,
    whatever the scale or the smallest atom's size."""
    k, heap, counts = len(atoms), [(0, 0)], {}
    while count > 0:
        s, i = heapq.heappop(heap)
        if s not in counts and len(counts) > count:
            return list(counts.items())[1:]
        counts[s] = counts.get(s, 0) + 1
        budget.spend(k - i)
        for j in range(i, k):
            heapq.heappush(heap, (s + atoms[j], j))
    return []


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
# divided by f = S.scale / M.scale) and charge S's construction, which also
# decides whether r lies in M (S = M exactly then), S's bitmask where they
# scan, one membership structure of M per call, and kernel nodes.


@dataclass(frozen=True)
class CyclicExtension:
    """S = M + N_0*r, remembering whether r was already in M.

    When r lies outside M it is automatically an atom of S, because r is
    the least nonzero element of the cyclic part.
    """

    monoid: FgMonoid
    r_in_base: bool


def add_cyclic(m: FgMonoid, r: RationalLike, budget: Budget | int | None = None) -> CyclicExtension:
    """Extend by one cyclic generator; returns M itself when r is in M,
    which is exactly when S has M's atoms (an r outside M is an atom of S)."""
    r = as_rational(r)
    if r <= 0:
        raise InputError("cyclic generator must be positive")
    s = m._extended(r, _as_budget(budget))
    return CyclicExtension(m, True) if s == m else CyclicExtension(s, False)


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
    reach, (t,) = s._scan((a,), _as_budget(budget))
    # a - m*r stays on the integer grid of S only when den divides m
    step, den = (r * s.scale).as_integer_ratio()
    return den * _r_multiple(reach, t, step)


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
    # an r in M is reported first
    s, step, f = _extension(m, r, budget)
    if a not in m.atoms:
        raise InputError(f"{a} is not an atom of {m}")
    reach, (t,) = s._scan((a,), budget)
    mult = _r_multiple(reach, t, step)
    rest = t - mult * step
    if rest % f or not m._membership(rest // f, budget)(rest // f):
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
    sr, (x, y) = s._scan((x, y), budget)
    mx, my = _r_multiple(sr, x, step), _r_multiple(sr, y, step)
    if mx > my:
        x, y, mx, my = y, x, my, mx
    d = mx * step
    x, y = x - d, y - d
    # x and y only decrease from here, so one reach of M serves every step
    mr = m._reach(max(x, y) // f, budget)
    # Invariant: r does not divide x in S, so every divisor of x lives in M.
    # Nor ys, by the maximality of its r-multiple.
    for _ in range(my - mx + 2):
        ys = y - _r_multiple(sr, y, step) * step
        xm, ym = x // f, ys // f
        if x % f or ys % f or mr[xm] + mr[ym] != "11":
            raise RuntimeError("maximal-common-divisor construction left the base monoid")
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
    the union in canonical order (see FactorizationSet).  Only the offsets
    that leave s - c*r on M's grid are visited, one budget unit each.
    """
    r, s_value = as_rational(r), as_rational(s_value)
    budget = _as_budget(budget)
    s, step, f = _extension(m, r, budget)
    t = s._int_target(s_value, budget)   # NotAMemberError outside S
    lift, member = _lifter(m, s, step, f), m._membership(t // f, budget)
    # t - c*step is a multiple of f iff c*(step/g) = t/g mod f/g, g = gcd(f, step);
    # a member t of S is f*x + c*step for some c, so g divides t
    g = math.gcd(f, step)
    period = f // g
    paths = []
    for c in range(t // g * pow(step // g, -1, period) % period, t // step + 1, period):
        budget.spend()
        rest = (t - c * step) // f
        if member(rest):
            lifted = (lift(p, c) for p in _checked_paths(rest, m.int_atoms, None, budget))
            paths += (p for p in lifted if p is not None)
    return _paths_to_set(s_value, s.atoms, sorted(paths, key=lambda p: p[::-1]))
