"""Rank-2 counterexample monoids in Z^2 with box-bounded exact searches.

Three closed-form submonoids of the integer lattice:

    quadrant   all points with both coordinates nonnegative
    upperhalf  the origin plus every point strictly above the x-axis
    lexcone    the nonnegative cone of the lexicographic order that gives
               priority to the second coordinate

Atomhood inside a box is sound for these particular monoids because any
decomposable member of the box admits a decomposition whose summands stay
within the box enlarged by the per-kind margin below: quadrant summands are
coordinate-wise dominated (margin 0); an upperhalf point with y >= 2 splits
off (0, 1) (margin 0); a lexcone point splits off (0, 1) when y >= 2 and
(1, 0) otherwise, moving x by at most one (margin 1).

Pairwise sums are taken on bitmasks.  A point with |x|, |y| <= R is bit
(y + R) * W + (x + R) with row width W = 4R + 1, so the sum of two encoded
points is the encoded sum shifted by the constant 2R * W + 2R: both
coordinate sums lie in [-2R, 2R] and an x-sum never wraps into the next
row.  A + B is then one shift-or of A's mask per point of the smaller set,
the same idiom `monoid._close_bits` closes a monoid with, and the sums
inside the box are read back from the result.

The factorization search over a point's atoms goes from the last atom to
the first.  Once every remaining atom has y >= 1, the rest (x, y) takes at
most y more parts, so x must lie between min(0, y * min x) and
max(0, y * max x) over the remaining atoms; other branches are cut.

Every search charges the budget before or as it works: one unit per box
point enumerated and per search node visited, and `monoid._shift_units`
(one unit per 8192 mask bits) per shift-or step, charged for the whole
sumset before its mask is built.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, NamedTuple

from .errors import InputError
from .monoid import Budget, _allot, _as_budget, _shift_units

LATTICE_KINDS = ("quadrant", "upperhalf", "lexcone")

_BOX_MARGIN = {"quadrant": 0, "upperhalf": 0, "lexcone": 1}


class LatticePoint(NamedTuple):
    x: int
    y: int

    def __add__(self, other: "LatticePoint") -> "LatticePoint":  # type: ignore[override]
        return LatticePoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "LatticePoint") -> "LatticePoint":
        return LatticePoint(self.x - other.x, self.y - other.y)

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


ORIGIN = LatticePoint(0, 0)
PointLike = LatticePoint | tuple[int, int]


def _point(v: PointLike) -> LatticePoint:
    return v if isinstance(v, LatticePoint) else LatticePoint(*v)


def lat_contains(kind: str, v: PointLike) -> bool:
    """Closed-form membership for the three lattice monoids."""
    v = _point(v)
    if kind == "quadrant":
        return v.x >= 0 and v.y >= 0
    if kind == "upperhalf":
        return v == ORIGIN or v.y >= 1
    if kind == "lexcone":
        return v.y > 0 or (v.y == 0 and v.x >= 0)
    raise InputError(f"unknown lattice monoid {kind!r}; known: {', '.join(LATTICE_KINDS)}")


def _box(bound: int) -> Iterator[LatticePoint]:
    """The points with |x|, |y| <= bound, in sorted order."""
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            yield LatticePoint(x, y)


def _members_in_box(kind: str, bound: int, budget: Budget) -> list[LatticePoint]:
    """The box's members of the monoid, in sorted order; the box's points
    are charged before they are enumerated."""
    budget.spend((2 * bound + 1) ** 2)
    return [v for v in _box(bound) if lat_contains(kind, v)]


def _sumset(a_points: list[LatticePoint], b_points: list[LatticePoint], bound: int,
            budget: Budget) -> set[LatticePoint]:
    """{a + b for a in A for b in B} restricted to |x|, |y| <= bound.

    Bitmask encoding as in the module docstring: one shift-or of the larger
    set's mask per point of the smaller set.
    """
    if not a_points or not b_points:
        return set()
    if len(b_points) > len(a_points):
        a_points, b_points = b_points, a_points
    r = max(max(abs(v.x), abs(v.y)) for v in a_points + b_points)
    width = 4 * r + 1
    size = width * width
    _allot(budget, len(b_points) * _shift_units(size), size)
    mask = 0
    for v in a_points:
        mask |= 1 << ((v.y + r) * width + v.x + r)
    sums = 0
    for v in b_points:
        sums |= mask << ((v.y + r) * width + v.x + r)
    bits = format(sums, f"0{size}b")[::-1]
    # no sum has a coordinate beyond 2r, and reading past it would wrap rows
    lim = min(bound, 2 * r)
    return {
        LatticePoint(x, y)
        for y in range(-lim, lim + 1)
        for x in range(-lim, lim + 1)
        if bits[(y + 2 * r) * width + x + 2 * r] == "1"
    }


def lat_atoms_in_box(kind: str, bound: int,
                     budget: Budget | int | None = None) -> tuple[LatticePoint, ...]:
    """Atoms of the monoid with |x|, |y| <= bound, by exhaustive decomposition.

    A box member is decomposable iff it is a sum of two nonzero members of
    the box enlarged by the documented per-kind margin, which suffices for
    completeness (see module docstring).
    """
    if bound < 1:
        raise InputError("box bound must be positive")
    budget = _as_budget(budget)
    nonzero = [v for v in _members_in_box(kind, bound + _BOX_MARGIN[kind], budget) if v != ORIGIN]
    decomposable = _sumset(nonzero, nonzero, bound, budget)
    return tuple(
        v for v in nonzero
        if abs(v.x) <= bound and abs(v.y) <= bound and v not in decomposable
    )


def lat_atomic_elements_in_box(bound: int,
                               budget: Budget | int | None = None) -> tuple[LatticePoint, ...]:
    """Members of the lexicographic cone in the box that are sums of its
    box atoms; with atom set {(1,0)} this is the nonnegative x-axis."""
    if bound < 1:
        raise InputError("box bound must be positive")
    budget = _as_budget(budget)
    return _sums_in_box(lat_atoms_in_box("lexcone", bound, budget), bound, budget)


def _sums_in_box(atoms: tuple[LatticePoint, ...], bound: int,
                 budget: Budget) -> tuple[LatticePoint, ...]:
    """Every sum of the given atoms reachable without leaving the box."""
    reached = {ORIGIN}
    frontier = [ORIGIN]
    while frontier:
        budget.spend()
        v = frontier.pop()
        for a in atoms:
            w = v + a
            if abs(w.x) <= bound and abs(w.y) <= bound and w not in reached:
                reached.add(w)
                frontier.append(w)
    return tuple(sorted(reached))


def lex_sum_check(bound: int, budget: Budget | int | None = None) -> bool:
    """Does quadrant + upperhalf coincide with the lexicographic cone on the box?

    The pairwise sums are taken over the twice-enlarged box, which covers
    every decomposition of a box point: a sum landing in the box can use the
    trivial splits v = v + 0 with each summand already inside the box.
    """
    if bound < 1:
        raise InputError("box bound must be positive")
    budget = _as_budget(budget)
    quadrant = _members_in_box("quadrant", 2 * bound, budget)
    upperhalf = _members_in_box("upperhalf", 2 * bound, budget)
    summed = _sumset(quadrant, upperhalf, bound, budget)
    return summed == set(_members_in_box("lexcone", bound, budget))


def lat_factorizations_in_box(kind: str, v: PointLike, bound: int,
                              budget: Budget | int | None = None
                              ) -> tuple[tuple[LatticePoint, ...], ...]:
    """All multisets of box atoms summing to v, each sorted, in sorted order.

    Complete over the atoms found in the box; for upperhalf this grows with
    the box (every split (n, 1) + (x - n, 1) of (x, 2) is a new multiset),
    which is exactly the evidence that factorization sets there are not
    finite even though every length set is a singleton.
    """
    v = _point(v)
    if not lat_contains(kind, v):
        raise InputError(f"{v} is not an element of {kind}")
    budget = _as_budget(budget)
    return _factorizations(lat_atoms_in_box(kind, bound, budget), v, budget)


def _factorizations(atoms: tuple[LatticePoint, ...], v: LatticePoint,
                    budget: Budget) -> tuple[tuple[LatticePoint, ...], ...]:
    """All multisets of the given atoms summing to v, each sorted, in sorted order.

    Depth-first from the last atom to the first, one budget unit per node,
    with the height prune of the module docstring.
    """
    k = len(atoms)
    # over atoms[0..i]: least and greatest x, and whether every y >= 1
    lo = list(accumulate((a.x for a in atoms), min))
    hi = list(accumulate((a.x for a in atoms), max))
    lifted = list(accumulate((a.y >= 1 for a in atoms), min))
    out: list[tuple[LatticePoint, ...]] = []
    counts = [0] * k

    def children(i: int, rest: LatticePoint) -> Iterator[tuple[int, LatticePoint]]:
        a = atoms[i]
        # atoms of these monoids never have negative y; atoms on the x-axis
        # have positive x and only ever coexist with other nonnegative-x atoms
        if a.y > 0:
            top = rest.y // a.y
        else:
            top = rest.x // a.x if rest.x > 0 else 0
        for m in range(top + 1):
            x, y = rest.x - m * a.x, rest.y - m * a.y
            if i and lifted[i - 1] and not min(0, y * lo[i - 1]) <= x <= max(0, y * hi[i - 1]):
                continue
            counts[i] = m
            yield i - 1, LatticePoint(x, y)
        counts[i] = 0

    # one child iterator per open level instead of one Python frame, so the
    # depth (one level per atom) is not bounded by the recursion limit
    stack = [iter([(k - 1, v)])]
    while stack:
        for i, rest in stack[-1]:
            budget.spend()
            if rest == ORIGIN:
                out.append(tuple(sorted(a for a, m in zip(atoms, counts) for _ in range(m))))
            elif i >= 0 and rest.y >= 0:
                stack.append(children(i, rest))
                break
        else:
            stack.pop()
    return tuple(sorted(set(out)))
