"""Rank-2 counterexample monoids in Z^2 with box-bounded exact searches.

Three closed-form submonoids of the integer lattice, each holding in
column x every point from a floor set by the sign of x up:

    quadrant   all points with both coordinates nonnegative
    upperhalf  the origin plus every point strictly above the x-axis
    lexcone    the nonnegative cone of the lexicographic order that gives
               priority to the second coordinate

Atomhood inside a box is sound because a decomposable box member has a
decomposition inside the box enlarged by a per-kind margin: quadrant
summands are dominated (0); an upperhalf point with y >= 2 splits off
(0, 1) (0); a lexcone point splits off (0, 1) when y >= 2 and (1, 0)
otherwise, moving x by at most one (1).

Sumsets: a point with |x|, |y| <= R is bit (y + R) * W + x + R, W = 4R + 1,
so encoded sums are the sums shifted by 2R * W + 2R and never wrap a row.
A run of n consecutive x in a row of the smaller set shift-ors the larger
set's mask with itself by doubling, then shifts it into place: about
log2(n) + 1 shift-ors per run instead of n.

Factorizations go from the last atom to the first.  Two atoms left with
det = x0 * y1 - x1 * y0 != 0: Cramer's rule gives the one candidate (a
parallel pair loops over m1).  One left: rest = m * a0 is checked.  Once
every remaining atom has 1 <= y_min <= y <= y_max, a rest (x, y) takes
from ceil(y / y_max) to floor(y / y_min) parts p, so x lies within
[min p * min x, max p * max x]; other branches are cut.

The searches run on (x, y) pairs; only their results are LatticePoints.
Budget units, paid before or as the work is done: one per box point before
a box's members are listed; `monoid._shift_units` per point of the smaller
set, a bound on a sumset's shift-ors, paid by its caller from the closed-form
member count before any member is listed; one per point sums of atoms
reach; one per factorization node and per closed-form solution.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .errors import InputError
from .monoid import Budget, _allot, _as_budget, _shift_units

Pair = tuple[int, int]
# per kind: the lowest member of a column x < 0, x = 0 and x > 0 (None: the
# column has none), and the box margin that keeps atomhood sound
_KINDS = {"quadrant": ((None, 0, 0), 0), "upperhalf": ((1, 0, 1), 0), "lexcone": ((1, 0, 0), 1)}
LATTICE_KINDS = tuple(_KINDS)


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
PointLike = LatticePoint | Pair


def _kind(kind: str) -> tuple[tuple[int | None, int, int], int]:
    if kind not in _KINDS:
        raise InputError(f"unknown lattice monoid {kind!r}; known: {', '.join(LATTICE_KINDS)}")
    return _KINDS[kind]


def lat_contains(kind: str, v: PointLike) -> bool:
    """Closed-form membership for the three lattice monoids."""
    floor = _kind(kind)[0][(v[0] > 0) - (v[0] < 0) + 1]
    return floor is not None and v[1] >= floor


def _members_in_box(kind: str, bound: int, budget: Budget) -> list[Pair]:
    """The box's members in sorted order, after one unit per box point."""
    floors = _kind(kind)[0]
    budget.spend((2 * bound + 1) ** 2)
    return [(x, y) for x in range(-bound, bound + 1)
            if (floor := floors[(x > 0) - (x < 0) + 1]) is not None for y in range(floor, bound + 1)]


def _member_count(kind: str, bound: int) -> int:
    """len(_members_in_box(kind, bound)): bound, 1 and bound columns from their floors."""
    return sum(n * (bound + 1 - f) for n, f in zip((bound, 1, bound), _kind(kind)[0]) if f is not None)


def _charge_sumset(budget: Budget, smaller: int, r: int) -> None:
    _allot(budget, smaller * _shift_units((4 * r + 1) ** 2), (4 * r + 1) ** 2)


def _runs(points: list[Pair]) -> list[tuple[int, int, int]]:
    """The distinct points as maximal runs (x, y, n): (x, y) .. (x + n - 1, y)."""
    cells = sorted({(y, x) for x, y in points})
    starts = [k for k, (y, x) in enumerate(cells) if not k or cells[k - 1] != (y, x - 1)]
    return [(cells[k][1], cells[k][0], end - k) for k, end in zip(starts, starts[1:] + [len(cells)])]


def _sumset(a_points: list[Pair], b_points: list[Pair], bound: int) -> set[Pair]:
    """{a + b for a in A for b in B} restricted to |x|, |y| <= bound."""
    points = a_points + b_points
    r = max(max(map(max, points), default=0), -min(map(min, points), default=0))
    a_points, b_points = sorted((a_points, b_points), key=len, reverse=True)
    width, mask, sums = 4 * r + 1, 0, 0
    for x, y, n in _runs(a_points):
        mask |= ((1 << n) - 1) << ((y + r) * width + x + r)
    for x, y, n in _runs(b_points):
        run, have = mask, 1
        while have < n:
            step = min(have, n - have)
            run |= run << step
            have += step
        sums |= run << ((y + r) * width + x + r)
    bits = format(sums, f"0{width * width}b")[::-1]
    # no sum has a coordinate beyond 2r, and reading past it would wrap rows
    box = range(-min(bound, 2 * r), min(bound, 2 * r) + 1)
    return {(x, y) for y in box for x in box if bits[(y + 2 * r) * width + x + 2 * r] == "1"}


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
    r = bound + _kind(kind)[1]
    _charge_sumset(budget, _member_count(kind, r) - 1, r)  # the nonzero members
    nonzero = [v for v in _members_in_box(kind, r, budget) if v != (0, 0)]
    decomposable = _sumset(nonzero, nonzero, bound)
    return tuple([LatticePoint(x, y) for x, y in nonzero
                  if abs(x) <= bound and abs(y) <= bound and (x, y) not in decomposable])


def lat_atomic_elements_in_box(bound: int,
                               budget: Budget | int | None = None) -> tuple[LatticePoint, ...]:
    """Members of the lexicographic cone in the box that are sums of its
    box atoms; with atom set {(1,0)} this is the nonnegative x-axis."""
    budget = _as_budget(budget)
    return _sums_in_box(lat_atoms_in_box("lexcone", bound, budget), bound, budget)


def _sums_in_box(atoms: tuple[LatticePoint, ...], bound: int,
                 budget: Budget) -> tuple[LatticePoint, ...]:
    """Every sum of the given atoms reachable without leaving the box."""
    reached, frontier = {(0, 0)}, [(0, 0)]
    while frontier:
        budget.spend()
        x, y = frontier.pop()
        new = {(x + ax, y + ay) for ax, ay in atoms if abs(x + ax) <= bound and abs(y + ay) <= bound}
        frontier += new - reached
        reached |= new
    return tuple([LatticePoint(x, y) for x, y in sorted(reached)])


def lex_sum_check(bound: int, budget: Budget | int | None = None) -> bool:
    """Does quadrant + upperhalf coincide with the lexicographic cone on the box?

    The pairwise sums are taken over the twice-enlarged box, which covers
    every decomposition of a box point: a sum landing in the box can use the
    trivial splits v = v + 0 with each summand already inside the box.
    """
    if bound < 1:
        raise InputError("box bound must be positive")
    budget, r = _as_budget(budget), 2 * bound
    _charge_sumset(budget, min(_member_count("quadrant", r), _member_count("upperhalf", r)), r)
    quadrant, upperhalf = (_members_in_box(kind, r, budget) for kind in ("quadrant", "upperhalf"))
    return _sumset(quadrant, upperhalf, bound) == set(_members_in_box("lexcone", bound, budget))


def lat_factorizations_in_box(kind: str, v: PointLike, bound: int,
                              budget: Budget | int | None = None
                              ) -> tuple[tuple[LatticePoint, ...], ...]:
    """All multisets of box atoms summing to v, each sorted, in sorted order.

    Complete over the atoms found in the box; for upperhalf this grows with
    the box (every split (n, 1) + (x - n, 1) of (x, 2) is a new multiset),
    which is exactly the evidence that factorization sets there are not
    finite even though every length set is a singleton.
    """
    v = LatticePoint(*v)
    if not lat_contains(kind, v):
        raise InputError(f"{v} is not an element of {kind}")
    budget = _as_budget(budget)
    return _factorizations(lat_atoms_in_box(kind, bound, budget), v, budget)


def _factorizations(atoms: tuple[LatticePoint, ...], v: Pair,
                    budget: Budget) -> tuple[tuple[LatticePoint, ...], ...]:
    """All multisets of the given ascending distinct atoms (at least one)
    summing to v (y >= 0), each sorted, in sorted order, by the search of
    the module docstring; no child takes a rest's y below 0."""
    xs, ys = [a[0] for a in atoms], [a[1] for a in atoms]
    # over atoms[0..i]: least and greatest x, least and greatest y
    lo, hi, low, high = (list(accumulate(c, f)) for c in (xs, ys) for f in (min, max))
    det = xs[0] * ys[1] - xs[1] * ys[0] if len(atoms) > 1 else 0
    out, counts = [], [0] * len(atoms)

    def children(i: int, rx: int, ry: int):
        ax, ay, j = xs[i], ys[i], i - 1
        # atoms of these monoids never have negative y; atoms on the x-axis
        # have positive x and only ever coexist with other nonnegative-x atoms
        for m in range(ry // ay + 1 if ay > 0 else (rx // ax + 1 if rx > 0 else 1)):
            x, y = rx - m * ax, ry - m * ay
            if low[j] >= 1:
                few, most = -(-y // high[j]), y // low[j]
                if few > most or not ((most if lo[j] < 0 else few) * lo[j] <= x
                                      <= (few if hi[j] < 0 else most) * hi[j]):
                    continue
            counts[i] = m
            yield j, x, y
        counts[i] = 0

    # one child iterator per open level instead of one Python frame, so the
    # depth (one level per atom) is not bounded by the recursion limit
    stack = [iter([(len(atoms) - 1, *v)])]
    while stack:
        for i, x, y in stack[-1]:
            budget.spend()
            if x == y == 0:
                solved: tuple[int, ...] | None = ()
            elif i == 0:  # rest = m * a0
                m = y // ys[0] if ys[0] else x // xs[0]
                solved = (m,) if m > 0 and m * xs[0] == x and m * ys[0] == y else None
            elif i == 1 and det:  # Cramer's rule
                (m0, r0), (m1, r1) = divmod(x * ys[1] - xs[1] * y, det), divmod(xs[0] * y - x * ys[0], det)
                solved = (m0, m1) if r0 == r1 == 0 and m0 >= 0 and m1 >= 0 else None
            else:
                stack.append(children(i, x, y))
                break
            if solved:
                budget.spend()
            if solved is not None:
                ms = (*solved, *counts[len(solved):])
                out.append(tuple([a for a, m in zip(atoms, ms) for _ in range(m)]))
        else:
            stack.pop()
    return tuple(sorted(out))
