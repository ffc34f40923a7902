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

Sumsets: row y of a box is at most three runs, the columns x < 0, x = 0 and
x > 0 whose floor y reaches.  Point (x, y), |x|, |y| <= R, is bit (y + R) *
(4R + 1) + x + R, so sums never wrap a row; a run of n points shift-ors the
other set's mask with itself by doubling, log2(n) + 1 times instead of n.

Factorizations go from the last (largest) atom to the first: a node, a rest
with atoms[0..i] left, takes m >= 1 parts of atom i, then jumps straight to
the next lower atom that can take one; the last two, if not parallel, are
solved by Cramer's rule.  With 1 <= y_min <= y <= y_max over the atoms left,
a rest (x, y) takes ceil(y / y_max) to floor(y / y_min) parts p, so x lies
in [least, greatest] = [min p * min x, max p * max x]; this window shrinks
with the atoms left, so the first level it fails ends a jump.  A jump bisects
past each atom j with x_j - min x > x - least, which cannot take a part;
over atoms of one height (upperhalf's) it then tests at most two windows.

Budget units, paid before or as the work is done: one per box point before
its runs or members are built; `monoid._shift_units` per point of a sumset's
smaller set, from the closed-form member count; one per point sums of atoms
reach; beyond `_depth_first`'s unit per search node, one per closed-form
solution, and none per skipped level, so over atoms of mixed heights a jump
may test windows no unit pays for.  Only results are built as LatticePoints.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple

from .errors import InputError
from .monoid import Budget, _allot, _as_budget, _depth_first, _shift_units

Pair = tuple[int, int]
Run = tuple[int, int, int]   # (x, y, n): the points (x, y) .. (x + n - 1, y)
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


PointLike = LatticePoint | Pair


def _kind(kind: str) -> tuple[tuple[int | None, int, int], int]:
    if kind not in _KINDS:
        raise InputError(f"unknown lattice monoid {kind!r}; known: {', '.join(LATTICE_KINDS)}")
    return _KINDS[kind]


def lat_contains(kind: str, v: PointLike) -> bool:
    """Closed-form membership for the three lattice monoids."""
    floor = _kind(kind)[0][(v[0] > 0) - (v[0] < 0) + 1]
    return floor is not None and v[1] >= floor


def lat_members_in_box(kind: str, bound: int, budget: Budget) -> list[Pair]:
    """The box's members in sorted order, after one unit per box point."""
    budget.spend((2 * bound + 1) ** 2)
    return sorted([(x + k, y) for x, y, n in _row_runs(kind, bound) for k in range(n)])


def _member_count(kind: str, bound: int) -> int:
    """len(lat_members_in_box(kind, bound)): bound, 1 and bound columns from their floors."""
    return sum(n * (bound + 1 - f) for n, f in zip((bound, 1, bound), _kind(kind)[0]) if f is not None)


def _row_runs(kind: str, bound: int, origin: bool = True) -> list[Run]:
    """The box's members (without the origin if not origin) as maximal runs, by row."""
    floors, runs = _kind(kind)[0], []
    for y in range(-bound, bound + 1):
        for x, n, floor in zip((-bound, 0, 1), (bound, 1, bound), floors):
            if floor is not None and y >= floor and n and (origin or x or y):
                if runs and runs[-1][1] == y and runs[-1][0] + runs[-1][2] == x:
                    x, n = runs[-1][0], runs.pop()[2] + n
                runs.append((x, y, n))
    return runs


def _mask(runs: list[Run], offset: int, width: int) -> int:
    """The runs as a bitmask, point (x, y) at bit (y + offset) * width + x + offset."""
    mask = 0
    for x, y, n in runs:
        mask |= ((1 << n) - 1) << ((y + offset) * width + x + offset)
    return mask


def _sumset(a_runs: list[Run], b_runs: list[Run], r: int) -> int:
    """{a + b for a in A for b in B} for runs inside |x|, |y| <= r, as a mask
    with offset 2r and width 4r + 1; shift-ors once per doubling of a B run."""
    width, sums = 4 * r + 1, 0
    mask = _mask(a_runs, r, width)
    for x, y, n in b_runs:
        run, have = mask, 1
        while have < n:
            step = min(have, n - have)
            run |= run << step
            have += step
        sums |= run << ((y + r) * width + x + r)
    return sums


def _points(mask: int, bound: int, r: int) -> list[Pair]:
    """The sorted points, |x|, |y| <= bound, of a mask with offset 2r and width 4r + 1."""
    width, out = 4 * r + 1, []
    while mask:
        y, x = divmod((mask & -mask).bit_length() - 1, width)
        mask &= mask - 1
        if abs(x - 2 * r) <= bound and abs(y - 2 * r) <= bound:
            out.append((x - 2 * r, y - 2 * r))
    return sorted(out)


def lat_atoms_in_box(kind: str, bound: int,
                     budget: Budget | int | None = None) -> tuple[LatticePoint, ...]:
    """Atoms of the monoid with |x|, |y| <= bound: the nonzero members that
    are no sum of two nonzero members of the box enlarged by the per-kind
    margin, which suffices for completeness (see module docstring)."""
    if bound < 1:
        raise InputError("box bound must be positive")
    budget, r = _as_budget(budget), bound + _kind(kind)[1]
    width = 4 * r + 1
    _allot(budget, (_member_count(kind, r) - 1) * _shift_units(width ** 2), width ** 2)
    budget.spend((2 * r + 1) ** 2)  # the enlarged box's points
    nonzero = _row_runs(kind, r, origin=False)
    atoms = _mask(_row_runs(kind, bound, origin=False), 2 * r, width) & ~_sumset(nonzero, nonzero, r)
    return tuple([LatticePoint(x, y) for x, y in _points(atoms, bound, r)])


def lat_atomic_elements_in_box(bound: int,
                               budget: Budget | int | None = None) -> tuple[LatticePoint, ...]:
    """Members of the lexicographic cone in the box that are sums of its
    box atoms; with atom set {(1,0)} this is the nonnegative x-axis."""
    budget = _as_budget(budget)
    return lat_sums_in_box(lat_atoms_in_box("lexcone", bound, budget), bound, budget)


def lat_sums_in_box(atoms: tuple[LatticePoint, ...], bound: int,
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
    Sums over the twice-enlarged box cover every decomposition of a box point:
    one landing in the box can use the trivial split v = v + 0, both inside."""
    if bound < 1:
        raise InputError("box bound must be positive")
    budget, r, width = _as_budget(budget), 2 * bound, 8 * bound + 1
    smaller = min(_member_count("quadrant", r), _member_count("upperhalf", r))
    _allot(budget, smaller * _shift_units(width ** 2), width ** 2)
    budget.spend(2 * (2 * r + 1) ** 2 + (2 * bound + 1) ** 2)  # both summands' boxes and the cone's
    box = _mask([(-bound, y, 2 * bound + 1) for y in range(-bound, bound + 1)], 2 * r, width)
    sums = _sumset(_row_runs("upperhalf", r), _row_runs("quadrant", r), r)
    return sums & box == _mask(_row_runs("lexcone", bound), 2 * r, width)


def lat_factorizations_in_box(kind: str, v: PointLike, bound: int,
                              budget: Budget | int | None = None
                              ) -> tuple[tuple[LatticePoint, ...], ...]:
    """All multisets of box atoms summing to v, each sorted, in sorted order;
    for upperhalf they grow with the box (every split (n, 1) + (x - n, 1) of
    (x, 2) is one), the evidence that its factorization sets are not finite
    even though every length set is a singleton."""
    v = LatticePoint(*v)
    if not lat_contains(kind, v):
        raise InputError(f"{v} is not an element of {kind}")
    budget = _as_budget(budget)
    return lat_factorizations_over(lat_atoms_in_box(kind, bound, budget), v, budget)


def lat_factorizations_over(atoms: tuple[LatticePoint, ...], v: Pair,
                            budget: Budget) -> tuple[tuple[LatticePoint, ...], ...]:
    """All multisets of the given ascending distinct atoms summing to v, each
    sorted, in sorted order, by the search of the module docstring.  At least one
    atom; all have y >= 0, and one with y = 0 has x > 0 and no atom of x < 0 beside."""
    xs, ys = [a[0] for a in atoms], [a[1] for a in atoms]
    det = xs[0] * ys[1] - xs[1] * ys[0] if len(atoms) > 1 else 0
    closed = 2 if det else 0   # levels below this one are solved by Cramer's rule
    out: list[tuple[LatticePoint, ...]] = []
    path: list[tuple[int, int]] = []   # nonzero (i, m) on the open path, largest i first

    def emit(*ms: int) -> None:
        out.append(tuple([atoms[j] for j, m in (*enumerate(ms), *reversed(path)) for _ in range(m)]))

    def fits(i: int, x: int, y: int) -> bool:
        if i < 0 or low[i] < 1:  # no atom left, or one of height 0 (then no window)
            return i >= 0 or x == y == 0
        few, most = -(-y // high[i]), y // low[i]
        return few <= most and (most if xs[0] < 0 else few) * xs[0] <= x <= (few if xs[i] < 0 else most) * xs[i]

    def children(i: int, rx: int, ry: int):
        """Rests after m >= 1 parts of atom i, then the rest at the level a jump lands on."""
        base, cap = len(path), ry // ys[i] if ys[i] else max(rx, 0) // xs[i]
        for m in range(max(1, cap) if i == 0 else 1, cap + 1):  # the last atom leaves 0 only at cap
            if fits(i - 1, rx - m * xs[i], ry - m * ys[i]):
                path[base:] = [(i, m)]
                yield i - 1, rx - m * xs[i], ry - m * ys[i]
        del path[base:]
        top = i - 1   # bisect past the atoms too far right to take a part (module docstring)
        if top >= closed and low[top] >= 1:
            least = (ry // low[top] if xs[0] < 0 else -(-ry // high[top])) * xs[0]
            top = max(closed - 1, bisect_right(xs, rx - least + xs[0], 0, i) - 1)
        for j in range(top, -1, -1):
            if not fits(j, rx, ry):
                return
            if j < closed or (ry >= ys[j] and fits(j, rx - xs[j], ry - ys[j])):
                yield j, rx, ry
                return

    def expand(node):
        i, x, y = node
        if x == y == 0:
            emit()
        elif i < closed:
            (m0, r0), (m1, r1) = divmod(x * ys[1] - xs[1] * y, det), divmod(xs[0] * y - x * ys[0], det)
            if r0 == r1 == 0 and m0 >= 0 and m1 >= 0:
                budget.spend()
                emit(m0, m1)
        else:
            return children(i, x, y)

    if len(atoms) > closed:  # y ranges of atoms[0..i] (x ranges: xs[0]..xs[i]); none for a Cramer root
        low, high = list(accumulate(ys, min)), list(accumulate(ys, max))
    _depth_first((len(atoms) - 1, *v), expand, budget)
    return tuple(sorted(out))
