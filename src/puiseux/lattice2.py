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
x > 0 whose floor y reaches; rows below every floor are empty, and those
above max(1, every floor) repeat the one below.  Point (x, y), |x|, |y| <= R,
is bit (y + R) * (4R + 1) + x + R, so sums never wrap a row; a run of n
points shift-ors the other set's mask with itself by doubling, log2(n) + 1
times instead of n.

Factorizations run on `monoid._solve_int`, the integer kernel.  Over one
height h >= 1 (upperhalf's) one of (x, y) has n = y / h parts: shifted by
1 - x_0 in x, the atoms are ascending positive integers and the target
x + n (1 - x_0), searched at the exact length n.  Any other atom set, each
atom with y >= 0 and x > 0 where y = 0, is read as two digits: with
c = 1 + max(0, ceil(-x / y) over atoms with y >= 1), psi(x, y) = x + c y is at
least max(y, 1) on every atom; with P = psi(v) and B = P + 1, the atoms with
psi <= P (only they fit, and y <= psi < B keeps them distinct) are the
integers y + B psi and the target is y_v + B P, 0 <= y_v <= P.
A multiset of them with y-sum Y <= psi-sum S hits it only at S = P (S < P
leaves Y >= B > S, S > P overshoots), so Y = y_v and the x-sum is P - c y_v = x_v.
Counting the factorizations over two atoms that are not parallel (the
quadrant's) needs no search: Cramer's rule gives 0 or 1.

Budget units, paid before or as the work is done: one per box point before
its runs or members are built; `monoid._shift_units` per point of a sumset's
smaller set, from the closed-form member count; one per point sums of atoms
reach; the kernel's, or one for a y that h does not divide or a v outside
0 <= y <= psi(v); one per Cramer count; and one per part of every
factorization before its tuple is built, since one of (x, y) can have y parts
or more.  Only results are LatticePoints.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError
from .monoid import Budget, _allot, _as_budget, _checked_paths, _shift_units

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
    set_floors = [f for f in floors if f is not None]
    top = min(bound, max([1, *set_floors]))   # rows above top repeat it: above every floor and the origin
    for y in range(max(-bound, min(set_floors)), top + 1):   # rows below every floor are empty
        for x, n, floor in zip((-bound, 0, 1), (bound, 1, bound), floors):
            if floor is not None and y >= floor and n and (origin or x or y):
                if runs and runs[-1][1] == y and runs[-1][0] + runs[-1][2] == x:
                    x, n = runs[-1][0], runs.pop()[2] + n
                runs.append((x, y, n))
    band = [(x, n) for x, y, n in runs if y == top]
    return runs + [(x, y, n) for y in range(top + 1, bound + 1) for x, n in band]


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


def _check_domain(atoms: tuple[LatticePoint, ...]) -> None:
    """Refuse an atom set, an empty one too, where a factorization set can be infinite."""
    for x, y in atoms or ((0, 0),):
        if y < 0 or y == 0 and x <= 0:
            raise InputError("lattice factorizations need at least one atom, every atom "
                             "with y >= 0, and x > 0 where y = 0")


def lat_factorization_count(atoms: tuple[LatticePoint, ...], v: Pair, budget: Budget) -> int:
    """len(lat_factorizations_over(atoms, v, budget)), on the same domain; over
    two atoms that are not parallel (the quadrant's) Cramer's rule gives it, 0
    or 1, for one unit and with no factorization built."""
    _check_domain(atoms)
    if len(atoms) == 2 and (det := atoms[0][0] * atoms[1][1] - atoms[1][0] * atoms[0][1]):
        budget.spend()
        (x0, y0), (x1, y1), (x, y) = *atoms, v
        (m0, r0), (m1, r1) = divmod(x * y1 - x1 * y, det), divmod(x0 * y - x * y0, det)
        return int(r0 == r1 == 0 and m0 >= 0 and m1 >= 0)
    return len(lat_factorizations_over(atoms, v, budget))


def lat_factorizations_over(atoms: tuple[LatticePoint, ...], v: Pair,
                            budget: Budget) -> tuple[tuple[LatticePoint, ...], ...]:
    """All multisets of the given ascending distinct atoms summing to v, each sorted,
    in sorted order, by the integer kernel (see module docstring).  Domain: at least
    one atom, every atom with y >= 0, and x > 0 where y = 0; any other set, where a
    factorization set can be infinite, raises InputError."""
    _check_domain(atoms)
    xs, ys = [a[0] for a in atoms], [a[1] for a in atoms]
    # one height keeps this shift: the psi digits below ran ~30% slower on scenario 4.4's sample
    if ys[0] >= 1 and ys.count(ys[0]) == len(ys):
        n, r = divmod(v[1], ys[0])
        if r or n < 0:   # no count of parts of height h sums to y
            budget.spend()
            return ()
        paths = _checked_paths(v[0] + n * (1 - xs[0]), [x + 1 - xs[0] for x in xs], n, budget)
        budget.spend(n * len(paths))   # each factorization's n parts, before they are built
        return tuple(sorted(tuple([atoms[i] for i, m in p for _ in range(m)]) for p in paths))
    c = 1 + max([0, *[-(x // y) for x, y in atoms if y]])   # 1 + max ceil(-x / y)
    top = v[0] + c * v[1]   # psi(v)
    if not 0 <= v[1] <= top:   # every part has 0 <= y <= psi
        budget.spend()
        return ()
    # the atoms with psi <= top, as the digits (y, psi) in base top + 1, ascending
    psi = [x + c * y for x, y in atoms]
    digits = sorted([(y + (top + 1) * s, a) for a, y, s in zip(atoms, ys, psi) if s <= top])
    paths = _checked_paths(v[1] + (top + 1) * top, [d for d, _ in digits], None, budget)
    budget.spend(sum([m for p in paths for _, m in p]))   # the parts, before they are built
    return tuple(sorted(tuple(sorted([digits[i][1] for i, m in p for _ in range(m)])) for p in paths))
