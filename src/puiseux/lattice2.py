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
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import InputError

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
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            yield LatticePoint(x, y)


def _members_in_box(kind: str, bound: int) -> list[LatticePoint]:
    return [v for v in _box(bound) if lat_contains(kind, v)]


def lat_atoms_in_box(kind: str, bound: int) -> tuple[LatticePoint, ...]:
    """Atoms of the monoid with |x|, |y| <= bound, by exhaustive decomposition.

    The decomposition search runs over the box enlarged by the documented
    per-kind margin, which suffices for completeness (see module docstring).
    """
    if bound < 1:
        raise InputError("box bound must be positive")
    search = set(_members_in_box(kind, bound + _BOX_MARGIN[kind]))
    atoms = []
    for v in _box(bound):
        if v == ORIGIN or not lat_contains(kind, v):
            continue
        decomposable = any(
            u != ORIGIN and (v - u) != ORIGIN and (v - u) in search
            for u in search
        )
        if not decomposable:
            atoms.append(v)
    return tuple(sorted(atoms))


def lat_atomic_elements_in_box(bound: int) -> tuple[LatticePoint, ...]:
    """Members of the lexicographic cone in the box that are sums of its
    box atoms; with atom set {(1,0)} this is the nonnegative x-axis."""
    if bound < 1:
        raise InputError("box bound must be positive")
    return _sums_in_box(lat_atoms_in_box("lexcone", bound), bound)


def _sums_in_box(atoms: tuple[LatticePoint, ...], bound: int) -> tuple[LatticePoint, ...]:
    """Every sum of the given atoms reachable without leaving the box."""
    reached = {ORIGIN}
    frontier = [ORIGIN]
    while frontier:
        v = frontier.pop()
        for a in atoms:
            w = v + a
            if abs(w.x) <= bound and abs(w.y) <= bound and w not in reached:
                reached.add(w)
                frontier.append(w)
    return tuple(sorted(reached))


def lex_sum_check(bound: int) -> bool:
    """Does quadrant + upperhalf coincide with the lexicographic cone on the box?

    The pairwise sums are enumerated over the twice-enlarged box, which covers
    every decomposition of a box point: a sum landing in the box can use the
    trivial splits v = v + 0 with each summand already inside the box.
    """
    if bound < 1:
        raise InputError("box bound must be positive")
    quadrant = [v for v in _box(2 * bound) if lat_contains("quadrant", v)]
    upperhalf = [v for v in _box(2 * bound) if lat_contains("upperhalf", v)]
    summed = set()
    for u in quadrant:
        for w in upperhalf:
            s = u + w
            if abs(s.x) <= bound and abs(s.y) <= bound:
                summed.add(s)
    expected = set(_members_in_box("lexcone", bound))
    return summed == expected


def lat_factorizations_in_box(kind: str, v: PointLike, bound: int) -> tuple[tuple[LatticePoint, ...], ...]:
    """All multisets of box atoms summing to v, each sorted, in sorted order.

    Complete over the atoms found in the box; for upperhalf this grows with
    the box (every split (n, 1) + (x - n, 1) of (x, 2) is a new multiset),
    which is exactly the evidence that factorization sets there are not
    finite even though every length set is a singleton.
    """
    v = _point(v)
    if not lat_contains(kind, v):
        raise InputError(f"{v} is not an element of {kind}")
    return _factorizations(lat_atoms_in_box(kind, bound), v)


def _factorizations(atoms: tuple[LatticePoint, ...], v: LatticePoint) -> tuple[tuple[LatticePoint, ...], ...]:
    """All multisets of the given atoms summing to v, each sorted, in sorted order."""
    out: list[tuple[LatticePoint, ...]] = []
    chosen: list[LatticePoint] = []

    def descend(idx: int, rest: LatticePoint) -> None:
        if rest == ORIGIN:
            out.append(tuple(sorted(chosen)))
            return
        if idx < 0 or rest.y < 0:
            return
        a = atoms[idx]
        # atoms of these monoids never have negative y; atoms on the x-axis
        # have positive x and only ever coexist with other nonnegative-x atoms
        if a.y > 0:
            top = rest.y // a.y
        else:
            top = rest.x // a.x if rest.x > 0 else 0
        for m in range(top + 1):
            if m:
                chosen.extend([a] * m)
            descend(idx - 1, LatticePoint(rest.x - m * a.x, rest.y - m * a.y))
            if m:
                del chosen[-m:]

    descend(len(atoms) - 1, v)
    return tuple(sorted(set(out)))
