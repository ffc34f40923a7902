"""Infinite-generator Puiseux monoid families with exact finite procedures.

Six base families plus three composite sums.  Each family either truncates
to a finitely generated monoid (desk-scale evidence about an infinite
claim) or, where a valuation argument makes the search tree finite, admits
an exact window-free factorization procedure.

Family names, as used by the DSL and CLI:

    grams       generators 1/(2^n * p_n), p_n the n-th odd prime
    companion   the staircase sequences b_i built under each grams generator
    exA         generators (p_n - 1)/p_n, p_n the n-th prime >= 5
    exB         generators (p_n + 1)/p_n, same primes
    sqden       generators (p_n + 1)/p_n^2, p_n the n-th prime
    interval1   {0} together with every rational >= 1

    exAexB           internal sum of exA and exB
    interval1_sqden  internal sum of interval1 and sqden
    gramscompanion   internal sum of grams and companion (antimatter)
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import InputError, NeedsBoundError
from .monoid import (Budget, Factorization, FactorizationSet, FgMonoid, LengthSet, _allot,
                     _as_budget, _checked_paths, _depth_first, _paths_to_set, _scale_units)
from .qarith import (RationalLike, _grow_primes, _int_valuation, as_rational, nth_prime,
                     prime_factors, prime_index)

_PARAM_NAMES = {"K", "window", "den_bound", "n"}


@dataclass(frozen=True)
class FamilyMonoid:
    """A family, possibly carrying truncation parameters, queried as an FgMonoid is."""

    kind: str
    params: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        _kind(self.kind)
        for name, value in self.params:
            if name not in _PARAM_NAMES:
                raise InputError(f"unknown family parameter {name!r}")
            if value < 1:
                raise InputError(f"family parameter {name} must be positive")

    def param(self, name: str, default: int | None = None) -> int | None:
        return dict(self.params).get(name, default)

    def __repr__(self) -> str:
        inner = ", ".join([self.kind] + [f"{k}={v}" for k, v in self.params])
        return f"family({inner})"

    # -- FgMonoid's queries, by the kind's exact procedures; where none exists,
    # a NeedsBoundError names the bound that helps

    @property
    def atoms(self) -> tuple[Fraction, ...]:
        raise NeedsBoundError(f"atoms of {self.kind} form an infinite set; {_bound_hint(self.kind)}")

    def contains(self, q: RationalLike, budget: Budget | int | None = None) -> bool:
        return family_member(self, q, budget)

    def divides(self, c: RationalLike, b: RationalLike, budget: Budget | int | None = None) -> bool:
        """FgMonoid.divides's guard, then three contains calls on one allowance."""
        c, b = as_rational(c), as_rational(b)
        if c < 0 or b < 0 or b < c:
            return False
        budget = _as_budget(budget)
        return self.contains(c, budget) and self.contains(b, budget) and self.contains(b - c, budget)

    def mcd_set(self, x: RationalLike, y: RationalLike,
                budget: Budget | int | None = None) -> tuple[Fraction, ...]:
        raise NeedsBoundError(f"mcd on {self.kind} is not supported; {_bound_hint(self.kind)}")

    def factorizations(self, q: RationalLike, budget: Budget | int | None = None) -> FactorizationSet:
        return family_factorizations(self, q, budget=budget)

    def factorizations_of_length(self, q: RationalLike, ell: int,
                                 budget: Budget | int | None = None) -> FactorizationSet:
        """Z(q) cut to length ell, by the kind's own procedure where it has one
        (on interval1, where Z(q) is infinite, den_bound's sample)."""
        if ell < 1:
            raise InputError("length must be a positive integer")
        of_length = _kind(self.kind).factorizations_of_length
        if of_length is not None:
            return of_length(self, q, ell, _as_budget(budget))
        zs = family_factorizations(self, q, budget=budget)
        # a subsequence of a canonical set is itself canonical
        return FactorizationSet(zs.target, tuple(z for z in zs if z.length == ell))

    def lengths(self, q: RationalLike, budget: Budget | int | None = None) -> LengthSet:
        lengths = _kind(self.kind).lengths
        if lengths is not None:
            return LengthSet(as_rational(q), lengths(q, budget))
        zs = family_factorizations(self, q, budget=budget)
        return LengthSet(zs.target, zs.lengths())

    def classify(self, budget: Budget | int | None = None) -> dict:
        return family_properties(self, budget=budget)

    def internal_sum(self, other: object, budget: Budget | int | None = None) -> FamilyMonoid:
        """The composite family of two base families, params merged (other's win)."""
        if not isinstance(other, FamilyMonoid):
            raise NeedsBoundError("cannot sum a finitely generated monoid with an untruncated"
                                  f" family; {_bound_hint(self.kind)}")
        pair = {self.kind, other.kind}
        combined = next((name for name, k in _KINDS.items() if set(k.summands) == pair), None)
        if combined is None:
            raise NeedsBoundError(f"no exact procedure for {self.kind} + {other.kind};"
                                  f" {_bound_hint(self.kind, other.kind)}")
        return family(combined, **{**dict(self.params), **dict(other.params)})


def family(kind: str, **params: int) -> FamilyMonoid:
    return FamilyMonoid(kind, tuple(sorted(params.items())))


def _bound_hint(*names: str) -> str:
    """How to bound a query over these families, for a NeedsBoundError."""
    for name in names:
        if _kind(name).untruncated:
            return f"{name} cannot be truncated; {_kind(name).untruncated}"
    return "truncate with K=..."


def family_prime(kind: str, n: int) -> int:
    floor = _kind(kind).prime_floor
    if floor is None:
        raise InputError(f"{kind} has no prime sequence")
    return nth_prime(n, floor)


def family_generator(kind: str, n: int) -> Fraction:
    """The exact n-th generator of a base family."""
    k = _kind(kind)
    if n < 1:
        raise InputError("generator index must be positive")
    if k.generator is not None:
        return k.generator(n, family_prime(kind, n))
    if k.summands:
        raise InputError(f"{kind} = {' + '.join(k.summands)}: a composite has no generator sequence")
    if kind == "companion":
        raise InputError("companion generators are doubly indexed; use grams_companion(n, depth)")
    raise InputError("the unit-interval monoid has no generator sequence")


class CompanionSequence(NamedTuple):
    """The staircase under the n-th grams generator a_n.

    f_index is minimal with the f-th odd prime above 2^n * p_n, so the first
    step b_1 = a_n - a_{f_index} lands strictly above a_n / 2; every later
    step subtracts the largest power of 1/2 that keeps the sequence above
    a_n / 2.
    """

    n: int
    f_index: int
    b: tuple[Fraction, ...]
    c: tuple[int, ...]


def grams_companion(n: int, depth: int, budget: Budget | int | None = None) -> CompanionSequence:
    if n < 1 or depth < 1:
        raise InputError("n and depth must be positive")
    a_n = family_generator("grams", n)
    threshold = 2**n * family_prime("grams", n)
    f = prime_index(threshold + 1, _as_budget(budget)) - 1   # 2 is the first prime, not an odd one
    half = a_n / 2
    bs = [a_n - family_generator("grams", f)]
    cs: list[int] = []
    c = 1   # c_k strictly increases (the gap after a step is at most 1/2^c_k), so c resumes
    while len(bs) < depth:
        gap = bs[-1] - half
        while Fraction(1, 2**c) >= gap:
            c += 1
        cs.append(c)
        bs.append(bs[-1] - Fraction(1, 2**c))
    return CompanionSequence(n, f, tuple(bs), tuple(cs))


def truncate(fam: FamilyMonoid | str, count: int, n_max: int | None = None,
             budget: Budget | int | None = None) -> FgMonoid:
    """Finitely generated monoid on the first `count` generators.

    For the companion family the truncation takes the first `count` steps of
    each staircase with n up to n_max (default 1); for composite sums it is
    the internal sum of the component truncations.  One allowance covers the
    whole truncation, charged one unit per generator before they are built.
    """
    if isinstance(fam, FamilyMonoid):
        n_max = n_max or fam.param("n")
        fam = fam.kind
    k = _kind(fam)
    if count < 1:
        raise InputError("truncation size must be positive")
    budget = _as_budget(budget)
    if k.untruncated:
        raise InputError(f"{fam} has no generator sequence to truncate")
    if k.summands:
        left, right = (truncate(part, count, n_max, budget) for part in k.summands)
        return left.internal_sum(right, budget)
    if fam == "companion":
        # the prime scans grow with n, so charging the largest first stops an
        # oversized truncation before it scans
        budget.spend(count * (n_max or 1))
        gens = [b for n in range(n_max or 1, 0, -1) for b in grams_companion(n, count, budget).b]
        return FgMonoid(gens, budget)
    budget.spend(count)
    return FgMonoid([family_generator(fam, i) for i in range(1, count + 1)], budget)


# -- antimatter witnesses -----------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """Exact certificate that a generator of grams + companion is reducible.

    The identity splits the target into two nonzero summands, each of which
    comes with an explicit membership certificate in the sum monoid.
    """

    target_label: str
    target: Fraction
    parts: tuple[tuple[str, Fraction], ...]
    certificates: tuple[str, ...]

    def holds(self) -> bool:
        return self.target == sum((v for _, v in self.parts), Fraction(0)) and all(
            v > 0 for _, v in self.parts
        )

    def identity(self) -> str:
        rhs = " + ".join(str(v) for _, v in self.parts)
        return f"{self.target} = {rhs}"

    def to_json(self) -> dict:
        return {
            "target": self.target_label,
            "value": str(self.target),
            "parts": [[label, str(v)] for label, v in self.parts],
            "certificates": list(self.certificates),
            "holds": self.holds(),
        }


def antimatter_witness(n: int, k: int | None = None) -> Witness:
    """Reducibility witness for a_n (k omitted) or for the n-atom b_k.

    a_n splits as b_1 + a_{f(n)}; b_k splits as b_{k+1} + 1/2^{c_k}, and the
    power of 1/2 is certified as a grams element: 1/2^c equals p_c copies of
    a_c, because p_c * a_c = p_c / (2^c * p_c).
    """
    if n < 1:
        raise InputError("n must be positive")
    if k is None:
        seq = grams_companion(n, 1)
        a_n = family_generator("grams", n)
        a_f = family_generator("grams", seq.f_index)
        return Witness(
            target_label=f"a_{n}",
            target=a_n,
            parts=((f"b_1(n={n})", seq.b[0]), (f"a_{seq.f_index}", a_f)),
            certificates=(
                f"b_1(n={n}) = {seq.b[0]} is the first n-atom of the companion family",
                f"a_{seq.f_index} = {a_f} is a grams generator",
            ),
        )
    if k < 1:
        raise InputError("k must be positive")
    seq = grams_companion(n, k + 1)
    c = seq.c[k - 1]
    power = Fraction(1, 2**c)
    p_c = family_prime("grams", c)
    a_c = family_generator("grams", c)
    return Witness(
        target_label=f"b_{k}(n={n})",
        target=seq.b[k - 1],
        parts=((f"b_{k + 1}(n={n})", seq.b[k]), (f"1/2^{c}", power)),
        certificates=(
            f"b_{k + 1}(n={n}) = {seq.b[k]} is an n-atom of the companion family",
            f"1/2^{c} = {p_c}·a_{c} = {p_c}·{a_c} lies in the grams monoid",
        ),
    )


# -- valuation pruning and exact searches -------------------------------------


def divisor_candidates(kind: str, q: RationalLike, budget: Budget | None = None) -> tuple[int, ...]:
    """Indices whose generator can possibly divide q; finite by valuation.

    For exB, an atom (p+1)/p with p not dividing the denominator of q must
    appear in multiples of p, contributing more than p; likewise for sqden
    with p^2 copies contributing p + 1.  So only indices with p dividing
    d(q), or with the single-copy bound p <= q (resp. p + 1 <= q), survive.
    A budget pays for factoring d(q) and for the primes scanned
    (prime_index) before any is listed.
    """
    _kind(kind)   # an unknown name fails before the other checks
    if kind not in ("exB", "sqden"):
        raise InputError("divisor candidates are defined for exB and sqden")
    q = as_rational(q)
    if q <= 0:
        raise InputError("q must be positive")
    den_primes = set(prime_factors(q.denominator, budget))
    size_cap = int(q) if kind == "exB" else int(q - 1) if q >= 1 else 0
    limit = max(den_primes | {size_cap})
    prime_index(limit, budget)
    out = []
    n = 1
    while (p := family_prime(kind, n)) <= limit:
        if p in den_primes or p <= size_cap:
            out.append(n)
        n += 1
    return tuple(out)


def _sqden_solutions(target: Fraction, budget: Budget, copies: int = 0) -> list[dict[int, int]]:
    """All multisets {index: multiplicity} of sqden generators summing to
    target, then, for c = 1..copies, those of target - c with {0: c} added.

    Exact and window-free.  One set-up serves every copy of 1: residuals
    are R/D over the target's denominator D, factored once per query into
    prime powers d^v: d divides a residual's denominator iff d^v does not
    divide R.  Copy c is the root R = target.numerator - c·D; a root of 0
    is its own solution, searched and charged for nothing.  Each node
    (R, lo) descends into one index, lo if one generator p_lo fits, else the
    least denominator prime's (`divisor_candidates` lists all, for
    budget.trace only), and pins its multiplicity to the one class mod p^2 that
    clears p, so the tree is finite.  p_lo is read by index from a snapshot
    of the shared prime table, grown only when lo runs past it, and a node
    without children makes no child iterator.  Nodes only clear primes, so
    the root alone rejects a denominator no generator can clear: an
    exponent above 2.
    """
    D = target.denominator
    dens = tuple((d, d ** _int_valuation(D, d)) for d in prime_factors(D, budget))   # ascending d
    # the multiplicity class: m (p+1)/p^2 absorbs the p-part of R/D iff m = R·cls[p] mod p^2
    cls = {d: d * d // de * pow(D // de * (d + 1), -1, d * d) for d, de in dens}
    primes = _grow_primes(1)
    dead = any(de > d * d for d, de in dens)
    out: list[dict[int, int]] = []
    trace = budget.trace

    def children(n: int, m: int, rest: int, step: int, pp: int) -> Iterator[tuple[int, int]]:
        for rest in range(rest, -1, -step):   # consecutive children differ by p^2 copies
            if m:
                chosen[n] = m
            yield rest, n + 1
            m += pp
        chosen.pop(n, None)

    def expand(node: tuple[int, int]) -> Iterator[tuple[int, int]] | None:
        nonlocal primes
        R, lo = node
        if R == 0:
            out.append(dict(chosen))
            return None
        if trace is not None:
            trace.append({"residual": str(Fraction(R, D)),
                          "candidate_indices": list(divisor_candidates("sqden", Fraction(R, D), budget))})
        if dead:
            return None
        if lo > len(primes):
            primes = _grow_primes(lo)
        p = primes[lo - 1]
        fits = (p + 1) * D <= R
        if not fits:
            # one copy does not fit, so only a denominator prime can divide
            # the residual; any other needs p^2 copies, worth p + 1
            for p, de in dens:
                if R % de:
                    break
            else:
                return None
        pp = p * p
        m = R * cls.get(p, 0) % pp
        step = (p + 1) * D
        rest = R - m * step // pp
        if rest < 0:
            return None   # a leaf: the index of a huge denominator prime is never looked up
        return children(lo if fits else prime_index(p, budget), m, rest, step, pp)

    for c in range(copies + 1):
        chosen = {0: c} if c else {}   # nonzero multiplicities on the open path, outermost first
        if R := target.numerator - c * D:
            _depth_first((R, 1), expand, budget)
        else:
            out.append(chosen)
    return out


def _exaexb_classes(q: Fraction, budget: Budget) -> dict[int, int] | None:
    """For each prime p dividing q's denominator D, the class of b_p - a_p
    mod p in every factorization of q in exA + exB, with a_p parts (p-1)/p
    and b_p parts (p+1)/p; None when q is no member.

    q = sum (a_p + b_p) + sum (b_p - a_p)/p fixes (b_p - a_p)/p p-adically:
    0 mod p off D, one class mod p where p exactly divides D, none for p^2
    or p < 5.  A step within the classes moves the value by an even
    integer, so q is a member iff the least parts in them leave an even
    integer >= 0, the balanced pairs (p-1)/p + (p+1)/p.
    """
    D = q.denominator
    dens = prime_factors(D, budget)
    if any(p < 5 or D % (p * p) == 0 for p in dens):
        return None
    cls = {p: q.numerator * pow(D // p, -1, p) % p for p in dens}
    rest = q.numerator - sum(min(c * (p + 1), (p - c) * (p - 1)) * (D // p) for p, c in cls.items())
    return cls if rest >= 0 and rest % (2 * D) == 0 else None


def _exaexb_core(q: Fraction, primes: Sequence[int] | None,
                 budget: Budget) -> list[tuple[tuple[tuple[int, int, int], ...], int]]:
    """Each d-vector of q in exA + exB over primes (ascending, >= 5; None
    for all), once: d_p = b_p - a_p over the core, the primes up to 5q/4
    (no atom is below 4/5) and those dividing q's denominator D, as
    (parts, K) with parts the nonzero (p, a_p, b_p) at the least a_p =
    max(0, -d_p) and b_p = max(0, d_p), ascending, and K the balanced pairs
    they leave.  Off the core d_p is 0: it is a multiple of p there, and p
    parts would be too many.

    Searched prime by prime on the grid 1/D: d_p through its class
    (_exaexb_classes), keeping a child only if the primes after it can take
    their least parts, so every node ends in a solution.  One unit per
    node, one more per 64-bit word of q's numerator past the second, as in
    the kernel; the prime table up to 5q/4 is charged before it grows
    (prime_index).
    """
    cls = _exaexb_classes(q, budget)
    if cls is None or primes is not None and cls and max(cls) > primes[-1]:
        return []
    D = q.denominator
    top = q.numerator * 5 // (4 * D)
    if primes is None:
        n = prime_index(top + 1, budget)
        primes = _grow_primes(n)[2:n - 1]
    core = sorted(set(primes[:bisect_right(primes, top)]).union(cls))
    m = len(core)
    # on the grid 1/D: with d = c + p t, a parts (p-1)/p and a + d parts
    # (p+1)/p are worth 2Da + c (p+1) D/p + t (p+1) D, or, with t < 0 and
    # a = -d at the least, -c (p-1) D/p - t (p-1) D: integers, as c = 0
    # unless p | D
    levels = [(p, c, c * (p + 1) * D // p, c * (p - 1) * D // p)
              for p in core for c in (cls.get(p, 0),)]
    least = [0] * (m + 1)   # least[j]: the least value primes j.. take
    for j, (p, c, cb, ca) in reversed(list(enumerate(levels))):
        least[j] = least[j + 1] + (min(cb, (p - 1) * D - ca) if c else 0)
    out: list[tuple[tuple[tuple[int, int, int], ...], int]] = []
    path: list[tuple[int, int, int]] = []   # (p, a_p, b_p) of the open path's nonzero parts

    def children(j: int, R: int) -> Iterator[tuple[int, int]]:
        p, c, cb, ca = levels[j]
        room, base = R - least[j + 1], len(path)
        for t in range(-((room + ca) // ((p - 1) * D)), (room - cb) // ((p + 1) * D) + 1):
            d = c + p * t
            a = max(0, -d)
            path[base:] = [(p, a, a + d)] if d else []
            yield j + 1, R - cb - t * (p + 1) * D - 2 * D * a
        del path[base:]

    def expand(node: tuple[int, int]) -> Iterator[tuple[int, int]] | None:
        j, R = node
        if j < m:
            return children(j, R)
        out.append((tuple(path), R // (2 * D)))
        return None

    # as the kernel's: wide residuals cost one more unit per 64-bit word past the second
    _depth_first((0, q.numerator), expand, budget, max(1, q.numerator.bit_length() // 64 - 1))
    return out


def _spreads(n: int, K: int) -> Iterator[list[tuple[int, int]]]:
    """Every way to place K balanced pairs on n primes, each as its
    occupied (index, pairs), ascending, in canonical order: the counts by
    index ascend lexicographically.  One list, changed in place.  From all K at the last
    index, a step moves one pair from the last occupied index t to t - 1
    and the rest of t's to the last index.  A loop: no depth to overflow."""
    place = [(n - 1, K)] if K else []
    while n or not K:
        yield place
        if not place or not place[-1][0]:
            return
        t, c = place.pop()
        k = place.pop()[1] if place and place[-1][0] == t - 1 else 0
        place.append((t - 1, k + 1))
        if c > 1:
            place.append((n - 1, c - 1))


def _exaexb_solutions(q: Fraction, window: int | None, budget: Budget,
                      ell: int | None = None) -> FactorizationSet:
    """Z(q) over the first window atoms of exA and of exB, in canonical
    order (Z(q) itself is infinite once it holds a balanced pair, as Z(2)
    does); with ell, only its factorizations of length ell.

    Each d-vector (_exaexb_core) spreads its K pairs over every window
    prime (_spreads): k pairs on p add k to both a_p and b_p.  One spread
    keeps its d-vector, so the canonical key over the nonzero parts,
    (0, -p, b_p) by ascending p, then (-1, p, a_p) by descending p, orders
    it as _spreads orders its counts, and heapq.merge interleaves the
    spreads.  A length is the least parts' plus 2K, so ell picks d-vectors
    before they spread.  Work: one unit per window prime before the prime
    table grows to hold them, the core's, and one per part of each
    factorization before it is built.
    """
    if window is None:
        raise NeedsBoundError("the exAexB search needs window=... (admitted indices)")
    if window < 1:
        raise InputError("window must be positive")
    _allot(budget, window, window)
    primes = _grow_primes(window + 2)[2:window + 2]
    sols = _exaexb_core(q, primes, budget)
    if ell is not None:
        sols = [(parts, K) for parts, K in sols if sum(a + b for _, a, b in parts) + 2 * K == ell]

    def spread(parts: tuple[tuple[int, int, int], ...], K: int) -> Iterator[tuple]:
        least = {p: (a, b) for p, a, b in parts}
        for place in _spreads(len(primes), K):
            ab = dict(least)
            for i, k in place:
                a, b = ab.get(primes[i], (0, 0))
                ab[primes[i]] = (a + k, b + k)
            rows = sorted(ab.items())
            yield (tuple((0, -p, b) for p, (_, b) in rows if b)
                   + tuple((-1, p, a) for p, (a, _) in reversed(rows) if a))

    # the key read backwards lists the parts by ascending atom, (x - 1)/x
    # at x = p for exA's and at x = -p for exB's
    atoms: dict[int, Fraction] = {}
    out = []
    for key in heapq.merge(*(spread(parts, K) for parts, K in sols)):
        budget.spend(len(key))
        out.append(Factorization(tuple((atoms.get(x) or atoms.setdefault(x, Fraction(x - 1, x)), m)
                                       for _, x, m in reversed(key))))
    return FactorizationSet(q, tuple(out))


def _sqden_factorizations(q: Fraction, budget: Budget, ones: bool) -> FactorizationSet:
    """Z(q) in sqden, or with ones in interval1 + sqden; exact, window-free.
    One search covers every copy c = 0..floor(q) of 1 as a root of its own
    (_sqden_solutions), so q's denominator is factored once per query.

    Every part the searches emit is an atom.  (p+1)/p^2 is the only
    generator with p in its denominator, so clearing p^2 in a sum equal to
    it forces its own multiplicity to be 1 mod p^2: it is an atom of sqden,
    and of the sum, whose parts below 1 all lie in sqden.  1 is not in
    sqden (each prime p would need p^2 copies, worth p + 1), so it is an
    atom of the sum.  Any q > 1 splits off a generator below q - 1, so 1
    is the only part interval1 contributes: index 0, the largest atom, so
    the searches emit the factorizations in canonical order.
    """
    sols = _sqden_solutions(q, budget, int(q) if ones else 0)
    used = {n for sol in sols for n in sol}
    parts = {n: family_generator("sqden", n) if n else Fraction(1) for n in used}
    return FactorizationSet(q, tuple(
        Factorization(tuple((parts[n], sol[n]) for n in sorted(sol, reverse=True))) for sol in sols))


def family_factorizations(kind: str | FamilyMonoid, q: RationalLike,
                          window: int | None = None,
                          budget: Budget | int | None = None) -> FactorizationSet:
    """Z(q) over a family's atoms by the kind's exact procedure; for exAexB,
    over a window of admitted indices (_exaexb_solutions)."""
    if isinstance(kind, FamilyMonoid):
        window = window or kind.param("window")
        kind = kind.kind
    factorizations = _kind(kind).factorizations
    q = _target(q)
    if factorizations is None:
        raise NeedsBoundError(f"no exact factorization procedure for {kind}; {_bound_hint(kind)}")
    return factorizations(q, window, _as_budget(budget))


def _target(q: RationalLike) -> Fraction:
    q = as_rational(q)
    if q < 0:
        raise InputError("target must be nonnegative")
    return q


def family_member(kind: str | FamilyMonoid, q: RationalLike,
                  budget: Budget | int | None = None) -> bool:
    """Exact membership where a closed form or pruned search exists."""
    if isinstance(kind, FamilyMonoid):
        kind = kind.kind
    member = _kind(kind).member
    q = as_rational(q)
    if q < 0:
        raise InputError("membership is only defined for nonnegative rationals")
    if q == 0:
        return True
    if member is None:
        raise NeedsBoundError(f"no exact membership procedure for {kind}; {_bound_hint(kind)}")
    return member(q, _as_budget(budget))


def _exaexb_lengths(q: RationalLike, budget: Budget | int | None = None) -> tuple[int, ...]:
    """Length set of q in exA + exB, window-free, and finite: no
    factorization has more than 5q/4 parts.  A length is q minus
    sum (b_p - a_p)/p, so each d-vector (_exaexb_core) gives one, its K
    pairs placed on any prime."""
    sols = _exaexb_core(_target(q), None, _as_budget(budget))
    return tuple(sorted({sum(a + b for _, a, b in parts) + 2 * K for parts, K in sols}))


def interval_lengths(q: RationalLike, budget: Budget | int | None = None) -> tuple[int, ...]:
    """Length set of q in {0} u Q>=1: ell works iff ell <= q < 2*ell, that
    is for the integers in (q/2, q].  One unit per length, charged before
    the tuple is built."""
    q = as_rational(q)
    if q == 0:
        return (0,)
    if q < 1:
        raise InputError(f"{q} is not an element of the unit-interval monoid")
    lo, count = int(q // 2) + 1, int(q) - int(q // 2)
    _allot(_as_budget(budget), count, count)
    return tuple(range(lo, lo + count))


def interval_length_factorizations(q: RationalLike, ell: int, den_bound: int | None,
                                   budget: Budget | int | None = None) -> FactorizationSet:
    """A bounded, exhaustive-within-bound sample of the length-ell
    factorizations of q over the atoms of {0} u Q>=1 (the rationals in [1, 2)).

    The full set is infinite whenever it is nonempty with ell >= 2, so the
    sample admits exactly the atoms whose offset from the equal split q/ell
    has denominator at most den_bound, and enumerates completely over that
    grid with the integer search.  Counts must grow as den_bound grows.

    The grid is built as integers at its final scale.  With q/ell = a/b and
    big = b * lcm(1..den_bound), the d offsets j/d of one d give d
    consecutive terms a*(big/b) + j*(big/d) of a progression over big.  A
    progression of two or more terms has the gcd of its first term and
    step, so g, the gcd of big and every term, is known before any term is
    built; the atoms are the terms divided by g, over scale = big/g, the
    lcm of their denominators; a target off that grid has no
    factorizations.  Work: one unit per grid atom and 64-bit word of the
    scale (one per atom up to 127 bits), charged before the grid is built,
    then the search's.
    """
    if den_bound is None:
        raise NeedsBoundError("Zl on interval1 needs den_bound=...")
    q = as_rational(q)
    if q < 1:
        raise InputError("the target must be at least 1")
    if ell < 1 or den_bound < 1:
        raise InputError("length and denominator bound must be positive")
    budget = _as_budget(budget)
    size = den_bound * (den_bound + 1) // 2
    # the first unit per grid atom is charged before the scale is computed,
    # the rest once its width is known
    _allot(budget, size, size)
    center = q / ell
    a, b = center.numerator, center.denominator
    big = b * math.lcm(*range(1, den_bound + 1))
    steps = [big // d for d in range(1, den_bound + 1)]   # steps[0] is big
    # [1, 2) has length 1, so exactly d offsets j/d land in it, from ceil((1 - a/b) d)
    firsts = [a * (big // b) - (a - b) * d // b * step for d, step in enumerate(steps, 1)]
    g = math.gcd(*firsts, *steps)
    scale = big // g
    budget.spend(_scale_units(size, scale.bit_length()))
    int_atoms = sorted({x for first, step in zip(firsts, steps)
                        for x in range(first // g, (first + big) // g, step // g)})
    t = q * scale
    if t.denominator != 1:
        return FactorizationSet(q, ())
    paths = _checked_paths(t.numerator, int_atoms, ell, budget)
    # only the atoms some factorization uses are built as Fractions
    used = {i for p in paths for i, _ in p}
    return _paths_to_set(q, {i: Fraction(int_atoms[i], scale) for i in used}, paths)


# -- property reports ---------------------------------------------------------


def family_properties(kind: str | FamilyMonoid, K: int = 6, window: int = 10,
                      den_bound: int = 12, budget: Budget | int | None = None) -> dict:
    """Property report: flags with provenance plus freshly computed evidence."""
    if isinstance(kind, FamilyMonoid):
        K = kind.param("K", K) or K
        window = kind.param("window", window) or window
        den_bound = kind.param("den_bound", den_bound) or den_bound
        kind = kind.kind
    k = _kind(kind)
    evidence = k.evidence(kind, K, window, den_bound, _as_budget(budget))
    flags = {
        name: {"value": value, "provenance": "paper"}
        for name, value in k.flags.items()
    }
    return {
        "family": kind,
        "primes": k.prime_label,
        "flags": flags,
        "evidence": evidence,
    }


def _truncation_evidence(kind: str, K: int, window: int, den_bound: int, budget: Budget) -> dict:
    trunc = truncate(kind, K, budget=budget)
    return {
        "provenance": f"evidence(K={K})",
        "truncation_generators": [str(g) for g in trunc.generators],
        "all_generators_are_atoms": trunc.atoms == trunc.generators,
    }


def _staircase_evidence(kind: str, K: int, window: int, den_bound: int, budget: Budget) -> dict:
    budget.spend(K)   # one unit per step before the staircase is built, as truncate charges
    seq = grams_companion(1, K, budget)
    a_1 = family_generator("grams", 1)
    return {
        "provenance": f"evidence(K={K})",
        "staircase_n1": [str(b) for b in seq.b],
        "band_respected": all(a_1 / 2 < b < a_1 for b in seq.b),
    }


def _witness_evidence(kind: str, K: int, window: int, den_bound: int, budget: Budget) -> dict:
    witnesses = _antimatter_witnesses()
    return {
        "provenance": "evidence(n<=3, depth<=3)",
        "witness_identities": [w.identity() for w in witnesses],
        "all_hold": all(w.holds() for w in witnesses),
    }


def _length2_evidence(kind: str, K: int, window: int, den_bound: int, budget: Budget) -> dict:
    counts = [len(zs) for zs in _exaexb_length2_of_2(window, budget)]
    return {
        "provenance": f"evidence(window={window})",
        "length2_counts_of_2": counts,
        "strictly_increasing": all(a < b for a, b in zip(counts, counts[1:])),
    }


def _ladder_evidence(kind: str, K: int, window: int, den_bound: int, budget: Budget) -> dict:
    ladder = _interval_ladder(den_bound, budget)
    counts = [len(zs) for zs in ladder.values()]
    return {
        "provenance": f"evidence(den_bound={den_bound})",
        "den_bounds": list(ladder),
        "length2_counts_of_3": counts,
        "strictly_increasing": all(a < b for a, b in zip(counts, counts[1:])),
    }


def _nine_eighths_evidence(kind: str, K: int, window: int, den_bound: int, budget: Budget) -> dict:
    member, zs = _nine_eighths(budget)
    return {
        "provenance": "evidence(exact)",
        "member_9/8": member,
        "factorizations_9/8": len(zs),
    }


# -- evidence shared with the paper scenarios ----------------------------------
# A Budget passed in is shared by every search inside; an int or None gives
# each search its own allowance.


def _antimatter_witnesses() -> list[Witness]:
    """The reducibility witnesses for a_n, b_1(n) and b_2(n), n <= 3."""
    witnesses = [antimatter_witness(n) for n in range(1, 4)]
    witnesses += [antimatter_witness(n, k) for n in range(1, 4) for k in (1, 2)]
    return witnesses


def _exaexb_length2_of_2(window: int, budget: Budget | int | None) -> list[list[Factorization]]:
    """The length-2 factorizations of 2 in exA + exB, for each window 1..window."""
    return [
        [z for z in family_factorizations("exAexB", 2, window=w, budget=budget) if z.length == 2]
        for w in range(1, window + 1)
    ]


def _interval_ladder(den_bound: int, budget: Budget | int | None) -> dict[int, FactorizationSet]:
    """Length-2 factorizations of 3 in the unit-interval monoid, keyed by an
    ascending ladder of denominator bounds that ends at or above den_bound.
    The largest rung is built first, so a shared budget too small for it
    runs out before the smaller rungs are searched."""
    bounds = sorted({max(2, den_bound // 3), max(3, 2 * den_bound // 3), den_bound}, reverse=True)
    ladder = {d: interval_length_factorizations(3, 2, d, budget) for d in bounds}
    return dict(reversed(ladder.items()))


def _nine_eighths(budget: Budget | int | None) -> tuple[bool, FactorizationSet]:
    """Whether 9/8 lies in interval1 + sqden, and its factorization set."""
    q = Fraction(9, 8)
    member = family_member("interval1_sqden", q, budget)
    return member, family_factorizations("interval1_sqden", q, budget=budget)


# -- the kinds ------------------------------------------------------------------


class _Kind(NamedTuple):
    """One family kind.  A procedure left None raises NeedsBoundError with
    the kind's hint; a public one is called by its module-level name."""

    flags: dict[str, bool]   # the paper's, in the order family_properties reports them
    evidence: Callable[[str, int, int, int, Budget], dict]
    prime_floor: int | None = None   # p_n is the n-th prime at or above it
    prime_label: str | None = None
    generator: Callable[[int, int], Fraction] | None = None   # (n, p_n) -> the n-th generator
    summands: tuple[str, ...] = ()   # a composite's base kinds
    member: Callable[[Fraction, Budget], bool] | None = None
    factorizations: Callable[[Fraction, int | None, Budget], FactorizationSet] | None = None
    lengths: Callable[[RationalLike, Budget | int | None], tuple[int, ...]] | None = None
    # (family, q, ell, budget) -> Z(q) cut to length ell; where None, Z(q) is built and cut
    factorizations_of_length: Callable[[FamilyMonoid, RationalLike, int, Budget], FactorizationSet] | None = None
    untruncated: str | None = None   # where truncate() rejects the kind: what bounds a query instead


_ODD_PRIMES = "odd primes (3, 5, 7, ...)"
_KINDS = {
    "grams": _Kind({"atomic": True, "antimatter": False, "bbm": False}, _truncation_evidence,
                   3, _ODD_PRIMES, lambda n, p: Fraction(1, 2**n * p)),
    "companion": _Kind({"atomic": True, "antimatter": False}, _staircase_evidence, 3, _ODD_PRIMES),
    "exA": _Kind({"atomic": True, "ffm": True, "bfm": True, "lffm": True, "bbm": True},
                 _truncation_evidence, 5, "primes >= 5", lambda n, p: Fraction(p - 1, p)),
    "exB": _Kind({"atomic": True, "ffm": True, "bfm": True, "lffm": True, "bbm": True},
                 _truncation_evidence, 5, "primes >= 5", lambda n, p: Fraction(p + 1, p)),
    "sqden": _Kind(
        {"atomic": True, "ffm": True, "bfm": True, "lffm": True, "bbm": False}, _truncation_evidence,
        2, "all primes (2, 3, 5, ...)", lambda n, p: Fraction(p + 1, p * p),
        member=lambda q, budget: bool(_sqden_solutions(q, budget)),
        factorizations=lambda q, window, budget: _sqden_factorizations(q, budget, False)),
    "interval1": _Kind(
        {"atomic": True, "bbm": True, "bfm": True, "ffm": False, "lffm": False}, _ladder_evidence,
        member=lambda q, budget: q >= 1,
        lengths=lambda q, budget: interval_lengths(q, budget),
        factorizations_of_length=lambda fam, q, ell, budget: interval_length_factorizations(
            q, ell, fam.param("den_bound"), budget),
        untruncated="query it with L(...) or Zl(..., den_bound=...)"),
    "exAexB": _Kind(
        {"atomic": True, "bfm": True, "ffm": False, "lffm": False, "bbm": True}, _length2_evidence,
        summands=("exA", "exB"),
        member=lambda q, budget: _exaexb_classes(q, budget) is not None,
        factorizations=_exaexb_solutions,
        lengths=_exaexb_lengths,
        factorizations_of_length=lambda fam, q, ell, budget: _exaexb_solutions(
            _target(q), fam.param("window"), budget, ell)),
    "interval1_sqden": _Kind(
        {"atomic": False, "bfm": False, "bbm": False, "antimatter": False}, _nine_eighths_evidence,
        summands=("interval1", "sqden"),
        # members below 1 must come entirely from the sqden component
        member=lambda q, budget: q >= 1 or bool(_sqden_solutions(q, budget)),
        factorizations=lambda q, window, budget: _sqden_factorizations(q, budget, True),
        untruncated="no bound replaces a truncation"),
    "gramscompanion": _Kind({"antimatter": True, "atomic": False, "bbm": False}, _witness_evidence,
                            summands=("grams", "companion")),
}
KINDS = tuple(_KINDS)


def _kind(name: str) -> _Kind:
    if name not in _KINDS:
        raise InputError(f"unknown family {name!r}; known: {', '.join(KINDS)}")
    return _KINDS[name]
