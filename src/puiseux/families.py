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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .errors import InputError, NeedsBoundError
from .monoid import (Budget, Factorization, FactorizationSet, FgMonoid, LengthSet, _allot,
                     _as_budget, _checked_paths, _depth_first, _paths_to_set, _scale_units)
from .qarith import (RationalLike, _int_valuation, as_rational, lcm_den, nth_prime, prime_factors,
                     prime_index)

BASE_KINDS = ("grams", "companion", "exA", "exB", "sqden", "interval1")
SUM_KINDS = ("exAexB", "interval1_sqden", "gramscompanion")
KINDS = BASE_KINDS + SUM_KINDS

_PRIME_FLOOR = {"grams": 3, "companion": 3, "exA": 5, "exB": 5, "sqden": 2}
_PRIME_LABEL = {
    "grams": "odd primes (3, 5, 7, ...)",
    "companion": "odd primes (3, 5, 7, ...)",
    "exA": "primes >= 5",
    "exB": "primes >= 5",
    "sqden": "all primes (2, 3, 5, ...)",
}

_SUM_TABLE = {
    frozenset({"exA", "exB"}): "exAexB",
    frozenset({"interval1", "sqden"}): "interval1_sqden",
    frozenset({"grams", "companion"}): "gramscompanion",
}

_PARAM_NAMES = {"K", "window", "den_bound", "n"}


@dataclass(frozen=True)
class FamilyMonoid:
    """A family, possibly carrying truncation parameters, queried as an FgMonoid is."""

    kind: str
    params: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown family {self.kind!r}; known: {', '.join(KINDS)}")
        for name, value in self.params:
            if name not in _PARAM_NAMES:
                raise InputError(f"unknown family parameter {name!r}")
            if value < 1:
                raise InputError(f"family parameter {name} must be positive")

    def param(self, name: str, default: int | None = None) -> int | None:
        for key, value in self.params:
            if key == name:
                return value
        return default

    def __repr__(self) -> str:
        inner = ", ".join([self.kind] + [f"{k}={v}" for k, v in self.params])
        return f"family({inner})"

    # -- FgMonoid's queries, by the exact procedures below; where none exists,
    # a NeedsBoundError names the bound that helps

    @property
    def atoms(self) -> tuple[Fraction, ...]:
        raise NeedsBoundError(f"atoms of {self.kind} form an infinite set; {_bound_hint(self.kind)}")

    def contains(self, q: RationalLike, budget: Budget | int | None = None) -> bool:
        return family_member(self, q, budget)

    # three contains calls on one allowance, behind FgMonoid's guard
    divides = FgMonoid.divides

    def mcd_set(self, x: RationalLike, y: RationalLike,
                budget: Budget | int | None = None) -> tuple[Fraction, ...]:
        raise NeedsBoundError(f"mcd on {self.kind} is not supported; {_bound_hint(self.kind)}")

    def factorizations(self, q: RationalLike, budget: Budget | int | None = None) -> FactorizationSet:
        return family_factorizations(self, q, budget=budget)

    def factorizations_of_length(self, q: RationalLike, ell: int,
                                 budget: Budget | int | None = None) -> FactorizationSet:
        """Z(q) cut to length ell; on interval1, where it is infinite, den_bound's sample."""
        if ell < 1:
            raise InputError("length must be a positive integer")
        if self.kind == "interval1":
            den_bound = self.param("den_bound")
            if den_bound is None:
                raise NeedsBoundError("Zl on interval1 needs den_bound=...")
            return interval_length_factorizations(q, ell, den_bound, budget)
        zs = family_factorizations(self, q, budget=budget)
        # a subsequence of a canonical set is itself canonical
        return FactorizationSet(zs.target, tuple(z for z in zs if z.length == ell))

    def lengths(self, q: RationalLike, budget: Budget | int | None = None) -> LengthSet:
        if self.kind == "interval1":
            return LengthSet(as_rational(q), interval_lengths(q, budget))
        zs = family_factorizations(self, q, budget=budget)
        return LengthSet(zs.target, zs.lengths())

    def classify(self, budget: Budget | int | None = None) -> dict:
        return family_properties(self, budget=budget)

    def internal_sum(self, other: object, budget: Budget | int | None = None) -> FamilyMonoid:
        """The composite family of two base families, params merged (other's win)."""
        if not isinstance(other, FamilyMonoid):
            raise NeedsBoundError("cannot sum a finitely generated monoid with an untruncated"
                                  f" family; {_bound_hint(self.kind)}")
        combined = _SUM_TABLE.get(frozenset({self.kind, other.kind}))
        if combined is None:
            raise NeedsBoundError(f"no exact procedure for {self.kind} + {other.kind};"
                                  f" {_bound_hint(self.kind, other.kind)}")
        return family(combined, **{**dict(self.params), **dict(other.params)})


def family(kind: str, **params: int) -> FamilyMonoid:
    return FamilyMonoid(kind, tuple(sorted(params.items())))


# the families truncate() rejects, and what bounds a query on them instead
_UNTRUNCATED = {"interval1": "query it with L(...) or Zl(..., den_bound=...)",
                "interval1_sqden": "no bound replaces a truncation"}


def _bound_hint(*kinds: str) -> str:
    """How to bound a query over these families, for a NeedsBoundError."""
    for kind in kinds:
        if kind in _UNTRUNCATED:
            return f"{kind} cannot be truncated; {_UNTRUNCATED[kind]}"
    return "truncate with K=..."


def family_prime(kind: str, n: int) -> int:
    if kind not in _PRIME_FLOOR:
        raise InputError(f"{kind} has no prime sequence")
    return nth_prime(n, _PRIME_FLOOR[kind])


def family_generator(kind: str, n: int) -> Fraction:
    """The exact n-th generator of a base family."""
    if n < 1:
        raise InputError("generator index must be positive")
    if kind == "grams":
        p = family_prime(kind, n)
        return Fraction(1, 2**n * p)
    if kind == "exA":
        p = family_prime(kind, n)
        return Fraction(p - 1, p)
    if kind == "exB":
        p = family_prime(kind, n)
        return Fraction(p + 1, p)
    if kind == "sqden":
        p = family_prime(kind, n)
        return Fraction(p + 1, p * p)
    if kind == "interval1":
        raise InputError("the unit-interval monoid has no generator sequence")
    if kind == "companion":
        raise InputError("companion generators are doubly indexed; use grams_companion(n, depth)")
    raise InputError(f"unknown family {kind!r}")


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
    b1 = a_n - family_generator("grams", f)
    if not half < b1 < a_n:
        raise RuntimeError("first companion step left the target band")
    bs = [b1]
    cs: list[int] = []
    while len(bs) < depth:
        gap = bs[-1] - half
        c = 1
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
    if count < 1:
        raise InputError("truncation size must be positive")
    budget = _as_budget(budget)
    if fam in ("grams", "exA", "exB", "sqden"):
        budget.spend(count)
        return FgMonoid([family_generator(fam, i) for i in range(1, count + 1)], budget)
    if fam == "companion":
        # the prime scans grow with n, so charging the largest first stops an
        # oversized truncation before it scans
        budget.spend(count * (n_max or 1))
        gens = [b for n in range(n_max or 1, 0, -1) for b in grams_companion(n, count, budget).b]
        return FgMonoid(gens, budget)
    if fam == "exAexB":
        return truncate("exA", count, budget=budget).internal_sum(
            truncate("exB", count, budget=budget), budget)
    if fam == "gramscompanion":
        return truncate("grams", count, budget=budget).internal_sum(
            truncate("companion", count, n_max=n_max, budget=budget), budget)
    raise InputError(f"{fam} has no generator sequence to truncate")


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
    if p_c * a_c != power:
        raise RuntimeError("grams certificate for the power of 1/2 failed")
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


def divisor_candidates(kind: str, q: RationalLike) -> tuple[int, ...]:
    """Indices whose generator can possibly divide q; finite by valuation.

    For exB, an atom (p+1)/p with p not dividing the denominator of q must
    appear in multiples of p, contributing more than p; likewise for sqden
    with p^2 copies contributing p + 1.  So only indices with p dividing
    d(q), or with the single-copy bound p <= q (resp. p + 1 <= q), survive.
    """
    if kind not in ("exB", "sqden"):
        raise InputError("divisor candidates are defined for exB and sqden")
    q = as_rational(q)
    if q <= 0:
        raise InputError("q must be positive")
    den_primes = set(prime_factors(q.denominator))
    size_cap = int(q) if kind == "exB" else int(q - 1) if q >= 1 else 0
    limit = max(den_primes | {size_cap})
    out = []
    n = 1
    while (p := family_prime(kind, n)) <= limit:
        if p in den_primes or p <= size_cap:
            out.append(n)
        n += 1
    return tuple(out)


def _sqden_solutions(target: Fraction, min_index: int, budget: Budget,
                     trace: list | None = None) -> list[dict[int, int]]:
    """All multisets {index: multiplicity} of sqden generators summing to target.

    Exact and window-free.  Residuals are R/D over the target's denominator
    D, factored once into prime powers d^v: d divides a residual's
    denominator iff d^v does not divide R.  Each node descends into one
    index, min_index if one copy fits, else the least denominator prime's
    (`divisor_candidates` lists all, for the trace only), and pins its
    multiplicity to the one class mod p^2 that clears p, so the tree is
    finite.  Nodes only clear primes, so the root alone rejects a denominator
    no generator can clear: an exponent above 2, or a prime behind min_index.
    """
    D = target.denominator
    powers = {d: d ** _int_valuation(D, d) for d in prime_factors(D, budget)}   # ascending d
    dead = any(de > d * d for d, de in powers.items()) or (
        bool(powers) and min(powers) < family_prime("sqden", min_index))
    out: list[dict[int, int]] = []
    chosen: dict[int, int] = {}   # nonzero multiplicities on the open path, outermost first

    def children(R: int, lo: int) -> Iterator[tuple[int, int]]:
        if trace is not None:
            trace.append({"residual": str(Fraction(R, D)),
                          "candidate_indices": list(divisor_candidates("sqden", Fraction(R, D)))})
        if dead:
            return
        p = family_prime("sqden", lo)
        fits = (p + 1) * D <= R
        if not fits:
            # one copy does not fit, so only a denominator prime can divide
            # the residual; any other needs p^2 copies, worth p + 1
            p = next((d for d, de in powers.items() if R % de), 0)
            if not p:
                return
        # multiplicity class: m (p+1)/p^2 must absorb the p-part of R/D
        pp = p * p
        de = powers.get(p, 1)
        m = R * (pp // de) * pow(D // de * (p + 1), -1, pp) % pp if de > 1 else 0
        step = (p + 1) * D   # consecutive children differ by p^2 copies
        rest = R - m * step // pp
        if rest < 0:
            return   # a leaf: the index of a huge denominator prime is never looked up
        n = lo if fits else prime_index(p, budget)
        for rest in range(rest, -1, -step):
            if m:
                chosen[n] = m
            yield rest, n + 1
            m += pp
        chosen.pop(n, None)

    def expand(node: tuple[int, int]) -> Iterator[tuple[int, int]] | None:
        rest, lo = node
        if rest == 0:
            out.append(dict(chosen))
        elif rest > 0:
            return children(rest, lo)

    _depth_first((target.numerator, min_index), expand, budget)
    return out


def _sum_part_is_atom(atom: Fraction, budget: Budget) -> bool:
    """Is this candidate part an atom of interval1 + sqden?  Exact check.

    Every member below 1 lies in the sqden component, so 1 is an atom iff it
    has no sqden representation, and a generator is an atom iff its only
    representation is itself (which is always one of them).
    """
    if atom == 1:
        return not _sqden_solutions(atom, 1, budget)
    return len(_sqden_solutions(atom, 1, budget)) == 1


def _scaled_factorizations(q: Fraction, scale: int, int_atoms: Sequence[int], ell: int | None,
                           budget: Budget) -> FactorizationSet:
    """Factorizations of q (of length ell, if given) over the atoms
    int_atoms[i]/scale, ascending and distinct, solved by the integer
    kernel.  A target that does not scale to an integer has none.  Only
    the atoms some factorization uses are built as Fractions."""
    t = q * scale
    if t.denominator != 1:
        return FactorizationSet(q, ())
    paths = _checked_paths(t.numerator, int_atoms, ell, budget)
    used = {i for p in paths for i, _ in p}
    return _paths_to_set(q, {i: Fraction(int_atoms[i], scale) for i in used}, paths)


def family_factorizations(kind: str | FamilyMonoid, q: RationalLike,
                          window: int | None = None,
                          budget: Budget | int | None = None,
                          trace: list | None = None) -> FactorizationSet:
    """Factorization set of q over a family's atoms.

    exAexB requires a window (number of admitted indices) and is exact over
    that windowed atom set, searched by the same integer kernel as finitely
    generated monoids.  sqden and interval1_sqden are exact and
    window-free thanks to the valuation pruning; parts are re-checked for
    atomhood in the sum before being reported.
    """
    if isinstance(kind, FamilyMonoid):
        window = window or kind.param("window")
        kind = kind.kind
    q = as_rational(q)
    if q < 0:
        raise InputError("target must be nonnegative")
    budget = _as_budget(budget)
    if kind == "exAexB":
        if window is None:
            raise NeedsBoundError("the exAexB search needs window=... (admitted indices)")
        if window < 1:
            raise InputError("window must be positive")
        # as the interval grid: one unit per atom before the atoms exist, the
        # rest per 64-bit word of their scale past the first before they are
        # scaled
        size = 2 * window
        _allot(budget, size, size)
        atoms = [family_generator(k, i) for k in ("exA", "exB") for i in range(1, window + 1)]
        scale = lcm_den(atoms)
        budget.spend(_scale_units(size, scale.bit_length()))
        int_atoms = sorted(a.numerator * (scale // a.denominator) for a in atoms)
        return _scaled_factorizations(q, scale, int_atoms, None, budget)
    if kind in ("sqden", "interval1_sqden"):
        # any q > 1 splits off a sqden generator below q - 1, so 1 is the
        # only part interval1 can contribute: index 0, the largest atom, so
        # the searches emit the factorizations in canonical order
        sols = []
        for copies in range(int(q) + 1 if kind == "interval1_sqden" else 1):
            rest = q - copies
            head = {0: copies} if copies else {}
            sols += [{**head, **sol}
                     for sol in (_sqden_solutions(rest, 1, budget, trace) if rest else [{}])]
        used = {n for sol in sols for n in sol}
        parts = {n: family_generator("sqden", n) if n else Fraction(1) for n in used}
        # each distinct part is checked once per query
        atoms = {n for n, a in parts.items() if _sum_part_is_atom(a, budget)}
        return FactorizationSet(q, tuple(
            Factorization(tuple((parts[n], sol[n]) for n in sorted(sol, reverse=True)))
            for sol in sols if atoms.issuperset(sol)))
    raise NeedsBoundError(f"no exact factorization procedure for {kind}; {_bound_hint(kind)}")


def family_member(kind: str | FamilyMonoid, q: RationalLike,
                  budget: Budget | int | None = None) -> bool:
    """Exact membership where a closed form or pruned search exists."""
    if isinstance(kind, FamilyMonoid):
        kind = kind.kind
    q = as_rational(q)
    if q < 0:
        raise InputError("membership is only defined for nonnegative rationals")
    if q == 0:
        return True
    budget = _as_budget(budget)
    if kind == "interval1":
        return q >= 1
    if kind == "sqden":
        return bool(_sqden_solutions(q, 1, budget))
    if kind == "interval1_sqden":
        # members below 1 must come entirely from the sqden component
        return q >= 1 or bool(_sqden_solutions(q, 1, budget))
    raise NeedsBoundError(f"no exact membership procedure for {kind}; {_bound_hint(kind)}")


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


def interval_length_factorizations(q: RationalLike, ell: int, den_bound: int,
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
    lcm of their denominators.  Work: one unit per grid atom and 64-bit
    word of the scale (one per atom up to 127 bits), charged before the
    grid is built, then the search's.
    """
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
    return _scaled_factorizations(q, scale, int_atoms, ell, budget)


# -- property reports ---------------------------------------------------------

_PAPER_FLAGS: dict[str, dict[str, bool]] = {
    "grams": {"atomic": True, "antimatter": False, "bbm": False},
    "companion": {"atomic": True, "antimatter": False},
    "gramscompanion": {"antimatter": True, "atomic": False, "bbm": False},
    "exA": {"atomic": True, "ffm": True, "bfm": True, "lffm": True, "bbm": True},
    "exB": {"atomic": True, "ffm": True, "bfm": True, "lffm": True, "bbm": True},
    "exAexB": {"atomic": True, "bfm": True, "ffm": False, "lffm": False, "bbm": True},
    "sqden": {"atomic": True, "ffm": True, "bfm": True, "lffm": True, "bbm": False},
    "interval1": {"atomic": True, "bbm": True, "bfm": True, "ffm": False, "lffm": False},
    "interval1_sqden": {"atomic": False, "bfm": False, "bbm": False, "antimatter": False},
}


def family_properties(kind: str | FamilyMonoid, K: int = 6, window: int = 10,
                      den_bound: int = 12, budget: Budget | int | None = None) -> dict:
    """Property report: flags with provenance plus freshly computed evidence."""
    if isinstance(kind, FamilyMonoid):
        K = kind.param("K", K) or K
        window = kind.param("window", window) or window
        den_bound = kind.param("den_bound", den_bound) or den_bound
        kind = kind.kind
    # an unknown kind has no evidence, so this raises before the flags are read
    evidence = _family_evidence(kind, K, window, den_bound, _as_budget(budget))
    flags = {
        name: {"value": value, "provenance": "paper"}
        for name, value in _PAPER_FLAGS[kind].items()
    }
    return {
        "family": kind,
        "primes": _PRIME_LABEL.get(kind),
        "flags": flags,
        "evidence": evidence,
    }


def _family_evidence(kind: str, K: int, window: int, den_bound: int, budget: Budget) -> dict:
    if kind in ("grams", "exA", "exB", "sqden"):
        trunc = truncate(kind, K, budget=budget)
        return {
            "provenance": f"evidence(K={K})",
            "truncation_generators": [str(g) for g in trunc.generators],
            "all_generators_are_atoms": trunc.atoms == trunc.generators,
        }
    if kind == "companion":
        seq = grams_companion(1, K)
        a_1 = family_generator("grams", 1)
        return {
            "provenance": f"evidence(K={K})",
            "staircase_n1": [str(b) for b in seq.b],
            "band_respected": all(a_1 / 2 < b < a_1 for b in seq.b),
        }
    if kind == "gramscompanion":
        witnesses = _antimatter_witnesses()
        return {
            "provenance": "evidence(n<=3, depth<=3)",
            "witness_identities": [w.identity() for w in witnesses],
            "all_hold": all(w.holds() for w in witnesses),
        }
    if kind == "exAexB":
        counts = [len(zs) for zs in _exaexb_length2_of_2(window, budget)]
        return {
            "provenance": f"evidence(window={window})",
            "length2_counts_of_2": counts,
            "strictly_increasing": all(a < b for a, b in zip(counts, counts[1:])),
        }
    if kind == "interval1":
        ladder = _interval_ladder(den_bound, budget)
        counts = [len(zs) for zs in ladder.values()]
        return {
            "provenance": f"evidence(den_bound={den_bound})",
            "den_bounds": list(ladder),
            "length2_counts_of_3": counts,
            "strictly_increasing": all(a < b for a, b in zip(counts, counts[1:])),
        }
    if kind == "interval1_sqden":
        member, zs = _nine_eighths(budget)
        return {
            "provenance": "evidence(exact)",
            "member_9/8": member,
            "factorizations_9/8": len(zs),
        }
    raise InputError(f"unknown family {kind!r}")


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


def _nine_eighths(budget: Budget | int | None,
                  trace: list | None = None) -> tuple[bool, FactorizationSet]:
    """Whether 9/8 lies in interval1 + sqden, and its factorization set."""
    q = Fraction(9, 8)
    member = family_member("interval1_sqden", q, budget)
    return member, family_factorizations("interval1_sqden", q, budget=budget, trace=trace)
