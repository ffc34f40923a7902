"""Scripted verification scenarios, one per catalogued construction.

Each scenario recomputes its claims from scratch and reports a verdict per
claim: "verified-exact" for checks that are complete as stated,
"evidence-at-bound" for box/window/truncation evidence about an infinite
object, and "failed" when a recomputation contradicts the claim.  Nothing
is ever hardcoded, and no result carries over from an earlier run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import families, lattice2
from .errors import InputError
from .monoid import Budget, Factorization, _json_text

EXAMPLE_IDS = ("3.2", "3.3", "4.2", "4.3", "4.4", "5")

_GOOD_VERDICTS = ("verified-exact", "evidence-at-bound")


@dataclass(frozen=True)
class Claim:
    statement: str
    anchor: str
    verdict: str
    bound: str | None = None

    def to_json(self) -> dict:
        return {
            "statement": self.statement,
            "anchor": self.anchor,
            "verdict": self.verdict,
            "bound": self.bound,
        }


@dataclass(frozen=True)
class PaperReport:
    example: str
    claims: tuple[Claim, ...]
    artifacts: dict

    @property
    def ok(self) -> bool:
        return all(c.verdict in _GOOD_VERDICTS for c in self.claims)

    def to_json(self) -> dict:
        return {
            "example": self.example,
            "claims": [c.to_json() for c in self.claims],
            "artifacts": self.artifacts,
        }

    def render_text(self) -> str:
        lines = [f"example {self.example}"]
        for c in self.claims:
            bound = f" ({c.bound})" if c.bound else ""
            lines.append(f"  [{c.verdict}]{bound} {c.statement}")
        lines.append("result: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)

    def render_json(self) -> str:
        return _json_text(self.to_json())


def _claim(statement: str, anchor: str, ok: bool, exact: bool,
           bound: str | None = None) -> Claim:
    verdict = ("verified-exact" if exact else "evidence-at-bound") if ok else "failed"
    return Claim(statement, anchor, verdict, bound)


def run_paper_example(example: str, window: int = 10, den_bound: int = 12,
                      box: int = 10, budget: int | None = 10**7) -> PaperReport:
    """Run one scenario by id with the given bounds, every search of the
    scenario drawing on one allowance of budget units."""
    budget = Budget(budget)
    runners = {
        "3.2": lambda: _lexcone_scenario(box, budget),
        "3.3": lambda: _antimatter_scenario(),
        "4.2": lambda: _two_ffm_sum_scenario(window, budget),
        "4.3": lambda: _nonatomic_sum_scenario(budget),
        "4.4": lambda: _lattice_ffm_scenario(box, budget),
        "5": lambda: _interval_scenario(den_bound, budget),
    }
    if example not in runners:
        raise InputError(f"unknown example id {example!r}; known: {', '.join(EXAMPLE_IDS)}")
    growth = "its growth claim compares two bounds"
    low = {"4.2": ("window", window, growth), "5": ("den_bound", den_bound, growth),
           "4.4": ("box", box, "its length sample needs the atom (-2,1)")}.get(example)
    if low is not None and low[1] < 2:
        raise InputError(f"example {example} needs {low[0]} >= 2: {low[2]}")
    return runners[example]()


# -- Z^2: sum of the quadrant and the open upper half-plane ---------------------


def _lexcone_scenario(box: int, budget: Budget) -> PaperReport:
    bound = f"box={box}"
    sum_matches = lattice2.lex_sum_check(box, budget=budget)
    quadrant_atoms = lattice2.lat_atoms_in_box("quadrant", box, budget=budget)
    upper_atoms = lattice2.lat_atoms_in_box("upperhalf", box, budget=budget)
    cone_atoms = lattice2.lat_atoms_in_box("lexcone", box, budget=budget)
    atomic = lattice2.lat_sums_in_box(cone_atoms, box, budget)

    claims = (
        _claim(
            "the quadrant plus the open upper half-plane equals the lexicographic cone",
            "lexcone-sum", sum_matches, exact=False, bound=bound,
        ),
        _claim(
            "the quadrant's irreducible elements are the two unit vectors",
            "quadrant-atoms",
            quadrant_atoms == (lattice2.LatticePoint(0, 1), lattice2.LatticePoint(1, 0)),
            exact=False, bound=bound,
        ),
        _claim(
            "the upper half-plane's irreducible elements are the points at height one",
            "upperhalf-atoms",
            upper_atoms == tuple(sorted(lattice2.LatticePoint(n, 1) for n in range(-box, box + 1))),
            exact=False, bound=bound,
        ),
        _claim(
            "the lexicographic cone has exactly one irreducible element, (1,0)",
            "lexcone-atoms",
            cone_atoms == (lattice2.LatticePoint(1, 0),), exact=False, bound=bound,
        ),
        _claim(
            "the cone is not atomic: only the nonnegative x-axis is reachable from its atoms",
            "lexcone-not-atomic",
            atomic == tuple(lattice2.LatticePoint(m, 0) for m in range(box + 1))
            and lattice2.LatticePoint(0, 1) not in atomic,
            exact=False, bound=bound,
        ),
    )
    artifacts = {
        "lexcone_atoms": [str(v) for v in cone_atoms],
        "atomic_elements": [str(v) for v in atomic],
        "upperhalf_atom_count": len(upper_atoms),
    }
    return PaperReport("3.2", claims, artifacts)


# -- antimatter sum of two atomic monoids ---------------------------------------


def _antimatter_scenario() -> PaperReport:
    witnesses = families._antimatter_witnesses()
    claims = tuple(
        _claim(
            f"{w.target_label} splits into two nonzero members: {w.identity()}",
            f"antimatter-{w.target_label}", w.holds(), exact=True,
        )
        for w in witnesses
    )
    artifacts = {"witnesses": [w.to_json() for w in witnesses]}
    return PaperReport("3.3", claims, artifacts)


# -- sum of two finite-factorization monoids with unbounded Z_2(2) --------------


def _two_ffm_sum_scenario(window: int, budget: Budget) -> PaperReport:
    per_window = families._exaexb_length2_of_2(window, budget)
    counts = [len(length2) for length2 in per_window]
    pairings_ok = True
    for length2 in per_window:
        for z in length2:
            if len(z.parts) != 2:
                pairings_ok = False
                continue
            (a, _), (b, _) = z.parts
            # a = (p-1)/p and b = (p+1)/p for the same prime p
            pairings_ok &= a + b == 2 and a.denominator == b.denominator
    strictly = all(x < y for x, y in zip(counts, counts[1:]))
    bound = f"window={window}"
    claims = (
        _claim(
            "the number of length-2 factorizations of 2 equals the window size",
            "z2-count", counts == list(range(1, window + 1)), exact=False, bound=bound,
        ),
        _claim(
            "the count is strictly increasing, so the full set is unbounded",
            "z2-growth", strictly, exact=False, bound=bound,
        ),
        _claim(
            "every length-2 factorization of 2 pairs (p-1)/p with (p+1)/p for one prime",
            "z2-pairing", pairings_ok, exact=False, bound=bound,
        ),
    )
    artifacts = {"length2_counts": counts}
    return PaperReport("4.2", claims, artifacts)


# -- sum of two bounded-factorization monoids that is not atomic ----------------


def _nonatomic_sum_scenario(budget: Budget) -> PaperReport:
    budget.trace = trace = []
    member, zs = families._nine_eighths(budget)
    claims = (
        _claim(
            "9/8 belongs to the sum of the unit-interval and square-denominator monoids",
            "nonatomic-member", member, exact=True,
        ),
        _claim(
            "9/8 has no factorization into atoms, so the sum is not atomic",
            "nonatomic-empty", len(zs) == 0, exact=True,
        ),
    )
    artifacts = {
        "factorizations": zs.to_json(),
        "pruning_trace": trace,
    }
    return PaperReport("4.3", claims, artifacts)


# -- Z^2 revisited: factorization structure of the summands ---------------------


def _lattice_ffm_scenario(box: int, budget: Budget) -> PaperReport:
    bound = f"box={box}"

    quadrant_atoms = lattice2.lat_atoms_in_box("quadrant", box, budget=budget)
    upper_atoms = lattice2.lat_atoms_in_box("upperhalf", box, budget=budget)

    quadrant_unique = True
    for v in lattice2.lat_members_in_box("quadrant", box, budget):
        if lattice2.lat_factorization_count(quadrant_atoms, v, budget) != 1:
            quadrant_unique = False
            break

    upper_lengths_ok = True
    sample = [lattice2.LatticePoint(x, y) for x in (-2, 0, 1) for y in (1, 2, 3)]
    growth_counts = []
    for small_box in (2, 4, 6):
        zs = lattice2.lat_factorizations_in_box("upperhalf", lattice2.LatticePoint(0, 2), small_box,
                                                budget=budget)
        growth_counts.append(len(zs))
    for v in sample:
        zs = lattice2.lat_factorizations_over(upper_atoms, v, budget)
        upper_lengths_ok &= {len(z) for z in zs} == {v.y}

    mcd_ok = True
    for u1 in (lattice2.LatticePoint(-1, 1), lattice2.LatticePoint(2, 1)):
        for u2 in (lattice2.LatticePoint(0, 3), lattice2.LatticePoint(-2, 2)):
            # u1 divides u2 and u1 - u1 = 0 has no nonzero divisors, so u1
            # is a maximal common divisor of the pair
            mcd_ok &= lattice2.lat_contains("upperhalf", u2 - u1)

    atomic = lattice2.lat_atomic_elements_in_box(box, budget=budget)
    claims = (
        _claim(
            "the quadrant has unique factorizations (free of rank 2), hence finite ones",
            "quadrant-ufm", quadrant_unique, exact=False, bound=bound,
        ),
        _claim(
            "upper half-plane length sets are singletons: every factorization of"
            " (x,y) uses exactly y atoms",
            "upperhalf-lengths", upper_lengths_ok, exact=False, bound=bound,
        ),
        _claim(
            "upper half-plane factorization counts grow with the box, so the"
            " factorization sets of points at height two are not finite",
            "upperhalf-z-growth",
            all(a < b for a, b in zip(growth_counts, growth_counts[1:])),
            exact=False, bound="boxes=2,4,6",
        ),
        _claim(
            "in the upper half-plane, the lower of two comparable points is a"
            " maximal common divisor of the pair",
            "upperhalf-mcd", mcd_ok, exact=True,
        ),
        _claim(
            "the internal sum is still not atomic: (0,1) is not a sum of cone atoms",
            "sum-not-atomic", lattice2.LatticePoint(0, 1) not in atomic,
            exact=False, bound=bound,
        ),
    )
    artifacts = {"upperhalf_growth_counts": growth_counts}
    return PaperReport("4.4", claims, artifacts)


# -- the unit-interval monoid: bounded but not finite factorizations ------------


def _interval_scenario(den_bound: int, budget: Budget) -> PaperReport:
    ladder = families._interval_ladder(den_bound, budget)
    pairs = ladder[den_bound]
    found = set(pairs)
    half = Fraction(3, 2)
    have_all = all(
        Factorization(((half - Fraction(1, n), 1), (half + Fraction(1, n), 1))) in found
        for n in range(3, den_bound + 1)
    )
    bounds = list(ladder)
    counts = [len(zs) for zs in ladder.values()]
    lengths = families.interval_lengths(3)
    claims = (
        _claim(
            "every split 3 = (3/2 - 1/n) + (3/2 + 1/n) up to the bound is found",
            "interval-pairs", have_all, exact=False, bound=f"den_bound={den_bound}",
        ),
        _claim(
            "the number of length-2 factorizations of 3 strictly grows with the bound",
            "interval-growth", all(a < b for a, b in zip(counts, counts[1:])),
            exact=False, bound=f"den_bounds={bounds}",
        ),
        _claim(
            "the length set of 3 is exactly {2, 3}: lengths are bounded even though"
            " factorizations are not",
            "interval-lengths", lengths == (2, 3), exact=True,
        ),
    )
    artifacts = {
        "pair_count": len(pairs),
        "counts_by_bound": dict(zip(map(str, bounds), counts)),
    }
    return PaperReport("5", claims, artifacts)
