"""Where the finiteness properties break: exact searches on infinite families.

Three stories.  The sum of the (p-1)/p and (p+1)/p families pairs up to 2
in one way per prime, so |Z_2(2)| grows without bound.  The sum of the
unit interval monoid with the (p+1)/p^2 family contains 9/8 but gives it
no factorization at all.  And the unit-interval monoid alone has bounded
lengths but unboundedly many factorizations of 3.
"""

from fractions import Fraction

from puiseux import (
    Budget,
    divisor_candidates,
    family_factorizations,
    family_member,
    family_properties,
    interval_length_factorizations,
    interval_lengths,
)

F = Fraction

# Windowed and exact over the window: the length-2 factorizations of 2
# are exactly the pairs (p-1)/p + (p+1)/p, one per admitted prime.
for window in (1, 3, 5):
    zs = family_factorizations("exAexB", 2, window=window)
    pairs = [z for z in zs if z.length == 2]
    print(f"window {window}: {len(pairs)} length-2 factorizations of 2")
print([str(z) for z in family_factorizations("exAexB", 2, window=3)])

# The valuation pruning that makes the square-denominator searches exact
# and window-free: an atom (p+1)/p^2 can only divide q if p divides the
# denominator of q or p + 1 fits under q.
print("candidates for 9/8:", divisor_candidates("sqden", F(9, 8)))
print("candidates for 12/5 in exB:", divisor_candidates("exB", F(12, 5)))

# 9/8 is a member of the sum (it is at least 1) but has no factorization:
# a budget with a trace list records each residual of the search and its
# surviving candidate indices, and what the search spent.
budget = Budget()
budget.trace = trace = []
zs = family_factorizations("interval1_sqden", F(9, 8), budget=budget)
print("member:", family_member("interval1_sqden", F(9, 8)), " |Z(9/8)|:", len(zs))
for entry in trace:
    print("  residual", entry["residual"], "-> candidates", entry["candidate_indices"])
print("units spent:", budget.spent)

# Nearby elements do factor, and exactly.
print("Z(7/4):", [str(z) for z in family_factorizations("interval1_sqden", F(7, 4))])
print("Z(3/2):", [str(z) for z in family_factorizations("interval1_sqden", F(3, 2))])

# The unit-interval monoid: lengths of 3 are pinned to {2, 3}, yet the
# length-2 factorizations 3 = (3/2 - t) + (3/2 + t) multiply forever.
# The sample admits offsets t with denominator up to the bound.
print("lengths of 3:", interval_lengths(3))
for bound in (4, 8, 12):
    sample = interval_length_factorizations(3, 2, bound)
    print(f"den_bound {bound}: {len(sample)} length-2 factorizations of 3")

# Property reports carry provenance: paper-sourced flags vs computed evidence.
report = family_properties("exAexB", window=6)
print({name: flag["value"] for name, flag in report["flags"].items()})
print(report["evidence"]["length2_counts_of_2"])
