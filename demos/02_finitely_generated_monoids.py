"""Finitely generated Puiseux monoids: atoms, membership, factorizations.

A finitely generated additive submonoid of the nonnegative rationals is
determined by its atoms (the minimal generators).  Scaling by the lcm of
the generator denominators turns every question into one about a numerical
monoid, where membership and enumeration are decided exactly.
"""

from fractions import Fraction

from puiseux import FgMonoid

F = Fraction

# Redundant generators disappear: 4 = 2 + 2.
m = FgMonoid([2, 3, 4])
print("atoms:", m.atoms)

# <2, 3> is the naturals without 1.
m23 = FgMonoid([2, 3])
print("1 in <2,3>?", m23.contains(1), "   7 in <2,3>?", m23.contains(7))

# Every factorization of 12 over the atoms {2, 3}, in canonical order
# (multiplicity of the largest atom counts up from zero).
for z in m23.factorizations(12):
    print("12 =", z, " length", z.length)
print("length set of 12:", m23.lengths(12).lengths)
print("length-5 slice:", [str(z) for z in m23.factorizations_of_length(12, 5)])

# Divisibility: c divides b when b - c stays inside the monoid.
print("2 | 6?", m23.divides(2, 6), "   3 | 4?", m23.divides(3, 4))
print("divisors of 6:", m23.divisors(6))

# Maximal common divisors need not be unique in general, so the API
# returns all of them; each passes the definitional predicate.
print("mcd(4, 6):", m23.mcd_set(4, 6))
print("is 4 an mcd of {4, 6}?", m23.is_mcd(4, 6, 4))
print("mcd(2, 3):", m23.mcd_set(2, 3))

# Rational generators work the same way through the integerization.
halves = FgMonoid([F(1, 2), F(3, 4)])
print("scale:", halves.scale, " integer generators:", halves.int_gens)
for z in halves.factorizations(F(3, 2)):
    print("3/2 =", z)

# The internal sum of two monoids is generated by the union of their
# generating sets; atoms are recomputed from scratch.
print("sum:", FgMonoid([2]).internal_sum(FgMonoid([3])).atoms)
print("sum via +:", (FgMonoid([F(1, 2)]) + FgMonoid([F(1, 3)])).atoms)

# A structure report: finitely generated monoids always have finite
# factorization sets, and the report re-evidences that on a sample.
report = m23.classify()
print("report flags:", {k: v["value"] for k, v in report["flags"].items()})
print("sampled members:", report["evidence"]["sampled_members"])
