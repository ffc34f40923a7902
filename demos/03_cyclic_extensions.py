"""Adding one cyclic generator: the constructive heart of the sum theorems.

Both sum theorems come down to S = M + N_0*r with r outside M.  This demo
walks the three constructive procedures extracted from their arguments:
rewriting old atoms over the new atom set, building maximal common
divisors by induction on the r-multiple, and assembling factorization
sets of S from base-monoid slices.
"""

from fractions import Fraction

from puiseux import (
    FgMonoid,
    add_cyclic,
    factorizations_via_offsets,
    max_cyclic_divisor,
    mcd_via_extension,
    refactor_atom,
)

F = Fraction

m = FgMonoid([2, 3])
r = F(3, 4)

# r outside M is automatically an atom of the extension; here 3 stops
# being an atom (3 = 4 * 3/4) while 2 survives.
ext = add_cyclic(m, r)
s = ext.monoid
print("atoms of S:", s.atoms, "  r was new:", not ext.r_in_base)

# The largest multiple of r dividing an element.
print("max m with m*(3/4) dividing 3:", max_cyclic_divisor(s, 3, r))
print("max m with m*(3/4) dividing 2:", max_cyclic_divisor(s, 2, r))

# Every atom of M refactors over the atoms of S as (surviving atoms) + m*r
# with m maximal; that multiplicity forces the other parts to stay atoms.
for a in m.atoms:
    print(f"atom {a} of M refactors in S as:", refactor_atom(m, r, a))

# Maximal common divisors in S, built by the inductive construction:
# strip the shared r-multiple, take an mcd in M, peel a smallest nonzero
# residual divisor, and recurse with a strictly smaller r-multiple.
for x, y in ((2, 4), (F(3, 4), F(3, 2)), (2, 3)):
    d = mcd_via_extension(m, r, x, y)
    print(f"mcd of {x} and {y} in S:", d, "  predicate holds:", s.is_mcd(x, y, d))

# Factorizations of S assembled from base slices: enumerate the finitely
# many offsets c with s - c*r in M, lift, and keep only multisets whose
# parts are atoms of S.  The result equals direct enumeration.
target = 5
assembled = factorizations_via_offsets(m, r, target)
direct = s.factorizations(target)
print("assembled:", [str(z) for z in assembled])
print("equal to direct enumeration:", assembled == direct)

# The unfiltered union would also mention 2 + 3, but 3 is no longer an
# atom of S, which is why the filtering step exists.
print("Z_M(5) before lifting:", [str(z) for z in m.factorizations(5)])
