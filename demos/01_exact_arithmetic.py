"""Exact rationals, prime sequences, and p-adic valuations.

Everything in this library runs on arbitrary-precision rationals; there is
no floating point anywhere, because the valuation arguments that drive the
factorization searches are only valid with exact arithmetic.
"""

from fractions import Fraction

from puiseux import lcm_den, nth_prime, padic, parse_rational

# Rationals are Fractions, stored reduced with a positive denominator; the
# wire format "n/d" (or "n") reads into one.
print(parse_rational("6/4"))      # 3/2
print(parse_rational("-3/-6"))    # 1/2

# str() writes the wire format back, with "/d" dropped for integers.
print(str(Fraction(29, 336)), str(Fraction(4, 2)))

# One prime generator serves three sequences: all primes, odd primes,
# and the primes from 5 up, selected by the lower bound.
print([nth_prime(n, 0) for n in range(1, 8)])   # 2, 3, 5, ...
print([nth_prime(n, 3) for n in range(1, 8)])   # odd primes
print([nth_prime(n, 5) for n in range(1, 8)])   # 5, 7, 11, ...

# The p-adic valuation of q is the exponent of p in the numerator minus
# the exponent in the denominator.
q = Fraction(9, 8)
print(padic(q, 2), padic(q, 3))    # -3, 2
print(padic(Fraction(6, 5), 5))    # -1

# Valuations are additive on products and flip sign on reciprocals.
a, b = Fraction(4, 9), Fraction(15, 8)
assert padic(a * b, 3) == padic(a, 3) + padic(b, 3)
assert padic(1 / a, 3) == -padic(a, 3)

# The pruning fact behind the exact family searches: a sum of rationals
# whose denominators avoid p can never have negative p-adic valuation.
parts = [Fraction(1, 3), Fraction(5, 9), Fraction(2, 27)]
total = sum(parts)
assert padic(total, 2) >= 0

# lcm of denominators: the scale that turns a finitely generated Puiseux
# monoid into a numerical monoid.
print(lcm_den([Fraction(1, 6), Fraction(1, 20), Fraction(1, 56)]))  # 840
