"""Exact rational arithmetic, prime generation, and p-adic valuations.

Everything downstream builds on this module.  There is deliberately no
floating point anywhere: all quantities are arbitrary-precision integers
or reduced fractions, so valuation arguments stay valid.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from fractions import Fraction
from itertools import compress
from typing import TYPE_CHECKING, Iterable

from .errors import InputError

if TYPE_CHECKING:   # monoid imports this module
    from .monoid import Budget

RationalLike = Fraction | int | str

_RAT_RE = re.compile(r"^([+-]?\d+)\s*(?:/\s*([+-]?\d+))?$")


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "n/d" string to a reduced Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise InputError(f"cannot interpret {value!r} as a rational")


def parse_rational(text: str) -> Fraction:
    """Parse the wire format "n/d" (or plain "n"); decimals are rejected."""
    m = _RAT_RE.match(text.strip())
    if m is None:
        raise InputError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise InputError(f"zero denominator in rational literal {text!r}")
    return Fraction(num, den)


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (desk scale)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


#: The first 13 primes.  As Miller-Rabin bases they decide primality exactly
#: for every n below _MR_EXACT_BELOW (Sorenson & Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


# Shared prime table.  A published list is never changed: growth publishes a
# longer copy in one assignment, so a reader takes `_primes` once and indexes
# into it, and threads that grow it at once only repeat work.  prime_index
# alone charges scans: one unit per odd number below the largest bound a budget
# asks for (free up to 41, the largest Miller-Rabin base), whatever the table holds.
_primes: list[int] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
_SEGMENT = 1 << 20   # bytes of one sieve segment, at most


def _grow_primes(count: int, bound: int = 0) -> list[int]:
    """The table, grown to at least count primes and past bound.

    A segmented sieve of Eratosthenes: each segment starts just past the
    table's largest prime p and is at most p long, so the primes up to p,
    already in the table, sieve it, and the table ends below twice what
    was asked for.
    """
    global _primes
    table = _primes
    while len(table) < count or table[-1] < bound:
        lo = table[-1] + 1
        hi = lo + min(table[-1], _SEGMENT)
        seg = bytearray([1]) * (hi - lo)
        for p in table:
            if p * p >= hi:
                break
            start = max(p * p, -(-lo // p) * p)
            seg[start - lo::p] = bytes(len(range(start, hi, p)))
        _primes = table = table + list(compress(range(lo, hi), seg))
    return table


def nth_prime(n: int, lower_bound: int = 0) -> int:
    """The n-th prime that is >= lower_bound.

    lower_bound 0 or 2 gives the ordinary prime sequence, 3 the odd
    primes, 5 the primes excluding 2 and 3.
    """
    if n < 1:
        raise InputError("prime index must be positive")
    table = _primes
    start = bisect_left(table, lower_bound)
    if start + n > len(table):   # also when lower_bound lies past the table
        start = bisect_left(_grow_primes(0, lower_bound), lower_bound)
        table = _grow_primes(start + n)
    return table[start + n - 1]


def prime_index(bound: int, budget: Budget | None = None) -> int:
    """The index of the least prime >= bound: for a prime p, the n with
    nth_prime(n) == p.  Charged before the table is read (see _primes)."""
    if budget is not None and bound > max(_MR_BASES[-1], budget.primes_paid):
        budget.spend(bound // 2 - budget.primes_paid // 2)
        budget.primes_paid = bound
    return bisect_left(_grow_primes(0, bound), bound) + 1


def _is_strong_prime(n: int) -> bool:
    """Miller-Rabin over _MR_BASES, for odd n coprime to every base: False
    proves n composite, and True proves it prime below _MR_EXACT_BELOW."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int, budget: Budget | None = None) -> list[int]:
    """Distinct prime factors of |n| in increasing order.

    The 13 Miller-Rabin bases are divided out first, uncharged.  Trial
    division past them charges the budget one unit per step (two
    candidates, 6j - 1 and 6j + 1) and stops as soon as the cofactor is
    proven prime, so a product of two huge primes exhausts the budget
    instead of running for minutes; above _MR_EXACT_BELOW it divides on.
    """
    n = abs(n)
    out = []
    for p in _MR_BASES:
        if p * p > n:
            break   # n is 1 or a prime, and the loop below will not run
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
    f, tested = 41, 1
    while f * f <= n:
        if n != tested:
            tested = n
            if n < _MR_EXACT_BELOW and _is_strong_prime(n):
                break
        if budget is not None:
            budget.spend()
        for p in (f, f + 2):
            if n % p == 0:
                out.append(p)
                while n % p == 0:
                    n //= p
        f += 6
    if n > 1:
        out.append(n)
    return out


def _int_valuation(m: int, p: int) -> int:
    m = abs(m)
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def padic(q: RationalLike, p: int) -> int:
    """Exponent of the prime p in the nonzero rational q.

    The value is the exponent of p in the numerator minus the exponent of
    p in the denominator, so q * p**(-padic(q, p)) has p dividing neither.
    """
    q = as_rational(q)
    if q == 0:
        raise InputError("p-adic valuation is undefined at zero")
    # Miller-Rabin refuses a composite at once and proves a prime below
    # _MR_EXACT_BELOW; only a prime past it is proven by trial division
    if not (p in _MR_BASES or p > 1 and all(p % b for b in _MR_BASES) and _is_strong_prime(p)
            and (p < _MR_EXACT_BELOW or prime_factors(p) == [p])):
        raise InputError(f"{p} is not prime")
    return _int_valuation(q.numerator, p) - _int_valuation(q.denominator, p)


def lcm_den(values: Iterable[RationalLike]) -> int:
    """Least common multiple of the denominators of a nonempty list."""
    dens = [as_rational(v).denominator for v in values]
    if not dens:
        raise InputError("need at least one value")
    return math.lcm(*dens)
