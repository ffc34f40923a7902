import math
import threading
import time
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puiseux import BudgetExceededError, InputError, lcm_den, nth_prime, padic, parse_rational, reduce
from puiseux import qarith
from puiseux.monoid import Budget
from puiseux.qarith import (_MR_EXACT_BELOW, _is_strong_prime, format_rational, is_prime, prime_factors,
                             prime_index)


def test_reduce_known_values():
    assert reduce(6, 4) == Fraction(3, 2)
    assert reduce(-3, -6) == Fraction(1, 2)
    assert reduce(50 - 21, 336) == Fraction(29, 336)
    assert reduce(0, 7) == 0


def test_reduce_rejects_zero_denominator():
    with pytest.raises(InputError):
        reduce(1, 0)


def test_padic_known_values():
    assert padic(Fraction(9, 8), 2) == -3
    assert padic(Fraction(9, 8), 3) == 2
    assert padic(Fraction(6, 5), 5) == -1
    assert padic(12, 2) == 2


def test_padic_rejects_bad_input():
    with pytest.raises(InputError):
        padic(0, 2)
    with pytest.raises(InputError):
        padic(Fraction(1, 2), 4)


def test_padic_proves_a_huge_prime_by_miller_rabin():
    p = 10**18 + 9
    start = time.perf_counter()
    assert padic(Fraction(1, p), p) == -1
    assert time.perf_counter() - start < 1


def test_padic_refuses_a_composite_by_miller_rabin():
    # trial division would run to 10^9 before it found a factor of the first;
    # the second is a strong pseudoprime to the bases 2, 3, 5 and 7
    start = time.perf_counter()
    for p in (1000000007 * 1000000009, 3215031751, 43 * 47, 41 * 41, 1, 0, -7):
        with pytest.raises(InputError, match="not prime"):
            padic(1, p)
    assert time.perf_counter() - start < 1
    assert [padic(p * p, p) for p in (2, 41, 43, 2**61 - 1)] == [2, 2, 2, 2]


def test_nth_prime_sequences():
    assert nth_prime(3, 0) == 5
    assert nth_prime(2, 3) == 5
    assert nth_prime(1, 5) == 5
    assert [nth_prime(i, 3) for i in range(1, 9)] == [3, 5, 7, 11, 13, 17, 19, 23]
    with pytest.raises(InputError):
        nth_prime(0, 0)


def test_lcm_den():
    assert lcm_den([Fraction(1, 2), Fraction(3, 4)]) == 4
    assert lcm_den([2, 3]) == 1
    assert lcm_den([Fraction(1, 6), Fraction(1, 20), Fraction(1, 56)]) == 840
    with pytest.raises(InputError):
        lcm_den([])


def test_rational_wire_format():
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(4, 2)) == "2"
    assert parse_rational("29/336") == Fraction(29, 336)
    assert parse_rational(" 7 ") == 7
    with pytest.raises(InputError):
        parse_rational("1.5")
    with pytest.raises(InputError):
        parse_rational("1/0")


nonzero_rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=40
).filter(lambda q: q != 0)


@given(q=nonzero_rationals, p=st.sampled_from([2, 3, 5, 7, 11]))
def test_padic_reciprocal_flips_sign(q, p):
    assert padic(1 / q, p) == -padic(q, p)


@given(a=nonzero_rationals, b=nonzero_rationals, p=st.sampled_from([2, 3, 5, 7]))
def test_padic_is_additive_on_products(a, b, p):
    assert padic(a * b, p) == padic(a, p) + padic(b, p)


@given(
    parts=st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=45), min_size=1, max_size=6
    ),
    p=st.sampled_from([2, 3, 7]),
)
@settings(max_examples=200)
def test_padic_of_sums_with_coprime_denominators(parts, p):
    # the pruning fact: denominators coprime to p keep the sum's valuation >= 0
    parts = [q for q in parts if q.denominator % p != 0]
    total = sum(parts, Fraction(0))
    if total != 0:
        assert padic(total, p) >= 0


@given(n=st.integers(1, 60), lb=st.sampled_from([0, 2, 3, 5]))
def test_nth_prime_strictly_increasing(n, lb):
    assert nth_prime(n, lb) < nth_prime(n + 1, lb)
    assert nth_prime(n, lb) >= lb
    assert is_prime(nth_prime(n, lb))


def test_sieved_prime_table_matches_trial_division(monkeypatch):
    # a fresh table, grown by the sieve from its first ten primes
    monkeypatch.setattr(qarith, "_primes", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29])
    primes = [n for n in range(10**5 + 1) if is_prime(n)]
    assert prime_index(10**5) == len(primes) + 1
    assert qarith._primes[-1] < 2 * 10**5   # grown to below twice the bound asked for
    assert qarith._primes[:len(primes)] == primes
    assert [nth_prime(i) for i in range(1, len(primes) + 1)] == primes
    assert [prime_index(n) for n in range(10**5 + 1)] == [bisect_left(primes, n) + 1
                                                           for n in range(10**5 + 1)]
    assert [nth_prime(i, 5) for i in range(1, len(primes) - 1)] == primes[2:]


def test_nth_prime_with_a_lower_bound_past_the_table(monkeypatch):
    monkeypatch.setattr(qarith, "_primes", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29])
    assert nth_prime(2, 100) == 103
    assert nth_prime(1, 7920) == 7927


def test_threads_growing_the_table_at_once_agree_with_one_thread(monkeypatch):
    # each thread publishes its own longer copy of the table, so threads
    # racing to grow it only repeat work
    first = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    bounds = (10**4, 3 * 10**4, 6 * 10**4, 10**5)
    monkeypatch.setattr(qarith, "_primes", list(first))
    single = [prime_index(b) for b in bounds]
    monkeypatch.setattr(qarith, "_primes", list(first))
    barrier = threading.Barrier(len(bounds))
    results = [None] * len(bounds)

    def grow(i):
        barrier.wait()
        results[i] = prime_index(bounds[i]), qarith._grow_primes(0, bounds[i])

    threads = [threading.Thread(target=grow, args=(i,)) for i in range(len(bounds))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    primes = [n for n in range(2 * 10**5) if is_prime(n)]
    assert [index for index, _ in results] == single
    for bound, (_, table) in zip(bounds, results):
        assert table[-1] >= bound
        assert table == primes[:len(table)]
    assert qarith._primes == primes[:len(qarith._primes)]


def test_prime_scans_are_charged_by_the_largest_bound_alone(monkeypatch):
    monkeypatch.setattr(qarith, "_primes", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29])
    # one unit per odd number below the bound, before the table grows
    with pytest.raises(BudgetExceededError):
        prime_index(10**7, Budget(5 * 10**6 - 1))
    assert qarith._primes[-1] == 29
    # up to 41, the largest Miller-Rabin base, a scan is free
    assert prime_index(41, Budget(1)) == 13
    for _ in range(2):   # from a fresh table, then from one grown past the bound
        meter = Budget(10**6)
        assert prime_index(100003, meter) == 9593
        assert 10**6 - meter.left == 50001
    # a budget pays once for the longest scan it asks for
    assert prime_index(1009, meter) == 169
    assert 10**6 - meter.left == 50001
    assert prime_index(200003, meter) == 17985
    assert 10**6 - meter.left == 100001


@given(n=st.integers(2, 5000))
def test_prime_factors_multiply_back(n):
    factors = prime_factors(n)
    assert all(is_prime(p) for p in factors)
    remaining = n
    for p in factors:
        while remaining % p == 0:
            remaining //= p
    assert remaining == 1
    assert math.prod(factors) <= n


def _trial_division_factors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] * (n > 1)


_primes_past_the_bases = st.sampled_from([43, 47, 53, 97, 1009, 7919])


@given(n=st.integers(1, 10**7) | st.builds(lambda a, b, c: a * b * c, _primes_past_the_bases,
                                             _primes_past_the_bases, st.integers(1, 100)))
@settings(max_examples=300, deadline=None)
def test_prime_factors_match_trial_division(n):
    assert prime_factors(n) == _trial_division_factors(n)
    assert prime_factors(-n, Budget(10**7)) == _trial_division_factors(n)


@pytest.mark.parametrize("n, factors", [
    # strong pseudoprimes: to bases 2, 3, 5, 7 and to the first 9 primes
    (3215031751, [151, 751, 28351]),
    (3825123056546413051, [149491, 747451, 34233211]),
    # Carmichael numbers
    (41041, [7, 11, 13, 41]),
    (62745, [3, 5, 47, 89]),
    (1000003 * 1000033, [1000003, 1000033]),
])
def test_prime_factors_of_pseudoprimes_and_semiprimes(n, factors):
    assert prime_factors(n) == factors


def test_miller_rabin_is_exact_only_below_its_bound():
    # the first 13 primes as bases: psi_12 is caught by base 41, and the
    # least strong pseudoprime to all 13 is the bound itself
    assert not _is_strong_prime(318665857834031151167461)
    assert _is_strong_prime(_MR_EXACT_BELOW)
    # so at the bound prime_factors divides on, charged, instead of trusting it
    with pytest.raises(BudgetExceededError):
        prime_factors(_MR_EXACT_BELOW, Budget(1000))


def test_prime_factors_charge_one_unit_per_trial_division_step():
    # a proven-prime cofactor costs nothing; the 13 bases are divided out free
    assert prime_factors(1000000007, Budget(1)) == [1000000007]
    assert prime_factors(2**40 * 3 * 41**5, Budget(1)) == [2, 3, 41]
    # 43 * 47: one step (41, 43) finds 43, and the cofactor 47 ends the loop
    meter = Budget(10)
    assert prime_factors(43 * 47, meter) == [43, 47]
    assert meter.left == 9
    # the cofactor left after 43 is proven prime, so division stops there
    assert prime_factors(43 * 1000000007, Budget(1)) == [43, 1000000007]
    with pytest.raises(BudgetExceededError):
        prime_factors(1000000007 * 1000000009, Budget(100))
