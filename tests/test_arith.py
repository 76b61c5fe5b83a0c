"""Arithmetic tests: deterministic primality and its proven range."""

import pytest

from fourfree.arith import MR_BOUND, PrimalityUnknown, factorize, is_odd_prime, is_prime


def test_agrees_with_trial_division_below_1e5():
    sieve = bytearray([1]) * 10**5
    sieve[0] = sieve[1] = 0
    for p in range(2, 317):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, 10**5, p)))
    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if sieve[n]]


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
def test_strong_pseudoprimes_rejected(n):
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2, ..., 23
    assert factorize(n)[0][0] < n and not is_prime(n)


@pytest.mark.parametrize("n", [2**31 - 1, 2**61 - 1, MR_BOUND - 168])
def test_large_primes_certified(n):
    # MR_BOUND - 168 is the largest prime below the proven range
    assert is_prime(n) and is_odd_prime(n)


def test_composite_above_proven_range_recognised():
    assert not is_prime(2**89 + 1) and not is_prime(3 * (2**89 - 1))


@pytest.mark.parametrize("n", [2**89 - 1, MR_BOUND])
def test_passing_every_base_above_proven_range_is_not_certified(n):
    # 2^89 - 1 is prime; MR_BOUND = 1287836182261 * 2575672364521 is the least
    # composite that passes all 13 bases: neither may be called prime
    with pytest.raises(PrimalityUnknown, match="cannot certify primality"):
        is_prime(n)


def _trial_division(n):
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def test_factorize_agrees_with_trial_division_below_1e5():
    assert all(factorize(n) == _trial_division(n) for n in range(1, 10**5))


def test_factorize_stops_at_a_certified_cofactor():
    assert factorize(2**61 - 1) == [(2**61 - 1, 1)]
    assert factorize(2**7 * 3 * (2**61 - 1)) == [(2, 7), (3, 1), (2**61 - 1, 1)]
    with pytest.raises(PrimalityUnknown):
        factorize(3 * (2**89 - 1))


# psi_t, the least strong pseudoprime to the first t prime bases, and the gap
# to the next prime above it, for each distinct psi_t below MR_BOUND
_PSI_AND_GAP = [
    (2047, 6),
    (1373653, 24),
    (25326001, 22),
    (3215031751, 16),
    (2152302898747, 24),
    (3474749660383, 18),
    (341550071728321, 40),
    (3825123056546413051, 6),
    (318665857834031151167461, 22),
]


@pytest.mark.parametrize("psi, gap", _PSI_AND_GAP)
def test_each_base_prefix_stops_below_its_pseudoprime(psi, gap):
    # psi_t passes the first t bases, so a later one of the 13 must reject it
    assert not is_prime(psi)
    assert not any(is_prime(n) for n in range(psi + 1, psi + gap))
    assert is_prime(psi + gap)


def test_next_prime_above_proven_range_is_not_certified():
    assert MR_BOUND == 3317044064679887385961981  # psi_13
    with pytest.raises(PrimalityUnknown):
        is_prime(MR_BOUND + 142)
