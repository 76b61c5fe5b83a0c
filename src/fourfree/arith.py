"""Small exact integer helpers shared across the package, and the constants the
CLI parser needs, which live in this leaf module so that building it loads no layer."""

from __future__ import annotations

from typing import Optional

RATIONAL = "rational"
INTEGER = "integer"
DEFAULT_SAMPLE_CAP = 100_000
DEFAULT_GROUP_CAP = 4096
DEFAULT_BUDGET = 1_000_000
DROPPED_LAYERS = ("d", "y", "halvable")  # keys of colouring.DROPPED_LAYER_COLOURINGS

# Miller-Rabin with the first t primes as bases decides primality of every n
# below psi_t, the least strong pseudoprime to all of them: _MR_PSI[t - 1] is
# psi_t (Jaeschke, Math. Comp. 61 (1993); Sorenson and Webster, Math. Comp.
# 86 (2017)).  MR_BOUND = psi_13 ends the proven range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)
MR_BOUND = _MR_PSI[-1]


class PrimalityUnknown(ValueError):
    """n passes every Miller-Rabin base but lies above the proven range."""


def is_prime(n: int) -> bool:
    """Exact primality below :data:`MR_BOUND`; above it a composite is still
    recognised, and a number that passes every base raises
    :class:`PrimalityUnknown` rather than being guessed prime."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # a composite below 43^2 has a prime factor of at most 41
        return True
    for t, psi in enumerate(_MR_PSI, 1):
        if n < psi:
            break
    d = n - 1
    k = (d & -d).bit_length() - 1
    d >>= k
    for a in _MR_BASES[:t]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(k - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_BOUND:
        raise PrimalityUnknown(
            f"cannot certify primality of {size_text(n)}: it passes the Miller-Rabin "
            f"test, which is proven only below {MR_BOUND}"
        )
    return True


def is_odd_prime(n: int) -> bool:
    return n != 2 and is_prime(n)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, ascending.

    Trial division runs only while :func:`is_prime` calls the cofactor
    composite, so this raises :class:`PrimalityUnknown` where that does."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out = []
    d = 2
    while n > 1 and not is_prime(n):
        while n % d:
            d += 1 if d == 2 else 2
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        out.append((d, e))
    if n > 1:
        out.append((n, 1))
    return out


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def size_text(size: Optional[int], log2_floor: int = 0) -> str:
    """A size over a cap for a message: in decimal, or ``at least 2^k`` when it
    was not counted (None, at least 2^log2_floor) or Python refuses to print it."""
    if size is None:
        return f"at least 2^{log2_floor}"
    try:
        return str(size)
    except ValueError:  # more digits than the int->str conversion limit
        return f"at least 2^{size.bit_length() - 1}"
