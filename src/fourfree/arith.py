"""Small exact integer helpers shared across the package, and the constants the
CLI parser needs, which live in this leaf module so that building it loads no layer."""

from __future__ import annotations

RATIONAL = "rational"
INTEGER = "integer"
DEFAULT_SAMPLE_CAP = 100_000
DEFAULT_GROUP_CAP = 4096
DEFAULT_BUDGET = 1_000_000
DROPPED_LAYERS = ("d", "y", "halvable")  # keys of colouring.DROPPED_LAYER_COLOURINGS

# Miller-Rabin with the first 13 primes as bases decides primality of every n
# below psi_13, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86 (2017)).  MR_BOUND = psi_13 ends the proven range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981


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
    d = n - 1
    k = (d & -d).bit_length() - 1
    d >>= k
    for a in _MR_BASES:
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


def size_text(size: int | None, log2_floor: int = 0) -> str:
    """A size over a cap for a message: in decimal, or ``at least 2^k`` when it
    was not counted (None, at least 2^log2_floor) or Python refuses to print it."""
    if size is None:
        return f"at least 2^{log2_floor}"
    try:
        return str(size)
    except ValueError:  # more digits than the int->str conversion limit
        return f"at least 2^{size.bit_length() - 1}"


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")


def record(cls):
    """Make ``cls`` a frozen record over its own annotated fields, with the
    ``__init__`` (defaults, then ``__post_init__``), repr, ``__eq__`` (same class
    only) and ``__hash__`` (of the field tuple) of ``dataclass(frozen=True)``;
    methods the class defines are kept, and setting or deleting a field raises.

    ``import dataclasses`` loads ``inspect`` and so ``ast``, ``dis`` and ``tokenize``
    (15 ms of each CLI call), and ``dataclass`` compiles six methods a class, one
    ``exec`` each (1.4 ms a class); this is one ``exec`` (2 cores, Python 3.11)."""
    names = cls.__dict__.get("__annotations__", {})
    params = "".join(f", {n}=_cls.{n}" if n in cls.__dict__ else f", {n}" for n in names)
    sets = "".join(f"\n    _setattr(self, {n!r}, {n})" for n in names)
    post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    reprs = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    fields, others = ("".join(f"{obj}.{n}, " for n in names) for obj in ("self", "other"))
    namespace = {"_setattr": object.__setattr__, "_cls": cls}
    exec(f"""def __init__(self{params}):{sets}{post}
def __repr__(self): return f"{{self.__class__.__qualname__}}({reprs})"
def __eq__(self, other): return ({fields}) == ({others}) if other.__class__ is self.__class__ else NotImplemented
def __hash__(self): return hash(({fields}))""", namespace)
    for name in ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"):
        if cls.__dict__.get(name) is None:
            setattr(cls, name, namespace.get(name, _frozen))
    return cls


def _report_value(value):
    """A field as a report writes it: its ``describe()``, a tuple as a list, else as is."""
    if hasattr(value, "describe"):
        return value.describe()
    return [_report_value(v) for v in value] if isinstance(value, tuple) else value


def describe_fields(self) -> dict:
    """A record's own annotated fields in declaration order, as report values.  A record
    sets ``describe = describe_fields`` or adds or overwrites one key on top of it."""
    # TripleReport and CosetReport insert derived keys between fields, so those two
    # write their own blocks.
    return {n: _report_value(getattr(self, n)) for n in self.__class__.__dict__.get("__annotations__", {})}
