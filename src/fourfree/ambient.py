"""Exact arithmetic for ambient groups of shape  (+)_i Z(p_i^inf) (+) (Z_2)^s (+) F^r.

The quasicyclic (Pruefer) coordinates are reduced rationals in [0, 1) with
p-power denominator, added mod 1; the order-2 block is a bit vector; the free
block is a vector of exact rationals (integers when the signature's free mode
is ``integer``).  The factor order is fixed by the signature, so every element
has a well-defined support (indices of its nonzero coordinates) and profile
(the nonzero coordinate values in index order, indices discarded).

Values are immutable and every operation is a pure function that normalizes
its raw result through :func:`element`, so elements may be shared across
threads, and structural equality is group equality: zero has one form.

Canonical text form of an element (injective on valid elements of a fixed
signature, used by the CLI and by colour reports)::

    d:{idx=num/den,...};t:bitstring;q:(r1,...)

e.g. ``d:{0=1/9,1=2/5};t:10;q:(0,3/2)``.  Fractions are fully reduced;
integers are written without a denominator.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .arith import INTEGER, RATIONAL, is_odd_prime

Rat = Union[int, Fraction]

__all__ = [
    "RATIONAL",
    "INTEGER",
    "AmbientSignature",
    "AmbientElement",
    "Profile",
    "SignatureMismatch",
    "ElementParseError",
    "element",
    "zero",
]


class SignatureMismatch(ValueError):
    """Two elements from different ambient groups were combined."""


class ElementParseError(ValueError):
    """Canonical element text could not be parsed."""


@dataclass(frozen=True)
class AmbientSignature:
    """Shape of an ambient group.

    ``prufer_factors`` lists the odd primes of the quasicyclic factors; the
    position in the list is the factor's index, and repeats are allowed.
    ``s`` counts order-2 factors, ``r`` free factors.  ``free_mode`` selects
    whether free coordinates range over the rationals or the integers.
    """

    prufer_factors: tuple[int, ...] = ()
    s: int = 0
    r: int = 0
    free_mode: str = RATIONAL

    def __post_init__(self):
        object.__setattr__(self, "prufer_factors", tuple(int(p) for p in self.prufer_factors))
        for p in self.prufer_factors:
            if not is_odd_prime(p):
                raise ValueError(f"Pruefer factor {p} is not an odd prime")
        if self.s < 0 or self.r < 0:
            raise ValueError("factor counts must be nonnegative")
        if self.free_mode not in (RATIONAL, INTEGER):
            raise ValueError(f"unknown free mode {self.free_mode!r}")

    def describe(self) -> dict:
        return {
            "prufer_factors": list(self.prufer_factors),
            "s": self.s,
            "r": self.r,
            "free_mode": self.free_mode,
        }


@dataclass(frozen=True)
class Profile:
    """Nonzero coordinate values of a direct-sum element, in index order.

    Indices are discarded, so elements with different supports may share a
    profile.
    """

    values: tuple[Fraction, ...] = ()

    def __post_init__(self):
        values = tuple([v if type(v) is Fraction else Fraction(v) for v in self.values])
        object.__setattr__(self, "values", values)
        if 0 in self.values:
            raise ValueError("profiles contain no zero values")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __bool__(self) -> bool:
        return bool(self.values)


def _is_power_of(den: int, p: int) -> bool:
    while den % p == 0:
        den //= p
    return den == 1


@dataclass(frozen=True)
class AmbientElement:
    """An element of an ambient group, stored in canonical form.

    ``d`` holds the nonzero Pruefer coordinates as (index, value) pairs in
    increasing index order, each value a reduced fraction in (0, 1) whose
    denominator is a power of the factor's prime.  ``t`` is the order-2 bit
    vector, ``q`` the free coordinates.  The constructor only validates:
    every operation builds its result with :func:`element`, which normalizes.
    """

    signature: AmbientSignature
    d: tuple[tuple[int, Fraction], ...] = ()
    t: tuple[int, ...] = ()
    q: tuple[Fraction, ...] = ()

    def __post_init__(self):
        sig = self.signature
        primes = sig.prufer_factors
        last = -1
        for idx, coord in self.d:
            if idx <= last:
                raise ValueError("d indices must be strictly increasing")
            last = idx
            if not 0 <= idx < len(primes):
                raise ValueError(f"Pruefer index {idx} out of range")
            if not isinstance(coord, Fraction) or not 0 < coord.numerator < coord.denominator:
                raise ValueError(f"Pruefer coordinate {coord} not in (0, 1)")
            if not _is_power_of(coord.denominator, primes[idx]):
                raise ValueError(
                    f"coordinate {coord} at index {idx} needs a power of "
                    f"{primes[idx]} as denominator"
                )
        if len(self.t) != sig.s or any(b not in (0, 1) for b in self.t):
            raise ValueError(f"t must be a bit vector of length {sig.s}")
        if len(self.q) != sig.r:
            raise ValueError(f"q must have length {sig.r}")
        for v in self.q:
            if not isinstance(v, Fraction):
                raise ValueError("q coordinates must be Fractions")
            if sig.free_mode == INTEGER and v.denominator != 1:
                raise ValueError(f"free coordinate {v} is not an integer")

    # -- group operations ------------------------------------------------

    def __add__(self, other: "AmbientElement") -> "AmbientElement":
        if not isinstance(other, AmbientElement):
            return NotImplemented
        if other.signature != self.signature:
            raise SignatureMismatch("elements belong to different ambient groups")
        dm = dict(self.d)
        for idx, coord in other.d:
            dm[idx] = dm.get(idx, 0) + coord
        return element(
            self.signature,
            dm,
            [a + b for a, b in zip(self.t, other.t)],
            [a + b for a, b in zip(self.q, other.q)],
        )

    def __neg__(self) -> "AmbientElement":
        return -1 * self

    def __sub__(self, other: "AmbientElement") -> "AmbientElement":
        return self + (-other)

    def __rmul__(self, n: int) -> "AmbientElement":
        if not isinstance(n, int):
            return NotImplemented
        return element(
            self.signature,
            [(idx, n * coord) for idx, coord in self.d],
            [n * b for b in self.t],
            [n * v for v in self.q],
        )

    __mul__ = __rmul__

    def double(self) -> "AmbientElement":
        return 2 * self

    @property
    def is_zero(self) -> bool:
        return not self.d and not any(self.t) and not any(self.q)

    def order(self) -> Union[int, float]:
        """Least n >= 1 with n*self = 0, or math.inf.

        The order is the lcm of the coordinate orders: a Pruefer coordinate
        num/p^k has order p^k, a set t bit has order 2, and any nonzero free
        coordinate makes the order infinite.
        """
        if any(self.q):
            return math.inf
        n = 1
        for _, coord in self.d:
            n = math.lcm(n, coord.denominator)
        if any(self.t):
            n = math.lcm(n, 2)
        return n

    # -- views -----------------------------------------------------------

    def d_profile(self) -> Profile:
        return Profile(tuple(coord for _, coord in self.d))

    def q_profile(self) -> Profile:
        return Profile(tuple(v for v in self.q if v))

    # -- canonical text --------------------------------------------------

    def canonical_text(self) -> str:
        """The text form above; ``verifier.Sample.text`` reproduces it from part texts."""
        d_part = ",".join(f"{idx}={coord}" for idx, coord in self.d)
        t_part = "".join(str(b) for b in self.t)
        q_part = ",".join(str(v) for v in self.q)
        return f"d:{{{d_part}}};t:{t_part};q:({q_part})"

    _TEXT_RE = re.compile(r"^d:\{(?P<d>[^{}]*)\};t:(?P<t>[01]*);q:\((?P<q>[^()]*)\)$")
    _INDEX_RE = re.compile(r"[0-9]+")
    _NUMBER_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")

    @classmethod
    def _number(cls, text: str) -> Fraction:
        """A number as the canonical text writes one: ``-?digits(/digits)?``."""
        if not cls._NUMBER_RE.fullmatch(text):
            raise ValueError(f"{text!r} is not of the form n or n/m")
        return Fraction(text)

    @classmethod
    def parse(cls, signature: AmbientSignature, text: str) -> "AmbientElement":
        """Parse canonical element text against a signature.

        Numbers are integers or fractions of digits, as :meth:`canonical_text`
        writes them, and each d index appears at most once.
        """
        m = cls._TEXT_RE.match(text.strip())
        if m is None:
            raise ElementParseError(f"not canonical element text: {text!r}")
        dm = {}
        d_body = m.group("d")
        if d_body:
            for item in d_body.split(","):
                idx_s, eq, val_s = item.partition("=")
                if not eq or not cls._INDEX_RE.fullmatch(idx_s):
                    raise ElementParseError(f"bad d entry {item!r} (need idx=value)")
                try:
                    idx = int(idx_s)
                    val = cls._number(val_s)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ElementParseError(f"bad d entry {item!r}: {exc}") from None
                if idx in dm:
                    raise ElementParseError(f"repeated d index {idx}")
                dm[idx] = val
        t_bits = tuple(int(b) for b in m.group("t"))
        q_body = m.group("q")
        q_vals = []
        if q_body:
            for item in q_body.split(","):
                try:
                    q_vals.append(cls._number(item))
                except (ValueError, ZeroDivisionError) as exc:
                    raise ElementParseError(f"bad q entry {item!r}: {exc}") from None
        try:
            return element(signature, d=dm, t=t_bits, q=q_vals)
        except ValueError as exc:
            raise ElementParseError(f"invalid element for signature: {exc}") from None


def element(
    signature: AmbientSignature,
    d: Union[Mapping[int, Rat], Iterable[tuple[int, Rat]], None] = None,
    t: Union[Sequence[int], None] = None,
    q: Union[Sequence[Rat], None] = None,
) -> AmbientElement:
    """Build an element, normalizing coordinates.

    Pruefer values are reduced mod 1 and zero coordinates are dropped; t bits
    are reduced mod 2; q values are coerced to exact fractions.  Omitted
    blocks default to zero.  The only normalizer: every operation and
    :func:`~fourfree.colouring.halve` hand it their raw coordinates.
    """
    dm = {}
    if d:
        items = d.items() if isinstance(d, Mapping) else d
        for idx, value in items:
            coord = Fraction(value) % 1
            if coord:
                dm[int(idx)] = coord
    t_bits = tuple(int(b) & 1 for b in t) if t is not None else (0,) * signature.s
    q_vals = tuple(Fraction(v) for v in q) if q is not None else (Fraction(0),) * signature.r
    return AmbientElement(signature, tuple(sorted(dm.items())), t_bits, q_vals)


def zero(signature: AmbientSignature) -> AmbientElement:
    return element(signature)
