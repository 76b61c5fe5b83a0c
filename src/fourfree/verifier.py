"""Exhaustive and randomized sweeps for the no-monochromatic-triple property.

A :class:`SampleSpec` describes a finite window onto an infinite ambient
group: Pruefer coordinates up to a depth, free coordinates in a bounded
rational (or integer) box, all order-2 bit vectors.  ``find_mono_triples``
checks every unordered pair a != b of the sample for colour(2a) =
colour(2b) = colour(a+b); under the three-layer colouring the violation list
is empty, while degenerate colourings (constant, single-layer drops) produce
violations that validate the checker itself.

The pair sweep buckets elements by the colour of their double, so only pairs
that already agree on that colour are tested against colour(a+b).  Sweeps
are deterministic: the report (violations in canonical order, all counts)
depends only on the set of elements swept.  Results are plain values with
no timing, so two sweeps compare with ``==``; the CLI adds the window and
the elapsed time when it writes a report.

A window is held as integer codes (d, t, q).  A Pruefer coordinate is its
numerator over M, the lcm of the window's Pruefer denominators, added and
doubled mod M; a free coordinate is its numerator over L, the lcm of the free
denominators; the order-2 block is a bitmask.  Each block shares one
denominator, so the tuple of nonzero numerators of a block is its profile,
and halvability is t == 0 (and, in integer free mode, every free code even).
The d and y layers of 2a and of a+b read only the d and q parts of a and b,
so a bucket is a list of cosets (d, q, ts) of the order-2 block, and the scan
decides each pair of cosets once (see :func:`find_mono_triples`).  Random
draws are coded straight from the :class:`SampleSpec`, an exhaustive window
as the unexpanded product of its parts, a list by :meth:`Sample.of`.  An
:class:`~fourfree.ambient.AmbientElement` is built only for the double whose
colour names a violating bucket, and only that colour text calls the
colouring, which declares the layers the sweep compares with
:func:`~fourfree.colouring.reads_layers`; :meth:`Sample.text` writes element
text from per-part caches of strings.
"""

from __future__ import annotations

import math
import random
from collections import abc
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import combinations, product
from typing import Callable, Optional, Sequence

from .ambient import (
    INTEGER,
    AmbientElement,
    AmbientSignature,
    SignatureMismatch,
)
from .arith import DEFAULT_SAMPLE_CAP, size_text
from .colouring import Colour, colour, colour_encode, reads_layers
from .sumset import Elem, FiniteGroupSpec

__all__ = [
    "DEFAULT_SAMPLE_CAP",
    "SampleSpec",
    "SampleCapExceeded",
    "TripleReport",
    "CosetReport",
    "ObstructionDemo",
    "enumerate_sample",
    "find_mono_triples",
    "check_coset_uniqueness",
    "find_order4_witness",
    "order4_obstruction_demo",
    "constant_colour",
    "SHIPPED_SAMPLES",
]


class SampleCapExceeded(ValueError):
    """An exhaustive sample would exceed the configured element cap."""


@dataclass(frozen=True)
class SampleSpec:
    """Finite sampling window for one ambient signature.

    Exhaustive mode enumerates, exactly once each, all elements whose
    Pruefer coordinate at a factor of prime p has denominator <= p^depth and
    whose free coordinates are reduced fractions n/m with |n| <= numerator
    bound and 1 <= m <= denominator bound (integers |n| <= bound in integer
    free mode).  Random mode draws ``count`` elements uniformly from the same
    box, reproducibly from ``seed``.
    """

    signature: AmbientSignature
    prufer_depth: int = 1
    q_numerator_bound: int = 1
    q_denominator_bound: int = 1
    mode: str = "exhaustive"
    count: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.prufer_depth < 1 or self.q_numerator_bound < 1 or self.q_denominator_bound < 1:
            raise ValueError("sample bounds must be positive")
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown sample mode {self.mode!r}")
        if self.mode == "random" and self.count < 1:
            raise ValueError("random mode needs a positive count")

    @property
    def q_den_bound(self) -> int:
        """The denominator bound in effect: the integer box is the rational
        box with denominator bound 1."""
        return 1 if self.signature.free_mode == INTEGER else self.q_denominator_bound

    def q_values(self) -> tuple[Fraction, ...]:
        """Sorted free-coordinate box."""
        bound = self.q_numerator_bound
        values = {
            Fraction(n, m)
            for n in range(-bound, bound + 1)
            for m in range(1, self.q_den_bound + 1)
        }
        return tuple(sorted(values))

    def q_box_size(self) -> int:
        """``len(self.q_values())``, counted without building the box."""
        return 1 + 2 * _coprime_pairs(self.q_numerator_bound, self.q_den_bound)

    def cardinality(self) -> int:
        sig = self.signature
        size = math.prod(p**self.prufer_depth for p in sig.prufer_factors)
        return size * 2**sig.s * (self.q_box_size() ** sig.r if sig.r else 1)

    def describe(self) -> dict:
        return {
            "signature": self.signature.describe(),
            "prufer_depth": self.prufer_depth,
            "q_numerator_bound": self.q_numerator_bound,
            "q_denominator_bound": self.q_denominator_bound,
            "mode": self.mode,
            "count": self.count,
            "seed": self.seed,
        }


def _coprime_pairs(b: int, d: int) -> int:
    """#{(n, m) : 1 <= n <= b, 1 <= m <= d, gcd(n, m) = 1}.

    Every pair (n, m) is g times a coprime pair for g = gcd(n, m), so
    b*d = sum over g >= 1 of coprime_pairs(b // g, d // g).  The g with equal
    quotients form blocks, so each call visits O(sqrt(b)) blocks and only
    O(sqrt(b) + sqrt(d)) distinct arguments ever occur.
    """
    memo: dict[tuple[int, int], int] = {}

    def count(b: int, d: int) -> int:
        if b > d:
            b, d = d, b
        if b == 0:
            return 0
        if (b, d) not in memo:
            total = b * d
            g = 2
            while g <= b:
                bg, dg = b // g, d // g
                last = min(b // bg, d // dg)
                total -= (last - g + 1) * count(bg, dg)
                g = last + 1
            memo[b, d] = total
        return memo[b, d]

    return count(b, d)


# Sizes are counted exactly while that is cheap: windows whose floor (below)
# is at most _COUNT_BITS, which takes in every size Python prints (4,300 digits
# are about 14,300 bits), and boxes with min(b, d) at most _COUNT_BOX (counting
# walks about min(b, d)**0.75 blocks, 0.15 s at 10**6).
_COUNT_BITS = 20_000
_COUNT_BOX = 10**6


def _check_cap(spec: SampleSpec, cap: int) -> None:
    """Raise :class:`SampleCapExceeded` if ``spec`` yields more than ``cap``
    elements, draws from a window of more than 2^_COUNT_BITS elements, or
    draws from a free-coordinate box of more than ``cap`` values.

    Every base of the window's size is at least 2 (p >= 3, 2 per t bit, at
    least 3 box values), so it holds at least 2^floor elements, and a box with
    bounds b, d at least 2 max(b, d) + 1 values.  A size costly to count is
    left uncounted when its lower bound already exceeds the cap.  Random mode
    computes p**depth and draws s + r coordinates per element, so its floor
    is bounded as well.  A negative cap is a ``ValueError``.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    sig = spec.signature
    b = spec.q_numerator_bound
    d = spec.q_den_bound
    box_floor = (2 * max(b, d) + 1).bit_length() - 1
    box_cheap = not sig.r or min(b, d) <= _COUNT_BOX
    floor = len(sig.prufer_factors) * spec.prufer_depth + sig.s + sig.r * box_floor
    if spec.mode == "exhaustive":
        cheap = box_cheap and floor <= _COUNT_BITS
        total = spec.cardinality() if cheap or floor < cap.bit_length() else None
        if total is None or total > cap:
            raise SampleCapExceeded(
                f"exhaustive sample has {size_text(total, floor)} elements, cap is {cap}"
            )
    elif spec.count > cap:
        raise SampleCapExceeded(f"random sample has {size_text(spec.count)} elements, cap is {cap}")
    elif floor > _COUNT_BITS:
        raise SampleCapExceeded(
            f"random sample draws from at least 2^{floor} elements, limit is 2^{_COUNT_BITS}"
        )
    if sig.r:
        box = spec.q_box_size() if box_cheap or box_floor < cap.bit_length() else None
        if box is None or box > cap:
            raise SampleCapExceeded(
                f"free-coordinate box has {size_text(box, box_floor)} values, cap is {cap}"
            )


_Code = tuple[tuple[int, ...], int, tuple[int, ...]]


class _Product(abc.Sequence):
    """The codes (d, t, q) of D x T x Q in d-major order, never expanded: it
    indexes, slices and iterates like the tuple of those codes, is equal to it
    and hashes like it (only the hash builds that tuple, for a moment)."""

    def __init__(self, *parts: tuple):
        self.parts = parts

    def __len__(self) -> int:
        return math.prod(map(len, self.parts))

    def __getitem__(self, index):
        ds, ts, qs = self.parts
        at = lambda i: (ds[i // len(qs) // len(ts)], ts[i // len(qs) % len(ts)], qs[i % len(qs)])
        picked = range(len(self))[index]
        return tuple(map(at, picked)) if isinstance(index, slice) else at(picked)

    def __iter__(self):
        return product(*self.parts)

    def __eq__(self, other):
        same_len = isinstance(other, (tuple, _Product)) and len(other) == len(self)
        return same_len and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True)
class Sample(abc.Sequence):
    """A window of ambient elements, held as integer codes (d, t, q).

    ``codes`` keeps the draw order, duplicates included (an exhaustive window's
    codes are its parts' product).  d is the dense tuple of Pruefer numerators
    over ``M``, t the order-2 bits as a mask with the first bit highest, q the
    free numerators over ``L`` (1 in integer free mode, so a code's parity is
    its value's).  Distinct elements of the signature have distinct codes.
    Two samples are equal when their signatures, ``M``, ``L`` and codes are.
    As a read-only sequence the sample yields its elements: :meth:`element`
    decodes a code on demand, and equal parts of different elements are
    decoded once and shared; :meth:`text` joins a code's canonical text from
    texts written once per distinct part.
    """

    signature: Optional[AmbientSignature]
    M: int
    L: int
    codes: Sequence[_Code]

    def __post_init__(self):
        sig, M, L = self.signature, self.M, self.L
        set_ = object.__setattr__
        set_(self, "_d", cache(lambda d: tuple((i, Fraction(x, M)) for i, x in enumerate(d) if x)))
        set_(self, "_t", cache(lambda t: tuple((t >> k) & 1 for k in reversed(range(sig.s)))))
        set_(self, "_q", cache(lambda q: tuple(Fraction(v, L) for v in q)))
        set_(self, "_texts", cache(self._part_text))

    @classmethod
    def of(cls, elements: Sequence[AmbientElement]) -> "Sample":
        """Code a list of elements of one signature, each from its own coordinates."""
        if not elements:
            return cls(None, 1, 1, ())
        sig = elements[0].signature
        if any(a.signature != sig for a in elements):
            raise SignatureMismatch("sample mixes elements of different signatures")
        M = math.lcm(*{coord.denominator for a in elements for _, coord in a.d})
        L = math.lcm(*{v.denominator for a in elements for v in a.q})
        codes = []
        for a in elements:
            d = [0] * len(sig.prufer_factors)
            for i, coord in a.d:
                d[i] = coord.numerator * (M // coord.denominator)
            t = 0
            for bit in a.t:
                t = t << 1 | bit
            codes.append((tuple(d), t, tuple([v.numerator * (L // v.denominator) for v in a.q])))
        return cls(sig, M, L, tuple(codes))

    def element(self, code: _Code) -> AmbientElement:
        """The element with this code, built from the memoised decoded parts."""
        d, t, q = code
        return AmbientElement(self.signature, self._d(d), self._t(t), self._q(q))

    def text(self, code: _Code) -> str:
        """``self.element(code).canonical_text()``, joined from its cached part texts."""
        return ";".join(map(self._texts, range(3), code))

    def _part_text(self, k: int, part) -> str:
        """Part k of the text of the element with this part and zero elsewhere;
        the constructor checks each part on its own, so this validates the part."""
        code = [(0,) * len(self.signature.prufer_factors), 0, (0,) * self.signature.r]
        code[k] = part
        return self.element(tuple(code)).canonical_text().split(";")[k]

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self.element(code) for code in self.codes[index]]
        return self.element(self.codes[index])

    def __iter__(self):
        return map(self.element, self.codes)


def enumerate_sample(spec: SampleSpec, cap: int = DEFAULT_SAMPLE_CAP) -> Sample:
    """The sample described by ``spec``, coded straight from it.

    Exhaustive mode yields each element of the box once, as the product of
    its d codes, t masks and q codes; random mode yields ``count`` uniform
    draws (duplicates possible), reproducible from the seed with a fixed draw
    order (Pruefer coordinates by index, then t bits, then free coordinates).
    Either mode checks ``cap`` (see :func:`_check_cap`) before building
    anything, and builds the box only when free coordinates are drawn.  M is
    the lcm of the p**depth and L the lcm of the box's denominators, so every
    code of the window is integral.
    """
    _check_cap(spec, cap)
    sig = spec.signature
    depth_orders = [p**spec.prufer_depth for p in sig.prufer_factors]
    M = math.lcm(*depth_orders)
    box = spec.q_values() if sig.r else ()
    L = math.lcm(*{v.denominator for v in box})

    def q_code(v: Fraction) -> int:
        return v.numerator * (L // v.denominator)

    if spec.mode == "exhaustive":
        d_codes = tuple(product(*(range(0, M, M // n) for n in depth_orders)))
        q_codes = tuple(product([q_code(v) for v in box], repeat=sig.r))
        return Sample(sig, M, L, _Product(d_codes, tuple(range(2**sig.s)), q_codes))

    rng = random.Random(spec.seed)
    steps = [(n, M // n) for n in depth_orders]
    codes = []
    for _ in range(spec.count):
        d = tuple([rng.randrange(n) * step for n, step in steps])
        t = 0
        for _ in range(sig.s):
            t = t << 1 | rng.randrange(2)
        codes.append((d, t, tuple([q_code(box[rng.randrange(len(box))]) for _ in range(sig.r)])))
    return Sample(sig, M, L, tuple(codes))


@reads_layers()
def constant_colour(a: AmbientElement):
    """Degenerate one-colour colouring; self-test harness for the sweep."""
    return 0


def _group(items, key) -> dict:
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return groups


def _classes(s: Sample, d_key, q_key):
    """How many distinct codes ``s`` has, how many buckets by (d_key(d), q_key(q)), and the
    (key, bucket) pairs.  A bucket lists cosets (d, q, ts), ts the t masks of the codes with
    parts d and q; a product's buckets are built one at a time and share its ts."""
    if isinstance(s.codes, _Product):
        ds, ts, qs = s.codes.parts
        by_d, by_q = _group(ds, d_key), _group(qs, q_key)
        buckets = (((dk, qk), [(d, q, ts) for d in dm for q in qm])
                   for dk, dm in by_d.items() for qk, qm in by_q.items())
        return len(s), len(by_d) * len(by_q), buckets
    uniq = dict.fromkeys(s.codes)
    cosets = _group(uniq, lambda code: (code[0], code[2]))
    by_key = _group([(d, q, [t for _, t, _ in codes]) for (d, q), codes in cosets.items()],
                    lambda coset: (d_key(coset[0]), q_key(coset[1])))
    return len(uniq), len(by_key), by_key.items()


@dataclass(frozen=True)
class TripleReport:
    """Outcome of one pair sweep; violations in canonical text order."""

    size: int
    distinct: int
    pairs: int
    n_buckets: int
    candidate_pairs: int
    violations: tuple[tuple[str, str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> dict:
        return {
            "size": self.size,
            "distinct": self.distinct,
            "pairs": self.pairs,
            "n_buckets": self.n_buckets,
            "candidate_pairs": self.candidate_pairs,
            "n_violations": len(self.violations),
            "violations": [
                {"a": a, "b": b, "colour": c} for a, b, c in self.violations
            ],
        }


def find_mono_triples(
    elements: Sequence[AmbientElement],
    colour_fn: Callable[[AmbientElement], object] = colour,
) -> TripleReport:
    """Check every unordered pair a != b for colour(2a) = colour(2b) = colour(a+b).

    Duplicate elements are collapsed first.  Elements are bucketed by the
    layers of their double that ``colour_fn`` declares (see
    :func:`~fourfree.colouring.reads_layers`; an undeclared callable raises
    ``TypeError``), and each pair of cosets in a bucket (see :func:`_classes`)
    is decided once.  Members of one coset share d and q, so a+b has the d and
    q parts of 2a; only h separates them, as a+b has t mask ta ^ tb != 0 and is
    not halvable.  Two cosets get the d and y arithmetic once; a+b is halvable
    exactly when ta ^ tb = 0 and, in integer mode, its free codes are even, so
    with h read only equal t masks of cosets of equal free parity can match.
    ``elements`` is a :class:`Sample` or a list, coded with :meth:`Sample.of`.
    """
    layers = getattr(colour_fn, "layers", None)
    if layers is None:
        raise TypeError(
            f"colouring {colour_fn!r} does not declare the layers it reads; "
            "decorate it with fourfree.colouring.reads_layers"
        )
    s = elements if isinstance(elements, Sample) else Sample.of(elements)
    M = s.M
    integer = s.signature is not None and s.signature.free_mode == INTEGER
    use_d, use_y, use_h = "d" in layers, "y" in layers, "h" in layers

    # Keys hold the d and y layers of 2a, None where unread, keyed once per
    # distinct part; every double has t = 0 and even free codes, so it is
    # halvable and h never splits a bucket.
    d_keys = cache(lambda d: tuple([v for x in d if (v := 2 * x % M)]) if use_d else None)
    y_keys = cache(lambda q: tuple([2 * x for x in q if x]) if use_y else None)
    n, n_buckets, buckets = _classes(s, d_keys, y_keys)

    candidate_pairs = 0
    violations = []
    for (d_key, y_key), cosets in buckets:
        size = sum([len(ts) for _, _, ts in cosets])
        candidate_pairs += size * (size - 1) // 2
        hits = [(i, i) for i, (_, _, ts) in enumerate(cosets) if not use_h and len(ts) > 1]
        for i, (da, qa, _) in enumerate(cosets):
            for j, (db, qb, _) in enumerate(cosets[i + 1 :], i + 1):
                if use_y and tuple([v for x, y in zip(qa, qb) if (v := x + y)]) != y_key:
                    continue
                if use_d and tuple([v for x, y in zip(da, db) if (v := (x + y) % M)]) != d_key:
                    continue
                if not (use_h and integer and any([(x + y) & 1 for x, y in zip(qa, qb)])):
                    hits.append((i, j))
        if hits:
            d, q, _ = cosets[0]
            double = (tuple([2 * x % M for x in d]), 0, tuple([2 * v for v in q]))
            key = colour_fn(s.element(double))
            key_text = colour_encode(key) if isinstance(key, Colour) else repr(key)
            texts = [{t: s.text((d, t, q)) for t in ts} for d, q, ts in cosets]
            for a, b in ((texts[i], texts[j]) for i, j in hits):
                if a is b:
                    pairs = combinations(a.values(), 2)
                else:
                    pairs = [(a[t], b[t]) for t in a if t in b] if use_h else product(a.values(), b.values())
                violations += [(x, y, key_text) if x < y else (y, x, key_text) for x, y in pairs]

    violations.sort()
    return TripleReport(
        size=len(s),
        distinct=n,
        pairs=n * (n - 1) // 2,
        n_buckets=n_buckets,
        candidate_pairs=candidate_pairs,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class CosetReport:
    """Halvable-element census per coset of the order-2 block."""

    n_elements: int
    n_cosets: int
    n_halvable: int
    offenders: tuple[tuple[str, ...], ...]  # cosets with >= 2 halvable elements

    @property
    def ok(self) -> bool:
        return not self.offenders

    def describe(self) -> dict:
        return {
            "n_elements": self.n_elements,
            "n_cosets": self.n_cosets,
            "n_halvable": self.n_halvable,
            "ok": self.ok,
            "offenders": [list(group) for group in self.offenders],
        }


def check_coset_uniqueness(elements: Sequence[AmbientElement]) -> CosetReport:
    """Each coset of the order-2 block holds at most one halvable element.

    Elements are grouped by (Pruefer part, free part), which identifies the
    coset; within each group the halvable elements are counted.
    ``elements`` is a :class:`Sample` or a list, coded with :meth:`Sample.of`.
    """
    s = elements if isinstance(elements, Sample) else Sample.of(elements)
    integer = s.signature is not None and s.signature.free_mode == INTEGER
    n, n_cosets, buckets = _classes(s, lambda d: d, lambda q: q)
    n_halvable = 0
    offenders = []
    for _, [(d, q, ts)] in buckets:
        halvables = [(d, t, q) for t in ts if not t and not (integer and any(v & 1 for v in q))]
        n_halvable += len(halvables)
        if len(halvables) > 1:
            offenders.append(tuple(sorted(map(s.text, halvables))))
    return CosetReport(
        n_elements=n,
        n_cosets=n_cosets,
        n_halvable=n_halvable,
        offenders=tuple(sorted(offenders)),
    )


# -- order-4 obstruction demo ---------------------------------------------
#
# The colouring argument needs halving to be unambiguous per coset; with an
# order-4 element that fails.  The demo exhibits, in a finite group that
# allows order 4, a pair g, h whose doubles are distinct but differ by an
# order-2 element, so that g - h itself has order 4.  Over any 4-free group
# the same search provably finds nothing.


def _is_order4_witness(group: FiniteGroupSpec, g: Elem, h: Elem) -> bool:
    dg, dh = group.double(g), group.double(h)
    return dg != dh and group.order_of(group.add(dg, group.neg(dh))) == 2


def _order4_witnesses(group: FiniteGroupSpec) -> tuple[int, Optional[tuple[Elem, Elem]]]:
    """Number of pairs g < h (lex) with 2g != 2h and 2g - 2h of order 2, and the first.

    2g - 2h has order 2 exactly when 4g = 4h and 2g != 2h, so the witnesses
    are the pairs inside one class of 4g that lie in different classes of 2g.
    Elements arrive in lex order, so classes come in the order of their least
    members, and the first witness pairs the least member of the first class
    with two subclasses with the least member of its other subclasses.
    """
    classes: dict[Elem, dict[Elem, list[Elem]]] = {}
    for g in group.elements():
        dg = group.double(g)
        classes.setdefault(group.double(dg), {}).setdefault(dg, []).append(g)
    count = 0
    first = None
    for by_double in classes.values():
        sizes = [len(members) for members in by_double.values()]
        count += (sum(sizes) ** 2 - sum(s * s for s in sizes)) // 2
        if first is None and len(sizes) > 1:
            (g, *_), *others = by_double.values()
            first = (g, min(members[0] for members in others))
    return count, first


def find_order4_witness(group: FiniteGroupSpec) -> Optional[tuple[Elem, Elem]]:
    """First (lex) pair g < h with 2g != 2h and 2g - 2h of order 2, or None."""
    return _order4_witnesses(group)[1]


@dataclass(frozen=True)
class ObstructionDemo:
    group: FiniteGroupSpec
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]]
    doubles: Optional[tuple[tuple[int, ...], tuple[int, ...]]]
    difference_order: Optional[int]
    witness_count: int
    transcript: tuple[str, ...]

    def describe(self) -> dict:
        return {
            "group": self.group.describe(),
            "witness": None if self.witness is None else [list(self.witness[0]), list(self.witness[1])],
            "doubles": None if self.doubles is None else [list(self.doubles[0]), list(self.doubles[1])],
            "difference_order": self.difference_order,
            "witness_count": self.witness_count,
            "transcript": list(self.transcript),
        }


def order4_obstruction_demo(orders: Sequence[int] = (4, 4)) -> ObstructionDemo:
    """Show why halving breaks down once order-4 elements are allowed.

    Searches the group for pairs g, h with 2g != 2h and 2g - 2h of order 2;
    for every such pair g - h necessarily has order 4.  The transcript
    features the standard generator pair when it qualifies (it does in
    Z4 (+) Z4), otherwise the first witness in lex order.  On a 4-free group
    the search comes up empty, matching the hypothesis of the colouring.
    """
    group = FiniteGroupSpec(tuple(orders))
    count, first = _order4_witnesses(group)
    lines = [
        f"group: direct sum of cyclic orders {list(group.orders)} ({group.size} elements)",
        "searching for pairs (g, h) with 2g != 2h and 2g - 2h of order 2 ...",
        f"witness pairs found: {count}",
    ]
    if first is None:
        lines.append(
            "no witness exists: the group is 4-free, so doubles that differ "
            "never differ by an order-2 element, and halving stays unambiguous."
        )
        return ObstructionDemo(group, None, None, None, 0, tuple(lines))

    # feature the generator pair if it qualifies, else the lex-first witness
    rank = len(group.orders)
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    featured = next(
        (
            (g, h)
            for gi, g in enumerate(units)
            for h in units[gi + 1 :]
            if _is_order4_witness(group, g, h)
        ),
        first,
    )
    g, h = featured
    u, v = group.double(g), group.double(h)
    diff = group.add(u, group.neg(v))
    gh = group.add(g, group.neg(h))
    gh_order = group.order_of(gh)
    if gh_order != 4:
        raise AssertionError("2(g-h) of order 2 must make g-h of order 4")
    lines += [
        f"featured witness: g = {g}, h = {h}",
        f"u = 2g = {u},  v = 2h = {v},  u != v",
        f"u - v = {diff} has order {group.order_of(diff)}",
        f"g - h = {gh} has order {gh_order}:",
        "halving u and v forced an element of order 4, so in a group that",
        "admits order-4 elements two distinct halvable elements can share a",
        "coset of the order-2 part and the halvability colour stops working.",
    ]
    return ObstructionDemo(
        group, featured, (u, v), group.order_of(diff), count, tuple(lines)
    )


# Documented sampling windows.  Every shipped sample passes the full-colour
# sweep with zero violations and the coset-uniqueness check; the *-layer
# samples produce violations when their layer is dropped.
SHIPPED_SAMPLES: dict[str, SampleSpec] = {
    "demo-default": SampleSpec(AmbientSignature((3, 5), 2, 1)),
    "depth-two": SampleSpec(
        AmbientSignature((3, 5), 2, 1),
        prufer_depth=2,
        q_numerator_bound=2,
        q_denominator_bound=2,
    ),
    "main-sweep": SampleSpec(
        AmbientSignature((3, 5), 2, 2),
        prufer_depth=2,
        q_numerator_bound=2,
        q_denominator_bound=2,
    ),
    "t-block": SampleSpec(AmbientSignature((), 2, 0)),
    "d-layer": SampleSpec(AmbientSignature((3,), 0, 0)),
    "y-layer": SampleSpec(AmbientSignature((), 0, 1), q_numerator_bound=2),
    "odd-square": SampleSpec(AmbientSignature((3, 3), 1, 0)),
    "integer-free": SampleSpec(
        AmbientSignature((), 1, 1, free_mode=INTEGER), q_numerator_bound=3
    ),
}
