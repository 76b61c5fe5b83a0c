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
depends only on the set of elements swept.

Inside a finite input every coordinate is an integer code.  A Pruefer
coordinate becomes its numerator over M, the lcm of all Pruefer denominators
in the input, and is added and doubled mod M; a free coordinate becomes its
numerator over L, the lcm of the free denominators; the order-2 block
becomes a bitmask.  Because each block shares one denominator, the tuple of
nonzero numerators of a block determines its profile exactly, halvability is
t == 0 (and, in integer free mode, every free code even), and bucketing, the
pair scan and the coset census run on ints and tuples only.  A colouring
states which layers it reads with :func:`~fourfree.colouring.reads_layers`;
the sweep compares exactly those layers, and calls the colouring itself only
to write the colour text of a violating bucket.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Optional, Sequence

from .ambient import (
    INTEGER,
    AmbientElement,
    AmbientSignature,
    SignatureMismatch,
)
from .arith import size_text
from .colouring import Colour, colour, colour_encode, reads_layers
from .sumset import Elem, FiniteGroupSpec

DEFAULT_SAMPLE_CAP = 100_000

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

    def q_values(self) -> tuple[Fraction, ...]:
        """Sorted free-coordinate box."""
        bound = self.q_numerator_bound
        if self.signature.free_mode == INTEGER:
            return tuple(Fraction(n) for n in range(-bound, bound + 1))
        values = {
            Fraction(n, m)
            for n in range(-bound, bound + 1)
            for m in range(1, self.q_denominator_bound + 1)
        }
        return tuple(sorted(values))

    def q_box_size(self) -> int:
        """``len(self.q_values())``, counted without building the box."""
        bound = self.q_numerator_bound
        if self.signature.free_mode == INTEGER:
            return 2 * bound + 1
        return 1 + 2 * _coprime_pairs(bound, self.q_denominator_bound)

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
    elements or draws from a free-coordinate box of more than ``cap`` values.

    Every base of the window's size is at least 2 (p >= 3, 2 per t bit, at
    least 3 box values), so it holds at least 2^floor elements, and a box with
    bounds b, d at least 2 max(b, d) + 1 values.  A size costly to count is
    left uncounted when its lower bound already exceeds the cap.
    """
    sig = spec.signature
    b = spec.q_numerator_bound
    d = 1 if sig.free_mode == INTEGER else spec.q_denominator_bound
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
    if sig.r:
        box = spec.q_box_size() if box_cheap or box_floor < cap.bit_length() else None
        if box is None or box > cap:
            raise SampleCapExceeded(
                f"free-coordinate box has {size_text(box, box_floor)} values, cap is {cap}"
            )


def enumerate_sample(
    spec: SampleSpec, cap: int = DEFAULT_SAMPLE_CAP
) -> list[AmbientElement]:
    """Materialize the sample described by ``spec``.

    Exhaustive mode yields each element of the box exactly once; random mode
    yields ``count`` uniform draws (duplicates possible), reproducible from
    the seed with a fixed draw order (Pruefer coordinates by index, then t
    bits, then free coordinates).  Either mode checks ``cap`` (see
    :func:`_check_cap`) before building anything, and builds the box only
    when free coordinates are drawn.
    """
    _check_cap(spec, cap)
    sig = spec.signature
    depth_orders = [p**spec.prufer_depth for p in sig.prufer_factors]
    q_box = spec.q_values() if sig.r else ()

    if spec.mode == "exhaustive":
        d_parts = [
            tuple(
                (i, Fraction(num, den))
                for i, (num, den) in enumerate(zip(d_num, depth_orders))
                if num
            )
            for d_num in product(*(range(n) for n in depth_orders))
        ]
        t_parts = list(product((0, 1), repeat=sig.s))
        q_parts = list(product(q_box, repeat=sig.r))
        return [
            AmbientElement(sig, d, t, q)
            for d in d_parts
            for t in t_parts
            for q in q_parts
        ]

    rng = random.Random(spec.seed)
    out = []
    for _ in range(spec.count):
        d = []
        for i, den in enumerate(depth_orders):
            num = rng.randrange(den)
            if num:
                d.append((i, Fraction(num, den)))
        t = [rng.randrange(2) for _ in range(sig.s)]
        q = [q_box[rng.randrange(len(q_box))] for _ in range(sig.r)]
        out.append(AmbientElement(sig, tuple(d), tuple(t), tuple(q)))
    return out


@reads_layers()
def constant_colour(a: AmbientElement):
    """Degenerate one-colour colouring; self-test harness for the sweep."""
    return 0


def _key_text(key) -> str:
    return colour_encode(key) if isinstance(key, Colour) else repr(key)


_Code = tuple[tuple[int, ...], int, tuple[int, ...]]


def _encode(elements: Sequence[AmbientElement]) -> tuple[dict[_Code, AmbientElement], int, bool]:
    """Integer codes of the distinct elements, the Pruefer modulus M, the free mode.

    Returns ``(codes, M, integer)``: ``codes`` maps each code (d, t, q) to the
    first input element with that code, in input order.  d is the dense
    tuple of Pruefer numerators over M, t the order-2 bits as a mask, q the
    free numerators over the lcm of the free denominators.  Distinct
    elements of one signature have distinct codes.
    """
    if not elements:
        return {}, 1, False
    sig = elements[0].signature
    if any(a.signature != sig for a in elements):
        raise SignatureMismatch("sample mixes elements of different signatures")
    # Each distinct part object is coded once: samples from enumerate_sample
    # share their d, t and q tuples, and the input keeps every part alive, so
    # no id is reused while these tables exist.
    d_parts = {id(a.d): a.d for a in elements}
    t_parts = {id(a.t): a.t for a in elements}
    q_parts = {id(a.q): a.q for a in elements}
    M = math.lcm(*{coord.denominator for d in d_parts.values() for _, coord in d})
    L = math.lcm(*{v.denominator for q in q_parts.values() for v in q})
    n_prufer = len(sig.prufer_factors)
    d_codes = {}
    for key, d in d_parts.items():
        dense = [0] * n_prufer
        for idx, coord in d:
            dense[idx] = coord.numerator * (M // coord.denominator)
        d_codes[key] = tuple(dense)
    t_codes = {key: sum(bit << k for k, bit in enumerate(t)) for key, t in t_parts.items()}
    q_codes = {
        key: tuple([v.numerator * (L // v.denominator) for v in q])
        for key, q in q_parts.items()
    }
    codes: dict[_Code, AmbientElement] = {}
    for a in elements:
        codes.setdefault((d_codes[id(a.d)], t_codes[id(a.t)], q_codes[id(a.q)]), a)
    return codes, M, sig.free_mode == INTEGER


@dataclass(frozen=True)
class TripleReport:
    """Outcome of one pair sweep; violations in canonical text order."""

    sample: Optional[dict]
    size: int
    distinct: int
    pairs: int
    n_buckets: int
    candidate_pairs: int
    violations: tuple[tuple[str, str, str], ...]
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self, include_timing: bool = True) -> dict:
        out = {
            "sample": self.sample,
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
        if include_timing:
            out["elapsed_s"] = self.elapsed_s
        return out


def find_mono_triples(
    elements: Sequence[AmbientElement],
    colour_fn: Callable[[AmbientElement], object] = colour,
    sample: Optional[dict] = None,
) -> TripleReport:
    """Check every unordered pair a != b for colour(2a) = colour(2b) = colour(a+b).

    Duplicate elements in the input are collapsed first (the pair condition
    is element-level).  Elements are bucketed by the layers of their double
    that ``colour_fn`` declares (see :func:`~fourfree.colouring.reads_layers`;
    an undeclared callable raises ``TypeError``); only pairs within a bucket
    can violate, and for those the layers of a+b are compared against the
    bucket's.
    """
    start = time.perf_counter()
    layers = getattr(colour_fn, "layers", None)
    if layers is None:
        raise TypeError(
            f"colouring {colour_fn!r} does not declare the layers it reads; "
            "decorate it with fourfree.colouring.reads_layers"
        )
    codes, M, integer = _encode(elements)
    use_d, use_y, use_h = "d" in layers, "y" in layers, "h" in layers

    # Keys hold the d and y layers of 2a, None where unread.  Every double
    # has t = 0 and even free codes, so it is halvable and h never splits a
    # bucket; with h read, a pair matches its bucket exactly when a + b is
    # halvable: equal t and, in integer mode, free codes of equal parity.
    uniq = list(codes.items())
    buckets: dict[tuple, list[int]] = {}
    for i, ((d, _, q), _) in enumerate(uniq):
        key = (
            tuple([v for x in d if (v := 2 * x % M)]) if use_d else None,
            tuple([2 * x for x in q if x]) if use_y else None,
        )
        buckets.setdefault(key, []).append(i)

    candidate_pairs = 0
    violations = []
    texts: dict[int, str] = {}

    def text(i: int) -> str:
        if i not in texts:
            texts[i] = uniq[i][1].canonical_text()
        return texts[i]

    for (d_key, y_key), members in buckets.items():
        candidate_pairs += len(members) * (len(members) - 1) // 2
        hits = []
        for pos, i in enumerate(members):
            da, ta, qa = uniq[i][0]
            for j in members[pos + 1 :]:
                db, tb, qb = uniq[j][0]
                if use_h and (ta != tb or integer and any((x + y) & 1 for x, y in zip(qa, qb))):
                    continue
                if use_y and tuple([v for x, y in zip(qa, qb) if (v := x + y)]) != y_key:
                    continue
                if use_d and tuple([v for x, y in zip(da, db) if (v := (x + y) % M)]) != d_key:
                    continue
                hits.append((i, j))
        if hits:
            key_text = _key_text(colour_fn(uniq[members[0]][1].double()))
            violations.extend((*sorted((text(i), text(j))), key_text) for i, j in hits)

    n = len(uniq)
    return TripleReport(
        sample=sample,
        size=len(elements),
        distinct=n,
        pairs=n * (n - 1) // 2,
        n_buckets=len(buckets),
        candidate_pairs=candidate_pairs,
        violations=tuple(sorted(violations)),
        elapsed_s=time.perf_counter() - start,
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
    """
    codes, _, integer = _encode(elements)
    cosets: dict[tuple, list[AmbientElement]] = {}
    for (d, t, q), a in codes.items():
        halvables = cosets.setdefault((d, q), [])
        if not t and not (integer and any(v & 1 for v in q)):
            halvables.append(a)
    offenders = [
        tuple(sorted(a.canonical_text() for a in halvables))
        for halvables in cosets.values()
        if len(halvables) > 1
    ]
    return CosetReport(
        n_elements=len(codes),
        n_cosets=len(cosets),
        n_halvable=sum(len(halvables) for halvables in cosets.values()),
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
