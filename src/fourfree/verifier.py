"""Exhaustive sweeps for the no-monochromatic-triple property.

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
A window is the product of its d codes, every t mask and its q codes, so a
:class:`Sample` keeps only its d and q codes and never expands the product.
The d and y layers of 2a and of a+b read only the d and q parts of a and b,
so the sweep works part by part, as lemmas (L_d) and (L_y) do: it matches
pairs of d parts and pairs of q parts separately, and a pair of cosets (d, q)
of the order-2 block is a hit only where both of its part pairs match (see
:func:`find_mono_triples`).  A window is counted from its parts, so one
without violations costs time in its distinct d and q parts and the pairs
within their groups, not in its |D| |Q| cosets.  An
:class:`~fourfree.ambient.AmbientElement` is built only for the double whose
colour names a violating bucket, and only that colour text calls the
colouring, which declares the layers the sweep compares with
:func:`~fourfree.colouring.reads_layers`; :meth:`Sample.coset_texts` writes a
violating bucket's cosets from per-part caches of strings, joining each
coset's shared d and q texts once and varying only the t text.
"""

from __future__ import annotations

import math
from collections import abc
from functools import cache
from fractions import Fraction
from itertools import combinations, product

from .ambient import INTEGER, AmbientElement, AmbientSignature
from .arith import DEFAULT_SAMPLE_CAP, describe_fields, record, size_text
from .colouring import Colour, colour, colour_encode, reads_layers

__all__ = [
    "DEFAULT_SAMPLE_CAP",
    "SampleSpec",
    "SampleCapExceeded",
    "TripleReport",
    "CosetReport",
    "enumerate_sample",
    "find_mono_triples",
    "check_coset_uniqueness",
    "constant_colour",
    "SHIPPED_SAMPLES",
]


class SampleCapExceeded(ValueError):
    """An exhaustive sample would exceed the configured element cap."""


@record
class SampleSpec:
    """Finite sampling window for one ambient signature.

    The window holds, once each, the elements whose Pruefer coordinate at a
    factor of prime p has denominator <= p^depth and whose free coordinates
    are reduced fractions n/m with |n| <= numerator bound and 1 <= m <=
    denominator bound (integers |n| <= bound in integer free mode).
    """

    signature: AmbientSignature
    prufer_depth: int = 1
    q_numerator_bound: int = 1
    q_denominator_bound: int = 1

    def __post_init__(self):
        if self.prufer_depth < 1 or self.q_numerator_bound < 1 or self.q_denominator_bound < 1:
            raise ValueError("sample bounds must be positive")

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

    describe = describe_fields


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
    elements.  A window with free coordinates is at least as large as its
    free-coordinate box, so the box is bounded too.

    Every base of the window's size is at least 2 (p >= 3, 2 per t bit, at
    least 3 box values), so it holds at least 2^floor elements, and a box with
    bounds b, d at least 2 max(b, d) + 1 values.  A size costly to count is
    left uncounted when its lower bound already exceeds the cap.  A negative
    cap is a ``ValueError``.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    sig = spec.signature
    b = spec.q_numerator_bound
    d = spec.q_den_bound
    box_floor = (2 * max(b, d) + 1).bit_length() - 1
    box_cheap = not sig.r or min(b, d) <= _COUNT_BOX
    floor = len(sig.prufer_factors) * spec.prufer_depth + sig.s + sig.r * box_floor
    cheap = box_cheap and floor <= _COUNT_BITS
    total = spec.cardinality() if cheap or floor < cap.bit_length() else None
    if total is None or total > cap:
        raise SampleCapExceeded(
            f"exhaustive sample has {size_text(total, floor)} elements, cap is {cap}"
        )


_Code = tuple[tuple[int, ...], int, tuple[int, ...]]


@record
class Sample(abc.Sequence):
    """An exhaustive window of ambient elements, held as integer codes (d, t, q).

    The window is the product of ``d_codes``, the t masks ``range(2**s)`` and
    ``q_codes``, in that order, and is never expanded.  d is the dense tuple
    of Pruefer numerators over ``M``, t the order-2 bits as a mask with the
    first bit highest, q the free numerators over ``L`` (1 in integer free
    mode, so a code's parity is its value's).  Distinct elements of the
    signature have distinct codes, and a part that names no element (a t mask
    outside [0, 2^s) too) raises ``ValueError`` when it is decoded.  Built by
    :func:`enumerate_sample`; two samples are equal when their signatures,
    ``M``, ``L`` and codes are.
    As a read-only sequence the sample yields its elements, and an index or a
    slice gives an element or a list of them: :meth:`element` decodes a code
    on demand, and equal parts of different elements are decoded once and
    shared; :meth:`coset_texts` writes the canonical texts of a coset of the
    order-2 block from texts written once per distinct part.
    """

    signature: AmbientSignature
    M: int
    L: int
    d_codes: tuple[tuple[int, ...], ...]
    q_codes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        sig, M, L = self.signature, self.M, self.L
        set_ = object.__setattr__

        def t_bits(t: int) -> tuple[int, ...]:
            if not 0 <= t < 1 << sig.s:
                raise ValueError(f"t mask {t} is not a mask of {sig.s} bits")
            return tuple((t >> k) & 1 for k in reversed(range(sig.s)))

        set_(self, "_d", cache(lambda d: tuple((i, Fraction(x, M)) for i, x in enumerate(d) if x)))
        set_(self, "_t", cache(t_bits))
        set_(self, "_q", cache(lambda q: tuple(Fraction(v, L) for v in q)))
        set_(self, "_texts", cache(self._part_text))

    @property
    def t_masks(self) -> range:
        return range(1 << self.signature.s)

    def element(self, code: _Code) -> AmbientElement:
        """The element with this code, built from the memoised decoded parts."""
        d, t, q = code
        return AmbientElement(self.signature, self._d(d), self._t(t), self._q(q))

    def coset_texts(self, d: tuple[int, ...], q: tuple[int, ...], ts: abc.Iterable[int]) -> dict[int, str]:
        """``{t: self.element((d, t, q)).canonical_text() for t in ts}``, joined
        from texts written once per distinct part: the coset's d and q texts are
        joined once and only the t text varies per element."""
        head, tail = self._texts(0, d) + ";", ";" + self._texts(2, q)
        return {t: head + self._texts(1, t) + tail for t in ts}

    def _part_text(self, k: int, part) -> str:
        """Part k of the text of the element with this part and zero elsewhere;
        the constructor checks each part on its own, so this validates the part."""
        code = [(0,) * len(self.signature.prufer_factors), 0, (0,) * self.signature.r]
        code[k] = part
        return self.element(tuple(code)).canonical_text().split(";")[k]

    def __len__(self) -> int:
        return len(self.d_codes) * len(self.t_masks) * len(self.q_codes)

    def __getitem__(self, index):
        ds, qs, n_t = self.d_codes, self.q_codes, len(self.t_masks)
        at = lambda i: self.element((ds[i // len(qs) // n_t], i // len(qs) % n_t, qs[i % len(qs)]))
        picked = range(len(self))[index]
        return list(map(at, picked)) if isinstance(index, slice) else at(picked)

    def __iter__(self):
        return map(self.element, product(self.d_codes, self.t_masks, self.q_codes))


def enumerate_sample(spec: SampleSpec, cap: int = DEFAULT_SAMPLE_CAP) -> Sample:
    """The sample described by ``spec``, coded straight from it.

    Each element of the box is yielded once, as the product of its d codes,
    t masks and q codes.  ``cap`` is checked (see :func:`_check_cap`) before
    anything is built, and the box is built only when there are free
    coordinates.  M is the lcm of the p**depth and L the lcm of the box's
    denominators, so every code of the window is integral.
    """
    _check_cap(spec, cap)
    sig = spec.signature
    depth_orders = [p**spec.prufer_depth for p in sig.prufer_factors]
    M = math.lcm(*depth_orders)
    box = spec.q_values() if sig.r else ()
    L = math.lcm(*{v.denominator for v in box})
    d_codes = tuple(product(*(range(0, M, M // n) for n in depth_orders)))
    q_codes = tuple(product([v.numerator * (L // v.denominator) for v in box], repeat=sig.r))
    return Sample(sig, M, L, d_codes, q_codes)


def _window(sample) -> Sample:
    if not isinstance(sample, Sample):
        raise TypeError(f"expected a Sample made by enumerate_sample, not {type(sample).__name__}")
    return sample


@reads_layers()
def constant_colour(a: AmbientElement):
    """Degenerate one-colour colouring; self-test harness for the sweep."""
    return 0


def _group(items, key) -> dict:
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return groups


def _partners(groups: dict, match) -> dict:
    """Each part with a partner: the other parts of its group that ``match(a, b, key)``."""
    partners: dict = {}
    for key, group in groups.items():
        for a, b in combinations(group, 2):
            if match(a, b, key):
                partners.setdefault(a, []).append(b)
                partners.setdefault(b, []).append(a)
    return partners


@record
class TripleReport:
    """Outcome of one pair sweep; violations in canonical text order."""

    size: int
    pairs: int
    n_buckets: int
    candidate_pairs: int
    violations: tuple[tuple[str, str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> dict:
        """The report block.  Its ``"violations"`` is a generator that makes
        each ``{"a", "b", "colour"}`` record only when it is reached, so the
        report writer holds one record at a time, not all of them."""
        return {
            "size": self.size,
            "distinct": self.size,  # equal on a window; leaves with report format v2
            "pairs": self.pairs,
            "n_buckets": self.n_buckets,
            "candidate_pairs": self.candidate_pairs,
            "n_violations": len(self.violations),
            "violations": ({"a": a, "b": b, "colour": c} for a, b, c in self.violations),
        }


def find_mono_triples(
    sample: Sample,
    colour_fn: abc.Callable[[AmbientElement], object] = colour,
) -> TripleReport:
    """Check every unordered pair a != b of a window for colour(2a) = colour(2b) = colour(a+b).

    Elements are bucketed by the layers of their double that ``colour_fn``
    declares (see :func:`~fourfree.colouring.reads_layers`; an undeclared
    callable raises ``TypeError``): the d parts of ``sample`` are grouped by
    the d layer of their doubles and its q parts by the y layer, and a bucket
    is a d group by a q group.  So a window's buckets and candidate pairs are
    counted from the group sizes.  a+b has the parts da + db and qa + qb, so
    the pairs of parts of a group whose sum keeps its key are found once per
    group, as (L_d) and (L_y) each work on one block; with h read in integer
    mode a q pair must also sum to even free codes.  Two cosets of a bucket
    are a hit when their d parts are equal or paired and so are their q
    parts, in both orientations, (da, qa) with (db, qb) and (da, qb) with
    (db, qa).  One coset is a hit only with h unread, as its a+b has t mask
    ta ^ tb != 0 and is not halvable; with h read only equal t masks of two
    cosets match.  Only the buckets that can hold a hit are built: memory
    follows the distinct parts and the violation records.
    ``sample`` must be a :class:`Sample` from :func:`enumerate_sample`;
    anything else raises ``TypeError``.
    """
    layers = getattr(colour_fn, "layers", None)
    if layers is None:
        raise TypeError(
            f"colouring {colour_fn!r} does not declare the layers it reads; "
            "decorate it with fourfree.colouring.reads_layers"
        )
    s = _window(sample)
    M, ts, n = s.M, s.t_masks, len(s)
    integer = s.signature.free_mode == INTEGER
    use_d, use_y, use_h = "d" in layers, "y" in layers, "h" in layers

    # The d and y layers of a sum of two parts, None where unread: a+b has the
    # d part da + db and the q part qa + qb, and 2a the parts da + da and qa + qa.
    # A bucket's key is the layers of its doubles; every double has t = 0 and
    # even free codes, so it is halvable and h never splits a bucket.
    d_sum = lambda a, b: tuple([v for x, y in zip(a, b) if (v := (x + y) % M)]) if use_d else None
    y_sum = lambda a, b: tuple([v for x, y in zip(a, b) if (v := x + y)]) if use_y else None
    d_keys, y_keys = cache(lambda d: d_sum(d, d)), cache(lambda q: y_sum(q, q))
    by_d, by_q = _group(s.d_codes, d_keys), _group(s.q_codes, y_keys)
    d_square, q_square = (sum([len(g) ** 2 for g in groups.values()]) for groups in (by_d, by_q))

    # (L_d) and (L_y) part by part: two parts of a group are partners when their
    # sum keeps the group's key and, with h read in integer mode, a+b's free
    # codes are even, as a halvable a+b needs.
    odd = lambda a, b: use_h and integer and any([(x + y) & 1 for x, y in zip(a, b)])
    d_partners = _partners(by_d, lambda a, b, key: d_sum(a, b) == key)
    q_partners = _partners(by_q, lambda a, b, key: y_sum(a, b) == key and not odd(a, b))
    # Build only the buckets with a hit: with h unread all of them, as a coset
    # of two t masks is a hit, else those with partners.
    if use_h:
        hot_d, hot_q = set(map(d_keys, d_partners)), set(map(y_keys, q_partners))
        keys = {*product(hot_d, by_q), *product(by_d, hot_q)}
    else:
        keys = product(by_d, by_q)

    violations = []
    for dk, qk in keys:
        hits = []
        for c in product(by_d[dk], by_q[qk]):
            da, qa = c
            if not use_h and len(ts) > 1:
                hits.append((c, c))
            if da in d_partners or qa in q_partners:
                for other in product((da, *d_partners.get(da, ())), (qa, *q_partners.get(qa, ()))):
                    if other > c:
                        hits.append((c, other))
        if not hits:
            continue
        d, q = hits[0][0]
        double = (tuple([2 * x % M for x in d]), 0, tuple([2 * v for v in q]))
        key = colour_fn(s.element(double))
        key_text = colour_encode(key) if isinstance(key, Colour) else repr(key)
        texts: dict = {}
        for a, b in hits:
            for c in (a, b):
                if c not in texts:
                    texts[c] = s.coset_texts(*c, ts).values()
            ta, tb = texts[a], texts[b]
            if a == b:
                pairs = combinations(ta, 2)
            elif use_h:
                pairs = zip(ta, tb)
            else:
                pairs = product(ta, tb)
            violations += [(x, y, key_text) if x < y else (y, x, key_text) for x, y in pairs]

    violations.sort()
    return TripleReport(
        size=n,
        pairs=n * (n - 1) // 2,
        n_buckets=len(by_d) * len(by_q),
        candidate_pairs=(len(ts) ** 2 * d_square * q_square - n) // 2,
        violations=tuple(violations),
    )


@record
class CosetReport:
    """Halvable-element census per coset of the order-2 block.

    ``offenders`` (cosets with two or more halvable elements, as element
    texts) is always empty on a window; it stays in reports until ROADMAP
    item 5 removes the block.
    """

    n_elements: int
    n_cosets: int
    n_halvable: int
    offenders: tuple[tuple[str, ...], ...]

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


def check_coset_uniqueness(sample: Sample) -> CosetReport:
    """Each coset of the order-2 block holds at most one halvable element.

    A window holds every t mask once in each of its |D| |Q| cosets (d, q), and
    a code is halvable when t = 0 and, in integer mode, its free codes are
    even; so the census reads only the parts, in O(|D| + |Q|).  ``offenders``
    is always empty on a window, as a coset holds t = 0 once; it stays in
    reports until ROADMAP item 5 removes the block.  The census checks the
    integer encoding, not lemma (L_h) on the group.
    ``sample`` must be a :class:`Sample` from :func:`enumerate_sample`;
    anything else raises ``TypeError``.
    """
    s = _window(sample)
    integer = s.signature.free_mode == INTEGER
    even = sum([not (integer and any([v & 1 for v in q])) for q in s.q_codes])
    return CosetReport(len(s), len(s.d_codes) * len(s.q_codes), len(s.d_codes) * even, ())


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
