"""Finite search for monochromatic pair sumsets {2x, 2y, x+y}.

Groups here are finite direct sums of cyclic groups, elements represented as
coordinate tuples.  ``find_mono_pair_sumset`` checks one colouring table;
``all_colourings_forced`` decides by backtracking whether *every* c-colouring
admits a monochromatic pair, and ``min_colours_avoiding`` finds the least c
for which some colouring avoids them.  The search keeps two masks per node,
takes its children's masks from a compiled per-depth kernel, and counts a
child none of whose colours leaves a live grandchild without descending.
Budget exhaustion is a distinct ``unknown`` verdict.  ``order4_obstruction_demo``
shows why halving, and with it the colouring, fails once order-4 elements exist.

This module deliberately caps sumsets at |X| = 2 (the triple {2x, 2y, x+y}).
Forcing monochromatic X+X for larger X is known only in astronomically large
direct powers, far beyond exhaustive reach; the outputs here are finite data
points, not reproductions of any general claim.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from itertools import product

from .arith import DEFAULT_BUDGET, DEFAULT_GROUP_CAP, describe_fields, record, size_text

Elem = tuple[int, ...]
_UNROLL = 16  # terms a kernel writes out per mask, see _kernel

__all__ = [
    "FiniteGroupSpec",
    "SearchResult",
    "MinColoursResult",
    "GroupTooLarge",
    "ObstructionDemo",
    "find_mono_pair_sumset",
    "all_colourings_forced",
    "min_colours_avoiding",
    "find_order4_witness",
    "order4_obstruction_demo",
]


class GroupTooLarge(ValueError):
    """Group size exceeds the cap for exhaustive operations."""


@record
class FiniteGroupSpec:
    """Direct sum of cyclic groups of the given orders."""

    orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(int(n) for n in self.orders))
        if any(n < 2 for n in self.orders):
            raise ValueError("cyclic orders must be >= 2")

    @property
    def size(self) -> int:
        return math.prod(self.orders)

    def elements(self) -> list[Elem]:
        return [tuple(e) for e in product(*(range(n) for n in self.orders))]

    def add(self, a: Elem, b: Elem) -> Elem:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))

    def neg(self, a: Elem) -> Elem:
        return tuple((-x) % n for x, n in zip(a, self.orders))

    def double(self, a: Elem) -> Elem:
        return self.add(a, a)

    def order_of(self, a: Elem) -> int:
        return math.lcm(1, *(n // math.gcd(x, n) for x, n in zip(a, self.orders)))

    def describe(self) -> dict:
        return {**describe_fields(self), "size": self.size}


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


def _order4_witnesses(group: FiniteGroupSpec) -> tuple[int, tuple[Elem, Elem] | None]:
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


def find_order4_witness(group: FiniteGroupSpec) -> tuple[Elem, Elem] | None:
    """First (lex) pair g < h with 2g != 2h and 2g - 2h of order 2, or None."""
    return _order4_witnesses(group)[1]


@record
class ObstructionDemo:
    group: FiniteGroupSpec
    witness: tuple[Elem, Elem] | None
    doubles: tuple[Elem, Elem] | None
    difference_order: int | None
    witness_count: int
    transcript: tuple[str, ...]

    describe = describe_fields


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


def find_mono_pair_sumset(
    group: FiniteGroupSpec,
    table: dict[Elem, int],
    cap: int = DEFAULT_GROUP_CAP,
) -> tuple[Elem, Elem] | None:
    """First (lex order) distinct x, y with col(2x) = col(2y) = col(x+y), or None."""
    if group.size > cap:
        raise GroupTooLarge(f"group size {size_text(group.size)} exceeds cap {cap}")
    elems = group.elements()
    missing = [e for e in elems if e not in table]
    if missing:
        raise ValueError(f"colouring table is not total: missing {missing[0]}")
    doubles = {e: table[group.double(e)] for e in elems}
    for i, x in enumerate(elems):
        cx = doubles[x]
        for y in elems[i + 1 :]:
            if doubles[y] == cx and table[group.add(x, y)] == cx:
                return (x, y)
    return None


class _Witnessed:
    """A search result's ``witness`` (a colour per element, lex order) keyed by
    element, and its report block with that table as ``witness``; no fields."""

    def witness_table(self) -> dict[Elem, int] | None:
        return None if self.witness is None else dict(zip(self.group.elements(), self.witness))

    def describe(self) -> dict:
        table = self.witness_table()
        witness = None if table is None else {str(list(e)): c for e, c in table.items()}
        return {**describe_fields(self), "witness": witness}


@record
class SearchResult(_Witnessed):
    group: FiniteGroupSpec
    colours: int
    verdict: str  # "forced" | "not_forced" | "unknown"
    witness: tuple[int, ...] | None  # colour per element, lex element order
    nodes: int


@functools.lru_cache(maxsize=1)
def _pair_constraints(group: FiniteGroupSpec) -> tuple[tuple, list]:
    """The split of ``group`` and a list to hold each depth's ``_kernel``.  Per
    depth k = 0..n (lex element order, n = |G|), the split holds the pairs
    (a, b), a <= b, whose shared colour element k+1 may not take, split by
    whether they involve element k-1: (inside: b < k-1, r: each a paired with
    k-1, q: each a paired with k); the last two depths have none.

    A forbidden triple {2x, 2y, x+y} with sorted indices (a, b, m) is
    monochromatic exactly when m takes the colour a and b share; a triple
    (a, m, m) gives the pair (a, a).  Elements are mixed-radix indices, with
    one row of 2y and, per x, one row of x+y from rotated coordinate ranges.
    ``_kernel`` compiles a depth's split, evaluated one depth ahead.  Cached
    for the last group, so the colour counts of one ``min_colours_avoiding``
    run share one build and its kernels; the run clears the cache.
    """
    n = group.size
    steps = [[j * math.prod(group.orders[i + 1 :]) for j in range(m)] for i, m in enumerate(group.orders)]
    double = list(map(sum, product(*([r[2 * j % len(r)] for j in range(len(r))] for r in steps))))
    pairs = [set() for _ in range(n + 2)]  # a * n + b, by the triple's last index m
    for i, (x, dx) in enumerate(zip(group.elements(), double)):
        sums = list(map(sum, product(*(r[xi:] + r[:xi] for r, xi in zip(steps, x)))))
        for dy, m in zip(double[i + 1 :], sums[i + 1 :]):
            a, b = (dx, dy) if dx <= dy else (dy, dx)
            if m < b:
                a, b, m = (a, m, b) if m >= a else (m, a, b)
            pairs[m].add(a * n + (a if b == m else b))
    split, idx = [], list(range(n))  # one int object per index keeps the split small
    for k in range(n + 1):
        codes, pairs[k + 1] = pairs[k + 1], None  # free each depth's codes once its split is built
        ab = [divmod(code, n) for code in sorted(codes)]
        inside = tuple((idx[a], idx[b]) for a, b in ab if b < k - 1)
        r = tuple(idx[a] for a, b in ab if b == k - 1)
        split.append((inside, r, tuple(idx[a] for a, b in ab if b == k)))
    return tuple(split), [None] * (n + 1)


def _kernel(k: int, inside: tuple, r: tuple[int, ...], q: tuple[int, ...]):
    """Depth k's split compiled into (A, R, QB, QR) of the colours ``bit``
    before k-1: P_k = A | R & bit[k-1], Q_k = QB | QR & bit[k-1], -1 is every
    colour.  Each mask ORs its first ``_UNROLL`` terms in one expression and
    loops over the rest.  A term written out costs about 11 us to compile and
    saves about 23 ns a call.  At 16 the search benchmark loops over 4% of its
    terms, and Z64xZ64's 4,097 kernels build in 0.7 s, against 1.0 s at 32 and
    1.8 s at 64; one expression of every term overflows the compiler there.
    The source holds only integer indices, so ``exec`` runs no outside text."""
    src, ns = ["def kernel(bit):"], {}
    for name, terms, term, var, full in (
        ("a", inside, "bit[%s] & bit[%s]", ("x", "y"), False),
        ("r", r, "bit[%s]", "x", k - 1 in r),
        ("qb", [a for a in q if a < k - 1], "bit[%s]", "x", k in q),
    ):
        src.append(f"    {name} = " + ("-1" if full else " | ".join(term % t for t in terms[:_UNROLL]) or "0"))
        if not full and len(terms) > _UNROLL:
            ns["t" + name] = tuple(terms[_UNROLL:])
            src.append(f"    for {', '.join(var)} in t{name}: {name} |= {term % var}")
    src.append(f"    return a, r, qb, {-1 if k - 1 in q else 0}")
    exec("\n".join(src), ns)
    return ns["kernel"]


def all_colourings_forced(
    group: FiniteGroupSpec,
    colours: int,
    budget: int = DEFAULT_BUDGET,
    cap: int = DEFAULT_GROUP_CAP,
) -> SearchResult:
    """Does every c-colouring admit a monochromatic pair sumset?

    Backtracks over colourings in lex element order, pruning as soon as a
    forbidden triple becomes monochromatic.  Colour-class permutations are
    canonicalized away (element k may only use colours 0..used+1), which is
    sound because the monochromatic condition is permutation-invariant.  The
    witness, when one exists, is the lex-least canonical avoiding colouring.
    A node at depth k holds P_k, the colours k+1 may not take whatever k
    takes, and Q_k, those it may not take if k takes them too, so colour b at
    k forbids P_k | (Q_k & b) to k+1.  The child's P and Q, A | (R & b) and
    QB | (QR & b), come from its depth's ``_kernel`` once per node.  Bit
    operations on them decide whether any colour of the child leaves a live
    grandchild; if none does, the child is counted without descending.
    ``budget`` caps the colour assignments tried, and every colour forbidden
    at its depth still counts as one tried; exceeding it yields ``unknown``.
    """
    if colours < 1:
        raise ValueError("colour count must be >= 1")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if group.size > cap:
        raise GroupTooLarge(f"group size {size_text(group.size)} exceeds cap {cap}")
    split, kernels = _pair_constraints(group)
    n = len(split) - 1
    width = [min(u + 1, colours) for u in range(min(colours, n) + 1)]  # colours open with u in use
    full = [(1 << w) - 1 for w in width]
    bit = [0] * n  # one-hot colour of each assigned element
    state = [None] * n  # per depth: colours in use and forbidden, P_k, Q_k, the children's A, R, QB, QR
    p, _, q, _ = _kernel(0, *split[0])(bit)  # the root's masks: it has no element k-1
    nodes = k = c = u = g = 0  # depth k, its next colour to try, its colours in use and forbidden
    a = None
    while True:
        limit = width[u]
        while c < limit:
            nodes += 1
            b = 1 << c
            if not g & b:
                if a is None:
                    kernels[k + 1] = kernel = kernels[k + 1] or _kernel(k + 1, *split[k + 1])
                    a, r, qb, qr = kernel(bit)
                    state[k] = u, g, p, q, a, r, qb, qr
                gc, pc, qc = p | q & b, a | r & b, qb | qr & b  # the child's forbidden colours and masks
                v = u + (c == u)
                o = full[v] & ~pc  # what a grandchild through a colour below v may take, before qc
                lo = full[v] & ~gc  # what the child may take; new: its new colour v, if open
                new = lo & 1 << v
                if o and (lo ^ new) & ~(0 if o & o - 1 else o & qc) or new and full[v + 1] & ~pc & ~(qc & new):
                    break  # a grandchild lives
                nodes += width[v] * (1 + (lo ^ new).bit_count()) + (width[v + 1] if new else 0)
            c += 1
        if nodes > budget:
            return SearchResult(group, colours, "unknown", None, budget)
        if c == limit:
            if k == 0:
                break
            k -= 1
            u, g, p, q, a, r, qb, qr = state[k]
            c = bit[k].bit_length()
            continue
        bit[k] = b
        k += 1
        if k == n:
            witness = tuple(x.bit_length() - 1 for x in bit)
            return SearchResult(group, colours, "not_forced", witness, nodes)
        u, g, p, q, a, c = v, gc, pc, qc, None, 0
    return SearchResult(group, colours, "forced", None, nodes)


@record
class MinColoursResult(_Witnessed):
    group: FiniteGroupSpec
    verdict: str  # "ok" | "unknown"
    min_colours: int | None
    witness: tuple[int, ...] | None
    nodes: int


def min_colours_avoiding(
    group: FiniteGroupSpec,
    budget: int = DEFAULT_BUDGET,
    cap: int = DEFAULT_GROUP_CAP,
) -> MinColoursResult:
    """Least c such that some c-colouring avoids all monochromatic pairs.

    Terminates by c = |G|: an injective colouring always avoids, since
    col(2x) = col(2y) = col(x+y) would force 2x = 2y = x+y and hence x = y.
    ``budget`` caps the colour assignments tried over the whole run, summed
    across colour counts; exceeding it yields verdict ``unknown``.  A negative
    budget or cap is rejected by the first search.
    """
    nodes = 0
    try:
        for c in range(1, group.size + 1):
            res = all_colourings_forced(group, c, budget=budget - nodes, cap=cap)
            nodes += res.nodes
            if res.verdict == "unknown":
                return MinColoursResult(group, "unknown", None, None, nodes)
            if res.verdict == "not_forced":
                return MinColoursResult(group, "ok", c, res.witness, nodes)
    finally:
        _pair_constraints.cache_clear()
    raise AssertionError("injective colouring must avoid; unreachable")
