"""Finite search for monochromatic pair sumsets {2x, 2y, x+y}.

Groups here are finite direct sums of cyclic groups, elements represented as
coordinate tuples.  ``find_mono_pair_sumset`` checks one colouring table;
``all_colourings_forced`` decides by backtracking whether *every* c-colouring
admits a monochromatic pair, and ``min_colours_avoiding`` finds the least c
for which some colouring avoids them.  The search keeps two masks per node,
takes its children's masks from a compiled per-depth kernel, and counts a
child none of whose colours leaves a live grandchild without descending.
Budget exhaustion is a distinct ``unknown`` verdict.

This module deliberately caps sumsets at |X| = 2 (the triple {2x, 2y, x+y}).
Forcing monochromatic X+X for larger X is known only in astronomically large
direct powers, far beyond exhaustive reach; the outputs here are finite data
points, not reproductions of any general claim.
"""

from __future__ import annotations

import functools
import math
from itertools import product
from typing import Optional

from .arith import DEFAULT_BUDGET, DEFAULT_GROUP_CAP, record, size_text

Elem = tuple[int, ...]
_UNROLL = 16  # terms a kernel writes out per mask, see _kernel

__all__ = [
    "DEFAULT_GROUP_CAP",
    "DEFAULT_BUDGET",
    "FiniteGroupSpec",
    "SearchResult",
    "MinColoursResult",
    "GroupTooLarge",
    "find_mono_pair_sumset",
    "all_colourings_forced",
    "min_colours_avoiding",
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
        return {"orders": list(self.orders), "size": self.size}


def find_mono_pair_sumset(
    group: FiniteGroupSpec,
    table: dict[Elem, int],
    cap: int = DEFAULT_GROUP_CAP,
) -> Optional[tuple[Elem, Elem]]:
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


def _witness_table(
    group: FiniteGroupSpec, witness: Optional[tuple[int, ...]]
) -> Optional[dict[Elem, int]]:
    """A search witness (one colour per element, lex order) keyed by element."""
    return None if witness is None else dict(zip(group.elements(), witness))


def _witness_json(
    group: FiniteGroupSpec, witness: Optional[tuple[int, ...]]
) -> Optional[dict[str, int]]:
    table = _witness_table(group, witness)
    return None if table is None else {str(list(e)): c for e, c in sorted(table.items())}


@record
class SearchResult:
    group: FiniteGroupSpec
    colours: int
    verdict: str  # "forced" | "not_forced" | "unknown"
    witness: Optional[tuple[int, ...]]  # colour per element, lex element order
    nodes: int

    def witness_table(self) -> Optional[dict[Elem, int]]:
        return _witness_table(self.group, self.witness)

    def describe(self) -> dict:
        return {
            "group": self.group.describe(),
            "colours": self.colours,
            "verdict": self.verdict,
            "witness": _witness_json(self.group, self.witness),
            "nodes": self.nodes,
        }


@functools.lru_cache(maxsize=1)
def _pair_constraints(group: FiniteGroupSpec) -> tuple[tuple[tuple, tuple[int, ...], tuple[int, ...]], ...]:
    """Per depth k = 0..n (lex element order, n = |G|), the pairs (a, b),
    a <= b, whose shared colour element k+1 may not take, split by whether
    they involve element k-1: (inside: b < k-1, r: each a paired with k-1,
    q: each a paired with k); the last two depths have none.

    A forbidden triple {2x, 2y, x+y} with sorted indices (a, b, m) is
    monochromatic exactly when m takes the colour a and b share; a triple
    (a, m, m) gives the pair (a, a).  Elements are mixed-radix indices, with
    one row of 2y and, per x, one row of x+y from rotated coordinate ranges.
    ``_kernel`` compiles a depth's split, evaluated one depth ahead.  Cached
    for the last group, so the colour counts of one ``min_colours_avoiding``
    run share one build; it clears this and ``_kernels``.
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
    return tuple(split)


@functools.lru_cache(maxsize=1)
def _kernels(group: FiniteGroupSpec) -> list:
    """Each depth's ``_kernel``, built on first use; cached like ``_pair_constraints``."""
    return [None] * (group.size + 1)


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
    split, kernels = _pair_constraints(group), _kernels(group)
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
class MinColoursResult:
    group: FiniteGroupSpec
    verdict: str  # "ok" | "unknown"
    count: Optional[int]
    witness: Optional[tuple[int, ...]]
    nodes: int

    def witness_table(self) -> Optional[dict[Elem, int]]:
        return _witness_table(self.group, self.witness)

    def describe(self) -> dict:
        return {
            "group": self.group.describe(),
            "verdict": self.verdict,
            "min_colours": self.count,
            "witness": _witness_json(self.group, self.witness),
            "nodes": self.nodes,
        }


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
        _kernels.cache_clear()
    raise AssertionError("injective colouring must avoid; unreachable")
