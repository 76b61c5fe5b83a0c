"""Finite search for monochromatic pair sumsets {2x, 2y, x+y}.

Groups here are finite direct sums of cyclic groups, elements represented as
coordinate tuples.  ``find_mono_pair_sumset`` checks one colouring table;
``all_colourings_forced`` decides by backtracking whether *every* c-colouring
admits a monochromatic pair, and ``min_colours_avoiding`` finds the least c
for which some colouring avoids them.  The search ORs each prefix's colours
into two masks once per depth, decides every child's forbidden colours from
them in one step, and counts a dead child's colours as nodes tried without
descending.  Budget exhaustion is a distinct ``unknown`` verdict.

This module deliberately caps sumsets at |X| = 2 (the triple {2x, 2y, x+y}).
Forcing monochromatic X+X for larger X is known only in astronomically large
direct powers, far beyond exhaustive reach; the outputs here are finite data
points, not reproductions of any general claim.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product
from typing import Optional

from .arith import DEFAULT_BUDGET, DEFAULT_GROUP_CAP, size_text

Elem = tuple[int, ...]

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
def _pair_constraints(group: FiniteGroupSpec) -> tuple[tuple[tuple, tuple[int, ...], bool], ...]:
    """Per depth k (lex element order), the pairs (a, b) whose shared colour
    element k+1 may not take, split as (inside: a <= b < k, partners: each
    a < k paired with k, whether (k, k) is a pair); the last depth has none.

    A forbidden triple {2x, 2y, x+y} with sorted indices (a, b, m) is
    monochromatic exactly when m takes the colour a and b share; a triple
    (a, m, m) gives the pair (a, a).  Elements are mixed-radix indices, with
    one row of 2y and, per x, one row of x+y from rotated coordinate ranges.
    Cached for the last group, so the colour counts of one
    ``min_colours_avoiding`` run share one build; that run clears the cache.
    """
    n = group.size
    steps = [[j * math.prod(group.orders[i + 1 :]) for j in range(m)] for i, m in enumerate(group.orders)]
    double = list(map(sum, product(*([r[2 * j % len(r)] for j in range(len(r))] for r in steps))))
    pairs = [set() for _ in range(n + 1)]  # a * n + b, by the triple's last index m
    for i, (x, dx) in enumerate(zip(group.elements(), double)):
        sums = list(map(sum, product(*(r[xi:] + r[:xi] for r, xi in zip(steps, x)))))
        for dy, m in zip(double[i + 1 :], sums[i + 1 :]):
            a, b = (dx, dy) if dx <= dy else (dy, dx)
            if m < b:
                a, b, m = (a, m, b) if m >= a else (m, a, b)
            pairs[m].add(a * n + (a if b == m else b))
    split, idx = [], list(range(n))  # one int object per index keeps the split small
    for k in range(n):
        codes, pairs[k + 1] = pairs[k + 1], None  # free each depth's codes once its split is built
        ab = [divmod(code, n) for code in sorted(codes)]
        inside = tuple((idx[a], idx[b]) for a, b in ab if b < k)
        split.append((inside, tuple(idx[a] for a, b in ab if a < b == k), k * n + k in codes))
    return tuple(split)


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
    On entering depth k the search ORs the prefix's one-hot colours into two
    masks: P_k, the colours k+1 may not take whatever k takes, and Q_k, those
    it may not take if k takes them too.  A colour c at k then forbids
    P_k | (Q_k & 1 << c) to k+1; when that is every colour k+1 may use, the
    child is dead, and its colours are counted without descending.  ``budget``
    caps the colour assignments tried, and every colour forbidden at its depth
    still counts as one tried; exceeding it yields verdict ``unknown``.
    """
    if colours < 1:
        raise ValueError("colour count must be >= 1")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if group.size > cap:
        raise GroupTooLarge(f"group size {size_text(group.size)} exceeds cap {cap}")
    split = _pair_constraints(group)
    n = len(split)
    width = [min(u + 1, colours) for u in range(min(colours, n) + 1)]  # colours open with u in use
    full = [(1 << w) - 1 for w in width]  # full[-1]: every colour a depth may take
    bit = [0] * n  # one-hot colour of each assigned element
    state = [None] * n  # per depth: colours in use, colours forbidden, P_k, Q_k
    nodes = k = t = u = g = 0  # depth k, its next colour to try, its colours in use and forbidden
    while True:
        if t == 0:  # a new prefix: work out P_k and Q_k once
            if k == n:
                witness = tuple(x.bit_length() - 1 for x in bit)
                return SearchResult(group, colours, "not_forced", witness, nodes)
            inside, partners, self_pair = split[k]
            p = 0
            for a, b in inside:
                p |= bit[a] & bit[b]
            q = full[-1] if self_pair else 0
            for a in partners:
                q |= bit[a]
            state[k] = u, g, p, q
        u, f, p, q = state[k]
        limit = width[u]
        c = t
        while c < limit:
            nodes += 1
            b = 1 << c
            if not f & b:
                v = u + (c == u)
                g = p | q & b
                if g & full[v] != full[v]:
                    break
                nodes += width[v]  # a dead child: every colour it may use is forbidden
            c += 1
        if nodes > budget:
            return SearchResult(group, colours, "unknown", None, budget)
        if c == limit:
            if k == 0:
                break
            k -= 1
            t = bit[k].bit_length()
            continue
        bit[k] = b
        k += 1
        u, t = v, 0
    return SearchResult(group, colours, "forced", None, nodes)


@dataclass(frozen=True)
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
    raise AssertionError("injective colouring must avoid; unreachable")
