"""Finite search for monochromatic pair sumsets {2x, 2y, x+y}.

Groups here are finite direct sums of cyclic groups, elements represented as
coordinate tuples.  ``find_mono_pair_sumset`` checks one colouring table;
``all_colourings_forced`` decides by backtracking whether *every* c-colouring
admits a monochromatic pair, and ``min_colours_avoiding`` finds the least c
for which some colouring avoids them.  The search decides an element's
forbidden colours once per depth and skips them, each still counted as a node
tried.  Budget exhaustion is a distinct ``unknown`` verdict, never conflated
with forced/not forced.

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

from .arith import size_text

DEFAULT_GROUP_CAP = 4096
DEFAULT_BUDGET = 1_000_000

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
    "constant_colouring",
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


def constant_colouring(group: FiniteGroupSpec, colour: int = 0) -> dict[Elem, int]:
    return {e: colour for e in group.elements()}


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
def _pair_constraints(group: FiniteGroupSpec) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per element index k (lex order), the prefix pairs (a, b) whose shared
    colour k may not take.

    A forbidden triple {2x, 2y, x+y} with sorted indices (a, b, k) is
    monochromatic exactly when k takes the colour a and b share; a triple
    (a, k, k) gives the pair (a, a), since k may never take a's colour.
    Cached for the last group, so the colour counts of one
    ``min_colours_avoiding`` run share one build; that run clears the cache.
    """
    elems = group.elements()
    index = {e: i for i, e in enumerate(elems)}
    pairs = [set() for _ in elems]
    for i, x in enumerate(elems):
        dx = index[group.double(x)]
        for y in elems[i + 1 :]:
            a, b, k = sorted((dx, index[group.double(y)], index[group.add(x, y)]))
            pairs[k].add((a, a) if b == k else (a, b))
    return tuple(tuple(sorted(p)) for p in pairs)


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
    The colours element k may not take are worked out once, on entering
    depth k; the search then jumps to the next allowed colour.  ``budget``
    caps the colour assignments tried, and every colour skipped as forbidden
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
    pairs = _pair_constraints(group)
    n = len(pairs)
    assignment = [0] * n
    used = [0] * (n + 1)  # distinct colours among assignment[:k]
    forbidden = [0] * n  # bitmask of the colours k may not take, given assignment[:k]
    nodes = 0
    k = t = 0  # depth, and the first colour not yet tried there
    while True:
        u = used[k]
        limit = u + 1 if u < colours else colours
        f = forbidden[k]
        c = t
        while c < limit and f >> c & 1:
            c += 1
        # colours t..c-1 are forbidden and c, if below limit, is assigned:
        # every one of them counts as a node
        nodes += c - t + (c < limit)
        if nodes > budget:
            return SearchResult(group, colours, "unknown", None, budget)
        if c == limit:
            if k == 0:
                break
            k -= 1
            t = assignment[k] + 1
            continue
        assignment[k] = c
        if k == n - 1:
            return SearchResult(group, colours, "not_forced", tuple(assignment), nodes)
        k += 1
        used[k] = u + (c == u)
        f = 0
        for a, b in pairs[k]:
            if assignment[a] == assignment[b]:
                f |= 1 << assignment[a]
        forbidden[k] = f
        t = 0
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
