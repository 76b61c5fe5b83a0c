"""Finitely presented abelian groups: Smith normal form and structure data.

A presentation is an integer relation matrix over a fixed generator count;
the group is Z^n modulo the row space.  Smith normal form diagonalizes the
relation matrix with unimodular transforms, giving invariant factors and the
canonical decomposition (free rank plus prime-power cyclic factors), from
which order-4 elements are detected.  ``adjoin_divisor`` performs the
one-step extension that makes a chosen element divisible by an odd prime
without introducing order-4 elements.

Canonical generators of a decomposition are ordered: primary factors first,
sorted by (prime, exponent), then the free generators.  Coordinate vectors
passed to :func:`element_order_in` (and to the embedding module) follow this
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

from .arith import factorize, identity_matrix, is_odd_prime, xgcd

__all__ = [
    "SNFResult",
    "Presentation",
    "CanonicalDecomposition",
    "smith_normal_form",
    "canonical_decomposition",
    "has_order_four",
    "adjoin_divisor",
    "element_order_in",
]

Matrix = Sequence[Sequence[int]]


@dataclass(frozen=True)
class SNFResult:
    """Unimodular U, V and diagonal S with U * A * V = S, d1 | d2 | ... ."""

    U: tuple[tuple[int, ...], ...]
    S: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]

    @property
    def diagonal(self) -> tuple[int, ...]:
        m = len(self.S)
        n = len(self.S[0]) if m else len(self.V)
        return tuple(self.S[i][i] for i in range(min(m, n)))

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(x for x in self.diagonal if x)


def smith_normal_form(A: Matrix, n_cols: Union[int, None] = None) -> SNFResult:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns S = U*A*V with nonnegative diagonal entries forming a divisibility
    chain.  Pivots are chosen by smallest nonzero absolute value.  Empty
    matrices are allowed; ``n_cols`` disambiguates the width of a matrix with
    no rows.
    """
    S = [list(map(int, row)) for row in A]
    m = len(S)
    n = len(S[0]) if m else int(n_cols or 0)
    if any(len(row) != n for row in S):
        raise ValueError("relation matrix is not rectangular")
    U = identity_matrix(m)
    V = identity_matrix(n)

    def add_row(dst, src, c):  # row_dst += c * row_src
        S[dst] = [x + c * y for x, y in zip(S[dst], S[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def combine_rows(r1, r2, x, y, u, v):
        # (row_r1, row_r2) <- (x*r1 + y*r2, u*r1 + v*r2); x*v - y*u = 1
        S[r1], S[r2] = (
            [x * p + y * q for p, q in zip(S[r1], S[r2])],
            [u * p + v * q for p, q in zip(S[r1], S[r2])],
        )
        U[r1], U[r2] = (
            [x * p + y * q for p, q in zip(U[r1], U[r2])],
            [u * p + v * q for p, q in zip(U[r1], U[r2])],
        )

    def add_col(dst, src, c):  # col_dst += c * col_src
        for row in S:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    def combine_cols(c1, c2, x, y, u, v):
        for row in S:
            p, q = row[c1], row[c2]
            row[c1], row[c2] = x * p + y * q, u * p + v * q
        for row in V:
            p, q = row[c1], row[c2]
            row[c1], row[c2] = x * p + y * q, u * p + v * q

    def swap_rows(a, b):
        S[a], S[b] = S[b], S[a]
        U[a], U[b] = U[b], U[a]

    def swap_cols(a, b):
        for row in S:
            row[a], row[b] = row[b], row[a]
        for row in V:
            row[a], row[b] = row[b], row[a]

    def negate_row(i):
        S[i] = [-x for x in S[i]]
        U[i] = [-x for x in U[i]]

    k = 0
    limit = min(m, n)
    while k < limit:
        # smallest nonzero |entry| in the trailing submatrix becomes the pivot
        best = 0
        pi = pj = -1
        for i in range(k, m):
            for j in range(k, n):
                v = abs(S[i][j])
                if v and (best == 0 or v < best):
                    best, pi, pj = v, i, j
        if best == 0:
            break
        if pi != k:
            swap_rows(pi, k)
        if pj != k:
            swap_cols(pj, k)
        if S[k][k] < 0:
            negate_row(k)

        # clear column and row k; each gcd step replaces the pivot by a
        # proper divisor, so the alternation terminates quickly
        while True:
            changed = False
            for i in range(k + 1, m):
                b = S[i][k]
                if b:
                    a = S[k][k]
                    if b % a == 0:
                        add_row(i, k, -(b // a))
                    else:
                        g, x, y = xgcd(a, b)
                        combine_rows(k, i, x, y, -(b // g), a // g)
                        changed = True
            for j in range(k + 1, n):
                b = S[k][j]
                if b:
                    a = S[k][k]
                    if b % a == 0:
                        add_col(j, k, -(b // a))
                    else:
                        g, x, y = xgcd(a, b)
                        combine_cols(k, j, x, y, -(b // g), a // g)
                        changed = True
            if not changed:
                break

        # pivot must divide everything that remains, so the chain holds
        pulled = False
        for i in range(k + 1, m):
            if any(S[i][j] % S[k][k] for j in range(k + 1, n)):
                add_row(k, i, 1)
                pulled = True
                break
        if pulled:
            continue
        k += 1

    freeze = lambda rows: tuple(tuple(row) for row in rows)
    return SNFResult(freeze(U), freeze(S), freeze(V))


@dataclass(frozen=True)
class Presentation:
    """Relation matrix over ``n_generators`` named generators."""

    n_generators: int
    relations: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if self.n_generators < 0:
            raise ValueError("generator count must be nonnegative")
        object.__setattr__(
            self, "relations", tuple(tuple(int(c) for c in row) for row in self.relations)
        )
        for row in self.relations:
            if len(row) != self.n_generators:
                raise ValueError(
                    f"relation {row} has length {len(row)}, expected {self.n_generators}"
                )


@dataclass(frozen=True)
class CanonicalDecomposition:
    """Free rank plus the multiset of prime-power cyclic factors.

    ``primary_factors`` holds (prime, exponent) pairs sorted ascending; each
    pair is one cyclic factor of order prime**exponent.
    """

    free_rank: int
    primary_factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "primary_factors",
            tuple(sorted((int(p), int(e)) for p, e in self.primary_factors)),
        )
        for p, e in self.primary_factors:
            if e < 1 or factorize(p) != [(p, 1)]:
                raise ValueError(f"{p}^{e} is not a prime power with positive exponent")

    @property
    def factor_orders(self) -> tuple[int, ...]:
        return tuple(p**e for p, e in self.primary_factors)

    @property
    def torsion_order(self) -> int:
        return math.prod(self.factor_orders)

    @property
    def n_generators(self) -> int:
        return len(self.primary_factors) + self.free_rank

    def describe(self) -> dict:
        return {
            "free_rank": self.free_rank,
            "primary_factors": [[p, e] for p, e in self.primary_factors],
            "torsion_order": self.torsion_order,
        }


def canonical_decomposition(pres: Presentation) -> CanonicalDecomposition:
    """Structure of the finitely presented group: free rank and primary factors."""
    snf = smith_normal_form(pres.relations, n_cols=pres.n_generators)
    diag = snf.diagonal
    rank = sum(1 for x in diag if x)
    factors = []
    for x in diag:
        if x > 1:
            factors.extend(factorize(x))
    return CanonicalDecomposition(pres.n_generators - rank, tuple(factors))


def has_order_four(dec: CanonicalDecomposition) -> bool:
    """True iff the group contains an element of order 4 (a factor 2^k, k >= 2)."""
    return any(p == 2 and e >= 2 for p, e in dec.primary_factors)


def adjoin_divisor(pres: Presentation, x: Sequence[int], prime: int) -> Presentation:
    """Adjoin a new generator y with prime*y = x, for an odd prime.

    The original group embeds in the result, x becomes divisible by the
    prime, and no order-4 element is introduced.
    """
    if not is_odd_prime(prime):
        raise ValueError(f"adjoined divisor must be an odd prime, got {prime}")
    x = tuple(int(c) for c in x)
    if len(x) != pres.n_generators:
        raise ValueError("x must be a coefficient vector over the generators")
    rows = [row + (0,) for row in pres.relations]
    rows.append(tuple(-c for c in x) + (prime,))
    return Presentation(pres.n_generators + 1, tuple(rows))


def element_order_in(
    dec: CanonicalDecomposition, coords: Sequence[int]
) -> Union[int, float]:
    """Order of the element with the given canonical coordinates.

    ``coords`` lists one integer per canonical generator: primary factors
    first (sorted order), then free generators.  Factor coordinates are
    reduced mod the factor order.
    """
    n_factors = len(dec.primary_factors)
    if len(coords) != n_factors + dec.free_rank:
        raise ValueError(
            f"expected {n_factors + dec.free_rank} coordinates, got {len(coords)}"
        )
    if any(coords[n_factors:]):
        return math.inf
    order = 1
    for (p, e), c in zip(dec.primary_factors, coords):
        pe = p**e
        order = math.lcm(order, pe // math.gcd(c % pe, pe))
    return order
