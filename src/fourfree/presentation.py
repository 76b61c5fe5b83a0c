"""Finitely presented abelian groups: Smith normal form and structure data.

A presentation is an integer relation matrix over a fixed generator count;
the group is Z^n modulo the row space.  Smith normal form diagonalizes the
relation matrix with unimodular transforms, giving invariant factors and the
canonical decomposition (free rank plus prime-power cyclic factors), from
which order-4 elements are detected.  An m x n matrix A is reduced inside
one bordered matrix [[A | I_m], [I_n | 0]], so each row operation carries U
along and each column operation carries V.  The transforms are kept in full
and never reduced, so their entries can grow quickly with the size of A.
``adjoin_divisor`` performs the one-step extension that makes a chosen
element divisible by an odd prime without introducing order-4 elements.

Canonical generators of a decomposition are ordered: primary factors first,
sorted by (prime, exponent), then the free generators.  Coordinate vectors
passed to :func:`element_order_in` (and to the embedding module) follow this
order.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .arith import describe_fields, factorize, is_odd_prime, is_prime, record, xgcd

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


@record
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


def smith_normal_form(A: Sequence[Sequence[int]], n_cols: int | None = None) -> SNFResult:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns S = U*A*V with nonnegative diagonal entries forming a divisibility
    chain.  Pivots are chosen by smallest nonzero absolute value.  Empty
    matrices are allowed; ``n_cols`` disambiguates the width of a matrix with
    no rows.
    """
    m = len(A)
    n = len(A[0]) if m else int(n_cols or 0)
    if any(len(row) != n for row in A):
        raise ValueError("relation matrix is not rectangular")
    # W = [[A | I_m], [I_n | 0]]: a row operation on the first m rows updates
    # S and U together, a column operation on the first n columns S and V.
    W = [[int(x) for x in row] + [int(i == j) for j in range(m)] for i, row in enumerate(A)]
    W += [[int(i == j) for j in range(n)] + [0] * m for i in range(n)]

    def add_row(dst, src, c):  # row_dst += c * row_src
        W[dst] = [x + c * y for x, y in zip(W[dst], W[src])]

    def combine_rows(r1, r2, x, y, u, v):
        # (row_r1, row_r2) <- (x*r1 + y*r2, u*r1 + v*r2); x*v - y*u = 1
        W[r1], W[r2] = (
            [x * p + y * q for p, q in zip(W[r1], W[r2])],
            [u * p + v * q for p, q in zip(W[r1], W[r2])],
        )

    def add_col(dst, src, c):  # col_dst += c * col_src
        for row in W:
            row[dst] += c * row[src]

    def combine_cols(c1, c2, x, y, u, v):
        for row in W:
            p, q = row[c1], row[c2]
            row[c1], row[c2] = x * p + y * q, u * p + v * q

    k = 0
    while k < min(m, n):
        # smallest nonzero |entry| in the trailing submatrix becomes the pivot
        best = 0
        pi = pj = -1
        for i in range(k, m):
            for j in range(k, n):
                v = abs(W[i][j])
                if v and (best == 0 or v < best):
                    best, pi, pj = v, i, j
        if best == 0:
            break
        W[pi], W[k] = W[k], W[pi]
        for row in W:
            row[pj], row[k] = row[k], row[pj]
        if W[k][k] < 0:
            W[k] = [-x for x in W[k]]

        # clear column and row k; each gcd step replaces the pivot by a
        # proper divisor, so the alternation terminates quickly
        while True:
            changed = False
            for i in range(k + 1, m):
                a, b = W[k][k], W[i][k]
                if b % a:
                    g, x, y = xgcd(a, b)
                    combine_rows(k, i, x, y, -(b // g), a // g)
                    changed = True
                elif b:
                    add_row(i, k, -(b // a))
            for j in range(k + 1, n):
                a, b = W[k][k], W[k][j]
                if b % a:
                    g, x, y = xgcd(a, b)
                    combine_cols(k, j, x, y, -(b // g), a // g)
                    changed = True
                elif b:
                    add_col(j, k, -(b // a))
            if not changed:
                break

        # pivot must divide everything that remains, so the chain holds;
        # otherwise pull the first offending row into the pivot row and repeat
        pivot = W[k][k]
        for i in range(k + 1, m):
            if any(W[i][j] % pivot for j in range(k + 1, n)):
                add_row(k, i, 1)
                break
        else:
            k += 1

    return SNFResult(
        tuple(tuple(row[n:]) for row in W[:m]),
        tuple(tuple(row[:n]) for row in W[:m]),
        tuple(tuple(row[:n]) for row in W[m:]),
    )


@record
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


@record
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
            if e < 1 or not is_prime(p):
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
        return {**describe_fields(self), "torsion_order": self.torsion_order}


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
) -> int | float:
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
