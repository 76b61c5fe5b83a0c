"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from fourfree.ambient import AmbientElement, AmbientSignature, element


def random_element(
    rng: random.Random,
    sig: AmbientSignature,
    depth: int = 2,
    q_num: int = 6,
    q_den: int = 4,
) -> AmbientElement:
    """Uniform-ish random element with bounded coordinates."""
    d = {}
    for i, p in enumerate(sig.prufer_factors):
        den = p ** rng.randint(0, depth)
        num = rng.randrange(den)
        if num:
            d[i] = Fraction(num, den)
    t = [rng.randrange(2) for _ in range(sig.s)]
    if sig.free_mode == "integer":
        q = [rng.randint(-q_num, q_num) for _ in range(sig.r)]
    else:
        q = [
            Fraction(rng.randint(-q_num, q_num), rng.randint(1, q_den))
            for _ in range(sig.r)
        ]
    return element(sig, d=d, t=t, q=q)


def det(matrix) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    a = [list(map(int, row)) for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("determinant requires a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@pytest.fixture
def rng():
    return random.Random(20250808)


@pytest.fixture
def mixed_signature():
    return AmbientSignature((3, 5, 3), s=2, r=2)
