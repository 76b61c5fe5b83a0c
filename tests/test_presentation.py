"""Presentation tests: SNF properties, decompositions, order-4 detection, adjunction."""

import math
import random
from collections import Counter
from itertools import combinations, product

import pytest

from fourfree.arith import factorize
from fourfree.presentation import (
    CanonicalDecomposition,
    Presentation,
    adjoin_divisor,
    canonical_decomposition,
    element_order_in,
    has_order_four,
    smith_normal_form,
)

from conftest import det


def mat_mul(A, B):
    return [
        [sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
        for row in A
    ]


def check_snf(A, n_cols=None):
    """Assert the defining SNF properties; return the result."""
    res = smith_normal_form(A, n_cols=n_cols)
    m = len(A)
    n = len(A[0]) if m else (n_cols or 0)
    if m and n:
        lhs = mat_mul(mat_mul([list(r) for r in res.U], [list(r) for r in A]), [list(r) for r in res.V])
        assert lhs == [list(r) for r in res.S]
    assert abs(det(res.U)) == 1
    assert abs(det(res.V)) == 1
    diag = res.diagonal
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0 if a else b == 0
    # off-diagonal entries vanish
    for i in range(m):
        for j in range(n):
            if i != j:
                assert res.S[i][j] == 0
    return res


def minors_gcd(A, k):
    g = 0
    m, n = len(A), len(A[0])
    for rows in combinations(range(m), k):
        for cols in combinations(range(n), k):
            g = math.gcd(g, det([[A[i][j] for j in cols] for i in rows]))
    return g


def brute_force_orders(orders):
    """Multiset of element orders of (+) Z_n computed by repeated addition."""
    counts = Counter()
    for coords in product(*(range(n) for n in orders)):
        acc = coords
        steps = 1
        while any(acc):
            acc = tuple((a + b) % n for a, b, n in zip(acc, coords, orders))
            steps += 1
        counts[steps] += 1
    return counts


class TestSmithNormalForm:
    def test_identity(self):
        res = check_snf([[1, 0], [0, 1]])
        assert res.diagonal == (1, 1)

    def test_diag_2_3(self):
        # d1 = gcd of entries = 1, d1*d2 = |det| = 6
        res = check_snf([[2, 0], [0, 3]])
        assert res.diagonal == (1, 6)

    def test_4_6_2_8(self):
        # gcd of entries 2, |det| 20 -> (2, 10)
        res = check_snf([[4, 6], [2, 8]])
        assert res.diagonal == (2, 10)

    def test_empty_and_degenerate(self):
        assert smith_normal_form([], n_cols=0).diagonal == ()
        assert smith_normal_form([], n_cols=3).invariant_factors == ()
        assert smith_normal_form([[0, 0]], n_cols=2).invariant_factors == ()
        check_snf([[0, 0], [0, 0]])

    def test_rectangular(self):
        check_snf([[2, 4, 4]])
        check_snf([[2], [4], [4]])

    @pytest.mark.parametrize("A, U, S, V", [
        # demo 02
        ([[4, 6], [2, 8]], [[0, 1], [-1, 2]], [[2, 0], [0, 10]], [[1, -4], [0, 1]]),
        # 3 is no multiple of the pivot 2: the row xgcd branch
        ([[2, 4], [3, 5]], [[-1, 1], [3, -2]], [[1, 0], [0, 2]], [[1, -1], [0, 1]]),
        # 2 does not divide 3: the pull step, then the column xgcd branch
        ([[2, 0], [0, 3]], [[1, 1], [-3, -2]], [[1, 0], [0, 6]], [[-1, -3], [1, 2]]),
        # -4 is a negative multiple of the pivot 2: the row exact branch,
        # whose coefficients differ from those xgcd would give
        ([[2, 4], [-4, 3]], [[3, 1], [-31, -10]], [[1, 0], [0, 22]], [[-7, -15], [1, 2]]),
        # three entries tie for the smallest |entry|: the first in row-major order wins
        ([[2, 1, 3], [1, 4, 1]], [[1, 0], [4, -1]], [[1, 0, 0], [0, 1, 0]],
         [[0, -3, -11], [1, 0, 1], [0, 2, 7]]),
        # a zero row, and a zero column
        ([[0, 0], [2, 4], [6, 3]], [[0, -2, 1], [0, -15, 8], [1, 0, 0]],
         [[1, 0], [0, 18], [0, 0]], [[-2, 5], [-1, 2]]),
        ([[0, 3, 6], [0, 4, 2]], [[1, -2], [8, -15]],
         [[1, 0, 0], [0, 18, 0]], [[0, 0, 1], [-1, 2, 0], [-2, 5, 0]]),
    ])
    def test_transforms_pinned(self, A, U, S, V):
        # any unimodular U, V pass check_snf; these pin the pivot rule and
        # the order of the elementary operations
        res = check_snf(A)
        assert [list(r) for r in res.U] == U
        assert [list(r) for r in res.S] == S
        assert [list(r) for r in res.V] == V

    def test_random_property_suite(self):
        rng = random.Random(101)
        for _ in range(300):
            m = rng.randint(1, 6)
            n = rng.randint(1, 6)
            A = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
            check_snf(A)

    def test_invariant_factor_products_match_minor_gcds(self):
        rng = random.Random(202)
        for _ in range(150):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            facs = smith_normal_form(A).invariant_factors
            prod = 1
            for k, d in enumerate(facs, start=1):
                prod *= d
                assert minors_gcd(A, k) == prod


class TestCanonicalDecomposition:
    def test_free_group(self):
        dec = canonical_decomposition(Presentation(2))
        assert dec.free_rank == 2 and dec.primary_factors == ()

    def test_z4(self):
        dec = canonical_decomposition(Presentation(1, ((4,),)))
        assert dec.free_rank == 0 and dec.primary_factors == ((2, 2),)

    def test_z2_plus_z6(self):
        dec = canonical_decomposition(Presentation(2, ((2, 0), (0, 6))))
        assert dec.free_rank == 0
        assert dec.primary_factors == ((2, 1), (2, 1), (3, 1))
        assert dec.torsion_order == 12
        # brute-force census of the 12-element group agrees with the
        # decomposition: same multiset of element orders
        census = brute_force_orders([2, 6])
        dec_census = Counter()
        for coords in product(*(range(pe) for pe in dec.factor_orders)):
            dec_census[element_order_in(dec, list(coords) + [])] += 1
        assert census == dec_census

    def test_trivial_presentations(self):
        assert canonical_decomposition(Presentation(0)) == CanonicalDecomposition(0, ())
        dec = canonical_decomposition(Presentation(1, ((1,),)))
        assert dec.free_rank == 0 and dec.primary_factors == ()

    def test_invariant_under_shuffles_and_redundancy(self):
        rng = random.Random(303)
        for _ in range(100):
            n = rng.randint(1, 4)
            m = rng.randint(0, 4)
            rels = [tuple(rng.randint(-8, 8) for _ in range(n)) for _ in range(m)]
            base = canonical_decomposition(Presentation(n, tuple(rels)))

            shuffled = rels[:]
            rng.shuffle(shuffled)
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = [tuple(row[j] for j in perm) for row in shuffled]
            assert canonical_decomposition(Presentation(n, tuple(shuffled))) == base

            if rels:
                coeffs = [rng.randint(-2, 2) for _ in rels]
                extra = tuple(
                    sum(c * row[j] for c, row in zip(coeffs, rels)) for j in range(n)
                )
                assert (
                    canonical_decomposition(Presentation(n, tuple(rels) + (extra,)))
                    == base
                )


class TestHasOrderFour:
    def test_examples(self):
        assert not has_order_four(CanonicalDecomposition(0, ((2, 1), (2, 1))))
        assert not has_order_four(CanonicalDecomposition(3, ((2, 1), (2, 1))))
        assert has_order_four(CanonicalDecomposition(0, ((2, 2), (3, 1))))
        assert not has_order_four(CanonicalDecomposition(7, ((3, 5),)))

    def test_against_census_small(self):
        # every abelian group of torsion order <= 16
        for n in range(1, 17):
            for factors in all_abelian_groups(n):
                dec = CanonicalDecomposition(0, factors)
                census = brute_force_orders(dec.factor_orders or [1])
                assert has_order_four(dec) == (census.get(4, 0) > 0)


def all_abelian_groups(n):
    """All multisets of prime-power factors with product n."""
    def partitions(k):
        if k == 0:
            yield ()
            return
        for first in range(k, 0, -1):
            for rest in partitions(k - first):
                if not rest or first >= rest[0]:
                    yield (first,) + rest

    groups = [()]
    for p, e in factorize(n):
        new = []
        for part in partitions(e):
            for g in groups:
                new.append(g + tuple((p, k) for k in part))
        groups = new
    return [tuple(sorted(g)) for g in groups]


class TestAdjoinDivisor:
    def test_free_z_stays_free(self):
        # SNF of the 1x2 relation (-1, 3) has invariant factor 1
        pres = adjoin_divisor(Presentation(1), (1,), 3)
        assert pres.relations == ((-1, 3),)
        dec = canonical_decomposition(pres)
        assert dec.free_rank == 1 and dec.primary_factors == ()

    def test_z3_becomes_z9(self):
        pres = adjoin_divisor(Presentation(1, ((3,),)), (1,), 3)
        assert pres.relations == ((3, 0), (-1, 3))
        assert smith_normal_form(pres.relations).invariant_factors == (1, 9)
        dec = canonical_decomposition(pres)
        assert dec.free_rank == 0 and dec.primary_factors == ((3, 2),)

    def test_rejects_two_and_composites(self):
        with pytest.raises(ValueError):
            adjoin_divisor(Presentation(1), (1,), 2)
        with pytest.raises(ValueError):
            adjoin_divisor(Presentation(1), (1,), 9)

    def test_preserves_four_freeness_and_free_rank(self):
        rng = random.Random(404)
        done = 0
        while done < 300:
            n = rng.randint(1, 4)
            m = rng.randint(0, 4)
            pres = Presentation(
                n, tuple(tuple(rng.randint(-12, 12) for _ in range(n)) for _ in range(m))
            )
            dec = canonical_decomposition(pres)
            if has_order_four(dec):
                continue
            x = tuple(rng.randint(-6, 6) for _ in range(n))
            p = rng.choice([3, 5, 7])
            bigger = canonical_decomposition(adjoin_divisor(pres, x, p))
            assert not has_order_four(bigger)
            assert bigger.free_rank == dec.free_rank
            done += 1


class TestElementOrderIn:
    def test_zero_vector(self):
        dec = CanonicalDecomposition(1, ((2, 1), (3, 1)))
        assert element_order_in(dec, (0, 0, 0)) == 1

    def test_lcm(self):
        dec = CanonicalDecomposition(0, ((2, 1), (3, 1)))
        assert element_order_in(dec, (1, 1)) == 6

    def test_z9_coordinate_three(self):
        # 9 / gcd(3, 9) = 3; repeated addition of 3 mod 9 hits zero in 3 steps
        dec = CanonicalDecomposition(0, ((3, 2),))
        assert element_order_in(dec, (3,)) == 3
        acc, steps = 3, 1
        while acc % 9:
            acc += 3
            steps += 1
        assert steps == 3

    def test_infinite_when_free_coordinate(self):
        dec = CanonicalDecomposition(2, ((3, 1),))
        assert element_order_in(dec, (1, 0, 5)) == math.inf

    def test_matches_repeated_addition(self):
        rng = random.Random(505)
        dec = CanonicalDecomposition(0, ((2, 1), (3, 2), (5, 1)))
        orders = dec.factor_orders
        for _ in range(200):
            coords = tuple(rng.randrange(pe) for pe in orders)
            expected = element_order_in(dec, coords)
            acc, steps = coords, 1
            while any(acc):
                acc = tuple((a + b) % pe for a, b, pe in zip(acc, coords, orders))
                steps += 1
            assert steps == expected

    def test_length_mismatch(self):
        dec = CanonicalDecomposition(1, ((2, 1),))
        with pytest.raises(ValueError):
            element_order_in(dec, (1,))


@pytest.mark.parametrize("p", [1, 6, 9, 3215031751])
def test_decomposition_rejects_non_primes(p):
    with pytest.raises(ValueError, match="not a prime power"):
        CanonicalDecomposition(0, ((p, 1),))


def test_decomposition_certifies_a_large_prime_promptly():
    dec = CanonicalDecomposition(0, ((2**61 - 1, 1),))
    assert dec.torsion_order == 2**61 - 1
