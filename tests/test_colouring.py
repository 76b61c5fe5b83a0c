"""Colouring tests: halvability, the three layers, encoding, and the layer lemmas."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourfree.ambient import (
    INTEGER,
    AmbientSignature,
    element,
    zero,
)
from fourfree.colouring import (
    Colour,
    NotHalvable,
    colour,
    colour_encode,
    colour_drop_d,
    colour_drop_halvable,
    colour_drop_y,
    halve,
    is_halvable,
)

from conftest import random_element

SIG = AmbientSignature((3, 5), s=2, r=2)
INT_SIG = AmbientSignature((3,), s=1, r=1, free_mode=INTEGER)


def doubles_of_grid(sig, depth=1, q_num=3, q_den=2):
    """Brute-force oracle: the set of all doubles over a bounded grid.

    The grid is wide enough that every halvable element of the inner box has
    its canonical half inside it, so membership decides halvability exactly.
    """
    per_factor = [
        [Fraction(j, p**depth) for j in range(p**depth)] for p in sig.prufer_factors
    ]
    if sig.free_mode == INTEGER:
        q_vals = [Fraction(n) for n in range(-q_num, q_num + 1)]
    else:
        q_vals = sorted(
            {
                Fraction(n, m)
                for n in range(-q_num, q_num + 1)
                for m in range(1, 2 * q_den + 1)
            }
        )
    out = set()
    for d_coords in product(*per_factor):
        d = {i: c for i, c in enumerate(d_coords) if c}
        for t in product((0, 1), repeat=sig.s):
            for q in product(q_vals, repeat=sig.r):
                out.add(element(sig, d=d, t=t, q=q).double())
    return out


class TestFreePart:
    """Adding a t-block element leaves the free part ``a.q`` unchanged."""

    def test_t_block_leaves_q_unchanged(self, rng):
        t_elem = element(SIG, t=(1, 1))
        for _ in range(100):
            a = random_element(rng, SIG)
            assert (a + t_elem).q == a.q


class TestIsHalvable:
    def test_rational_mode_only_needs_zero_t(self):
        a = element(SIG, d={0: Fraction(1, 3)}, q=(Fraction(7, 2), 0))
        assert is_halvable(a)

    def test_nonzero_t_blocks(self):
        assert not is_halvable(element(SIG, t=(1, 0)))

    def test_integer_mode_needs_even_q(self):
        assert not is_halvable(element(INT_SIG, q=(3,)))
        assert is_halvable(element(INT_SIG, q=(4,)))
        rat = AmbientSignature((), 0, 1)
        assert is_halvable(element(rat, q=(3,)))

    @pytest.mark.parametrize("sig,q_num,min_checked", [(SIG, 2, 1000), (INT_SIG, 3, 42)])
    def test_agrees_with_brute_force(self, sig, q_num, min_checked):
        doubles = doubles_of_grid(sig, depth=1, q_num=q_num, q_den=1)
        per_factor = [
            [Fraction(j, p) for j in range(p)] for p in sig.prufer_factors
        ]
        if sig.free_mode == INTEGER:
            q_vals = [Fraction(n) for n in range(-q_num, q_num + 1)]
        else:
            q_vals = [Fraction(n) for n in range(-q_num, q_num + 1)]
        checked = 0
        for d_coords in product(*per_factor):
            d = {i: c for i, c in enumerate(d_coords) if c}
            for t in product((0, 1), repeat=sig.s):
                for q in product(q_vals, repeat=sig.r):
                    a = element(sig, d=d, t=t, q=q)
                    assert is_halvable(a) == (a in doubles)
                    checked += 1
        assert checked >= min_checked


class TestHalve:
    def test_even_numerator(self):
        a = element(SIG, d={0: Fraction(2, 9)})
        assert halve(a) == element(SIG, d={0: Fraction(1, 9)})

    def test_odd_case_uses_inverse_of_two(self):
        # inverse of 2 mod 3 is 2, so half of 1/3 is 2/3; 2*(2/3) = 4/3 = 1/3
        a = element(SIG, d={0: Fraction(1, 3)})
        h = halve(a)
        assert h == element(SIG, d={0: Fraction(2, 3)})
        assert h.double() == a

    def test_not_halvable_raises(self):
        with pytest.raises(NotHalvable):
            halve(element(SIG, t=(1, 0)))

    def test_right_inverse_of_double(self, rng):
        for _ in range(300):
            a = random_element(rng, SIG)
            if is_halvable(a):
                assert halve(a).double() == a

    def test_halve_then_double_roundtrip_without_t(self, rng):
        sig = AmbientSignature((3, 7), s=0, r=2)
        for _ in range(300):
            a = random_element(rng, sig)
            assert halve(a.double()) == a

    def test_halve_of_double_zeroes_t(self, rng):
        for _ in range(100):
            a = random_element(rng, SIG)
            h = halve(a.double())
            assert h.d == a.d and h.q == a.q and not any(h.t)


class TestColour:
    def test_zero_colour(self):
        c = colour(zero(SIG))
        assert c == Colour((), (), True)

    def test_documented_example(self):
        a = element(
            SIG, d={0: Fraction(1, 9), 1: Fraction(2, 5)}, q=(0, Fraction(3, 2))
        )
        c = colour(a)
        assert c.d_profile == (Fraction(1, 9), Fraction(2, 5))
        assert c.y_profile == (Fraction(3, 2),)
        assert c.halvable

        cd = colour(a.double())
        assert cd.d_profile == (Fraction(2, 9), Fraction(4, 5))
        assert cd.y_profile == (Fraction(3),)
        assert cd.halvable


_VALUES = st.lists(st.fractions(min_value=-5, max_value=5).filter(lambda f: f != 0), max_size=4)
_COLOURS = st.builds(
    lambda d, y, h: Colour(tuple(d), tuple(y), h), _VALUES, _VALUES, st.booleans()
)


class TestColourEncoding:
    def test_zero_encoding_is_stable(self):
        assert colour_encode(colour(zero(SIG))) == "D[]|Y[]|H1"

    def test_documented_encoding(self):
        a = element(
            SIG, d={0: Fraction(1, 9), 1: Fraction(2, 5)}, q=(0, Fraction(3, 2))
        )
        assert colour_encode(colour(a)) == "D[1/9,2/5]|Y[3/2]|H1"

    def test_random_colours_have_distinct_texts(self, rng):
        texts = {}
        for _ in range(500):
            c = colour(random_element(rng, SIG))
            assert texts.setdefault(colour_encode(c), c) == c

    def test_injective_on_profile_grid(self):
        vals = [Fraction(1, 3), Fraction(2, 3), Fraction(1, 9)]
        colours = set()
        texts = set()
        for n_d in range(3):
            for d_vals in product(vals, repeat=n_d):
                for y_vals in product([Fraction(1), Fraction(-1, 2)], repeat=1):
                    for h in (False, True):
                        c = Colour(d_vals, y_vals, h)
                        colours.add(c)
                        texts.add(colour_encode(c))
        assert len(texts) == len(colours)

    @settings(max_examples=200)
    @given(_COLOURS, _COLOURS)
    def test_distinct_colours_have_distinct_texts(self, a, b):
        assert (colour_encode(a) == colour_encode(b)) == (a == b)


class TestLayerLemmas:
    @pytest.mark.parametrize("primes", [(3, 5), (3, 3)])
    def test_equal_d_profiles_of_doubles_force_equal_d(self, primes):
        # monochromatic first layer on {2a, 2b, a+b} pins the whole d part
        sig = AmbientSignature(primes)
        per_factor = [[Fraction(j, p) for j in range(p)] for p in primes]
        elems = [
            element(sig, d={i: c for i, c in enumerate(coords) if c})
            for coords in product(*per_factor)
        ]
        for a in elems:
            for b in elems:
                if (
                    a.double().d_profile()
                    == b.double().d_profile()
                    == (a + b).d_profile()
                ):
                    assert a == b

    def test_profile_of_double_ends_with_doubled_last_entry(self, rng):
        sig = AmbientSignature((3, 5, 7))
        for _ in range(500):
            a = random_element(rng, sig)
            if not a.d:
                continue
            last = a.d_profile()[-1]
            doubled = a.double().d_profile()
            assert doubled[-1] == (2 * last) % 1
            assert doubled[-1] != 0

    def test_unique_halvable_per_t_coset(self):
        sig = AmbientSignature((3,), s=2, r=1)
        elems = [
            element(sig, d={0: d} if d else None, t=t, q=(q,))
            for d in [0, Fraction(1, 3), Fraction(2, 3)]
            for t in product((0, 1), repeat=2)
            for q in [-1, 0, Fraction(1, 2)]
        ]
        halvable = [a for a in elems if is_halvable(a)]
        cosets = {(a.d, a.q) for a in elems}
        assert len(halvable) == len(cosets)  # exactly one per coset here
        for a in halvable:
            for b in halvable:
                if a != b:
                    assert (a.d, a.q) != (b.d, b.q)


class TestDroppedLayerKeys:
    def test_keys_differ_from_full_colour(self, rng):
        a = random_element(rng, SIG)
        full = colour(a)
        assert colour_drop_d(a) == ("y+h", full.y_profile, full.halvable)
        assert colour_drop_y(a) == ("d+h", full.d_profile, full.halvable)
        assert colour_drop_halvable(a) == ("d+y", full.d_profile, full.y_profile)

    def test_documented_example_text(self):
        # a dropped-layer key is written to reports as its repr: plain tuples of Fractions
        a = element(SIG, d={0: Fraction(1, 9), 1: Fraction(2, 5)}, q=(0, Fraction(3, 2)))
        assert repr(colour_drop_halvable(a.double())) == (
            "('d+y', (Fraction(2, 9), Fraction(4, 5)), (Fraction(3, 1),))"
        )
        assert repr(colour_drop_d(a.double())) == "('y+h', (Fraction(3, 1),), True)"
